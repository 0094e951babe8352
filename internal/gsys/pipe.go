package gsys

import (
	"errors"
	"fmt"
	"sync"

	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
)

// gpipe: bounded in-memory pipes between concurrently running kernels,
// brokered by the host daemon. A pipe lives in host memory (the kernels
// may be on different GPUs); records written by a producer kernel ride
// the request frame's inline payload and are DMA'd device-to-host, reads
// DMA host-to-device into the consumer's buffer.
//
// Blocking semantics are on VIRTUAL time, with the would-block protocol
// of a polling client: a write into a full pipe (or a read from an empty
// one) fails with ErrPipeFull/ErrPipeEmpty at the daemon, and the client
// re-polls — waiting in real time on the pipe's condition variable so the
// simulation makes progress, then advancing its block's virtual clock to
// the time the condition actually cleared (space freed at the freeing
// read's completion; data available at the filling write's DMA
// completion) before re-issuing. A consumer therefore never observes a
// byte before the virtual time its producer finished writing it, and a
// blocked producer resumes no earlier than the virtual time the consumer
// freed space.
//
// The create-before-use race on writer count is closed by declaration:
// every open of a pipe declares the same expected writer count, and EOF
// is "declared writers have all closed AND the buffer is drained" — a
// reader that arrives before any writer has attached blocks rather than
// seeing a premature EOF.

// Would-block and terminal pipe errors.
var (
	// ErrPipeFull is the would-block failure of a write into a pipe
	// without room for the whole record (writes are atomic, PIPE_BUF
	// style: a record is never split).
	ErrPipeFull = errors.New("gsys: pipe full (EAGAIN)")
	// ErrPipeEmpty is the would-block failure of a read from an empty
	// pipe that still has live writers.
	ErrPipeEmpty = errors.New("gsys: pipe empty (EAGAIN)")
	// ErrPipeClosed reports a write to a pipe whose declared writers
	// have all closed.
	ErrPipeClosed = errors.New("gsys: pipe closed for writing")
	// ErrPipeBroken reports a write to a pipe whose reader has closed:
	// the bytes can never be consumed (EPIPE).
	ErrPipeBroken = errors.New("gsys: broken pipe (EPIPE)")
)

// PipeMode selects the end of the pipe an open or close refers to.
type PipeMode uint8

// Pipe ends.
const (
	PipeReader PipeMode = iota
	PipeWriter
)

// pipeChunk is one atomically written record (or its unread tail), with
// the virtual time its bytes became available in host memory.
type pipeChunk struct {
	data    []byte
	availAt simtime.Time
}

// pipe is one named bounded pipe.
type pipe struct {
	mu   sync.Mutex
	cond *sync.Cond

	name string
	cap  int

	chunks   []pipeChunk
	buffered int

	writersDeclared int
	writersAttached int
	writersClosed   int

	// readerClosed marks the read side gone: further writes fail with
	// ErrPipeBroken instead of blocking on space that will never free.
	// broken is a terminal error forced on BOTH ends (BreakPipe) so a
	// stage that dies cannot strand its blocked peer.
	readerClosed bool
	broken       error

	// spaceAt is the virtual completion time of the last read that freed
	// space; closedAt that of the last writer close. They are the wake
	// hints a re-polling client advances its clock to.
	spaceAt  simtime.Time
	closedAt simtime.Time

	bytesIn  int64
	bytesOut int64
}

// pipeTable names and numbers the pipes of one Service.
type pipeTable struct {
	mu     sync.Mutex
	byName map[string]*pipe
	byID   map[int64]*pipe
	nextID int64
}

func (t *pipeTable) init() {
	t.byName = make(map[string]*pipe)
	t.byID = make(map[int64]*pipe)
	t.nextID = 1
}

func (t *pipeTable) open(name string, capBytes, writers int) (int64, *pipe, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.byName[name]; ok {
		if p.cap != capBytes || p.writersDeclared != writers {
			return 0, nil, fmt.Errorf("gsys: pipe %q exists with cap=%d writers=%d (asked cap=%d writers=%d)",
				name, p.cap, p.writersDeclared, capBytes, writers)
		}
		for id, q := range t.byID {
			if q == p {
				return id, p, nil
			}
		}
	}
	p := &pipe{name: name, cap: capBytes, writersDeclared: writers}
	p.cond = sync.NewCond(&p.mu)
	id := t.nextID
	t.nextID++
	t.byName[name] = p
	t.byID[id] = p
	return id, p, nil
}

func (t *pipeTable) get(id int64) (*pipe, error) {
	t.mu.Lock()
	p := t.byID[id]
	t.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("gsys: unknown pipe id %d", id)
	}
	return p, nil
}

// waitWritable blocks in REAL time until the pipe has room for an n-byte
// record, returning the virtual time the space was freed.
func (p *pipe) waitWritable(n int) simtime.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.cap-p.buffered < n && !p.readerClosed && p.broken == nil {
		p.cond.Wait()
	}
	return p.spaceAt
}

// waitReadable blocks in REAL time until the pipe has data or has hit
// EOF, returning the virtual time the condition cleared.
func (p *pipe) waitReadable() simtime.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.buffered == 0 && p.writersClosed < p.writersDeclared && p.broken == nil {
		p.cond.Wait()
	}
	if p.buffered > 0 {
		return p.chunks[0].availAt
	}
	return p.closedAt
}

func (s *Service) sysPipeOpen(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	mode, capBytes, writers := PipeMode(c.fr.Args[0]), int(c.fr.Args[1]), int(c.fr.Args[2])
	if capBytes <= 0 {
		return 0, fmt.Errorf("gsys: pipe capacity must be positive, got %d", capBytes)
	}
	if writers < 0 {
		return 0, fmt.Errorf("gsys: negative declared writer count %d", writers)
	}
	id, p, err := s.pipes.open(c.fr.Path, capBytes, writers)
	if err != nil {
		return 0, err
	}
	if mode == PipeWriter {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.writersAttached >= p.writersDeclared {
			return 0, fmt.Errorf("gsys: pipe %q already has its %d declared writer(s)", p.name, p.writersDeclared)
		}
		p.writersAttached++
	}
	c.reply.FD = id
	return 0, nil
}

func (s *Service) sysPipeWrite(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	p, err := s.pipes.get(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	n := len(c.fr.Data)
	if n == 0 {
		return 0, nil
	}
	if n > p.cap {
		return 0, fmt.Errorf("gsys: %d-byte record exceeds pipe %q capacity %d", n, p.name, p.cap)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return 0, p.broken
	}
	if p.readerClosed {
		return 0, ErrPipeBroken
	}
	if p.writersClosed >= p.writersDeclared {
		return 0, ErrPipeClosed
	}
	if p.cap-p.buffered < n {
		c.reply.WaitAt = p.spaceAt
		return 0, ErrPipeFull
	}
	// The record's bytes land in host memory when the D2H transfer of the
	// frame payload completes; a reader consuming this chunk can finish
	// no earlier.
	done := c.rpc.Link().Charge(cclk.Now(), pcie.DeviceToHost, int64(n))
	p.chunks = append(p.chunks, pipeChunk{data: append([]byte(nil), c.fr.Data...), availAt: done})
	p.buffered += n
	p.bytesIn += int64(n)
	p.cond.Broadcast()
	c.reply.N = n
	return done, nil
}

func (s *Service) sysPipeRead(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	p, err := s.pipes.get(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	dst := c.dsts[0]
	if len(dst) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return 0, p.broken
	}
	if p.buffered == 0 {
		if p.writersClosed >= p.writersDeclared {
			c.reply.EOF = true
			done := p.closedAt
			if now := cclk.Now(); now > done {
				done = now
			}
			return done, nil
		}
		return 0, ErrPipeEmpty
	}
	n := 0
	var avail simtime.Time
	for n < len(dst) && len(p.chunks) > 0 {
		ch := &p.chunks[0]
		take := len(ch.data)
		if take > len(dst)-n {
			take = len(dst) - n
		}
		copy(dst[n:n+take], ch.data[:take])
		n += take
		if ch.availAt > avail {
			avail = ch.availAt
		}
		if take == len(ch.data) {
			p.chunks = p.chunks[1:]
		} else {
			ch.data = ch.data[take:]
		}
	}
	p.buffered -= n
	p.bytesOut += int64(n)
	start := cclk.Now()
	if avail > start {
		start = avail // cannot consume bytes before their write landed
	}
	done := c.rpc.Link().Charge(start, pcie.HostToDevice, int64(n))
	if done > p.spaceAt {
		p.spaceAt = done // space frees when the consuming DMA drained it
	}
	p.cond.Broadcast()
	c.reply.N = n
	return done, nil
}

func (s *Service) sysPipeClose(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	p, err := s.pipes.get(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if PipeMode(c.fr.Args[1]) == PipeWriter {
		if p.writersClosed >= p.writersDeclared {
			return 0, ErrPipeClosed
		}
		p.writersClosed++
		if now := cclk.Now(); now > p.closedAt {
			p.closedAt = now
		}
	} else {
		p.readerClosed = true
	}
	p.cond.Broadcast()
	return 0, nil
}

// BreakPipe forces a terminal error on the named pipe, waking and
// failing every blocked or future operation on either end. Harnesses
// call it when one stage of a pipeline dies, so the surviving stage
// unblocks with the stage's error instead of hanging on virtual-time
// backpressure forever.
func (s *Service) BreakPipe(name string, err error) {
	s.pipes.mu.Lock()
	p := s.pipes.byName[name]
	s.pipes.mu.Unlock()
	if p == nil {
		return
	}
	if err == nil {
		err = ErrPipeBroken
	}
	p.mu.Lock()
	p.broken = err
	p.cond.Broadcast()
	p.mu.Unlock()
}
