package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"

	"gpufs"
	"gpufs/internal/simtime"
)

// The pipe-connected two-stage pipeline workload of ISSUE 7: a producer
// kernel on one GPU reads and transforms input files through the GPUfs
// API, streaming records through a gpipe (host-brokered, so the stages sit
// on DIFFERENT GPUs and run concurrently), while a consumer kernel on a
// second GPU assembles the records into one output file and syncs it.
// The pipe's bounded buffer provides backpressure in virtual time: a fast
// producer blocks once it is PipeCap bytes ahead of the consumer.

// producerGPU is the producer stage's device.
const producerGPU = 0

// PipelineConfig parameterizes RunPipeline.
type PipelineConfig struct {
	// Inputs are the producer's input files; Output is the consumer's
	// output path.
	Inputs []string
	Output string
	// ConsumerGPU is the consumer stage's device. The producer runs on GPU
	// 0, and the two must differ (kernel launches on one device serialize).
	ConsumerGPU int
	// PipeCap is the pipe's buffer capacity in bytes.
	PipeCap int
	// Blocks and Threads shape the producer kernel (the consumer runs one
	// assembly block).
	Blocks, Threads int
	// Granularity selects how producer blocks read their input: "warp"
	// issues one gpread_warp per block with one contiguous request per
	// thread (coalesced to one descriptor per warp); "thread" or "block"
	// (the default) issue plain greads.
	Granularity string
}

// PipelineResult is one pipeline run's outcome.
type PipelineResult struct {
	// BytesProduced and BytesConsumed are the payload volumes through the
	// pipe (equal on success).
	BytesProduced int64
	BytesConsumed int64
	// Records is the number of pipe records the consumer assembled.
	Records int64
	// WarpDescriptors is the producer GPU's gpread_warp descriptor count
	// (0 unless Granularity is "warp").
	WarpDescriptors int64
	// Elapsed is the virtual makespan over both kernels.
	Elapsed simtime.Duration
}

// pipeline record framing: offset into the output file + payload length,
// then the payload, all little-endian. Records are atomic in the pipe, so
// the consumer reassembles a clean stream regardless of producer
// interleaving.
const pipeRecHeader = 12

// maxPipeRecPayload bounds one record so several records fit in the pipe
// at once (backpressure stays fine-grained).
func maxPipeRecPayload(pipeCap int) int {
	p := pipeCap/4 - pipeRecHeader
	if p > 4096 {
		p = 4096
	}
	if p < 256 {
		p = 256
	}
	if p+pipeRecHeader > pipeCap {
		p = pipeCap - pipeRecHeader
	}
	return p
}

// RunPipeline executes the two-stage workload and verifies the output:
// the output file must be exactly the uppercased concatenation of the
// inputs.
func RunPipeline(sys *gpufs.System, cfg PipelineConfig) (*PipelineResult, error) {
	if sys.NumGPUs() < 2 {
		return nil, fmt.Errorf("serve: pipeline needs 2 GPUs, have %d", sys.NumGPUs())
	}
	if cfg.ConsumerGPU == producerGPU {
		return nil, fmt.Errorf("serve: pipeline stages must run on different GPUs (both %d)", producerGPU)
	}
	if len(cfg.Inputs) == 0 {
		return nil, fmt.Errorf("serve: pipeline needs at least one input")
	}
	if cfg.PipeCap < 512 {
		return nil, fmt.Errorf("serve: pipe capacity %d too small (min 512)", cfg.PipeCap)
	}
	if cfg.Blocks < 1 || cfg.Threads < 1 {
		return nil, fmt.Errorf("serve: invalid producer geometry %dx%d", cfg.Blocks, cfg.Threads)
	}
	switch cfg.Granularity {
	case "", "thread", "warp", "block":
	default:
		return nil, fmt.Errorf("serve: unknown pipeline granularity %q", cfg.Granularity)
	}

	// Precompute each input's offset in the concatenated output, host-side
	// (the launcher knows its inputs, as any CPU dispatcher would).
	offsets := make([]int64, len(cfg.Inputs)+1)
	for i, p := range cfg.Inputs {
		info, err := sys.Host().Stat(p)
		if err != nil {
			return nil, err
		}
		offsets[i+1] = offsets[i] + info.Size
	}
	total := offsets[len(cfg.Inputs)]

	// Pre-create the (empty) output so its parent directory exists before
	// the consumer's gopen(O_GWRONCE) — host-side setup, like staging the
	// inputs.
	if err := sys.WriteHostFile(cfg.Output, nil); err != nil {
		return nil, err
	}

	pipeName := "pipe:" + cfg.Output
	maxPayload := maxPipeRecPayload(cfg.PipeCap)
	res := &PipelineResult{}
	var mu sync.Mutex

	var wg sync.WaitGroup
	var prodEnd, consEnd simtime.Time
	var prodErr, consErr error

	// Producer: blocks stripe over the inputs; each block reads its files,
	// uppercases them, and streams framed records into the pipe. Every
	// producer block is one declared pipe writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prodEnd, prodErr = sys.GPU(producerGPU).Launch(0, cfg.Blocks, cfg.Threads,
			func(c *gpufs.BlockCtx) error {
				pd, err := c.GpipeOpen(pipeName, gpufs.PipeWriter, cfg.PipeCap, cfg.Blocks)
				if err != nil {
					return err
				}
				var produced int64
				for fi := c.Idx; fi < len(cfg.Inputs); fi += c.Blocks {
					n, err := pipelineProduceFile(c, cfg, cfg.Inputs[fi], offsets[fi], maxPayload, pd)
					if err != nil {
						return err
					}
					produced += n
				}
				if err := c.GpipeClose(pd, gpufs.PipeWriter); err != nil {
					return err
				}
				mu.Lock()
				res.BytesProduced += produced
				mu.Unlock()
				return nil
			})
		if prodErr != nil {
			// Unblock a consumer waiting on records that will never come.
			sys.Syscalls().BreakPipe(pipeName, prodErr)
		}
	}()

	// Consumer: one assembly block drains the pipe until EOF, writing each
	// record's payload at its framed offset (write-once, disjoint), then
	// syncs the output.
	wg.Add(1)
	go func() {
		defer wg.Done()
		consEnd, consErr = sys.GPU(cfg.ConsumerGPU).Launch(0, 1, cfg.Threads,
			func(c *gpufs.BlockCtx) error {
				pd, err := c.GpipeOpen(pipeName, gpufs.PipeReader, cfg.PipeCap, cfg.Blocks)
				if err != nil {
					return err
				}
				ofd, err := c.Gopen(cfg.Output, gpufs.O_GWRONCE)
				if err != nil {
					return err
				}
				scratch := make([]byte, 64<<10)
				var pending []byte
				var consumed, records int64
				for {
					n, err := c.GpipeRead(pd, scratch)
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					pending = append(pending, scratch[:n]...)
					for len(pending) >= pipeRecHeader {
						off := int64(binary.LittleEndian.Uint64(pending[0:8]))
						plen := int(binary.LittleEndian.Uint32(pending[8:12]))
						if len(pending) < pipeRecHeader+plen {
							break
						}
						payload := pending[pipeRecHeader : pipeRecHeader+plen]
						if _, err := c.Gwrite(ofd, payload, off); err != nil {
							return err
						}
						consumed += int64(plen)
						records++
						pending = pending[pipeRecHeader+plen:]
					}
				}
				if len(pending) != 0 {
					return fmt.Errorf("serve: pipeline stream ended mid-record (%d stray bytes)", len(pending))
				}
				if err := c.GpipeClose(pd, gpufs.PipeReader); err != nil {
					return err
				}
				if err := c.Gfsync(ofd); err != nil {
					return err
				}
				if err := c.Gclose(ofd); err != nil {
					return err
				}
				mu.Lock()
				res.BytesConsumed += consumed
				res.Records += records
				mu.Unlock()
				return nil
			})
		if consErr != nil {
			// Unblock producers waiting on space that will never free.
			sys.Syscalls().BreakPipe(pipeName, consErr)
		}
	}()
	wg.Wait()
	if prodErr != nil {
		return nil, fmt.Errorf("serve: pipeline producer: %w", prodErr)
	}
	if consErr != nil {
		return nil, fmt.Errorf("serve: pipeline consumer: %w", consErr)
	}
	if res.BytesProduced != total || res.BytesConsumed != total {
		return nil, fmt.Errorf("serve: pipeline moved %d produced / %d consumed bytes, want %d",
			res.BytesProduced, res.BytesConsumed, total)
	}
	_, _, res.WarpDescriptors = sys.GPU(producerGPU).FS().WarpStats()
	res.Elapsed = simtime.Duration(prodEnd)
	if consEnd > prodEnd {
		res.Elapsed = simtime.Duration(consEnd)
	}

	// Verify end to end: the output is the uppercased concatenation of the
	// inputs, byte for byte.
	out, err := sys.ReadHostFile(cfg.Output)
	if err != nil {
		return nil, err
	}
	if int64(len(out)) != total {
		return nil, fmt.Errorf("serve: pipeline output is %d bytes, want %d", len(out), total)
	}
	at := int64(0)
	for _, p := range cfg.Inputs {
		in, err := sys.ReadHostFile(p)
		if err != nil {
			return nil, err
		}
		want := strings.ToUpper(string(in))
		if string(out[at:at+int64(len(in))]) != want {
			return nil, fmt.Errorf("serve: pipeline output mismatch for input %q", p)
		}
		at += int64(len(in))
	}
	return res, nil
}

// pipelineProduceFile reads one input (at the configured granularity),
// uppercases it, and streams it into the pipe as framed records.
func pipelineProduceFile(c *gpufs.BlockCtx, cfg PipelineConfig, path string, base int64, maxPayload int, pd int64) (int64, error) {
	fd, err := c.Gopen(path, gpufs.O_RDONLY)
	if err != nil {
		return 0, err
	}
	info, err := c.Gfstat(fd)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, info.Size)
	if cfg.Granularity == "warp" {
		// One contiguous request per thread: warps coalesce to one
		// descriptor each.
		chunk := (info.Size + int64(c.Threads) - 1) / int64(c.Threads)
		var reqs []gpufs.WarpReq
		for t := 0; t < c.Threads; t++ {
			lo := int64(t) * chunk
			if lo >= info.Size {
				break
			}
			hi := lo + chunk
			if hi > info.Size {
				hi = info.Size
			}
			reqs = append(reqs, gpufs.WarpReq{Dst: buf[lo:hi], Off: lo})
		}
		if _, err := c.GpreadWarp(fd, reqs); err != nil {
			return 0, err
		}
	} else {
		if _, err := c.Gread(fd, buf, 0); err != nil {
			return 0, err
		}
	}
	if err := c.Gclose(fd); err != nil {
		return 0, err
	}

	// The transform: uppercase.
	for i, b := range buf {
		if b >= 'a' && b <= 'z' {
			buf[i] = b - 'a' + 'A'
		}
	}

	rec := make([]byte, pipeRecHeader+maxPayload)
	var sent int64
	for sent < info.Size {
		n := int64(maxPayload)
		if n > info.Size-sent {
			n = info.Size - sent
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(base+sent))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(n))
		copy(rec[pipeRecHeader:], buf[sent:sent+n])
		if _, err := c.GpipeWrite(pd, rec[:pipeRecHeader+n]); err != nil {
			return sent, err
		}
		sent += n
	}
	return sent, nil
}
