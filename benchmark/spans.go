package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// span is one benchmark-side record around a call into the program: a
// BlockCtx call, a kernel launch, a job or a burst. It carries both clocks
// and names its parent; the spans of one block or one job share an id.
// Spans inside the program are ROADMAP item 2, not this benchmark.
type span struct {
	name         string
	id           int    // block index or job number; -1 for a whole kernel or burst
	parent       string // name of the enclosing span, "" at the top
	vstart, vend simtime.Time
	hstart, hend time.Duration // host time since the recorder started
}

// recorder keeps the traced rep's spans in memory until the run ends.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	tracers []*trace.Tracer // the program's own tracers, one per machine
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) hostNow() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// chromeEvent is one Chrome trace_event record. Timestamps are virtual
// microseconds, so the benchmark's spans line up with the program's own
// events; the host clock rides in args.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// benchPID keeps the benchmark's spans in a trace process of their own,
// clear of the program's per-GPU processes.
const benchPID = 1000

// write renders the benchmark's spans and the program's traced events as
// one Chrome trace file.
func (r *recorder) write(path string) error {
	events := []json.RawMessage{}
	meta, _ := json.Marshal(map[string]any{
		"name": "process_name", "cat": "__metadata", "ph": "M", "pid": benchPID,
		"args": map[string]any{"name": "benchmark"},
	})
	events = append(events, meta)
	for _, s := range r.spans {
		ev, err := json.Marshal(chromeEvent{
			Name: s.name, Cat: "benchmark", Phase: "X",
			TS: vus(simtime.Duration(s.vstart)), Dur: vus(s.vend.Sub(s.vstart)),
			PID: benchPID, TID: s.id + 1,
			Args: map[string]any{
				"parent":      s.parent,
				"host_us":     float64(s.hstart) / 1e3,
				"host_dur_us": float64(s.hend-s.hstart) / 1e3,
			},
		})
		if err != nil {
			return err
		}
		events = append(events, ev)
	}
	for _, tr := range r.tracers {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			return err
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			return err
		}
		events = append(events, doc.TraceEvents...)
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
