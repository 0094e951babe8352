package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: WriteJSON renders the retained events in the
// Trace Event Format understood by chrome://tracing and Perfetto, so GPUfs
// timelines — kernels, RPC retries, injected faults, and the serving
// layer's enqueue/batch/dispatch spans — can be inspected visually.
//
// Mapping: one trace "process" per GPU (host-side events, which carry
// GPU == -1, appear under a "host" process), one "thread" per threadblock
// plus one per RPC ring shard and one for the launch queue, timestamps and
// durations in microseconds of virtual time. Events with a zero-length span
// (faults, enqueues) become instant events.

// jsonEvent is one Chrome trace_event record.
type jsonEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// jsonDoc is the JSON Object Format variant of the trace file, which
// Perfetto and chrome://tracing both accept and which leaves room for
// metadata.
type jsonDoc struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// pid maps a GPU index to a trace process id. Chrome disallows negative
// pids, so the host pseudo-process (GPU == -1) maps to 0 and device i to
// i+1.
func pid(gpu int) int {
	if gpu < 0 {
		return 0
	}
	return gpu + 1
}

// shardTIDBase offsets RPC-lane thread ids above any plausible threadblock
// index, so per-shard lanes render as dedicated threads per process
// without colliding with block timelines.
const shardTIDBase = 1 << 10

// launchQueueTID is the launch queue's thread id: just under the shard
// lanes, so the rows that are not threadblocks sit together.
const launchQueueTID = shardTIDBase - 1

// tid maps an event to a trace thread id: shard-stamped events (RPC
// retries, shard-attributed faults) land on a per-shard lane, the serving
// layer's on the launch queue's; everything else stays on its threadblock's
// timeline.
func tid(e Event) int {
	switch {
	case e.Shard > 0:
		return shardTIDBase + e.Shard - 1
	case e.Block == LaunchQueue:
		return launchQueueTID
	}
	return e.Block
}

// laneName names a thread row that is not a threadblock's, or returns "".
func laneName(tid int) string {
	switch {
	case tid >= shardTIDBase:
		return fmt.Sprintf("rpc-shard-%d", tid-shardTIDBase)
	case tid == launchQueueTID:
		return "launch-queue"
	}
	return ""
}

// WriteJSON writes the retained events as Chrome trace_event JSON. The
// snapshot is taken once; concurrent recording continues unaffected.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Snapshot()
	doc := jsonDoc{DisplayTimeUnit: "ms", TraceEvents: make([]jsonEvent, 0, len(events)+8)}

	// Process-name metadata rows so the viewer labels timelines usefully.
	seen := make(map[int]bool)
	name := func(gpu int) string {
		if gpu < 0 {
			return "host"
		}
		return fmt.Sprintf("gpu%d", gpu)
	}
	for _, e := range events {
		if seen[e.GPU] {
			continue
		}
		seen[e.GPU] = true
		doc.TraceEvents = append(doc.TraceEvents, jsonEvent{
			Name:  "process_name",
			Cat:   "__metadata",
			Phase: "M",
			PID:   pid(e.GPU),
			Args:  map[string]any{"name": name(e.GPU)},
		})
	}

	// Thread-name metadata for the rows that are not threadblocks (RPC shard
	// lanes, launch queues), one per (process, row) that actually carries
	// events.
	seenLane := make(map[[2]int]bool)
	for _, e := range events {
		key := [2]int{e.GPU, tid(e)}
		lane := laneName(key[1])
		if lane == "" || seenLane[key] {
			continue
		}
		seenLane[key] = true
		doc.TraceEvents = append(doc.TraceEvents, jsonEvent{
			Name:  "thread_name",
			Cat:   "__metadata",
			Phase: "M",
			PID:   pid(e.GPU),
			TID:   key[1],
			Args:  map[string]any{"name": lane},
		})
	}

	for _, e := range events {
		je := jsonEvent{
			Name: e.Op.String(),
			Cat:  "gpufs",
			TS:   e.Start.Seconds() * 1e6,
			PID:  pid(e.GPU),
			TID:  tid(e),
			Args: map[string]any{"seq": e.Seq},
		}
		if e.Shard > 0 {
			je.Args["shard"] = e.Shard - 1
		}
		if e.Path != "" {
			je.Args["path"] = e.Path
		}
		if e.Bytes > 0 {
			je.Args["offset"] = e.Offset
			je.Args["bytes"] = e.Bytes
		}
		if e.Err != "" {
			je.Args["err"] = e.Err
		}
		if d := e.Duration(); d > 0 {
			je.Phase = "X"
			dur := d.Seconds() * 1e6
			je.Dur = &dur
		} else {
			je.Phase = "i"
			je.Scope = "t" // thread-scoped instant
		}
		doc.TraceEvents = append(doc.TraceEvents, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
