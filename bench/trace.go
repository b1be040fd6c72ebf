package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the traced pass. Round is the master's
// round sequence number (warm-up rounds included) and doubles as the
// parent link: every span of round r is a child of the "round" span with
// Round == r, which is how the spans of one round share an identifier.
type span struct {
	Name       string
	Node       int
	Round      int
	Start, End time.Duration // since recorder.t0
}

func (s span) dur() time.Duration { return s.End - s.Start }

// ioCounters counts one node's socket calls. The fields are atomics because
// a node reads and writes its connections from several goroutines.
type ioCounters struct {
	writes, writeBytes, writeNS atomic.Int64
	reads, readBytes, readNS    atomic.Int64
	frames                      atomic.Int64
}

// ioSnapshot is a plain copy of ioCounters, so that two can be subtracted.
type ioSnapshot struct {
	writes, writeBytes, writeNS int64
	reads, readBytes, readNS    int64
	frames                      int64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(), writeNS: c.writeNS.Load(),
		reads: c.reads.Load(), readBytes: c.readBytes.Load(), readNS: c.readNS.Load(),
		frames: c.frames.Load(),
	}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{
		writes: a.writes - b.writes, writeBytes: a.writeBytes - b.writeBytes, writeNS: a.writeNS - b.writeNS,
		reads: a.reads - b.reads, readBytes: a.readBytes - b.readBytes, readNS: a.readNS - b.readNS,
		frames: a.frames - b.frames,
	}
}

func (a ioSnapshot) add(b ioSnapshot) ioSnapshot {
	return ioSnapshot{
		writes: a.writes + b.writes, writeBytes: a.writeBytes + b.writeBytes, writeNS: a.writeNS + b.writeNS,
		reads: a.reads + b.reads, readBytes: a.readBytes + b.readBytes, readNS: a.readNS + b.readNS,
		frames: a.frames + b.frames,
	}
}

// nodeTrace holds what the decorators record for one node. engine is
// appended only by the goroutine that drives the node's rounds; writes is
// shared by the node's connections and takes the lock.
type nodeTrace struct {
	engine []span
	io     ioCounters

	mu     sync.Mutex
	writes []span
}

// recorder keeps the traced pass's spans in memory; nothing is written
// until the run has ended.
type recorder struct {
	t0     time.Time
	nodes  []*nodeTrace
	rounds []span // master round spans, appended by the driver after each Train call

	// window is the offset at which the traced pass's current segment began,
	// or windowClosed between segments. Between its segments the traced
	// cluster sits idle while the other passes take their turns, and its
	// readers stay blocked in Read; readWait clips that idling away.
	window atomic.Int64
}

const windowClosed = -1

func (r *recorder) openWindow()  { r.window.Store(int64(time.Since(r.t0))) }
func (r *recorder) closeWindow() { r.window.Store(windowClosed) }

// readWait returns the part of a Read's duration that fell inside the
// current segment.
func (r *recorder) readWait(start, end time.Time) time.Duration {
	w := time.Duration(r.window.Load())
	if w == windowClosed {
		return 0
	}
	from := max(r.since(start), w)
	return max(r.since(end)-from, 0)
}

func newRecorder(nodes int) *recorder {
	r := &recorder{t0: time.Now(), nodes: make([]*nodeTrace, nodes)}
	r.closeWindow()
	for i := range r.nodes {
		r.nodes[i] = &nodeTrace{}
	}
	return r
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.t0) }

// addEngine records one PartialUpdate call. A node computes exactly one
// partial per round, in order, so the call index is the round number.
func (r *recorder) addEngine(node int, start, end time.Time) {
	nt := r.nodes[node]
	nt.engine = append(nt.engine, span{
		Name: "runtime.engine", Node: node, Round: len(nt.engine),
		Start: r.since(start), End: r.since(end),
	})
}

func (r *recorder) addWrite(node int, start, end time.Time) {
	nt := r.nodes[node]
	nt.mu.Lock()
	nt.writes = append(nt.writes, span{
		Name: "cosmicnet.write", Node: node, Round: -1,
		Start: r.since(start), End: r.since(end),
	})
	nt.mu.Unlock()
}

// addRounds reconstructs the master's round spans of one Train call from
// the round durations it returns: the master starts round r+1 the moment
// round r has folded, so the rounds tile the call back to back.
func (r *recorder) addRounds(callStart time.Time, durations []time.Duration) {
	at := r.since(callStart)
	for _, d := range durations {
		r.rounds = append(r.rounds, span{
			Name: "runtime.round", Node: 0, Round: len(r.rounds), Start: at, End: at + d,
		})
		at += d
	}
}

func (r *recorder) ioTotal() (all ioSnapshot, master ioSnapshot) {
	for i, nt := range r.nodes {
		s := nt.io.snapshot()
		all = all.add(s)
		if i == 0 {
			master = s
		}
	}
	return all, master
}

// slowestEngine returns, for each round in [from, to), the longest engine
// span across nodes: the node whose compute the round had to wait for.
func (r *recorder) slowestEngine(from, to int) []time.Duration {
	out := make([]time.Duration, 0, to-from)
	for round := from; round < to; round++ {
		var slowest time.Duration
		for _, nt := range r.nodes {
			if round < len(nt.engine) && nt.engine[round].dur() > slowest {
				slowest = nt.engine[round].dur()
			}
		}
		out = append(out, slowest)
	}
	return out
}

// engineDurations pools every node's engine spans of rounds [from, to).
func (r *recorder) engineDurations(from, to int) []time.Duration {
	var out []time.Duration
	for _, nt := range r.nodes {
		for round := from; round < to && round < len(nt.engine); round++ {
			out = append(out, nt.engine[round].dur())
		}
	}
	return out
}

// assignWriteRounds gives each write span the round whose span contains its
// start, so that it can name its parent in the trace file.
func (r *recorder) assignWriteRounds() {
	for _, nt := range r.nodes {
		for i := range nt.writes {
			w := &nt.writes[i]
			j := sort.Search(len(r.rounds), func(k int) bool { return r.rounds[k].End > w.Start })
			if j < len(r.rounds) && r.rounds[j].Start <= w.Start {
				w.Round = j
			}
		}
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON: one process
// per node, rounds on thread 0, engine calls on thread 1, socket writes on
// thread 2. Each child names its parent round in args.parent.
func (r *recorder) writeChromeTrace(path string) error {
	r.assignWriteRounds()
	var events []chromeEvent
	emit := func(s span, tid int) {
		args := map[string]any{"round": s.Round}
		if s.Name != "runtime.round" && s.Round >= 0 {
			args["parent"] = fmt.Sprintf("runtime.round/%d", s.Round)
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: s.Node, TID: tid, Args: args,
		})
	}
	for _, s := range r.rounds {
		emit(s, 0)
	}
	for _, nt := range r.nodes {
		for _, s := range nt.engine {
			emit(s, 1)
		}
		for _, s := range nt.writes {
			emit(s, 2)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
