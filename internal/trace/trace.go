// Package trace captures and replays block-I/O traces from simulator
// runs. A Recorder attached to a workload collects one Event per
// completed I/O; traces round-trip through a compact CSV form, and a
// Replayer re-issues a trace against any system — the standard tooling a
// storage-characterization study grows next (replaying production traces
// against candidate devices).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Event is one completed I/O.
type Event struct {
	Issue   sim.Time // issue time (virtual)
	Write   bool
	Offset  int64
	Len     int
	Latency sim.Time
}

// Recorder accumulates events in issue order.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event.
func (r *Recorder) Record(e Event) { r.events = append(r.events, e) }

// Events returns the recorded events (shared slice; callers must not
// mutate).
func (r *Recorder) Events() []Event { return r.events }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteCSV emits the trace as CSV: issue_ns,op,offset,len,latency_ns.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("issue_ns,op,offset,len,latency_ns\n"); err != nil {
		return err
	}
	for _, e := range r.events {
		op := "R"
		if e.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d,%d\n",
			int64(e.Issue), op, e.Offset, e.Len, int64(e.Latency)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Latency values are
// optional on input (a replay target re-measures them).
func ReadCSV(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "issue_ns") || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: want at least 4 fields, got %d", line, len(fields))
		}
		issue, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad issue time: %v", line, err)
		}
		var write bool
		switch strings.ToUpper(strings.TrimSpace(fields[1])) {
		case "R":
			write = false
		case "W":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, fields[1])
		}
		off, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad offset: %v", line, err)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad length: %v", line, err)
		}
		ev := Event{Issue: sim.Time(issue), Write: write, Offset: off, Len: n}
		if len(fields) >= 5 && fields[4] != "" {
			lat, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad latency: %v", line, err)
			}
			ev.Latency = sim.Time(lat)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Target is anything that accepts block I/O (a core.Graph satisfies it).
type Target interface {
	Submit(write bool, offset int64, length int, done func())
}

// Engine schedules replay events (sim.Engine satisfies it).
type Engine interface {
	Now() sim.Time
	At(t sim.Time, fn func()) sim.EventRef
}

// Replay issues the trace against target with its original timing
// (open-loop: each I/O fires at its recorded issue time, regardless of
// completions) and records the new latencies into out (which may be
// nil). It returns the number of I/Os that will be issued; the caller
// runs the engine to completion.
//
// Scheduling is chained: each replay event schedules the next, so the
// engine's heap holds one pending trace event (plus the in-flight I/Os)
// at a time instead of one entry per trace line — a million-I/O trace
// costs O(in-flight) heap, not O(trace). Issue times that run backwards
// are clamped to the current instant rather than panicking the engine.
func Replay(eng Engine, target Target, events []Event, out *Recorder) int {
	if len(events) == 0 {
		return 0
	}
	r := &replayer{eng: eng, target: target, events: events, out: out, base: eng.Now()}
	r.stepFn = r.step
	r.schedule()
	return len(events)
}

type replayer struct {
	eng    Engine
	target Target
	events []Event
	out    *Recorder
	base   sim.Time
	idx    int
	stepFn func() // bound once: chaining allocates no per-event closure
}

// schedule arms the event at r.idx.
func (r *replayer) schedule() {
	t := r.base + r.events[r.idx].Issue
	if now := r.eng.Now(); t < now {
		t = now
	}
	r.eng.At(t, r.stepFn)
}

// step issues the current trace event and chains the next one. The next
// arrival is scheduled before the submission so that, at equal
// timestamps, the replayed request stream keeps firing ahead of the
// completion machinery the submission schedules.
func (r *replayer) step() {
	e := r.events[r.idx]
	r.idx++
	if r.idx < len(r.events) {
		r.schedule()
	}
	start := r.eng.Now()
	r.target.Submit(e.Write, e.Offset, e.Len, func() {
		if r.out != nil {
			r.out.Record(Event{
				Issue:   start - r.base,
				Write:   e.Write,
				Offset:  e.Offset,
				Len:     e.Len,
				Latency: r.eng.Now() - start,
			})
		}
	})
}
