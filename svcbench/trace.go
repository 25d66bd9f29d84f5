package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation (an epoch, a build) share Op; Parent is
// the enclosing span, 0 only for the run's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels span id once the call has shown which path it took.
func (t *tracer) rename(id int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// medianMS is the median duration of the spans called name, in
// milliseconds; 0 when the run made no such call.
func (t *tracer) medianMS(name string) float64 {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return float64(ds[(len(ds)-1)/2]) / 1e6
}

// sumByOp totals, per operation, the durations of the spans whose name is
// in names.
func (t *tracer) sumByOp(names ...string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) {
			sums[s.Op] += s.dur()
		}
	}
	return sums
}

// selfTime is the per-name rollup: calls, total wall time, and self time —
// the part of each span's interval that no child span covers.
type selfTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += max(s.dur()-children[s.ID], 0)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSpans writes one JSON object per span to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the self-time table.
func printSelfTimes(w io.Writer, sts []selfTime) {
	fmt.Fprintf(w, "%-24s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range sts {
		fmt.Fprintf(w, "%-24s %7d %12.3f %12.3f\n", st.Name, st.Calls,
			float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
}
