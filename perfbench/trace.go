package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names shared by every workload's traced pass. Each traced
// operation is one opSpan whose children are a layersSpan (the chain of
// module calls, one child span per call) and the facade or server
// spans driving the same operation end to end.
const (
	opSpan     = "op"
	layersSpan = "layers"
	facadeSpan = "facade"
)

// span is one timed call. Times are relative to the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an operation's root
	Op     int           `json:"op"`     // the operation all its spans share
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use by the clients of one traced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Dur = now - t.spans[id].Start
}

// add records a span whose duration was accumulated by the caller over
// several interleaved calls (a run's Next calls and its row decodes),
// starting at start.
func (t *tracer) add(op, parent int, name string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0), Dur: dur})
}

// call runs f inside a span.
func (t *tracer) call(op, parent int, name string, f func() error) error {
	id := t.begin(op, parent, name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the time its child spans cover — and the span count.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += s.Dur - child[i]
		count[s.Name]++
	}
	return self, count
}

// opDur is the summed duration of operation op's spans called name.
func (t *tracer) opDur(op int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Op == op && s.Name == name {
			sum += s.Dur
		}
	}
	return sum
}

// facadeGap is the mean, over operations that ran the layer chain and
// the facade, of the facade span's duration minus the durations of the
// chain spans named in same — the calls the facade path itself makes.
// It is the facade's own cost.
func (t *tracer) facadeGap(same map[string]bool) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	facade := map[int]time.Duration{}
	chain := map[int]time.Duration{}
	ran := map[int]bool{}
	for _, s := range t.spans {
		switch {
		case s.Name == facadeSpan:
			facade[s.Op] += s.Dur
		case same[s.Name]:
			chain[s.Op] += s.Dur
		}
		if s.Name == spanRun {
			ran[s.Op] = true
		}
	}
	var sum time.Duration
	n := 0
	for op, f := range facade {
		if ran[op] {
			sum += f - chain[op]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// meanDur is the mean duration of the spans called name.
func (t *tracer) meanDur(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.Dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
