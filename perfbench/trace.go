package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one traced operation share
// Req; Parent is 0 for the operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's start
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how the same call sequence runs
// untraced to measure the tracing overhead.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under parent (nil = a new operation root, which also
// opens a new request id).
func (t *tracer) start(name string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	o := &openSpan{t: t, s: span{ID: t.next, Name: name}}
	if parent != nil {
		o.s.Parent, o.s.Req = parent.s.ID, parent.s.Req
	} else {
		o.s.Req = t.next
	}
	t.mu.Unlock()
	o.s.Start = int64(time.Since(t.t0))
	return o
}

// end records the span. Safe on a nil span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed runs fn inside a span named name under parent and returns its
// wall time, which is measured whether or not tracing is on.
func (t *tracer) timed(name string, parent *openSpan, fn func(*openSpan)) time.Duration {
	o := t.start(name, parent)
	t0 := time.Now()
	fn(o)
	d := time.Since(t0)
	o.end()
	return d
}

type spanKey struct{}

// withSpan carries a parent span through a context, so calls made deep in
// the program (the scatter transport) attach their spans to it.
func withSpan(ctx context.Context, o *openSpan) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, o)
}

func spanFrom(ctx context.Context) *openSpan {
	o, _ := ctx.Value(spanKey{}).(*openSpan)
	return o
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other
// (parallel shard calls) are counted once; parts of a child outside the
// parent's interval are ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// byName groups span durations (self = false) or self times (self = true)
// by span name.
func byName(spans []span, self bool) map[string]sample {
	var st map[int64]time.Duration
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string]sample)
	for _, s := range spans {
		d := s.dur()
		if self {
			d = st[s.ID]
		}
		out[s.Name] = append(out[s.Name], d)
	}
	return out
}
