package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around a call into the layer. Spans of one request
// share Req; Parent is the index of the enclosing span, or -1 for a root.
// N is the operation count the span covers (1 for one request, the loop
// length for an in-process row).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer, or one switched off, records nothing: untraced runs pay one
// nil check per request.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   atomic.Uint64
	on    atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

// enabled reports whether spans are being recorded right now.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newReq returns a fresh request id.
func (t *tracer) newReq() uint64 { return t.req.Add(1) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, req uint64, parent int32, start, end time.Time, n int) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Req: req, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: n,
	})
	return id
}

// open records a root whose end is filled in by close; children recorded
// in between name it as their parent.
func (t *tracer) open(name string, req uint64, start time.Time) int32 {
	return t.add(name, req, -1, start, start, 1)
}

func (t *tracer) close(id int32, end time.Time) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return w.Flush()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover: the time the layer spent itself.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, lo, hi := int64(0), int64(0), int64(-1)
		for _, c := range cs {
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if st > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = st, en
			} else if en > hi {
				hi = en
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}
