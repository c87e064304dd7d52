package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Spans record the traced run's layer boundaries from the benchmark's
// own code: each wraps one call into a program layer (generate, step,
// audit, encode, persist, ...). They are kept in memory and written
// out when the run ends; a layer's self time is its span's duration
// minus the part of that interval its child spans cover.

// span is one recorded interval. Parent is the index of the enclosing
// span in the recorder, -1 for a root. Trace groups the spans of one
// replayed unit (a fused pass).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil recorder records nothing, so the
// untraced replay runs the identical code path with no clock reads.
type recorder struct {
	origin time.Time
	spans  []span
	trace  int
	stack  []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// fork returns an empty recorder on the same clock, for another
// goroutine; merge folds it back.
func (r *recorder) fork() *recorder {
	if r == nil {
		return nil
	}
	return &recorder{origin: r.origin}
}

// merge appends o's spans, renumbering its parents and traces after
// r's own.
func (r *recorder) merge(o *recorder) {
	if r == nil || o == nil {
		return
	}
	off := len(r.spans)
	for _, s := range o.spans {
		s.Trace += r.trace
		if s.Parent >= 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
	r.trace += o.trace
}

// newTrace starts a new trace identifier for the following spans.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace++
	}
}

// begin opens a span nested in the innermost open one and returns its
// index (for end).
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent, Start: int64(time.Since(r.origin))})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.origin))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes sums each span name's self time: duration minus the union
// of its direct children's intervals (children may not overlap in a
// single-threaded replay, but the union makes that irrelevant).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
