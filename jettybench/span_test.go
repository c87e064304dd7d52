package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,100) holds two overlapping children; child a holds a
	// grandchild; a child running past its parent is clipped.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "g", Parent: 1, Start: 15, End: 20},
		{Name: "late", Parent: 0, Start: 90, End: 120},
		{Name: "other", Parent: -1, Start: 200, End: 230},
		{Name: "a", Parent: 5, Start: 205, End: 215},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  100 - 50 - 10, // children cover [10,60) and [90,100)
		"a":     (30 - 5) + 10, // both "a" spans summed
		"b":     30,
		"g":     5,
		"late":  30,
		"other": 30 - 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.newTrace()
	root := r.begin("root")
	a := r.begin("a")
	r.end(a)
	b := r.begin("b")
	c := r.begin("c")
	r.end(c)
	r.end(b)
	r.end(root)
	wantParent := map[string]int{"root": -1, "a": root, "b": root, "c": b}
	for i, s := range r.spans {
		if s.Parent != wantParent[s.Name] {
			t.Errorf("span %d %s: parent %d, want %d", i, s.Name, s.Parent, wantParent[s.Name])
		}
		if s.End < s.Start || s.Trace != 1 {
			t.Errorf("span %d %s: [%d,%d) trace %d", i, s.Name, s.Start, s.End, s.Trace)
		}
	}
	// A nil recorder is the untraced path: it must record nothing.
	var off *recorder
	off.newTrace()
	off.end(off.begin("x"))
}

func TestRecorderForkMerge(t *testing.T) {
	r := newRecorder()
	r.newTrace()
	r.end(r.begin("main"))
	a, b := r.fork(), r.fork()
	for _, f := range []*recorder{a, b} {
		f.newTrace()
		outer := f.begin("outer")
		f.end(f.begin("inner"))
		f.end(outer)
	}
	r.merge(a)
	r.merge(b)
	if len(r.spans) != 5 || r.trace != 3 {
		t.Fatalf("merged %d spans, trace %d; want 5 spans, trace 3", len(r.spans), r.trace)
	}
	for i, want := range []struct {
		name          string
		trace, parent int
	}{{"main", 1, -1}, {"outer", 2, -1}, {"inner", 2, 1}, {"outer", 3, -1}, {"inner", 3, 3}} {
		if s := r.spans[i]; s.Name != want.name || s.Trace != want.trace || s.Parent != want.parent {
			t.Errorf("span %d = %s trace %d parent %d; want %+v", i, s.Name, s.Trace, s.Parent, want)
		}
	}
	if got := selfTimes(r.spans)["outer"]; got < 0 {
		t.Errorf("outer self time %v", got)
	}
}
