package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lat := benchMetric{Name: "op_s_p50", Better: "lower", Bound: 0.1}
	thr := benchMetric{Name: "cells_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	faster := []float64{0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.82}
	slower := []float64{1.30, 1.31, 1.29, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30, 1.32}
	noisy := []float64{0.6, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.1}
	mixed := []float64{0.99, 1.00, 0.98, 1.03, 0.97, 1.01, 1.00, 0.98, 1.01, 1.00}

	for _, c := range []struct {
		name    string
		m       benchMetric
		p, c    []float64
		claimed bool
		want    string
	}{
		{"claimed gain", lat, parent, faster, true, "win"},
		{"claimed gain too small", lat, parent, mixed, true, "no-gain"},
		{"claimed but slower", lat, parent, slower, true, "no-gain"},
		{"unchanged", lat, parent, mixed, false, "ok"},
		{"regression", lat, parent, slower, false, "regress"},
		{"spread wider than bound", lat, parent, noisy, false, "unresolved"},
		{"higher is better regression", thr, parent, faster, false, "regress"},
		{"higher is better gain", thr, parent, slower, true, "win"},
		{"noisy but every run better", lat, []float64{2, 3, 4, 5}, []float64{0.5, 1, 1.5, 1.9}, false, "ok"},
	} {
		if got := judge(c.m, c.p, c.c, c.claimed).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineInTenPairs(t *testing.T) {
	m := benchMetric{Name: "op_s_p50", Better: "lower", Bound: 0.1}
	parent := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	change := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 1} // 8 wins, 2 ties
	if v := judge(m, parent, change, true); v.Verdict != "no-gain" || v.Wins != 8 {
		t.Errorf("8/10 wins: %+v", v)
	}
	change[8] = 0.5 // 9 wins
	if v := judge(m, parent, change, true); v.Verdict != "win" {
		t.Errorf("9/10 wins: %+v", v)
	}
}

func TestReadRunSetAndCompare(t *testing.T) {
	line := func(w string, v float64) string {
		return `{"workload":"` + w + `","result":{"correct":true,"attempted":1,"failed":0,"metrics":{"op_s_p50":{"value":` +
			strconv.FormatFloat(v, 'f', -1, 64) + `,"unit":"s"}}}}`
	}
	var p, c []string
	for i := 0; i < 10; i++ {
		p = append(p, line("a", 1+float64(i%3)/100), line("b", 1+float64(i%3)/100))
		c = append(c, line("a", 0.8+float64(i%3)/100), line("b", 1.5+float64(i%3)/100))
	}
	ps, err := readRunSet(strings.NewReader(strings.Join(p, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := readRunSet(strings.NewReader(strings.Join(c, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defs := []benchMetric{{Name: "op_s_p50", Better: "lower", Bound: 0.1}}
	ws, rows := compareSets(defs, ps, cs, "a", "op_s_p50")
	if len(ws) != 2 || rows["a"][0].Verdict != "win" || rows["b"][0].Verdict != "regress" {
		t.Errorf("workloads %v rows %+v", ws, rows)
	}
}
