package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// The comparator replaces benchstat (not installed, not fetchable) for
// the A/B of a performance change. It reads two run sets — the parent
// commit's and the change's — made with identical benchmark code and
// settings, each a JSON-lines file of
//
//	{"workload": "<name>", "result": <the benchmark's last output line>}
//
// collected as alternating pairs (pair i is the i-th parent line and
// the i-th change line of a workload). It prints one row per workload:
//
//   - the claimed metric (-claim) is a "win" only when the change wins
//     at least 9 in 10 of the pairs (ties count for neither side) and
//     the medians differ by more than the parent's interquartile range;
//   - every other end-to-end metric is "regress" when the change's
//     median is worse than the parent's by more than the metric's
//     BENCHMARK.json bound, "unresolved" when either side's spread
//     (IQR over median) exceeds that bound — unless every change run
//     reads better than every parent run — and "ok" otherwise.
//
// The exit status is 1 when any metric regresses.

// benchMetric is one BENCHMARK.json metric definition.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet maps a workload to its runs, in file order.
type runSet map[string][]map[string]float64

func readRunSet(r io.Reader) (runSet, error) {
	out := runSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var row struct {
			Workload string `json:"workload"`
			Result   report `json:"result"`
		}
		if err := json.Unmarshal([]byte(text), &row); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if row.Workload == "" {
			return nil, fmt.Errorf("line %d: no workload", line)
		}
		vals := make(map[string]float64, len(row.Result.Metrics))
		for k, m := range row.Result.Metrics {
			vals[k] = m.Value
		}
		out[row.Workload] = append(out[row.Workload], vals)
	}
	return out, sc.Err()
}

// verdict is the comparator's judgement of one (workload, metric).
type verdict struct {
	Metric    string
	Verdict   string // win | no-gain | ok | regress | unresolved
	ParentMed float64
	ChangeMed float64
	ParentIQR float64
	Wins      int
	Pairs     int
}

// betterThan reports whether a reads better than b.
func betterThan(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// judge applies the rules above to one metric's parent and change runs.
func judge(m benchMetric, parent, change []float64, claimed bool) verdict {
	v := verdict{Metric: m.Name, ParentMed: median(parent), ChangeMed: median(change)}
	q1, q3 := quartiles(parent)
	v.ParentIQR = q3 - q1
	v.Pairs = min(len(parent), len(change))
	for i := 0; i < v.Pairs; i++ {
		if betterThan(change[i], parent[i], m.Better) {
			v.Wins++
		}
	}
	if claimed {
		v.Verdict = "no-gain"
		if v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs &&
			betterThan(v.ChangeMed, v.ParentMed, m.Better) && math.Abs(v.ChangeMed-v.ParentMed) > v.ParentIQR {
			v.Verdict = "win"
		}
		return v
	}
	allBetter := len(change) > 0 && len(parent) > 0
	for _, c := range change {
		for _, p := range parent {
			if !betterThan(c, p, m.Better) {
				allBetter = false
			}
		}
	}
	worse := (v.ChangeMed - v.ParentMed) / math.Abs(v.ParentMed)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case allBetter:
		v.Verdict = "ok"
	case spread(parent) > m.Bound || spread(change) > m.Bound:
		v.Verdict = "unresolved"
	case worse > m.Bound:
		v.Verdict = "regress"
	default:
		v.Verdict = "ok"
	}
	return v
}

// compareSets judges every workload present in both sets, for every
// metric in defs (plus the claimed one). It returns rows keyed by
// workload, in sorted workload order.
func compareSets(defs []benchMetric, parent, change runSet, claimWorkload, claimMetric string) ([]string, map[string][]verdict) {
	var workloads []string
	for w := range parent {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	slices.Sort(workloads)
	rows := make(map[string][]verdict)
	for _, w := range workloads {
		for _, d := range defs {
			p, c := column(parent[w], d.Name), column(change[w], d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			rows[w] = append(rows[w], judge(d, p, c, w == claimWorkload && d.Name == claimMetric))
		}
	}
	return workloads, rows
}

func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("jettybench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (metric directions and bounds)")
	parentPath := fs.String("parent", "", "parent run set (JSON lines)")
	changePath := fs.String("change", "", "change run set (JSON lines)")
	claim := fs.String("claim", "", "claimed gain as workload:metric (optional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "jettybench compare:", err)
		return 2
	}
	var def struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return fail(fmt.Errorf("%s: %w", *benchPath, err))
	}
	sets := make([]runSet, 2)
	for i, p := range []string{*parentPath, *changePath} {
		f, err := os.Open(p)
		if err != nil {
			return fail(err)
		}
		sets[i], err = readRunSet(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", p, err))
		}
	}
	claimW, claimM, _ := strings.Cut(*claim, ":")
	defs := def.EndToEnd
	if claimM != "" && !slices.ContainsFunc(defs, func(d benchMetric) bool { return d.Name == claimM }) {
		for _, d := range def.PerLayer {
			if d.Name == claimM {
				defs = append(defs, d)
			}
		}
	}
	workloads, rows := compareSets(defs, sets[0], sets[1], claimW, claimM)
	code := 0
	for _, w := range workloads {
		var cells []string
		for _, v := range rows[w] {
			cells = append(cells, fmt.Sprintf("%s=%s(%.4g->%.4g, iqr %.3g, %d/%d)",
				v.Metric, v.Verdict, v.ParentMed, v.ChangeMed, v.ParentIQR, v.Wins, v.Pairs))
			if v.Verdict == "regress" {
				code = 1
			}
		}
		fmt.Fprintf(stdout, "%s\t%s\n", w, strings.Join(cells, "  "))
	}
	return code
}
