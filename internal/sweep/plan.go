package sweep

import (
	"sort"

	"jetty/internal/sim"
	"jetty/internal/smp"
)

// Fused planning works at two levels.
//
// Units. Cells that differ only in their filter group — same reference
// stream (workload + scale + seed, or trace), same machine geometry —
// measure the exact same simulation with different observer banks
// attached, so the planner fuses them into ONE unit with every bank
// riding along on one wide machine. A 16-variant "each"-mode filter
// axis then costs one simulation plus 16 cheap filter passes instead of
// 16 full runs. The unit key is content-addressed, like everything else
// in the pipeline: the cell's own fingerprint recomputed over the
// FILTERLESS machine config. Two cells agree on that base fingerprint
// exactly when they agree on everything but the filter bank.
//
// Passes. The reference stream depends only on (workload spec, CPU
// count) — or (trace digest, CPU count) for replays — not on the L2
// geometry, so units on different machines of one stream (the L2-size,
// associativity and non-subblocked studies) can share one generated or
// decoded stream: each batch is produced once and stepped through every
// unit's machine. Every machine of a pass is resident at once, so the
// planner bounds what a pass models: it packs a stream's units
// largest-L2-first, first-fit, into passes whose summed L2 capacity
// (L2 bytes × CPUs) stays at or below that of the stream's largest
// unit — the memory a pass of that unit alone already holds. The six
// machines of the L2 sweep (512K, 1M, 2M, 4M, 1M 8-way, 1M NSB) thus
// run as {4M}, {2M, 1M, 1M 8-way} and {NSB, 512K}.

// PlanUnits partitions cells into fusable units — the engine's (and a
// cluster coordinator's) indivisible scheduling units. Each unit is a
// list of ascending cell indices sharing one reference stream on one
// machine; shipping a whole unit to one worker preserves the filter
// fusion remotely. Units stay per machine: a coordinator dispatches
// them, and a worker packs whatever units it receives into passes.
func PlanUnits(spec Spec, cells []Cell) [][]int {
	return planGroups(spec.normalize(), cells)
}

// planGroups partitions cells into units: each is a list of ascending
// cell indices sharing one reference stream and one machine, in
// first-appearance order. Singleton units (and every unit, when the
// spec sets NoFuse) hold one cell.
func planGroups(spec Spec, cells []Cell) [][]int {
	if spec.NoFuse {
		out := make([][]int, len(cells))
		for i := range cells {
			out[i] = []int{i}
		}
		return out
	}
	byBase := make(map[string]int)
	var out [][]int
	for i, c := range cells {
		var base string
		if c.trace != nil {
			base = sim.TraceFingerprint(c.trace.Digest, c.cfg.WithoutFilters())
		} else {
			base = sim.Fingerprint(c.spec, c.cfg.WithoutFilters())
		}
		g, ok := byBase[base]
		if !ok {
			g = len(out)
			byBase[base] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}

// streamKey identifies the reference stream a cell's pass consumes:
// the workload spec or trace digest, and the CPU count, content-
// addressed like planGroups' unit key.
func streamKey(c Cell) string {
	cpus := smp.Config{CPUs: c.cfg.CPUs}
	if c.trace != nil {
		return sim.TraceFingerprint(c.trace.Digest, cpus)
	}
	return sim.Fingerprint(c.spec, cpus)
}

// l2Capacity is the L2 memory one unit's machine models.
func l2Capacity(c Cell) int { return c.cfg.L2.SizeBytes * c.cfg.CPUs }

// planPasses packs units into passes, each the cell indices (unit after
// unit) that one run steps over one stream. Streams appear in order of
// their first unit; a stream's units are packed largest-L2-first
// (ties in unit order), first-fit, under its largest unit's L2
// capacity. NoFuse gives every unit its own pass.
func planPasses(spec Spec, cells []Cell, units [][]int) [][]int {
	if spec.NoFuse {
		return units
	}
	byStream := make(map[string]int)
	var streams [][][]int
	for _, u := range units {
		k := streamKey(cells[u[0]])
		s, ok := byStream[k]
		if !ok {
			s = len(streams)
			byStream[k] = s
			streams = append(streams, nil)
		}
		streams[s] = append(streams[s], u)
	}
	var out [][]int
	for _, us := range streams {
		sort.SliceStable(us, func(a, b int) bool {
			return l2Capacity(cells[us[a][0]]) > l2Capacity(cells[us[b][0]])
		})
		bound := l2Capacity(cells[us[0][0]])
		first := len(out)
		var used []int
		for _, u := range us {
			c := l2Capacity(cells[u[0]])
			p := 0
			for p < len(used) && used[p]+c > bound {
				p++
			}
			if p == len(used) {
				used = append(used, 0)
				out = append(out, nil)
			}
			used[p] += c
			out[first+p] = append(out[first+p], u...)
		}
	}
	return out
}
