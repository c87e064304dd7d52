package workload

import (
	"fmt"

	"jetty/internal/trace"
)

// Phased scenarios: a run whose behavioral signature changes over time.
// Every stationary Spec in the library produces one statistical mixture
// for the whole run; real server workloads move through phases — a cold
// warmup while working sets fill, a long steady state, an operational
// disturbance like process migration — and JETTY's coverage and energy
// savings move with them. A phased Spec splices existing mixtures in
// sequence: each phase owns a fraction of the access budget, and all
// phases share one first-touch page table, so data touched in an early
// phase keeps its physical frames when a later phase rewalks it (warmup
// really warms the caches the steady phase then hits).
//
// Phase boundaries are fixed in per-CPU references, so a phased stream
// is as deterministic, traceable and replayable as any other: the
// interval-sampling timeline of a phased run (internal/metrics) shows
// the phase transitions directly, which is what the timeline golden
// test pins.

// Phase is one segment of a phased scenario.
type Phase struct {
	// Name labels the phase ("warmup", "steady", ...).
	Name string `json:"name"`
	// Frac is the share of the scenario's access budget this phase
	// consumes. Fractions must sum to 1; the last phase absorbs any
	// rounding and keeps generating if the run outlives the budget.
	Frac float64 `json:"frac"`
	// Spec is the behavioral signature during the phase. Its Accesses is
	// ignored (the parent budget and Frac size the phase); its Seed is
	// combined with the parent seed so sweep-style seed perturbation
	// reaches every phase. Nested phases are not allowed.
	Spec Spec `json:"spec"`
}

// validatePhases checks a phased spec (Validate dispatches here).
func (sp Spec) validatePhases() error {
	if sp.Accesses == 0 {
		return fmt.Errorf("workload %s: zero access budget", sp.Name)
	}
	total := 0.0
	for i, ph := range sp.Phases {
		if ph.Frac <= 0 {
			return fmt.Errorf("workload %s: phase %d (%s) has non-positive fraction %v",
				sp.Name, i, ph.Name, ph.Frac)
		}
		total += ph.Frac
		if len(ph.Spec.Phases) > 0 {
			return fmt.Errorf("workload %s: phase %d (%s) nests phases", sp.Name, i, ph.Name)
		}
		inner := ph.Spec
		if inner.Accesses == 0 {
			inner.Accesses = sp.Accesses // unused by phases; satisfy the mixture check
		}
		if err := inner.Validate(); err != nil {
			return fmt.Errorf("workload %s: phase %d (%s): %w", sp.Name, i, ph.Name, err)
		}
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload %s: phase fractions sum to %.4f, want 1", sp.Name, total)
	}
	return nil
}

// phasedSource builds the phase-splicing source: one generator per
// phase over a shared page table, switched per CPU at fixed reference
// boundaries.
func (sp Spec) phasedSource(cpus int) *phasedSource {
	pt := sp.newPageTable(cpus)
	p := &phasedSource{
		cpus:   cpus,
		gens:   make([]*generator, len(sp.Phases)),
		bounds: make([]uint64, len(sp.Phases)),
		phase:  make([]int, cpus),
		served: make([]uint64, cpus),
	}
	perCPU := float64(sp.Accesses) / float64(cpus)
	cum := 0.0
	for i, ph := range sp.Phases {
		eff := ph.Spec
		eff.Accesses = sp.Accesses
		// Combine seeds so perturbing the scenario seed (sweep repeats)
		// moves every phase, and same-seed phases still diverge.
		eff.Seed = sp.Seed + ph.Spec.Seed + int64(i+1)*104_729
		p.gens[i] = eff.newGenerator(cpus, pt)
		cum += ph.Frac
		p.bounds[i] = uint64(cum * perCPU)
	}
	// The last phase absorbs rounding and any references past the budget
	// (streams are infinite; the simulator bounds the run).
	p.bounds[len(p.bounds)-1] = ^uint64(0)
	return p
}

// phasedSource splices per-phase generators. Each CPU advances through
// the phases independently at the same per-CPU reference boundaries; the
// simulator's round-robin interleave keeps the CPUs in lockstep, so
// transitions are machine-wide in practice.
type phasedSource struct {
	cpus   int
	gens   []*generator
	bounds []uint64 // cumulative per-CPU boundary per phase (last = max)
	phase  []int    // per-CPU current phase index
	served []uint64 // per-CPU references served
}

// CPUs implements trace.Source.
func (p *phasedSource) CPUs() int { return p.cpus }

// Next implements trace.Source.
func (p *phasedSource) Next(cpu int) (trace.Ref, bool) {
	for p.phase[cpu]+1 < len(p.gens) && p.served[cpu] >= p.bounds[p.phase[cpu]] {
		p.phase[cpu]++
	}
	p.served[cpu]++
	return p.gens[p.phase[cpu]].Next(cpu)
}

// Fill implements Stream.
func (p *phasedSource) Fill(dst []trace.Rec) {
	cpu := 0
	for i := range dst {
		ref, _ := p.Next(cpu)
		dst[i] = trace.Rec{Addr: ref.Addr, CPU: int32(cpu), Op: ref.Op}
		if cpu++; cpu == p.cpus {
			cpu = 0
		}
	}
}
