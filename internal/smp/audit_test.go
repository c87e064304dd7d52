package smp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jetty/internal/addr"
	"jetty/internal/cache"
	"jetty/internal/jetty"
	"jetty/internal/trace"
)

// The end-of-run audits (CheckCoherence, CheckFilterSafety) run on every
// cell, so a silently weakened audit would let a protocol or filter bug
// through every golden. The tests below corrupt real machines in each
// way an audit must catch, and pin the production audits to the simple
// map- and Peek-based references kept here.

// refCheckCoherence is the reference coherence audit: per-unit holder
// counts gathered into a map, then inclusion line by line.
func refCheckCoherence(s *System) error {
	type holders struct {
		me, o, sh int
	}
	units := map[uint64]*holders{}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.l2.ForEachValidUnit(func(unit uint64, st cache.State) {
			h := units[unit]
			if h == nil {
				h = &holders{}
				units[unit] = h
			}
			switch st {
			case cache.Modified, cache.Exclusive:
				h.me++
			case cache.Owned:
				h.o++
			case cache.Shared:
				h.sh++
			}
		})
	}
	for unit, h := range units {
		if h.me > 1 {
			return fmt.Errorf("smp: unit %#x has %d M/E holders", unit, h.me)
		}
		if h.me == 1 && (h.o > 0 || h.sh > 0) {
			return fmt.Errorf("smp: unit %#x held M/E alongside %d O + %d S copies", unit, h.o, h.sh)
		}
		if h.o > 1 {
			return fmt.Errorf("smp: unit %#x has %d owners", unit, h.o)
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		var err error
		n.l1.ForEachValidLine(func(line uint64, dirty bool) {
			if err != nil {
				return
			}
			unit := s.unitOfLine(line)
			st := n.l2.UnitState(unit)
			switch {
			case !st.Valid():
				err = fmt.Errorf("smp: cpu%d L1 line %#x not covered by L2 (inclusion)", n.id, line)
			case dirty && st != cache.Modified:
				err = fmt.Errorf("smp: cpu%d dirty L1 line %#x over L2 state %v", n.id, line, st)
			case !n.l2.InL1(unit):
				err = fmt.Errorf("smp: cpu%d L1 line %#x present but inL1 hint clear", n.id, line)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// refCheckFilterSafety is the reference filter audit: the per-snoop
// counters, then one interface Peek per valid unit per filter.
func refCheckFilterSafety(s *System) error {
	for i := range s.cfg.Filters {
		if c := s.FilterCounts(i); c.FilteredHits != 0 {
			return fmt.Errorf("smp: filter %s filtered %d snoops to cached units",
				s.cfg.Filters[i].Name(), c.FilteredHits)
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		var err error
		n.l2.ForEachValidUnit(func(unit uint64, _ cache.State) {
			if err != nil {
				return
			}
			block := s.geom.BlockOfUnit(unit)
			for fi, f := range n.filters {
				if f.Peek(unit, block) {
					err = fmt.Errorf("smp: cpu%d filter %s claims resident unit %#x absent",
						n.id, s.cfg.Filters[fi].Name(), unit)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// audit is one audit under test, production or reference.
type audit struct {
	name string
	run  func(*System) error
}

var (
	coherenceAudits = []audit{
		{"CheckCoherence", (*System).CheckCoherence},
		{"reference", refCheckCoherence},
	}
	safetyAudits = []audit{
		{"CheckFilterSafety", (*System).CheckFilterSafety},
		{"reference", refCheckFilterSafety},
	}
)

// auditFilters is one filter of every family, in bank order.
var auditFilters = []string{"EJ-32x4", "VEJ-32x4-4", "IJ-9x4x7", "HJ(IJ-10x4x7,EJ-16x2)"}

// auditMachine is a small unbuffered 4-CPU machine carrying every
// filter family, so each store takes effect at once.
func auditMachine(t *testing.T, geom addr.Geometry) *System {
	t.Helper()
	cfg := PaperConfig(4)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 10, LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 13, Assoc: 2, Geom: geom}
	cfg.WBEntries = 0
	fs, err := jetty.ParseAll(auditFilters)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg.WithFilters(fs...))
}

// requireClean fails the test unless every audit passes.
func requireClean(t *testing.T, s *System) {
	t.Helper()
	for _, a := range append(append([]audit{}, coherenceAudits...), safetyAudits...) {
		if err := a.run(s); err != nil {
			t.Fatalf("%s on the uncorrupted machine: %v", a.name, err)
		}
	}
}

// requireCaught fails the test unless every audit in audits reports an
// error containing want.
func requireCaught(t *testing.T, s *System, audits []audit, want string) {
	t.Helper()
	for _, a := range audits {
		err := a.run(s)
		if err == nil {
			t.Errorf("%s missed the corruption (want %q)", a.name, want)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", a.name, err, want)
		}
	}
}

// setState overwrites cpu's L2 state of the unit holding byte address a,
// which must be resident there.
func setState(t *testing.T, s *System, cpu int, a uint64, st cache.State) {
	t.Helper()
	n := &s.nodes[cpu]
	f := n.l2.FindBlock(s.geom.Block(a))
	if !f.Ok() {
		t.Fatalf("cpu%d does not hold %#x", cpu, a)
	}
	n.l2.SetStateAt(f, s.geom.Unit(a), st)
}

func TestCoherenceAuditCatchesCorruption(t *testing.T) {
	const a = 0x2000
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *System)
		want    string
	}{
		{"two M/E holders", func(t *testing.T, s *System) {
			read(s, 0, a)
			read(s, 1, a) // both Shared
			requireClean(t, s)
			setState(t, s, 0, a, cache.Modified)
			setState(t, s, 1, a, cache.Exclusive)
		}, "M/E holders"},
		{"M/E beside S", func(t *testing.T, s *System) {
			read(s, 0, a)
			read(s, 1, a)
			requireClean(t, s)
			setState(t, s, 0, a, cache.Exclusive)
		}, "alongside"},
		{"M/E beside O", func(t *testing.T, s *System) {
			write(s, 0, a)
			read(s, 1, a) // cpu0 Owned, cpu1 Shared
			requireClean(t, s)
			setState(t, s, 1, a, cache.Modified)
		}, "alongside"},
		{"two owners", func(t *testing.T, s *System) {
			write(s, 0, a)
			read(s, 1, a)
			requireClean(t, s)
			setState(t, s, 1, a, cache.Owned)
		}, "owners"},
		{"L1 line without L2 cover", func(t *testing.T, s *System) {
			read(s, 2, a)
			requireClean(t, s)
			setState(t, s, 2, a, cache.Invalid)
		}, "not covered"},
		{"dirty L1 line over a non-M unit", func(t *testing.T, s *System) {
			write(s, 3, a)
			requireClean(t, s)
			setState(t, s, 3, a, cache.Exclusive)
		}, "dirty L1 line"},
		{"cleared inL1 hint", func(t *testing.T, s *System) {
			read(s, 1, a)
			requireClean(t, s)
			s.nodes[1].l2.SetInL1(s.geom.Unit(a), false)
		}, "inL1 hint clear"},
	}
	for _, geom := range []addr.Geometry{addr.Subblocked, addr.NonSubblocked} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%d-units", c.name, geom.UnitsPerBlock), func(t *testing.T) {
				s := auditMachine(t, geom)
				c.corrupt(t, s)
				requireCaught(t, s, coherenceAudits, c.want)
			})
		}
	}
}

func TestFilterAuditCatchesCorruption(t *testing.T) {
	const a = 0x2040
	// Filter bank positions in auditFilters.
	const ej, vej, ij, hj = 0, 1, 2, 3
	cases := []struct {
		name    string
		filter  int
		corrupt func(s *System, unit, block uint64)
	}{
		{"EJ entry names a resident block", ej, func(s *System, unit, block uint64) {
			s.nodes[0].filters[ej].SnoopMiss(unit, block, true)
		}},
		{"VEJ entry names a resident unit", vej, func(s *System, unit, block uint64) {
			s.nodes[0].filters[vej].SnoopMiss(unit, block, false)
		}},
		{"IJ p-bit zeroed under a resident block", ij, func(s *System, unit, block uint64) {
			zeroPBit(s.nodes[0].filters[ij].(*jetty.Include), block)
		}},
		{"hybrid include half", hj, func(s *System, unit, block uint64) {
			zeroPBit(s.nodes[0].filters[hj].(*jetty.Hybrid).Include(), block)
		}},
		{"hybrid exclude half", hj, func(s *System, unit, block uint64) {
			s.nodes[0].filters[hj].(*jetty.Hybrid).Exclude().SnoopMiss(unit, block, true)
		}},
		{"per-snoop unsafe counter", vej, func(s *System, unit, block uint64) {
			s.nodes[0].unsafeFl[vej]++
		}},
	}
	for _, geom := range []addr.Geometry{addr.Subblocked, addr.NonSubblocked} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%d-units", c.name, geom.UnitsPerBlock), func(t *testing.T) {
				s := auditMachine(t, geom)
				read(s, 0, a)
				read(s, 1, a+0x4000)
				requireClean(t, s)
				c.corrupt(s, s.geom.Unit(a), s.geom.Block(a))
				requireCaught(t, s, safetyAudits, s.cfg.Filters[c.filter].Name())
				// Filter corruption leaves the caches coherent.
				for _, au := range coherenceAudits {
					if err := au.run(s); err != nil {
						t.Errorf("%s: %v", au.name, err)
					}
				}
			})
		}
	}
}

// zeroPBit drives spurious evictions of block into ij until one of its
// sub-array p-bits clears, so the filter claims the block absent.
func zeroPBit(ij *jetty.Include, block uint64) {
	for !ij.Peek(0, block) {
		ij.BlockEvicted(block)
	}
}

// TestAuditsMatchReferences runs randomized machines, corrupts some of
// them with random state flips and spurious filter events, and requires
// each production audit to fail exactly when its reference fails.
func TestAuditsMatchReferences(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	var flagged [2][2]int // [audit][0 = clean, 1 = caught]
	for trial := 0; trial < 300; trial++ {
		s := randomAuditMachine(r)
		for k := r.Intn(4); k > 0; k-- {
			corruptRandomly(r, s)
		}
		for ai, pair := range [][]audit{coherenceAudits, safetyAudits} {
			got, want := pair[0].run(s), pair[1].run(s)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d: %s = %v, reference = %v", trial, pair[0].name, got, want)
			}
			if got != nil {
				flagged[ai][1]++
			} else {
				flagged[ai][0]++
			}
		}
	}
	for ai, name := range []string{"coherence", "filter safety"} {
		if flagged[ai][0] == 0 || flagged[ai][1] == 0 {
			t.Errorf("%s: %d clean and %d caught trials; the corruptions must exercise both outcomes",
				name, flagged[ai][0], flagged[ai][1])
		}
	}
}

// randomAuditMachine builds a random small machine with random filters
// and runs a burst of mixed private and shared traffic through it.
func randomAuditMachine(r *rand.Rand) *System {
	cfg := PaperConfig(2 + r.Intn(3))
	geom := addr.Subblocked
	if r.Intn(2) == 0 {
		geom = addr.NonSubblocked
	}
	cfg.L1 = cache.L1Config{SizeBytes: 1 << (9 + r.Intn(2)), LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << (12 + r.Intn(2)), Assoc: 1 << r.Intn(3), Geom: geom}
	cfg.WBEntries = r.Intn(3) * 2
	pool := []string{"EJ-8x2", "EJ-16x4", "VEJ-16x4-4", "VEJ-8x2-8", "IJ-6x5x6", "IJ-9x4x7",
		"HJ(IJ-8x4x7,EJ-16x2)", "HJ(IJ-6x5x6,EJ-8x2)"}
	var names []string
	for _, p := range pool {
		if r.Intn(2) == 0 {
			names = append(names, p)
		}
	}
	fs, err := jetty.ParseAll(names)
	if err != nil {
		panic(err)
	}
	s := New(cfg.WithFilters(fs...))
	for i, n := 0, 2000+r.Intn(6000); i < n; i++ {
		cpu := r.Intn(cfg.CPUs)
		a := uint64(r.Intn(1 << 12)) // shared
		if r.Intn(2) == 0 {
			a = uint64(1<<15+cpu<<13) + uint64(r.Intn(1<<13)) // private
		}
		op := trace.Read
		if r.Intn(3) == 0 {
			op = trace.Write
		}
		s.Step(cpu, trace.Ref{Op: op, Addr: a})
	}
	if r.Intn(2) == 0 {
		s.DrainWriteBuffers()
	}
	return s
}

// corruptRandomly applies one random corruption: a cache-state flip, an
// L1 flag flip, or a spurious filter event.
func corruptRandomly(r *rand.Rand, s *System) {
	n := &s.nodes[r.Intn(len(s.nodes))]
	var units []uint64
	n.l2.ForEachValidUnit(func(unit uint64, _ cache.State) { units = append(units, unit) })
	var lines []uint64
	n.l1.ForEachValidLine(func(line uint64, _ bool) { lines = append(lines, line) })
	unit := uint64(r.Intn(1 << 10))
	if len(units) > 0 && r.Intn(4) > 0 {
		unit = units[r.Intn(len(units))]
	}
	block := s.geom.BlockOfUnit(unit)
	switch op := r.Intn(8); {
	case op < 2:
		if f := n.l2.FindBlock(block); f.Ok() {
			n.l2.SetStateAt(f, unit, cache.State(r.Intn(5)))
		}
	case op == 2 && len(lines) > 0:
		line := lines[r.Intn(len(lines))]
		switch r.Intn(3) {
		case 0:
			n.l1.MarkDirty(line)
		case 1:
			n.l1.Invalidate(line)
		default:
			n.l2.SetInL1(s.unitOfLine(line), false)
		}
	case op == 3 && len(n.filters) > 0:
		n.unsafeFl[r.Intn(len(n.filters))]++
	case len(n.filters) > 0:
		switch f := n.filters[r.Intn(len(n.filters))].(type) {
		case *jetty.Exclude:
			f.SnoopMiss(unit, block, r.Intn(2) == 0)
		case *jetty.Include:
			spuriousEviction(r, f, block)
		case *jetty.Hybrid:
			if r.Intn(2) == 0 {
				f.Exclude().SnoopMiss(unit, block, r.Intn(2) == 0)
			} else {
				spuriousEviction(r, f.Include(), block)
			}
		}
	}
}

// spuriousEviction reports block evicted to ij without the L2 evicting
// it, or allocates it (harmless: it only makes the filter conservative).
// An eviction that would underflow a counter is skipped.
func spuriousEviction(r *rand.Rand, ij *jetty.Include, block uint64) {
	if r.Intn(3) == 0 {
		ij.BlockAllocated(block)
		return
	}
	defer func() { _ = recover() }()
	ij.BlockEvicted(block)
}

// TestAuditsDoNotAllocate pins the audits' cost shape: on a warm machine
// with every filter family attached, a passing audit allocates nothing.
func TestAuditsDoNotAllocate(t *testing.T) {
	s := New(hotPathConfig())
	s.StepBatch(hotPathRecs(200_000))
	s.DrainWriteBuffers()
	for _, a := range []audit{coherenceAudits[0], safetyAudits[0]} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := a.run(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", a.name, allocs)
		}
	}
}
