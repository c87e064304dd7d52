package smp

import (
	"fmt"
	"math/bits"

	"jetty/internal/cache"
	"jetty/internal/jetty"
)

// The two audits below run at the end of every simulation pass (the sim
// layer's finishRun), so each one walks the packed cache and filter
// arrays directly: no map, no per-unit callback or interface call, and
// no allocation unless it reports a violation.

// CheckCoherence verifies the MOESI single-writer/multiple-reader
// invariants and L1/L2 inclusion across the whole machine. It is the
// per-cell coherence audit of every run.
//
// Invariants checked, per coherence unit:
//
//  1. at most one cache holds it Modified or Exclusive, and then no other
//     cache holds it in any valid state;
//  2. at most one cache holds it Owned (the owner), and no cache holds it
//     Modified or Exclusive alongside;
//  3. every valid L1 line is covered by a valid unit in its own L2, and a
//     dirty L1 line requires the L2 unit Modified;
//  4. the L2's inL1 hint covers every present L1 line (it may
//     over-approximate, never under-approximate).
//
// Invariants 1–2 can only break for a unit of a block that two L2s
// hold, and only if some cache holds it M, E or O. The walk visits each
// node's live L2 frames in set order, looks the block up in the other
// nodes' (identically shaped) L2s — the same set, so the lookups stream
// through their tag arrays too — and counts holders only for those
// units.
func (s *System) CheckCoherence() error {
	for i := range s.nodes {
		l2 := &s.nodes[i].l2
		for f := l2.NextLive(0); f.Ok(); f = l2.NextLive(f + 1) {
			block := l2.FrameBlock(f)
			if !s.heldElsewhere(i, block) {
				continue
			}
			for u := 0; u < s.geom.UnitsPerBlock; u++ {
				if l2.FrameState(f, u).CanSupply() {
					if err := s.checkHolders(block<<s.upbShift | uint64(u)); err != nil {
						return err
					}
				}
			}
		}
	}

	for i := range s.nodes {
		n := &s.nodes[i]
		for idx := 0; idx < s.cfg.L1.Lines(); idx++ {
			line, dirty, ok := n.l1.LineAt(idx)
			if !ok {
				continue
			}
			unit := s.unitOfLine(line)
			f := n.l2.FindBlock(unit >> s.upbShift)
			st := cache.Invalid
			if f.Ok() {
				st = n.l2.StateAt(f, unit)
			}
			switch {
			case !st.Valid():
				return fmt.Errorf("smp: cpu%d L1 line %#x not covered by L2 (inclusion)", n.id, line)
			case dirty && st != cache.Modified:
				return fmt.Errorf("smp: cpu%d dirty L1 line %#x over L2 state %v", n.id, line, st)
			case !n.l2.InL1At(f, unit):
				return fmt.Errorf("smp: cpu%d L1 line %#x present but inL1 hint clear", n.id, line)
			}
		}
	}
	return nil
}

// heldElsewhere reports whether an L2 other than node i's holds block.
func (s *System) heldElsewhere(i int, block uint64) bool {
	for j := range s.nodes {
		if j != i && s.nodes[j].l2.FindBlock(block).Ok() {
			return true
		}
	}
	return false
}

// checkHolders applies invariants 1–2 to one unit that some cache holds
// Modified, Exclusive or Owned.
func (s *System) checkHolders(unit uint64) error {
	var me, o, sh int
	for i := range s.nodes {
		switch s.nodes[i].l2.UnitState(unit) {
		case cache.Modified, cache.Exclusive:
			me++
		case cache.Owned:
			o++
		case cache.Shared:
			sh++
		}
	}
	switch {
	case me > 1:
		return fmt.Errorf("smp: unit %#x has %d M/E holders", unit, me)
	case me == 1 && (o > 0 || sh > 0):
		return fmt.Errorf("smp: unit %#x held M/E alongside %d O + %d S copies", unit, o, sh)
	case o > 1:
		return fmt.Errorf("smp: unit %#x has %d owners", unit, o)
	}
	return nil
}

// CheckFilterSafety returns an error if any filter ever filtered a snoop
// to a cached unit (the paper's requirement 3, which must never happen).
// Beyond the per-snoop audit trail, it checks every CPU's filters
// against that CPU's resident L2 contents: a filter claiming any
// resident unit absent is a safety violation even if no snoop happened
// to expose it. The check goes through the typed filter groups:
//
//   - an exclude JETTY (alone or inside a hybrid) is walked from the
//     filter side — every key an entry records as absent is looked up in
//     the L2;
//   - an include JETTY (alone or inside a hybrid) ignores the unit, so
//     its p-bits are probed once per resident block;
//   - any other Filter is peeked once per resident unit.
func (s *System) CheckFilterSafety() error {
	for i := range s.cfg.Filters {
		if c := s.FilterCounts(i); c.FilteredHits != 0 {
			return fmt.Errorf("smp: filter %s filtered %d snoops to cached units",
				s.cfg.Filters[i].Name(), c.FilteredHits)
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		b := &n.bank
		for k, e := range b.ejs {
			if err := s.checkExclude(n, e, b.ejIdx[k]); err != nil {
				return err
			}
		}
		for k, h := range b.hjs {
			if err := s.checkExclude(n, h.Exclude(), b.hjIdx[k]); err != nil {
				return err
			}
		}
		if len(b.ijs)+len(b.hjs)+len(b.gen) == 0 {
			continue
		}
		for f := n.l2.NextLive(0); f.Ok(); f = n.l2.NextLive(f + 1) {
			if err := s.checkResidentBlock(n, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkExclude looks up every key an exclude JETTY records as absent in
// the node's L2; idx is the filter's bank position.
func (s *System) checkExclude(n *node, e *jetty.Exclude, idx int) error {
	for i := 0; i < e.Config().Entries(); i++ {
		first, pv := e.Entry(i)
		for ; pv != 0; pv &= pv - 1 {
			key := first + uint64(bits.TrailingZeros64(pv))
			if e.RecordsUnits() {
				if n.l2.UnitState(key).Valid() {
					return s.unsafeResident(n, idx, key)
				}
				continue
			}
			if u, ok := firstValidUnit(&n.l2, n.l2.FindBlock(key), s.geom.UnitsPerBlock); ok {
				return s.unsafeResident(n, idx, key<<s.upbShift|uint64(u))
			}
		}
	}
	return nil
}

// checkResidentBlock checks the block in live frame f (if it holds a
// valid unit) against the node's include JETTYs, the include halves of
// its hybrids, and any other filters.
func (s *System) checkResidentBlock(n *node, f cache.Frame) error {
	block := n.l2.FrameBlock(f)
	u, ok := firstValidUnit(&n.l2, f, s.geom.UnitsPerBlock)
	if !ok {
		return nil
	}
	unit := block<<s.upbShift | uint64(u)
	b := &n.bank
	for k, ij := range b.ijs {
		if ij.Peek(unit, block) {
			return s.unsafeResident(n, b.ijIdx[k], unit)
		}
	}
	for k, h := range b.hjs {
		if h.Include().Peek(unit, block) {
			return s.unsafeResident(n, b.hjIdx[k], unit)
		}
	}
	for ; u < s.geom.UnitsPerBlock; u++ {
		if !n.l2.FrameState(f, u).Valid() {
			continue
		}
		unit = block<<s.upbShift | uint64(u)
		for k, g := range b.gen {
			if g.Peek(unit, block) {
				return s.unsafeResident(n, b.genIdx[k], unit)
			}
		}
	}
	return nil
}

// firstValidUnit returns the index of the first valid unit of frame f,
// or false if f is NoFrame or holds none.
func firstValidUnit(l2 *cache.L2, f cache.Frame, upb int) (int, bool) {
	if !f.Ok() {
		return 0, false
	}
	for u := 0; u < upb; u++ {
		if l2.FrameState(f, u).Valid() {
			return u, true
		}
	}
	return 0, false
}

// unsafeResident reports that filter idx of node n claims a resident
// unit absent.
func (s *System) unsafeResident(n *node, idx int, unit uint64) error {
	return fmt.Errorf("smp: cpu%d filter %s claims resident unit %#x absent",
		n.id, s.cfg.Filters[idx].Name(), unit)
}
