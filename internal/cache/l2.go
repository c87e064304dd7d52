package cache

import (
	"fmt"
	"math"

	"jetty/internal/addr"
)

// L2Config sizes an L2 cache.
type L2Config struct {
	SizeBytes int
	Assoc     int
	Geom      addr.Geometry
}

// Sets returns the number of sets.
func (c L2Config) Sets() int { return c.SizeBytes / (c.Geom.BlockBytes * c.Assoc) }

// Blocks returns the total number of block frames.
func (c L2Config) Blocks() int { return c.SizeBytes / c.Geom.BlockBytes }

// Validate reports configuration errors.
func (c L2Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	switch {
	case c.SizeBytes <= 0 || !addr.IsPow2(c.SizeBytes):
		return fmt.Errorf("cache: L2 size %d not a power of two", c.SizeBytes)
	case c.Assoc <= 0 || !addr.IsPow2(c.Assoc) || c.Assoc > 64:
		return fmt.Errorf("cache: L2 assoc %d not a power of two in 1..64", c.Assoc)
	case c.Sets() < 1:
		return fmt.Errorf("cache: L2 of %d bytes cannot hold %d-way sets of %d-byte blocks",
			c.SizeBytes, c.Assoc, c.Geom.BlockBytes)
	case c.SizeBytes/c.Assoc < 32:
		// Tag width is PhysBits - log2(SizeBytes/Assoc); 32 bytes per way
		// bounds it at 31 bits so a tag (plus the empty sentinel) packs
		// into the uint32 tag array.
		return fmt.Errorf("cache: L2 of %d bytes at %d ways leaves tags wider than 31 bits",
			c.SizeBytes, c.Assoc)
	}
	return nil
}

// EvictedUnit describes one valid unit of an evicted block.
type EvictedUnit struct {
	Unit  uint64
	State State
	InL1  bool
}

// Eviction describes a block leaving the L2 (capacity replacement): every
// valid unit, so the caller can write back dirty ones and enforce L1
// inclusion. Evictions returned by EnsureBlock point into a per-cache
// scratch buffer and stay valid only until the next EnsureBlock call.
type Eviction struct {
	Block uint64
	Units []EvictedUnit
}

// DirtyUnits counts units needing writeback.
func (e Eviction) DirtyUnits() int {
	n := 0
	for _, u := range e.Units {
		if u.State.Dirty() {
			n++
		}
	}
	return n
}

// Frame is a handle to a resident L2 block frame, as returned by
// FindBlock and EnsureFrame. A frame stays valid while its block stays
// resident: any EnsureBlock/EnsureFrame in the same cache, or an
// invalidation that frees the block, may invalidate outstanding frames.
type Frame int32

// NoFrame is the absent-block result of FindBlock.
const NoFrame Frame = -1

// Ok reports whether the handle names a resident frame.
func (f Frame) Ok() bool { return f >= 0 }

// emptyTag marks a frame with no installed tag. No real tag collides:
// Validate bounds tags at 31 bits (see the SizeBytes/Assoc check), so
// the sentinel is unreachable. Folding liveness into a compact uint32
// tag word keeps the associative search to one contiguous run per set —
// a 4-way set's tags span 16 bytes of one cache line.
const emptyTag = ^uint32(0)

// Unit-byte layout: MOESI state in the low 3 bits, the L1-inclusion hint
// in bit 3. One byte per unit keeps the state and the hint on the same
// cache line for every state+hint access pair.
const (
	unitStateMask = 0x7
	unitInL1      = 1 << 3
)

// L2 is a set-associative, subblocked, data-less L2 cache.
//
// The per-frame state lives in flat parallel arrays (tags, liveness, LRU
// ranks, unit states, L1-inclusion hints) rather than per-way structs,
// and the set/tag/unit arithmetic is precomputed shifts and masks: the
// associative search on every simulated L2 access walks a few contiguous
// cache lines instead of chasing per-way slice headers. See
// PERFORMANCE.md for the measured effect.
type L2 struct {
	cfg        L2Config
	assoc      int
	assocShift uint
	setBits    uint
	setMask    uint64
	upb        int  // units per block
	upbShift   uint // log2(upb)
	unitMask   uint64

	tags  []uint32 // per frame: block address >> setBits; emptyTag == free
	units []uint8  // frame-major, upb per frame: state (low 3 bits) | inL1 (bit 3)

	// Recency is tracked with per-frame timestamps: TouchAt is one store
	// (stamp = clock++) instead of a rank-shuffling loop over the set,
	// and the replacement scan takes the minimum stamp. Stamps within a
	// set are always distinct, so the victim matches rank-based LRU.
	// Stamps are 32 bits (a frame costs 10 bytes of a subblocked L2, not
	// 14): before the clock would wrap, renumber replaces every set's
	// stamps by their ranks, which keeps each set's order and therefore
	// every later victim.
	stamp []uint32
	clock uint32

	ev Eviction // reusable EnsureBlock result; see Eviction
}

// NewL2 builds an L2. It panics on an invalid configuration.
func NewL2(cfg L2Config) *L2 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	frames := sets * cfg.Assoc
	upb := cfg.Geom.UnitsPerBlock
	l := &L2{
		cfg:        cfg,
		assoc:      cfg.Assoc,
		assocShift: uint(addr.Log2(uint64(cfg.Assoc))),
		setBits:    uint(addr.Log2(uint64(sets))),
		setMask:    uint64(sets) - 1,
		upb:        upb,
		upbShift:   uint(addr.Log2(uint64(upb))),
		unitMask:   uint64(upb) - 1,
		tags:       make([]uint32, frames),
		stamp:      make([]uint32, frames),
		units:      make([]uint8, frames*upb),
		ev:         Eviction{Units: make([]EvictedUnit, 0, upb)},
	}
	wayMask := cfg.Assoc - 1
	for i := range l.stamp {
		l.tags[i] = emptyTag
		// Distinct initial recency within each set: way 0 most recent.
		l.stamp[i] = uint32(wayMask - i&wayMask)
	}
	l.clock = uint32(cfg.Assoc)
	return l
}

// Config returns the cache configuration.
func (l *L2) Config() L2Config { return l.cfg }

// FindBlock returns the frame holding block, or NoFrame.
func (l *L2) FindBlock(block uint64) Frame {
	set := int(block & l.setMask)
	tag := uint32(block >> l.setBits)
	base := set << l.assocShift
	for w, t := range l.tags[base : base+l.assoc] {
		if t == tag {
			return Frame(base + w)
		}
	}
	return NoFrame
}

// unitIdx returns the state/inL1 array index of unit within frame f.
func (l *L2) unitIdx(f Frame, unit uint64) int {
	return int(f)<<l.upbShift | int(unit&l.unitMask)
}

// StateAt returns the MOESI state of a unit of a resident frame.
func (l *L2) StateAt(f Frame, unit uint64) State {
	return State(l.units[l.unitIdx(f, unit)] & unitStateMask)
}

// SetStateAt sets the MOESI state of a unit of a resident frame.
func (l *L2) SetStateAt(f Frame, unit uint64, s State) {
	idx := l.unitIdx(f, unit)
	l.units[idx] = l.units[idx]&^unitStateMask | uint8(s)
}

// InL1At reports the L1-inclusion hint of a unit of a resident frame.
func (l *L2) InL1At(f Frame, unit uint64) bool {
	return l.units[l.unitIdx(f, unit)]&unitInL1 != 0
}

// SetInL1At records whether a covered L1 line may exist for a unit of a
// resident frame.
func (l *L2) SetInL1At(f Frame, unit uint64, v bool) {
	idx := l.unitIdx(f, unit)
	if v {
		l.units[idx] |= unitInL1
	} else {
		l.units[idx] &^= unitInL1
	}
}

// TouchAt promotes the frame to most-recently-used in its set.
func (l *L2) TouchAt(f Frame) {
	if l.clock == math.MaxUint32 {
		l.renumber()
	}
	l.stamp[f] = l.clock
	l.clock++
}

// renumber replaces each set's stamps by their ranks 0..assoc-1 and
// restarts the clock at assoc. Every stamp is below the clock and the
// stamps of a set are distinct, so each set keeps its recency order.
// It runs once per 2^32 touches; keeping it out of line keeps TouchAt
// inlinable.
//
//go:noinline
func (l *L2) renumber() {
	for base := 0; base < len(l.stamp); base += l.assoc {
		set := l.stamp[base : base+l.assoc]
		var ranks [64]uint32 // Validate caps assoc at 64
		for w, sw := range set {
			for _, so := range set {
				if so < sw {
					ranks[w]++
				}
			}
		}
		copy(set, ranks[:l.assoc])
	}
	l.clock = uint32(l.assoc)
}

// InvalidateAt invalidates a unit of a resident frame (snoop-induced).
// If that empties the block, the tag is freed — and the frame handle
// becomes invalid. It returns the unit's prior state and whether the
// block was deallocated (an IJ BlockEvicted event).
func (l *L2) InvalidateAt(f Frame, unit uint64) (prior State, blockFreed bool) {
	idx := l.unitIdx(f, unit)
	prior = State(l.units[idx] & unitStateMask)
	l.units[idx] = 0
	base := int(f) << l.upbShift
	for i := base; i < base+l.upb; i++ {
		if l.units[i]&unitStateMask != 0 {
			return prior, false
		}
	}
	l.tags[f] = emptyTag
	return prior, true
}

// FrameBlock returns the block address held by a resident frame.
func (l *L2) FrameBlock(f Frame) uint64 {
	set := uint64(int(f) >> l.assocShift)
	return uint64(l.tags[f])<<l.setBits | set
}

// EnsureFrame installs the block's tag if absent, evicting a victim
// frame when the set is full, and returns the block's frame. ev (nil if
// no eviction) points into the cache's scratch buffer and is valid only
// until the next EnsureFrame/EnsureBlock call.
func (l *L2) EnsureFrame(block uint64) (ev *Eviction, allocated bool, f Frame) {
	if f := l.FindBlock(block); f.Ok() {
		return nil, false, f
	}
	set := int(block & l.setMask)
	tag := uint32(block >> l.setBits)
	base := set << l.assocShift

	victim := -1
	oldest := ^uint32(0)
	for w := 0; w < l.assoc; w++ {
		if l.tags[base+w] == emptyTag {
			victim = w
			break
		}
		if l.stamp[base+w] < oldest {
			victim, oldest = w, l.stamp[base+w]
		}
	}

	f = Frame(base + victim)
	ubase := int(f) << l.upbShift
	if l.tags[f] != emptyTag {
		l.ev.Block = l.FrameBlock(f)
		l.ev.Units = l.ev.Units[:0]
		for i := 0; i < l.upb; i++ {
			if b := l.units[ubase+i]; b&unitStateMask != 0 {
				l.ev.Units = append(l.ev.Units, EvictedUnit{
					Unit:  l.ev.Block<<l.upbShift | uint64(i),
					State: State(b & unitStateMask),
					InL1:  b&unitInL1 != 0,
				})
			}
		}
		ev = &l.ev
	}
	l.tags[f] = tag
	for i := 0; i < l.upb; i++ {
		l.units[ubase+i] = 0
	}
	l.TouchAt(f)
	return ev, true, f
}

// EnsureBlock installs the block's tag if absent, evicting a victim frame
// when the set is full. It returns the eviction (nil if none; valid only
// until the next EnsureBlock/EnsureFrame call) and whether a new tag was
// installed (an IJ BlockAllocated event).
func (l *L2) EnsureBlock(block uint64) (*Eviction, bool) {
	ev, allocated, _ := l.EnsureFrame(block)
	return ev, allocated
}

// HasBlock reports whether the block's tag is installed.
func (l *L2) HasBlock(block uint64) bool { return l.FindBlock(block).Ok() }

// UnitState returns the MOESI state of a coherence unit (Invalid if the
// block is absent).
func (l *L2) UnitState(unit uint64) State {
	f := l.FindBlock(unit >> l.upbShift)
	if !f.Ok() {
		return Invalid
	}
	return l.StateAt(f, unit)
}

// Touch promotes the block to most-recently-used. No-op if absent.
func (l *L2) Touch(block uint64) {
	if f := l.FindBlock(block); f.Ok() {
		l.TouchAt(f)
	}
}

// SetUnitState sets the MOESI state of a unit whose block tag must be
// installed (EnsureBlock first); it panics otherwise — the protocol layer
// must never touch units of absent blocks.
func (l *L2) SetUnitState(unit uint64, s State) {
	f := l.FindBlock(unit >> l.upbShift)
	if !f.Ok() {
		panic(fmt.Sprintf("cache: SetUnitState(%#x) on absent block", unit))
	}
	l.SetStateAt(f, unit, s)
}

// InvalidateUnit invalidates a unit (snoop-induced). If that empties the
// block, the tag is freed. It returns the unit's prior state and whether
// the block was deallocated (an IJ BlockEvicted event).
func (l *L2) InvalidateUnit(unit uint64) (prior State, blockFreed bool) {
	f := l.FindBlock(unit >> l.upbShift)
	if !f.Ok() {
		return Invalid, false
	}
	return l.InvalidateAt(f, unit)
}

// SetInL1 records whether a covered L1 line may exist for the unit.
// No-op if the block is absent.
func (l *L2) SetInL1(unit uint64, v bool) {
	if f := l.FindBlock(unit >> l.upbShift); f.Ok() {
		l.SetInL1At(f, unit, v)
	}
}

// InL1 reports the L1-inclusion hint for the unit.
func (l *L2) InL1(unit uint64) bool {
	f := l.FindBlock(unit >> l.upbShift)
	if !f.Ok() {
		return false
	}
	return l.InL1At(f, unit)
}

// LiveBlocks returns the number of installed block tags.
func (l *L2) LiveBlocks() int {
	n := 0
	for _, t := range l.tags {
		if t != emptyTag {
			n++
		}
	}
	return n
}

// NextLive returns the first frame at or after f that holds a block, or
// NoFrame. Frames are numbered set-major (set s owns frames s*Assoc
// through s*Assoc+Assoc-1), so a whole-cache audit walks the packed
// arrays with NextLive, FrameBlock and FrameState instead of a callback
// per unit, skipping free frames in a tight scan of the tag array.
func (l *L2) NextLive(f Frame) Frame {
	for i := int(f); i < len(l.tags); i++ {
		if l.tags[i] != emptyTag {
			return Frame(i)
		}
	}
	return NoFrame
}

// FrameState returns the MOESI state of unit i (0 <= i < UnitsPerBlock)
// of frame f.
func (l *L2) FrameState(f Frame, i int) State {
	return State(l.units[int(f)<<l.upbShift|i] & unitStateMask)
}

// ForEachValidUnit calls fn for every valid unit. Iteration order is
// arbitrary but deterministic. Intended for tests.
func (l *L2) ForEachValidUnit(fn func(unit uint64, s State)) {
	for f := l.NextLive(0); f.Ok(); f = l.NextLive(f + 1) {
		block := l.FrameBlock(f)
		for i := 0; i < l.upb; i++ {
			if st := l.FrameState(f, i); st.Valid() {
				fn(block<<l.upbShift|uint64(i), st)
			}
		}
	}
}
