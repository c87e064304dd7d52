package cache

import (
	"fmt"

	"jetty/internal/addr"
)

// L1Config sizes the direct-mapped, write-back, write-allocate L1.
type L1Config struct {
	SizeBytes int
	LineBytes int
}

// Lines returns the number of line frames.
func (c L1Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Validate reports configuration errors.
func (c L1Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || !addr.IsPow2(c.SizeBytes):
		return fmt.Errorf("cache: L1 size %d not a power of two", c.SizeBytes)
	case c.LineBytes <= 0 || !addr.IsPow2(c.LineBytes):
		return fmt.Errorf("cache: L1 line %d not a power of two", c.LineBytes)
	case c.Lines() < 1:
		return fmt.Errorf("cache: L1 of %d bytes cannot hold %d-byte lines", c.SizeBytes, c.LineBytes)
	}
	return nil
}

// Each line frame is one packed word: the tag in the high bits, the
// covering L2 frame in the middle, the valid/dirty/excl flags in the low
// three bits. A lookup is then a single load plus compare — no struct
// field fan-out — which matters because Contains sits on the critical
// path of every simulated reference.
//
// Caching the L2 frame per line exploits inclusion: while a line is
// valid in L1 its coherence unit is valid in L2, so the unit's block
// cannot leave (or move within) the L2 — the frame recorded at fill time
// stays correct for the line's whole residency. Store drains and victim
// cleanups therefore skip the L2 associative search entirely.
const (
	l1Valid = 1 << 0
	l1Dirty = 1 << 1
	l1Excl  = 1 << 2 // filled while the L2 unit was writable (M/E): stores
	// may proceed without interrogating the L2 (MESI-in-L1)
	l1FrameShift = 3
	l1FrameBits  = 28
	l1TagShift   = l1FrameShift + l1FrameBits
	l1FrameMask  = (1 << l1FrameBits) - 1
)

// MaxCachedFrames is the largest L2 frame count whose Frame indexes fit
// the L1 line word's frame field. The protocol layer must reject L2
// configurations beyond it before wiring the two caches together
// (smp.Config.Validate does).
const MaxCachedFrames = 1 << l1FrameBits

// L1 is a direct-mapped, write-back, data-less L1. Coherence is enforced
// at the L2 (inclusion): the L1 tracks valid/dirty plus an exclusivity
// hint that lets stores to lines fetched in a writable state proceed
// without an L2 access (deferring the M update to writeback time, as
// MESI-in-L1 hierarchies do).
type L1 struct {
	cfg       L1Config
	idxBits   uint
	idxMask   uint64
	lineShift uint
	words     []uint64 // packed tag+flags per frame; 0 == invalid
}

// NewL1 builds an L1. It panics on an invalid configuration.
func NewL1(cfg L1Config) *L1 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	idxBits := uint(addr.Log2(uint64(cfg.Lines())))
	if tagBits := addr.PhysBits - addr.Log2(uint64(cfg.SizeBytes)); tagBits+l1TagShift > 64 {
		panic(fmt.Sprintf("cache: L1 of %d bytes leaves %d tag bits, exceeding the packed word", cfg.SizeBytes, tagBits))
	}
	return &L1{
		cfg:       cfg,
		idxBits:   idxBits,
		idxMask:   (uint64(1) << idxBits) - 1,
		lineShift: uint(addr.Log2(uint64(cfg.LineBytes))),
		words:     make([]uint64, cfg.Lines()),
	}
}

// Config returns the cache configuration.
func (l *L1) Config() L1Config { return l.cfg }

// LineAddr returns the line number of a byte address.
func (l *L1) LineAddr(a addr.Addr) uint64 {
	return (a & addr.PhysMask) >> l.lineShift
}

func (l *L1) split(line uint64) (int, uint64) {
	return int(line & l.idxMask), line >> l.idxBits
}

// Contains reports whether the line is present.
func (l *L1) Contains(line uint64) bool {
	idx, tag := l.split(line)
	w := l.words[idx]
	return w&l1Valid != 0 && w>>l1TagShift == tag
}

// LineShift returns log2(LineBytes): byte address >> LineShift == line.
func (l *L1) LineShift() uint { return l.lineShift }

// Lookup returns the line's presence, dirty and exclusivity flags plus
// the cached covering L2 frame in one probe (the store-drain path needs
// all of them).
func (l *L1) Lookup(line uint64) (present, dirty, excl bool, frame Frame) {
	idx, tag := l.split(line)
	w := l.words[idx]
	if w&l1Valid == 0 || w>>l1TagShift != tag {
		return false, false, false, NoFrame
	}
	return true, w&l1Dirty != 0, w&l1Excl != 0, Frame(w >> l1FrameShift & l1FrameMask)
}

// Dirty reports whether the line is present and dirty.
func (l *L1) Dirty(line uint64) bool {
	idx, tag := l.split(line)
	w := l.words[idx]
	return w&(l1Valid|l1Dirty) == l1Valid|l1Dirty && w>>l1TagShift == tag
}

// Exclusive reports whether the line is present with its exclusivity
// hint set (a store needs no L2 interrogation).
func (l *L1) Exclusive(line uint64) bool {
	idx, tag := l.split(line)
	w := l.words[idx]
	return w&(l1Valid|l1Excl) == l1Valid|l1Excl && w>>l1TagShift == tag
}

// ClearExclusive drops the exclusivity hint (the L2 unit was downgraded
// by a snoop while the line sat in L1).
func (l *L1) ClearExclusive(line uint64) {
	idx, tag := l.split(line)
	if w := l.words[idx]; w&l1Valid != 0 && w>>l1TagShift == tag {
		l.words[idx] = w &^ l1Excl
	}
}

// MarkDirty marks a present line dirty; it panics if the line is absent.
func (l *L1) MarkDirty(line uint64) {
	idx, tag := l.split(line)
	w := l.words[idx]
	if w&l1Valid == 0 || w>>l1TagShift != tag {
		panic(fmt.Sprintf("cache: MarkDirty(%#x) on absent line", line))
	}
	l.words[idx] = w | l1Dirty
}

// Victim describes a line displaced by Fill, carrying the cached L2
// frame of the displaced line's unit.
type Victim struct {
	Line  uint64
	Frame Frame
	Dirty bool
}

// Fill installs a line, returning the displaced victim if a valid line
// occupied the frame. excl records whether the covering L2 unit is
// writable (M/E) at fill time; frame is the unit's L2 frame, cached in
// the line word for the store-drain and victim paths.
func (l *L1) Fill(line uint64, excl bool, frame Frame) (Victim, bool) {
	idx, tag := l.split(line)
	w := l.words[idx]
	var v Victim
	had := false
	if w&l1Valid != 0 && w>>l1TagShift != tag {
		v = Victim{
			Line:  (w>>l1TagShift)<<l.idxBits | uint64(idx),
			Frame: Frame(w >> l1FrameShift & l1FrameMask),
			Dirty: w&l1Dirty != 0,
		}
		had = true
	}
	nw := tag<<l1TagShift | uint64(frame)<<l1FrameShift | l1Valid
	if excl {
		nw |= l1Excl
	}
	l.words[idx] = nw
	return v, had
}

// Clean clears the dirty bit of the line if present (snoop downgrade: the
// dirty data has merged into the L2 copy being supplied on the bus).
func (l *L1) Clean(line uint64) {
	idx, tag := l.split(line)
	if w := l.words[idx]; w&l1Valid != 0 && w>>l1TagShift == tag {
		l.words[idx] = w &^ l1Dirty
	}
}

// Invalidate removes the line if present, returning whether it was present
// and whether it was dirty (inclusion enforcement discards the dirty data
// upward into the L2, which the protocol layer accounts for).
func (l *L1) Invalidate(line uint64) (present, dirty bool) {
	idx, tag := l.split(line)
	w := l.words[idx]
	if w&l1Valid == 0 || w>>l1TagShift != tag {
		return false, false
	}
	l.words[idx] = 0
	return true, w&l1Dirty != 0
}

// ValidLines returns the number of valid lines.
func (l *L1) ValidLines() int {
	n := 0
	for _, w := range l.words {
		if w&l1Valid != 0 {
			n++
		}
	}
	return n
}

// LineAt returns the line frame idx holds and its dirty flag; ok is
// false for an invalid frame. There are Config().Lines() frames, so a
// whole-cache audit walks them directly instead of through a callback.
func (l *L1) LineAt(idx int) (line uint64, dirty, ok bool) {
	w := l.words[idx]
	return (w>>l1TagShift)<<l.idxBits | uint64(idx), w&l1Dirty != 0, w&l1Valid != 0
}

// ForEachValidLine calls fn for every valid line number. Intended for
// tests.
func (l *L1) ForEachValidLine(fn func(line uint64, dirty bool)) {
	for idx := range l.words {
		if line, dirty, ok := l.LineAt(idx); ok {
			fn(line, dirty)
		}
	}
}
