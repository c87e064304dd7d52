package cache

import (
	"math"
	"math/rand"
	"testing"

	"jetty/internal/addr"
)

// refL2 is the replacement reference for the 32-bit recency clock: the
// same frame layout and victim rule as L2, with 64-bit stamps that never
// wrap.
type refL2 struct {
	assoc, upb int
	setMask    uint64
	block      []int64 // per frame: resident block, -1 if free
	units      []State // frame-major, upb per frame
	stamp      []uint64
	clock      uint64
}

// access installs block (evicting the least recent frame of a full set)
// or promotes it, and returns the frame, whether it was installed, and
// the evicted block's valid units (nil if nothing was evicted).
func (r *refL2) access(block uint64) (f int, allocated bool, evicted []EvictedUnit) {
	base := int(block&r.setMask) * r.assoc
	for w := 0; w < r.assoc; w++ {
		if r.block[base+w] == int64(block) {
			r.stamp[base+w] = r.clock
			r.clock++
			return base + w, false, nil
		}
	}
	victim, oldest := -1, uint64(math.MaxUint64)
	for w := 0; w < r.assoc; w++ {
		if r.block[base+w] < 0 {
			victim = w
			break
		}
		if r.stamp[base+w] < oldest {
			victim, oldest = w, r.stamp[base+w]
		}
	}
	f = base + victim
	if old := r.block[f]; old >= 0 {
		evicted = []EvictedUnit{}
		for i := 0; i < r.upb; i++ {
			if s := r.units[f*r.upb+i]; s.Valid() {
				evicted = append(evicted, EvictedUnit{Unit: uint64(old)*uint64(r.upb) + uint64(i), State: s})
			}
		}
	}
	r.block[f] = int64(block)
	for i := 0; i < r.upb; i++ {
		r.units[f*r.upb+i] = Invalid
	}
	r.stamp[f] = r.clock
	r.clock++
	return f, true, evicted
}

// invalidate drops one unit, freeing its frame when no unit stays valid.
func (r *refL2) invalidate(unit uint64) {
	block := unit / uint64(r.upb)
	base := int(block&r.setMask) * r.assoc
	for w := 0; w < r.assoc; w++ {
		f := base + w
		if r.block[f] != int64(block) {
			continue
		}
		r.units[f*r.upb+int(unit%uint64(r.upb))] = Invalid
		for i := 0; i < r.upb; i++ {
			if r.units[f*r.upb+i].Valid() {
				return
			}
		}
		r.block[f] = -1
		return
	}
}

// TestRecencyClockWrapMatchesReference starts the 32-bit clock a few
// hundred touches below 2^32 and drives a random install, touch, state
// and invalidate sequence through the cache and a 64-bit-stamp
// reference in lockstep: every frame choice and every eviction must
// match through the renumbering, and each set's recency order must stay
// the reference's.
func TestRecencyClockWrapMatchesReference(t *testing.T) {
	for _, c := range []struct{ size, assoc int }{{4096, 1}, {4096, 2}, {4096, 4}, {8192, 8}, {4096, 64}} {
		cfg := L2Config{SizeBytes: c.size, Assoc: c.assoc, Geom: addr.Subblocked}
		l := NewL2(cfg)
		upb := cfg.Geom.UnitsPerBlock
		ref := &refL2{
			assoc: c.assoc, upb: upb, setMask: uint64(cfg.Sets()) - 1,
			block: make([]int64, len(l.tags)),
			units: make([]State, len(l.units)),
			stamp: make([]uint64, len(l.stamp)),
		}
		offset := uint32(math.MaxUint32 - 300 - c.assoc)
		for i := range l.stamp {
			ref.block[i] = -1
			ref.stamp[i] = uint64(l.stamp[i])
			l.stamp[i] += offset
		}
		ref.clock = uint64(l.clock)
		l.clock += offset

		rng := rand.New(rand.NewSource(int64(c.size + c.assoc)))
		blocks := uint64(3 * cfg.Blocks())
		wrapped := false
		for step := 0; step < 5000; step++ {
			if rng.Intn(4) == 0 {
				unit := uint64(rng.Int63n(int64(blocks))) * uint64(upb)
				unit += uint64(rng.Intn(upb))
				l.InvalidateUnit(unit)
				ref.invalidate(unit)
			} else {
				block := uint64(rng.Int63n(int64(blocks)))
				ev, allocated, f := l.EnsureFrame(block)
				if !allocated {
					l.TouchAt(f)
				}
				rf, rallocated, revicted := ref.access(block)
				if int(f) != rf || allocated != rallocated {
					t.Fatalf("%d-way step %d: frame %d allocated %v, reference %d %v", c.assoc, step, f, allocated, rf, rallocated)
				}
				switch {
				case (ev == nil) != (revicted == nil):
					t.Fatalf("%d-way step %d: eviction %v, reference %v", c.assoc, step, ev, revicted)
				case ev != nil:
					if len(ev.Units) != len(revicted) {
						t.Fatalf("%d-way step %d: evicted %v, reference %v", c.assoc, step, ev.Units, revicted)
					}
					for i, u := range ev.Units {
						if u.Unit != revicted[i].Unit || u.State != revicted[i].State {
							t.Fatalf("%d-way step %d: evicted %v, reference %v", c.assoc, step, ev.Units, revicted)
						}
					}
				}
				unit := block*uint64(upb) + uint64(rng.Intn(upb))
				s := State(1 + rng.Intn(int(Modified)))
				l.SetStateAt(f, unit, s)
				ref.units[rf*upb+int(unit%uint64(upb))] = s
			}
			wrapped = wrapped || l.clock < offset
			for base := 0; base < len(l.stamp); base += c.assoc {
				for a := base; a < base+c.assoc; a++ {
					for b := base; b < base+c.assoc; b++ {
						if (l.stamp[a] < l.stamp[b]) != (ref.stamp[a] < ref.stamp[b]) {
							t.Fatalf("%d-way step %d: frames %d and %d out of recency order", c.assoc, step, a, b)
						}
					}
				}
			}
		}
		if !wrapped {
			t.Fatalf("%d-way: the clock never reached its wrap point", c.assoc)
		}
	}
}
