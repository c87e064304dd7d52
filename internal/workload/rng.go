package workload

import "math/rand"

// rng reproduces rand.New(rand.NewSource(seed)) exactly, as a concrete
// type, so the generator's several draws per reference are direct calls
// rather than interface calls into a rand.Source. The source is
// math/rand's additive lagged-Fibonacci generator (Go 1's rngSource),
// and the draw methods below are math/rand's, including its
// power-of-two masks and rejection loops, so every stream is the one
// rand.New(rand.NewSource(seed)) produces.
type rng struct {
	tap, feed int
	vec       [rngLen]int64
}

// The lagged-Fibonacci register of math/rand's rngSource.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// Seed sets the register to the state rand.NewSource(seed) starts from.
// That state is derived from a table math/rand keeps unexported, so it
// is recovered from the reference source's output instead: one draw
// moves tap and feed back by one and overwrites vec[feed] with the
// output, so rngLen draws overwrite every slot exactly once and leave
// tap and feed where seeding put them. Recording those draws rebuilds
// the register after them; undoing the draws, newest first, rebuilds
// the seeded register. Seed also makes rng a rand.Source, so a
// rand.Zipf can share the stream.
func (r *rng) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	r.tap, r.feed = 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		r.back()
		r.vec[r.feed] = int64(ref.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		r.vec[r.feed] -= r.vec[r.tap]
		if r.tap++; r.tap == rngLen {
			r.tap = 0
		}
		if r.feed++; r.feed == rngLen {
			r.feed = 0
		}
	}
}

// back moves tap and feed to the slots of the next draw. They differ
// by a constant, so at most one wraps per draw: one branch tests both.
func (r *rng) back() {
	r.tap--
	r.feed--
	if r.tap|r.feed < 0 {
		if r.tap < 0 {
			r.tap += rngLen
		} else {
			r.feed += rngLen
		}
	}
}

// Uint64 is rngSource.Uint64.
func (r *rng) Uint64() uint64 {
	r.back()
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63 (and rand.Rand.Int63).
func (r *rng) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Int31 is rand.Rand.Int31.
func (r *rng) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 is rand.Rand.Float64.
func (r *rng) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Int63n is rand.Rand.Int63n; n must be positive.
func (r *rng) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n is rand.Rand.Int31n; n must be positive.
func (r *rng) Int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn is rand.Rand.Intn; n must be positive.
func (r *rng) Intn(n int) int {
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}
