package workload

import (
	"math"
	"math/rand"
	"testing"
)

// rngTestSeeds covers the seed reductions rand.NewSource performs (zero,
// negatives, multiples of 2^31-1, seeds above 2^31) plus 200 random ones.
func rngTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, 7919, 89482311, 1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1),
		1 << 31, 1<<31 + 1, 1 << 40, -1 << 40, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		s := r.Int63() >> uint(r.Intn(63))
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestRNGMatchesMathRand pins the native source to
// rand.New(rand.NewSource(seed)) for every draw method the generator
// uses, on both the power-of-two and the rejection paths.
func TestRNGMatchesMathRand(t *testing.T) {
	draws := []struct {
		name string
		ref  func(*rand.Rand) int64
		nat  func(*rng) int64
	}{
		{"Float64", func(r *rand.Rand) int64 { return int64(math.Float64bits(r.Float64())) },
			func(r *rng) int64 { return int64(math.Float64bits(r.Float64())) }},
		{"Int63", func(r *rand.Rand) int64 { return r.Int63() }, func(r *rng) int64 { return r.Int63() }},
		{"Uint64", func(r *rand.Rand) int64 { return int64(r.Uint64()) }, func(r *rng) int64 { return int64(r.Uint64()) }},
		{"Int63n(pow2)", func(r *rand.Rand) int64 { return r.Int63n(1 << 20) }, func(r *rng) int64 { return r.Int63n(1 << 20) }},
		{"Int63n(12MB)", func(r *rand.Rand) int64 { return r.Int63n(12 << 20) }, func(r *rng) int64 { return r.Int63n(12 << 20) }},
		{"Int63n(rejecting)", func(r *rand.Rand) int64 { return r.Int63n(1<<62 + 1) }, func(r *rng) int64 { return r.Int63n(1<<62 + 1) }},
		{"Intn(4)", func(r *rand.Rand) int64 { return int64(r.Intn(4)) }, func(r *rng) int64 { return int64(r.Intn(4)) }},
		{"Intn(3)", func(r *rand.Rand) int64 { return int64(r.Intn(3)) }, func(r *rng) int64 { return int64(r.Intn(3)) }},
		{"Intn(rejecting)", func(r *rand.Rand) int64 { return int64(r.Intn(1<<30 + 1)) }, func(r *rng) int64 { return int64(r.Intn(1<<30 + 1)) }},
		{"Intn(wide)", func(r *rand.Rand) int64 { return int64(r.Intn(1<<40 + 3)) }, func(r *rng) int64 { return int64(r.Intn(1<<40 + 3)) }},
		{"Int31n(7)", func(r *rand.Rand) int64 { return int64(r.Int31n(7)) }, func(r *rng) int64 { return int64(r.Int31n(7)) }},
	}
	for _, seed := range rngTestSeeds() {
		ref := rand.New(rand.NewSource(seed))
		var nat rng
		nat.Seed(seed)
		// A seed-dependent walk through the methods, long enough to wrap
		// the 607-slot register several times.
		pick := uint64(seed)
		for i := 0; i < 5000; i++ {
			pick = pick*6364136223846793005 + 1442695040888963407
			d := draws[(pick>>33)%uint64(len(draws))]
			if got, want := d.nat(&nat), d.ref(ref); got != want {
				t.Fatalf("seed %d, draw %d (%s): native %d, math/rand %d", seed, i, d.name, got, want)
			}
		}
	}
}

// TestRNGZipfSharesTheStream checks the Zipf path: a rand.Zipf over
// rand.New(native) interleaved with direct draws reproduces the same
// mixture over rand.New(rand.NewSource(seed)).
func TestRNGZipfSharesTheStream(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		ref := rand.New(rand.NewSource(seed))
		var nat rng
		nat.Seed(seed)
		zr := rand.NewZipf(ref, 1.2, 1, 1<<15-1)
		zn := rand.NewZipf(rand.New(&nat), 1.2, 1, 1<<15-1)
		for i := 0; i < 2000; i++ {
			if got, want := zn.Uint64(), zr.Uint64(); got != want {
				t.Fatalf("seed %d, draw %d: native zipf %d, math/rand zipf %d", seed, i, got, want)
			}
			if got, want := nat.Intn(8), ref.Intn(8); got != want {
				t.Fatalf("seed %d, draw %d: native Intn %d, math/rand Intn %d", seed, i, got, want)
			}
		}
	}
}
