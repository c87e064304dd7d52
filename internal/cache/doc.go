// Package cache provides the tag-array mechanics of the simulated memory
// hierarchy: a set-associative, subblocked L2 keeping MOESI state per
// coherence unit, and a direct-mapped write-back L1. The packages above
// (internal/smp) drive the coherence protocol; this package only provides
// the state containers and their replacement behaviour.
//
// The simulation is data-less: only tags and states are modeled, which is
// all the paper's coverage and energy evaluation needs.
//
// Both caches are laid out for the simulator's per-access hot path (see
// PERFORMANCE.md at the repository root). The L2 keeps flat parallel
// arrays — compact uint32 tags with liveness folded into an all-ones
// sentinel, one packed state+hint byte per coherence unit, per-frame
// 32-bit LRU timestamps — and exposes a Frame handle so one associative search per
// access serves every subsequent touch, state access and hint update.
// The L1 packs each line's tag, flags and covering L2 frame into a
// single uint64 word; caching the frame is sound because inclusion pins
// a block in its L2 frame for as long as any L1 line covers it.
// EnsureBlock reports evictions through a per-cache scratch buffer, so
// steady-state operation allocates nothing.
package cache
