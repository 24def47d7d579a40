// Package profiler implements the paper's counter-based sampling (CBS)
// profiler — the primary contribution — together with every comparator
// technique from §3: exhaustive instrumentation (with and without
// Vortex-style counter costs), Whaley-style timer sampling of the call
// stack, and Suganuma-style code-patching listeners.
//
// All profilers attach to the VM through its listener interfaces and
// record into profile.DCG (and optionally profile.CCT) repositories.
// They charge their own modeled cycles through vm.ChargeProfiling, so
// every experiment gets both an accuracy number and an overhead number
// from a single deterministic run.
package profiler

// rng is a small deterministic xorshift64* generator. Profilers use it
// for the randomized initial skip count. A profiler's seed is the only
// source of run-to-run variation in the whole system, mirroring the
// paper's median-of-10 methodology: it draws the skips here and, hashed
// through mix64 into a stream of its own, places the ticks (PlaceTick).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &rng{s: s}
}

// next returns the next pseudo-random 64-bit value.
func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// mix64 is splitmix64's output function: a bijection of 64 bits whose
// outputs for consecutive inputs are unrelated.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
