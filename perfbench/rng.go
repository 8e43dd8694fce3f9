package main

// rng is a SplitMix64 generator: every benchmark input is drawn from
// one, so the same --seed always yields the same inputs, and a stream
// derived for item k (stream) is independent of how many items came
// before it.
type rng struct{ state uint64 }

// stream returns a generator for item k of the sequence seeded by seed,
// decorrelated from neighbouring items.
func stream(seed int64, k int) *rng {
	r := &rng{state: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(k)*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// seed returns a positive run seed for the program under test (the
// serving tier rejects negative seeds; zero means "backend default").
func (r *rng) seed() int64 { return int64(r.next()>>2) + 1 }
