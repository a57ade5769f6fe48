package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream: tiny, fast, and identical on every Go
// version, so one seed always yields the same inputs.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream): every
// connection and phase of a run draws from its own stream, so adding a
// phase never shifts the inputs of another.
func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix64(seed ^ mix64(stream+0x632be59bd9b4e019))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct inputs give distinct keys: the generator knows the exact
// distinct count of a key stream without keeping a set.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// distinctKeys hands out keys that are pairwise distinct across every
// stream of one run: key i of stream s is mix64((s<<40 | i) ^ salt).
type distinctKeys struct {
	base uint64
	salt uint64
	i    uint64
}

func newDistinctKeys(seed uint64, stream uint8) *distinctKeys {
	return &distinctKeys{base: uint64(stream) << 40, salt: mix64(seed + 0x5bd1e995)}
}

func (d *distinctKeys) next() uint64 {
	k := mix64((d.base | d.i) ^ d.salt)
	d.i++
	return k
}

// zipf samples ranks in [0, n) with P(rank i) ∝ 1/(i+1)^s by inverse CDF:
// deterministic given the rng, and valid for any s > 0 (math/rand's Zipf
// needs s > 1 and its own source).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// rankKey maps a Zipf rank to a spread 64-bit key, the same mapping for
// every stream of one seed, so hot ranks are hot keys everywhere.
func rankKey(seed uint64, rank int) uint64 { return mix64(uint64(rank) ^ mix64(seed+0x2545f491)) }
