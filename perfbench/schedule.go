package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// arrival is one scheduled query: when it is due, relative to the start of
// its phase, and how many candidate items it carries.
type arrival struct {
	due  time.Duration
	size int
}

// refSamples is the size of the fixed reference sample that stands for a
// size distribution's quantile function.
const refSamples = 1 << 16

// sizeSampler draws query sizes by stratified sampling from a size
// distribution: the n sizes of a phase take one draw from each of n equal
// quantile bands, in an order shuffled by the seed. Every seed then offers
// the same load shape (the production tail is neither over- nor
// under-represented by chance) while sizes, order and arrival times still
// change with the seed.
type sizeSampler struct {
	sorted []int // refSamples draws of the distribution, ascending
}

// newSizeSampler fixes the distribution's reference sample. It is drawn
// from a constant seed: it describes the distribution, not the run.
func newSizeSampler(d workload.SizeDist) *sizeSampler {
	rng := rand.New(rand.NewSource(0x5eed))
	s := make([]int, refSamples)
	for i := range s {
		s[i] = d.Sample(rng)
	}
	sort.Ints(s)
	return &sizeSampler{sorted: s}
}

// draw returns n stratified sizes in random order.
func (s *sizeSampler) draw(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		out[i] = s.sorted[int(u*float64(len(s.sorted)))]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// blocks returns n sizes as back-to-back stratified draws of block sizes
// each, so that any block consecutive queries carry the distribution's mix
// however many of them a closed loop gets through.
func (s *sizeSampler) blocks(rng *rand.Rand, n, block int) []int {
	out := make([]int, 0, n+block)
	for len(out) < n {
		out = append(out, s.draw(rng, block)...)
	}
	return out[:n]
}

// poissonSchedule lays n queries on a Poisson process at rate q/s. The
// exponential gaps are stratified like the sizes, so the phase spans n/rate
// seconds on every seed and only the burst pattern varies.
func poissonSchedule(rng *rand.Rand, rate float64, sizes []int) []arrival {
	n := len(sizes)
	gaps := make([]float64, n)
	for i := range gaps {
		u := (float64(i) + rng.Float64()) / float64(n)
		gaps[i] = -math.Log(1-u) / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]arrival, n)
	var t float64
	for i := range out {
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), size: sizes[i]}
		t += gaps[i]
	}
	return out
}

// phaseRNG derives the generator of one phase from the run's seed, so each
// phase's inputs depend only on the seed and the phase, not on how many
// draws earlier phases made.
func phaseRNG(seed int64, phase string, probe int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(probe)*0xbf58476d1ce4e5b9
	for _, c := range phase {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}
