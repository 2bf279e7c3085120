package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p             float64
		want          float64
		beyond, total int
	}{
		{50, 50, 50, 100}, {95, 95, 5, 100}, {99, 99, 1, 100}, {100, 100, 0, 100}, {0.5, 1, 99, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(xs, c.p); got != c.beyond {
			t.Errorf("beyond p%v = %d, want %d", c.p, got, c.beyond)
		}
	}
	small := []float64{10, 20, 30}
	if got := percentile(small, 50); got != 20 {
		t.Errorf("p50 of 3 = %v, want 20", got)
	}
	if got := percentile(small, 95); got != 30 {
		t.Errorf("p95 of 3 = %v, want 30", got)
	}
	// Ties at the percentile are not beyond it.
	ties := []float64{1, 2, 2, 2, 3}
	if got := beyond(ties, 60); got != 1 {
		t.Errorf("beyond p60 of %v = %d, want 1", ties, got)
	}
	// Failures count as infinitely late: they land beyond every finite limit.
	withFail := sortedCopy([]float64{5, 1, math.Inf(1), 3})
	if got := percentile(withFail, 95); !math.IsInf(got, 1) {
		t.Errorf("p95 with a failure among 4 = %v, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
	if got := mean([]float64{1, 4, 7}); got != 4 {
		t.Errorf("mean = %v", got)
	}
}

// testStep is the bracketing factor of the search tests that walk from the
// known probes.
const testStep = 1.15

// curve is a synthetic latency-vs-rate curve: p95 = base/(1-rate/capacity),
// with a runaway backlog at or beyond capacity.
type curve struct{ base, capacity float64 }

func (c curve) probe(rate float64) probeResult {
	if rate >= c.capacity {
		return probeResult{rate: rate, p95: math.Inf(1), backlog: true}
	}
	return probeResult{rate: rate, p95: c.base / (1 - rate/c.capacity)}
}

// crossing is the rate at which the curve's p95 equals limit.
func (c curve) crossing(limit float64) float64 { return c.capacity * (1 - c.base/limit) }

func TestSearchSLAOnSyntheticCurve(t *testing.T) {
	c := curve{base: 50, capacity: 100}
	for _, limit := range []float64{100, 200, 400, 1000} {
		want := c.crossing(limit)
		var probed []float64
		got, probes := searchSLA(func(r float64) probeResult {
			probed = append(probed, r)
			return c.probe(r)
		}, []probeResult{c.probe(40), c.probe(80)}, 0, testStep, limit, 2)
		if len(probes) > 2 {
			t.Errorf("limit %v: %d probes, max 2", limit, len(probes))
		}
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("limit %v: sla %.2f, crossing %.2f (probed %v)", limit, got, want, probed)
		}
	}
}

func TestSearchSLAStartsAtTheGivenRate(t *testing.T) {
	c := curve{base: 50, capacity: 100}
	var first float64
	got, _ := searchSLA(func(r float64) probeResult {
		if first == 0 {
			first = r
		}
		return c.probe(r)
	}, []probeResult{c.probe(20)}, 85, testStep, 400, 2)
	if first != 85 {
		t.Errorf("first probe at %v, want 85", first)
	}
	if want := c.crossing(400); math.Abs(got-want)/want > 0.05 {
		t.Errorf("sla %.2f, crossing %.2f", got, want)
	}
}

func TestSearchSLAWalksOutOfTheKnownBracket(t *testing.T) {
	// Every known probe fails: the search walks down.
	c := curve{base: 50, capacity: 100}
	got, probes := searchSLA(c.probe, []probeResult{c.probe(60), c.probe(90)}, 0, testStep, 80, 3)
	if len(probes) == 0 || math.Abs(probes[0].rate-60/testStep) > 1e-9 {
		t.Fatalf("first probe %v, want %v", probes, 60/testStep)
	}
	if want := c.crossing(80); got > 60 || math.Abs(got-want)/want > 0.1 {
		t.Errorf("sla %.2f, crossing %.2f", got, want)
	}
	// Every probe passes: the answer is the highest passing rate.
	easy := func(r float64) probeResult { return probeResult{rate: r, p95: 1} }
	got, probes = searchSLA(easy, []probeResult{easy(10)}, 0, testStep, 80, 2)
	if want := 10 * testStep * testStep; got != want || len(probes) != 2 {
		t.Errorf("sla %v after %d probes, want %v after 2", got, len(probes), want)
	}
	// Failures over 1% fail a probe even when its p95 is within the limit.
	if (probeResult{rate: 1, p95: 1, failFrac: 0.02}).pass(80) {
		t.Error("a probe with 2% failures passed")
	}
}

func TestSearchSLAWideBracket(t *testing.T) {
	// The run's layout: the first probe below the knee, the second at
	// twice capacity and, failing, placed at capacity. The wide bracket
	// trades accuracy for an answer that moves smoothly: it lands within
	// 15% of the crossing, never above capacity, and falls as latency at
	// every rate rises.
	c := curve{base: 50, capacity: 100}
	prev := math.Inf(1)
	for _, base := range []float64{20, 50, 100, 150} {
		c.base = base
		got, probes := searchSLA(func(r float64) probeResult {
			return atCapacity(c.probe(r), c.capacity, 400)
		}, nil, searchStart*c.capacity, searchTop/searchStart, 400, searchProbes)
		if len(probes) != 2 || probes[0].pass(400) == probes[1].pass(400) {
			t.Fatalf("base %v: probes %+v, want one pass and one fail", base, probes)
		}
		if want := c.crossing(400); math.Abs(got-want)/want > 0.15 || got >= prev || got > c.capacity {
			t.Errorf("base %v: sla %.2f, crossing %.2f, want within 15%%, below %.2f and at most capacity", base, got, want, prev)
		}
		prev = got
	}
}

func TestClosedRateCountsTheDrain(t *testing.T) {
	// Two bursts: 10 queries over 2s and 30 over 2s; the answer is every
	// completed query over the time to each burst's last completion.
	burst := func(n int, last time.Duration) *phase {
		p := &phase{elapsed: last}
		for i := 0; i < n; i++ {
			p.recs = append(p.recs, record{done: last * time.Duration(i+1) / time.Duration(n)})
		}
		return p
	}
	if got := closedRate([]*phase{burst(10, 2*time.Second), burst(30, 2*time.Second)}); got != 10 {
		t.Errorf("closed rate = %v, want 10", got)
	}
}

func TestSplitP95(t *testing.T) {
	// 800 queries: four parts of 200. A stall makes every query of the
	// second part slow; the median of the parts' p95s ignores it.
	recs := make([]record, 800)
	for i := range recs {
		recs[i] = record{due: time.Duration(i), done: time.Duration(i) + time.Millisecond}
		if i >= 200 && i < 400 {
			recs[i].done += time.Second
		}
	}
	if got := splitP95(recs); got != float64(time.Millisecond) {
		t.Errorf("split p95 = %v, want 1ms", time.Duration(got))
	}
	// Too few samples to split: the plain p95, which the stall decides.
	if got := splitP95(recs[150:250]); got != float64(time.Second+time.Millisecond) {
		t.Errorf("unsplit p95 = %v, want 1.001s", time.Duration(got))
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	sums := summarize(spans)
	if sums[0].Name != "query" || sums[0].Count != 1 || sums[0].Self != 50 {
		t.Errorf("summary %+v", sums[0])
	}
	var tr *tracer
	if id := tr.add("x", -1, 0, 1); id != -1 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

func TestGEMMAccounting(t *testing.T) {
	// DLRM-RMC3's widest layer at a 256-item chunk: [256×256]·[256×2560].
	if got, want := gemmFLOPs(256, 256, 2560), 2.0*256*256*2560; got != want || got != 335544320 {
		t.Errorf("FLOPs = %v, want %v", got, want)
	}
	// A 256×256 and a 256×2560 operand read, a 256×2560 result written.
	if got := gemmBytes(256, 256, 2560); got != 4*(65536+655360+655360) {
		t.Errorf("bytes = %v", got)
	}
}

func TestStratifiedInputs(t *testing.T) {
	s := newSizeSampler(workload.DefaultProduction())
	a := s.draw(rand.New(rand.NewSource(1)), 500)
	b := s.draw(rand.New(rand.NewSource(1)), 500)
	c := s.draw(rand.New(rand.NewSource(2)), 500)
	same, differ := true, false
	var sumA, sumC float64
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if a[i] < 1 || a[i] > workload.MaxQuerySize {
			t.Fatalf("size %d outside [1,%d]", a[i], workload.MaxQuerySize)
		}
		sumA += float64(a[i])
		sumC += float64(c[i])
	}
	if !same || !differ {
		t.Errorf("same seed same sizes: %v; other seed differs: %v", same, differ)
	}
	// Stratification pins the mean size far closer than plain sampling.
	if d := math.Abs(sumA-sumC) / sumA; d > 0.05 {
		t.Errorf("mean sizes of two seeds differ by %.1f%%", 100*d)
	}
	// Every block of a closed loop's sizes is a stratified draw.
	bl := s.blocks(rand.New(rand.NewSource(4)), 100, 32)
	if len(bl) != 100 {
		t.Fatalf("%d sizes, want 100", len(bl))
	}
	for lo := 0; lo+32 <= len(bl); lo += 32 {
		maxSize := 0
		for _, v := range bl[lo : lo+32] {
			maxSize = max(maxSize, v)
		}
		if maxSize < s.sorted[len(s.sorted)*31/32] {
			t.Errorf("block at %d has no size from the top stratum (max %d)", lo, maxSize)
		}
	}
	sched := poissonSchedule(rand.New(rand.NewSource(3)), 100, a)
	if span := sched[len(sched)-1].due.Seconds(); span < 4.5 || span > 5.1 {
		t.Errorf("500 queries at 100 q/s span %.2fs, want about 5s", span)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].due < sched[i-1].due {
			t.Fatal("schedule not in due order")
		}
	}
}

func TestCheckReply(t *testing.T) {
	good := []rec{{3, 0.9}, {0, 0.5}, {7, 0.5}}
	if err := checkReply(8, 3, good); err != nil {
		t.Errorf("good reply rejected: %v", err)
	}
	for name, c := range map[string]struct {
		size, topN int
		recs       []rec
	}{
		"short":       {8, 4, good},
		"item range":  {7, 3, good},
		"ctr range":   {8, 1, []rec{{0, 1}}},
		"not ranked":  {8, 2, []rec{{0, 0.2}, {1, 0.3}}},
		"size < topN": {2, 10, good},
	} {
		if checkReply(c.size, c.topN, c.recs) == nil {
			t.Errorf("%s: bad reply accepted", name)
		}
	}
	if err := checkReply(2, 10, []rec{{1, 0.6}, {0, 0.4}}); err != nil {
		t.Errorf("min(topN, size) replies rejected: %v", err)
	}
}
