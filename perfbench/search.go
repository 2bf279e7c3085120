package main

import "math"

// probeResult is the verdict of one open-loop phase at a fixed rate.
type probeResult struct {
	rate     float64
	p95      float64 // latency from due time; +Inf when more than 5% failed
	failFrac float64
	backlog  bool // the backlog grew: the phase stopped sending early
}

func (p probeResult) pass(limit float64) bool {
	return p.p95 <= limit && p.failFrac <= 0.01 && !p.backlog
}

// searchSLA finds the highest rate at which p95 stays within limit. The
// first probe is at start (when start <= 0, one step above the highest
// passing known probe, or below the lowest failing one). While every new
// probe passes (fails), the next is step above the highest (below the
// lowest); once the new probes bracket the limit, it bisects the
// bracket geometrically with the probes left. The answer interpolates log
// p95 linearly in rate between the highest passing and the lowest failing
// probe, so it is not quantized to the probe grid. The known probes, the
// phases already run at fixed rates, stand in only for an end of the
// bracket the new probes did not find. It returns the estimate and the new
// probes, in order.
func searchSLA(probe func(rate float64) probeResult, known []probeResult, start, step, limit float64, maxProbes int) (float64, []probeResult) {
	var lo, hi *probeResult // highest pass, lowest fail
	keep := func(p probeResult) {
		if p.pass(limit) {
			if lo == nil || p.rate > lo.rate {
				lo = &p
			}
		} else if hi == nil || p.rate < hi.rate {
			hi = &p
		}
	}
	if start <= 0 {
		for _, p := range known {
			keep(p)
		}
		if lo != nil {
			start = lo.rate * step
		} else {
			start = hi.rate / step
		}
		lo, hi = nil, nil
	}
	var probes []probeResult
	for r := start; len(probes) < maxProbes; {
		p := probe(r)
		probes = append(probes, p)
		keep(p)
		switch {
		case hi == nil:
			r = lo.rate * step
		case lo == nil:
			r = hi.rate / step
		case hi.rate/lo.rate > 1.06:
			r = math.Sqrt(lo.rate * hi.rate)
		default:
			maxProbes = 0
		}
	}
	if lo == nil || hi == nil {
		for _, p := range known {
			if p.pass(limit) && lo == nil || !p.pass(limit) && hi == nil {
				keep(p)
			}
		}
	}
	switch {
	case lo == nil:
		// Nothing passed: scale the lowest probe by how far it missed.
		return hi.rate * math.Min(1, limit/hi.p95), probes
	case hi == nil:
		return lo.rate, probes
	}
	return interpolate(*lo, *hi, limit), probes
}

// atCapacity places a probe that failed beyond the closed-loop capacity
// sat at the capacity itself, as a runaway backlog: above capacity an open
// loop has no steady state and its queue grows for as long as the probe
// lasts, so the latency curve the search interpolates along has already
// left the limit behind at sat.
func atCapacity(p probeResult, sat, limit float64) probeResult {
	if p.rate > sat && !p.pass(limit) {
		p.rate, p.backlog = sat, true
	}
	return p
}

// interpolate returns the rate between a passing and a failing probe at
// which log p95 reaches log limit on the straight line through the two.
// A failing probe's p95 is capped at 10× the limit (a runaway backlog has
// no meaningful p95), and the answer is clamped to the bracket.
func interpolate(lo, hi probeResult, limit float64) float64 {
	l0 := math.Log(math.Max(lo.p95, limit/1000))
	l1 := math.Log(math.Min(math.Max(hi.p95, limit), 10*limit))
	if hi.backlog || hi.failFrac > 0.01 {
		l1 = math.Log(10 * limit)
	}
	if l1 <= l0 {
		return lo.rate
	}
	f := (math.Log(limit) - l0) / (l1 - l0)
	f = math.Min(1, math.Max(0, f))
	return lo.rate + f*(hi.rate-lo.rate)
}
