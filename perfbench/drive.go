package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rec is one ranked recommendation, as either transport returns it.
type rec struct {
	item int
	ctr  float32
}

// outcome is what one call into the serving stack returned.
type outcome struct {
	recs   []rec
	server time.Duration // latency the server reports for the query
	batch  int           // per-request batch size the query ran at
	tenant string
	err    error
}

// target is the serving stack as the load generator sees it.
type target interface {
	call(ctx context.Context, size int) outcome
}

// record is one query of a phase; times are offsets from the phase start.
type record struct {
	size            int
	due, sent, done time.Duration
	server          time.Duration
	batch           int
	tenant          string
	err             error // transport or service error
	bad             error // reply failed the output check
}

func (r record) ok() bool { return r.err == nil && r.bad == nil }

// latency is the query's latency from its due time; a failed query counts
// as infinitely late, so it misses any limit.
func (r record) latency() float64 {
	if !r.ok() {
		return math.Inf(1)
	}
	return float64(r.done - r.due)
}

// checkReply is the output check every reply must pass: min(topN, size)
// recommendations, items in [0, size), CTRs in (0, 1) and non-increasing.
func checkReply(size, topN int, recs []rec) error {
	if want := min(topN, size); len(recs) != want {
		return fmt.Errorf("%d recommendations for size %d topN %d, want %d", len(recs), size, topN, want)
	}
	for i, r := range recs {
		if r.item < 0 || r.item >= size {
			return fmt.Errorf("item %d outside [0,%d)", r.item, size)
		}
		if !(r.ctr > 0 && r.ctr < 1) {
			return fmt.Errorf("ctr %v outside (0,1)", r.ctr)
		}
		if i > 0 && r.ctr > recs[i-1].ctr {
			return fmt.Errorf("ctr %v after %v: not ranked", r.ctr, recs[i-1].ctr)
		}
	}
	return nil
}

// phase is the outcome of one load phase.
type phase struct {
	name    string
	rate    float64 // offered q/s (0 for closed loop)
	recs    []record
	elapsed time.Duration // first due time to last completion
	cpu     time.Duration // process user+sys CPU over the phase
	gc      gcSample      // runtime counters over the phase
	aborted bool          // open loop stopped sending on a runaway backlog
}

func (p *phase) counts() (sent, ok, failed int) {
	for _, r := range p.recs {
		if r.ok() {
			ok++
		} else {
			failed++
		}
	}
	return len(p.recs), ok, len(p.recs) - ok
}

// sortedLatencies returns the phase's latencies from due time, ascending.
func (p *phase) sortedLatencies() []float64 {
	l := make([]float64, len(p.recs))
	for i, r := range p.recs {
		l[i] = r.latency()
	}
	return sortedCopy(l)
}

// generator runs phases against one target and records spans when traced.
type generator struct {
	t    target
	topN int
	tr   *tracer
	zero time.Time // trace epoch
}

// finish turns one returned call into a record and its spans.
func (d *generator) finish(start time.Time, a arrival, sent time.Duration, o outcome) record {
	r := record{size: a.size, due: a.due, sent: sent, done: time.Since(start), server: o.server,
		batch: o.batch, tenant: o.tenant, err: o.err}
	if r.err == nil {
		r.bad = checkReply(a.size, d.topN, o.recs)
	}
	if d.tr != nil {
		base := start.Sub(d.zero)
		root := d.tr.add("query", -1, base+r.due, base+r.done)
		if r.sent > r.due { // a closed loop sends when due
			d.tr.add("loadgen.lag", root, base+r.due, base+r.sent)
		}
		call := d.tr.add("call", root, base+r.sent, base+r.done)
		if r.err == nil {
			d.tr.add("server", call, base+max(r.sent, r.done-r.server), base+r.done)
		}
	}
	return r
}

// openLoop sends each scheduled query at its due time, whether or not
// earlier ones have returned. When abortAt > 0 and that many queries are
// outstanding, it stops sending: the backlog is already growing, and the
// queries not sent are not counted.
func (d *generator) openLoop(name string, rate float64, sched []arrival, abortAt int) *phase {
	p := &phase{name: name, rate: rate, recs: make([]record, len(sched))}
	before := sample()
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	start := time.Now()
	n := 0
	for i, a := range sched {
		if wait := time.Until(start.Add(a.due)); wait > 0 {
			time.Sleep(wait)
		}
		if abortAt > 0 && outstanding.Load() >= int64(abortAt) {
			p.aborted = true
			break
		}
		n = i + 1
		sent := time.Since(start)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			o := d.t.call(context.Background(), a.size)
			p.recs[i] = d.finish(start, a, sent, o)
			outstanding.Add(-1)
		}(i, a)
	}
	wg.Wait()
	p.recs = p.recs[:n]
	p.elapsed = time.Since(start)
	p.cpu, p.gc = sample().since(before)
	return p
}

// closedLoop keeps k queries outstanding, cycling through sizes; each
// client sends its next query as soon as the previous one returns. It stops
// sending at the first multiple of block queries sent after dur, so a phase
// carries whole blocks of sizes.
func (d *generator) closedLoop(name string, k int, sizes []int, block int, dur time.Duration) *phase {
	p := &phase{name: name}
	before := sample()
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		next   atomic.Int64
		stopAt atomic.Int64
	)
	stopAt.Store(math.MaxInt64)
	start := time.Now()
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				now := time.Since(start)
				if now >= dur {
					end := (i + int64(block) - 1) / int64(block) * int64(block)
					for s := stopAt.Load(); end < s && !stopAt.CompareAndSwap(s, end); s = stopAt.Load() {
					}
				}
				if i >= stopAt.Load() {
					return
				}
				a := arrival{due: now, size: sizes[int(i)%len(sizes)]}
				r := d.finish(start, a, now, d.t.call(context.Background(), a.size))
				mu.Lock()
				p.recs = append(p.recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu, p.gc = sample().since(before)
	return p
}

// procSample is the process CPU time and runtime counters at one instant.
type procSample struct {
	cpu time.Duration
	gc  gcSample
}

func sample() procSample { return procSample{cpu: processCPU(), gc: readGC()} }

func (s procSample) since(b procSample) (time.Duration, gcSample) {
	return s.cpu - b.cpu, s.gc.sub(b.gc)
}

// processCPU returns the process's user+sys CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
