// Command perfbench is the repository's benchmark: it serves generated
// traffic through the public serving API, checks every reply and the
// service's own counters, and prints end-to-end metrics (--trace 0) or
// per-layer metrics from a traced run and a serial replay (--trace 1).
// The last line of standard output is the result as one JSON object.
// README.md in this directory documents the workloads and metrics.
//
//	bash perfbench/run.sh --workload rmc1-zipf --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Seeds: the default seed, and a held-out seed kept for confirming a claim
// on inputs not used while the change was written.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupsPerRound is how many extra set-ups each round times, beside the
// one that serves: 1 + rounds×setupsPerRound set-ups per run.
const setupsPerRound = 2

// Shares of --seconds given to each phase. After the warmup, a run is a
// sequence of rounds, each a base window, a closed-loop burst and, while
// the service idles, timed set-ups and one offline tuning pass; the search
// probes follow. A shared host's speed can drift by tens of percent within
// a minute: each metric is the median over the rounds of its value in one
// round, so a slow spell moves it only when it covers half of the run. The
// tuning pass is the exception: its time is bimodal on the reference host
// (about 1.1 or 1.6 s for NCF), so the median flips between the modes from
// run to run, while the mean follows the share of slow passes.
const (
	warmupShare = 0.05
	rounds      = 8
	baseShare   = 0.0625 // per round
	satShare    = 0.03   // per round
	probeShare  = 0.15   // a search probe below capacity
	beyondShare = 0.05   // a search probe beyond capacity

	// The search's first probe is at searchStart × this run's sat_qps, a
	// rate that meets the limit on every workload but sits below its knee;
	// the second at searchTop × sat_qps, where the backlog grows fast enough
	// to fail it within the probe (or as far below the first, if the first
	// failed). The answer interpolates log p95 between the passing and the
	// failing probe, the latter placed at sat_qps (see atCapacity and
	// interpolate), so it moves smoothly with the first probe's p95 and
	// with capacity instead of jumping between probe rates.
	searchStart  = 0.7
	searchTop    = 2.0
	searchProbes = 2

	// Trace mode runs an untraced base phase, to measure the tracing
	// overhead against, and then traces base, peak and sat phases.
	traceShare = 0.2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("seed of the generated inputs (%d is held out for confirming a claim)", heldOutSeed))
	seconds := fl.Int("seconds", 40, "seconds of serving load per run")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	calibrate := fl.Bool("calibrate", false, "measure capacity and the latency-vs-rate curve instead (no result line)")
	out := fl.String("out", ".bench_build", "directory for result records and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.Arg(0) == "compare" {
		if fl.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
			return 2
		}
		if err := compareRecords(stdout, fl.Arg(1), fl.Arg(2)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <n> --trace <0|1>:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, secs: float64(*seconds), nproc: runtime.NumCPU(), report: stdout,
		sizes: newSizeSampler(w.sizeDist())}
	env := currentEnvironment(w.name, *seed, *seconds, *trace == 1)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d backend=%s go=%s commit=%s\n# cpu: %s\n",
		w.name, *seed, *seconds, *trace, env.NProc, env.GOMAXPROCS, env.Backend, env.Go, env.Commit, env.CPU)

	if *calibrate {
		if err := b.calibrate(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced(filepath.Join(*out, "traces"))
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec := resultRecord{Env: env, Metrics: metrics}
	for _, e := range b.errs {
		rec.Errors = append(rec.Errors, e.Error())
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.Errors = append(rec.Errors, fmt.Sprintf("metric %s is %v", name, m.Value))
			metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	rec.Correct = len(rec.Errors) == 0
	attempted, failed := 0, 0
	for _, p := range b.phases {
		s, o, f := p.counts()
		rec.Phases = append(rec.Phases, phaseCounts{Name: p.name, Rate: p.rate, Sent: s, OK: o, Failed: f})
		attempted += s
		failed += f
	}
	printMetrics(stdout, metrics)
	for _, e := range rec.Errors {
		fmt.Fprintln(stdout, "# ERROR:", e)
	}
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func writeRecord(dir string, rec resultRecord) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", rec.Env.Workload, rec.Env.Seed, rec.Env.Trace))
	return os.WriteFile(path, b, 0o644)
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// bench is one run of one workload.
type bench struct {
	w      workloadDef
	seed   int64
	secs   float64
	nproc  int
	sizes  *sizeSampler
	report io.Writer

	srv    server
	d      *generator
	phases []*phase
	errs   []error // output, ledger and decision mismatches
}

// start builds the service that will serve, and returns its set-up time.
func (b *bench) start() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := b.w.start(b.nproc)
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	b.srv = srv
	b.d = &generator{t: b.srv, topN: b.w.topN, zero: time.Now()}
	return time.Since(t0).Seconds(), nil
}

// timeSetup builds and closes n more services, returning their set-up
// times.
func (b *bench) timeSetup(n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		srv, err := b.w.start(b.nproc)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if err := srv.close(); err != nil {
			return nil, fmt.Errorf("setup: close: %w", err)
		}
	}
	return times, nil
}

// open runs an open-loop phase of dur seconds at rate q/s.
func (b *bench) open(name string, rate, dur float64, probe, abortAt int) *phase {
	rng := phaseRNG(b.seed, name, probe)
	n := max(1, int(math.Round(rate*dur)))
	p := b.d.openLoop(name, rate, poissonSchedule(rng, rate, b.sizes.draw(rng, n)), abortAt)
	b.add(p)
	return p
}

// windowPercentile is the median over windows of each window's p-th
// percentile latency: a disturbance confined to one window moves it far
// less than it moves a percentile of the pooled samples.
func windowPercentile(ws []*phase, p float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = percentile(w.sortedLatencies(), p)
	}
	return median(v)
}

// pooled returns the latencies of all the windows, sorted.
func pooled(ws []*phase) []float64 {
	var l []float64
	for _, w := range ws {
		l = append(l, w.sortedLatencies()...)
	}
	return sortedCopy(l)
}

// windowVerdict turns a windowed phase into one search probe.
func windowVerdict(ws []*phase) probeResult {
	var sent, failed int
	aborted := false
	for _, w := range ws {
		s, _, f := w.counts()
		sent += s
		failed += f
		aborted = aborted || w.aborted
	}
	return probeResult{rate: ws[0].rate, p95: windowPercentile(ws, 95), failFrac: float64(failed) / float64(sent), backlog: aborted}
}

// sizeBlock is how many consecutive closed-loop queries carry one
// stratified draw of the size distribution.
const sizeBlock = 32

// closed runs a closed-loop phase with k queries outstanding.
func (b *bench) closed(name string, k int, dur float64) *phase {
	rng := phaseRNG(b.seed, name, 0)
	sizes := b.sizes.blocks(rng, 4096, sizeBlock)
	p := b.d.closedLoop(name, k, sizes, sizeBlock, time.Duration(dur*float64(time.Second)))
	b.add(p)
	return p
}

// ratio is x/n, or 0 when n is 0.
func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// closedRate is the completion rate of closed-loop phases: replies that
// passed the check over the time from each phase's start to its last
// completion. Every query sent before a phase's end is counted, so the
// large queries still in flight at the end are not left out of the count
// while their work is left in the time.
func closedRate(ps []*phase) float64 {
	n, t := 0, 0.0
	for _, p := range ps {
		_, ok, _ := p.counts()
		n += ok
		t += p.elapsed.Seconds()
	}
	return float64(n) / t
}

// satOutstanding is the closed-loop depth: two queries per worker
// in-process, one per connection over the wire.
func (b *bench) satOutstanding() int {
	if b.w.wire {
		return b.nproc
	}
	return 2 * b.nproc
}

func (b *bench) add(p *phase) {
	b.phases = append(b.phases, p)
	sent, ok, failed := p.counts()
	lat := p.sortedLatencies()
	var bad int
	for _, r := range p.recs {
		if r.bad != nil {
			bad++
			if bad == 1 {
				b.errs = append(b.errs, fmt.Errorf("phase %s: malformed reply: %v", p.name, r.bad))
			}
		}
	}
	fmt.Fprintf(b.report, "phase %-12s rate=%7.1f sent=%5d ok=%5d failed=%3d p50=%8.3fms p95=%8.3fms (%d beyond) p99=%8.3fms (%d beyond) elapsed=%.2fs%s\n",
		p.name, p.rate, sent, ok, failed, percentile(lat, 50)/1e6, percentile(lat, 95)/1e6, beyond(lat, 95),
		percentile(lat, 99)/1e6, beyond(lat, 99), p.elapsed.Seconds(), map[bool]string{true: " (backlog: stopped sending)"}[p.aborted])
}

// abortAt is the outstanding-query count at which a search probe stops
// sending: ten times the backlog a rate that meets the limit would hold.
func (b *bench) abortAt(rate float64) int {
	return max(16, int(10*rate*b.w.limit.Seconds()))
}

// checkLedger compares the benchmark's own counts with the service's and
// checks the counter-conservation identity.
func (b *bench) checkLedger() (ledger, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l, err := b.srv.ledger(ctx)
	if err != nil {
		return l, err
	}
	var sent, ok, bad int
	for _, p := range b.phases {
		for _, r := range p.recs {
			sent++
			if r.err == nil {
				ok++ // malformed replies were still completed by the service
				if r.bad != nil {
					bad++
				}
			}
		}
	}
	errs := []error{l.conserved()}
	if uint64(sent) != l.submitted {
		errs = append(errs, fmt.Errorf("ledger: benchmark sent %d, service Submitted %d", sent, l.submitted))
	}
	if uint64(ok) != l.completed {
		errs = append(errs, fmt.Errorf("ledger: benchmark got %d replies, service Completed %d", ok, l.completed))
	}
	if b.w.wire && (l.wireRequests != l.submitted || l.wireOK != l.completed) {
		errs = append(errs, fmt.Errorf("ledger: HTTP server saw %d requests / %d OK, service %d / %d", l.wireRequests, l.wireOK, l.submitted, l.completed))
	}
	var tsub, tcomp uint64
	for _, t := range l.tenants {
		tsub += t.submitted
		tcomp += t.completed
	}
	if len(l.tenants) > 0 && (tsub != l.submitted || tcomp != l.completed) {
		errs = append(errs, fmt.Errorf("ledger: tenants sum to %d/%d, service %d/%d", tsub, tcomp, l.submitted, l.completed))
	}
	fmt.Fprintf(b.report, "ledger: sent=%d ok=%d malformed=%d | service Submitted=%d Completed=%d Cancelled=%d Shed=%d ShedDeadline=%d Failed=%d Abandoned=%d\n",
		sent, ok-bad, bad, l.submitted, l.completed, l.cancelled, l.shed, l.shedDeadline, l.failed, l.abandoned)
	return l, errors.Join(errs...)
}

// warmup runs untimed closed-loop load: caches fill, per-worker arenas grow
// to the largest query sizes and connections open.
func (b *bench) warmup() {
	b.closed("warmup", b.satOutstanding(), math.Max(1, warmupShare*b.secs))
}

// verdict turns an open-loop phase into a search probe. A probe with
// enough samples is split by due time into up to four equal parts, each
// with at least subSamples queries, and its p95 is the median of the parts'
// p95s, so a stall of the shared host confined to one part does not decide
// the verdict.
func verdict(p *phase) probeResult {
	sent, _, failed := p.counts()
	return probeResult{rate: p.rate, p95: splitP95(p.recs), failFrac: float64(failed) / float64(sent), backlog: p.aborted}
}

// subSamples is the fewest queries a part of a probe may hold: three
// beyond its p95.
const subSamples = 60

// splitP95 is the median over k parts of recs (in due order) of each part's
// p95, with k = min(4, len(recs)/subSamples), at least 1.
func splitP95(recs []record) float64 {
	k := min(4, max(1, len(recs)/subSamples))
	v := make([]float64, k)
	for i := range v {
		part := recs[i*len(recs)/k : (i+1)*len(recs)/k]
		l := make([]float64, len(part))
		for j, r := range part {
			l[j] = r.latency()
		}
		v[i] = percentile(sortedCopy(l), 95)
	}
	return median(v)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (map[string]metric, error) {
	first, err := b.start()
	if err != nil {
		return nil, err
	}
	setups := []float64{first}
	b.warmup()
	var base, sat []*phase
	var tunes []float64
	for r := 0; r < rounds; r++ {
		base = append(base, b.open(fmt.Sprintf("base/%d", r), b.w.baseRate, baseShare*b.secs, r, 0))
		sat = append(sat, b.closed(fmt.Sprintf("sat/%d", r), b.satOutstanding(), satShare*b.secs))
		// While the service idles: more set-ups, and a tuning pass.
		more, err := b.timeSetup(setupsPerRound)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		d, err := tunePass(b.w.model)
		if err != nil {
			b.errs = append(b.errs, err)
		}
		tunes = append(tunes, d.Seconds())
	}
	var satRates, cpuPerQuery []float64
	for r := range sat {
		satRates = append(satRates, closedRate(sat[r:r+1]))
		_, ok, _ := base[r].counts()
		cpuPerQuery = append(cpuPerQuery, ms(base[r].cpu)/float64(ok))
	}
	satQPS := median(satRates)
	l := pooled(base)
	fmt.Fprintf(b.report, "base, all windows: n=%d p50=%.3fms p95=%.3fms (%d beyond) p99=%.3fms (%d beyond); median over windows: p50=%.3fms p95=%.3fms\n",
		len(l), percentile(l, 50)/1e6, percentile(l, 95)/1e6, beyond(l, 95), percentile(l, 99)/1e6, beyond(l, 99),
		windowPercentile(base, 50)/1e6, windowPercentile(base, 95)/1e6)
	fmt.Fprintf(b.report, "per round: sat %s q/s; tuning pass %s s; set-ups %s s\n", fmtList(satRates, 1), fmtList(tunes, 3), fmtList(setups, 4))
	probeN := 0
	slaQPS, _ := searchSLA(func(rate float64) probeResult {
		probeN++
		// A probe beyond the closed-loop capacity only has to show its
		// growing backlog: it is short, and its p95 is taken over the whole
		// probe, as splitting it would judge the early parts, before the
		// queue has grown.
		beyond := rate > satQPS
		share := probeShare
		if beyond {
			share = beyondShare
		}
		p := b.open("search", rate, share*b.secs, probeN, b.abortAt(rate))
		v := verdict(p)
		if beyond {
			v.p95 = percentile(p.sortedLatencies(), 95)
		}
		return atCapacity(v, satQPS, float64(b.w.limit))
	}, []probeResult{windowVerdict(base)}, searchStart*satQPS, searchTop/searchStart, float64(b.w.limit), searchProbes)
	fmt.Fprintf(b.report, "sla_qps: %.2f q/s at p95 <= %v\n", slaQPS, b.w.limit)

	if _, err := b.checkLedger(); err != nil {
		b.errs = append(b.errs, err)
	}
	if err := b.srv.close(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("close: %w", err))
	}

	var sent, ok int
	for _, p := range append(append([]*phase{}, sat...), base...) {
		s, o, _ := p.counts()
		sent += s
		ok += o
	}
	return map[string]metric{
		"sla_qps":          {slaQPS, "q/s"},
		"sat_qps":          {satQPS, "q/s"},
		"p50_ms":           {windowPercentile(base, 50) / 1e6, "ms"},
		"ok_frac":          {float64(ok) / float64(sent), "frac"},
		"cpu_ms_per_query": {median(cpuPerQuery), "ms"},
		"setup_s":          {median(setups), "s"},
		"mem_mb":           {peakRSSMB(), "MB"},
		"tune_s":           {mean(tunes), "s"},
	}, nil
}

// fmtList formats xs with prec decimals, space-separated.
func fmtList(xs []float64, prec int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, " ")
}

// traced measures the per-layer metrics: an untraced base phase, the same
// load traced, the serial layer replay, and the scheduler replay.
func (b *bench) traced(traceDir string) (map[string]metric, error) {
	if _, err := b.start(); err != nil {
		return nil, err
	}
	tr := &tracer{}
	b.warmup()
	l0, err := b.srv.ledger(context.Background())
	if err != nil {
		return nil, err
	}
	base := b.open("base", b.w.baseRate, traceShare*b.secs, 0, 0)
	l1, err := b.srv.ledger(context.Background())
	if err != nil {
		return nil, err
	}
	w0 := b.srv.wireStats()
	b.d.tr = tr
	tbase := b.open("base.traced", b.w.baseRate, traceShare*b.secs, 0, 0)
	tpeak := b.open("peak.traced", b.w.peakRate, traceShare*b.secs, 0, 0)
	tsat := b.closed("sat.traced", b.satOutstanding(), traceShare*b.secs)
	b.d.tr = nil
	wst := b.srv.wireStats()
	lend, err := b.checkLedger()
	if err != nil {
		b.errs = append(b.errs, err)
	}
	if err := b.srv.close(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("close: %w", err))
	}

	chunk := min(b.w.batch, b.sizes.sorted[len(b.sizes.sorted)-1])
	layers, err := replayLayers(tr, b.d.zero, b.w, chunk)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	sl, err := replaySched(tr, b.d.zero, b.w.tuneModels, b.w.model)
	if err != nil {
		return nil, fmt.Errorf("scheduler replay: %w", err)
	}
	if sl.decisionsMismatch != nil {
		b.errs = append(b.errs, sl.decisionsMismatch)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	spans := tr.spans
	self := selfTimes(spans)
	byName := func(name string, useSelf bool) []float64 {
		var v []float64
		for i, s := range spans {
			if s.Name == name {
				if useSelf {
					v = append(v, float64(self[i]))
				} else {
					v = append(v, float64(s.End-s.Start))
				}
			}
		}
		return sortedCopy(v)
	}
	lag, call, callSelf, server := byName("loadgen.lag", false), byName("call", false), byName("call", true), byName("server", false)
	put("loadgen.lag_p99_ms", percentile(lag, 99)/1e6, "ms")
	put("live.server_p50_ms", percentile(server, 50)/1e6, "ms")
	put("live.server_p95_ms", percentile(server, 95)/1e6, "ms")
	put("live.p95_ms", percentile(base.sortedLatencies(), 95)/1e6, "ms")
	put("live.p99_ms", percentile(base.sortedLatencies(), 99)/1e6, "ms")
	put("live.p50_ms.peak", percentile(tpeak.sortedLatencies(), 50)/1e6, "ms")
	put("live.p95_ms.peak", percentile(tpeak.sortedLatencies(), 95)/1e6, "ms")
	wire := func(v float64) float64 {
		if b.w.wire {
			return v
		}
		return 0
	}
	local := func(v float64) float64 {
		if b.w.wire {
			return 0
		}
		return v
	}
	put("rpc.rtt_p50_ms", wire(percentile(call, 50)/1e6), "ms")
	put("rpc.rtt_p99_ms", wire(percentile(call, 99)/1e6), "ms")
	put("rpc.overhead_p50_us", wire(percentile(callSelf, 50)/1e3), "us")
	put("rpc.overhead_p99_us", wire(percentile(callSelf, 99)/1e3), "us")
	put("live.submit_overhead_us", local(percentile(callSelf, 50)/1e3), "us")
	ws := wst.sub(w0)
	perReq := func(x, n uint64) float64 { return ratio(float64(x), float64(n)) }
	put("rpc.req_bytes", perReq(ws.reqBytes, ws.recommends), "B")
	put("rpc.resp_bytes", perReq(ws.respBytes, ws.recommends), "B")
	put("rpc.dials_per_1k", 1000*perReq(wst.dials, wst.recommends), "count")
	put("rpc.attempts_per_request", perReq(wst.attempts, wst.requests), "count")

	var skew float64
	if n := len(lend.replicaCompleted); n >= 2 {
		var sum, mx uint64
		for _, c := range lend.replicaCompleted {
			sum += c
			mx = max(mx, c)
		}
		skew = float64(mx) / (float64(sum) / float64(n))
	}
	put("fleet.replica_skew", skew, "ratio")
	shares := map[string]float64{}
	if b.w.wire {
		var total uint64
		for _, t := range lend.tenants {
			total += t.completed
		}
		for _, t := range lend.tenants {
			shares[t.name] = perReq(t.completed, total)
		}
	}
	put("fleet.tenant_share.a", shares["a"], "frac")
	put("fleet.tenant_share.b", shares["b"], "frac")

	var waits []float64
	var chunks, served float64
	for _, p := range []*phase{tbase, tpeak, tsat} {
		for _, r := range p.recs {
			if !r.ok() || r.batch < 1 {
				continue
			}
			served++
			chunks += math.Ceil(float64(r.size) / float64(r.batch))
			if r.size <= r.batch {
				waits = append(waits, float64(r.server-layers.exec(r.size)))
			}
		}
	}
	waits = sortedCopy(waits)
	put("live.wait_p50_ms", percentile(waits, 50)/1e6, "ms")
	put("live.wait_p95_ms", percentile(waits, 95)/1e6, "ms")
	put("live.chunks_per_query", chunks/served, "count")
	put("live.shed", float64(lend.shed), "count")
	put("live.failed", float64(lend.failed), "count")
	_, baseOK, _ := base.counts()
	var sentAll, failedAll int
	for _, p := range []*phase{base, tbase, tpeak, tsat} {
		s, _, f := p.counts()
		sentAll += s
		failedAll += f
	}
	put("fail_frac", float64(failedAll)/float64(sentAll), "frac")

	put("workload.zipf_ns_per_draw", layers.zipfNsPerDraw, "ns")
	put("model.input_us_per_item", layers.inputUsPerItem, "us")
	put("model.forward_us_per_item", layers.forwardUsPerItem, "us")
	put("model.rank_us_per_chunk", layers.rankUsPerChunk, "us")
	put("nn.emb_ns_per_lookup", layers.embNsPerLookup, "ns")
	put("nn.fc_gflops", layers.fcGFLOPs, "GFLOP/s")
	put("nn.fc_share", layers.fcShare, "frac")
	put("tensor.gemm_gflops", layers.gemmGFLOPs, "GFLOP/s")
	put("tensor.gemm_mb", layers.gemmMB, "MB")
	put("embstore.row_ns", layers.rowNs, "ns")

	dh, dm := l1.embHits-l0.embHits, l1.embMisses-l0.embMisses
	put("embstore.hit_rate", perReq(dh, dh+dm), "frac")
	put("embstore.bytes_per_query", perReq(l1.embBytes-l0.embBytes, uint64(baseOK)), "B")
	put("embstore.evictions_per_query", perReq(l1.embEvictions-l0.embEvictions, uint64(baseOK)), "count")
	put("runtime.alloc_kb_per_query", base.gc.allocBytes/1024/float64(baseOK), "KB")
	// The runtime updates its CPU estimates at GC cycles; a phase without
	// one reports none, and GC then took no CPU.
	put("runtime.gc_cpu_frac", ratio(base.gc.gcCPU, base.gc.allCPU), "frac")

	put("serving.run_us_per_query", sl.runUsPerQuery, "us")
	put("sched.evaluations", float64(sl.evaluations), "count")
	put("sched.gain_geomean", sl.gainGeo, "ratio")
	put("sched.gain_min", sl.gainMin, "ratio")
	put("trace.overhead_p50", percentile(tbase.sortedLatencies(), 50)/percentile(base.sortedLatencies(), 50), "ratio")

	writeSummary(b.report, summarize(spans))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	werr := writeSpans(f, spans)
	if err := errors.Join(werr, f.Close()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(b.report, "trace: %d spans written to %s\n", len(spans), path)
	return m, nil
}

// calibrate measures closed-loop capacity, then latency at open-loop rates
// from 20% to 90% of it: how the fixed base and peak rates were chosen.
func (b *bench) calibrate() error {
	if _, err := b.start(); err != nil {
		return err
	}
	b.warmup()
	sat := b.closed("sat", b.satOutstanding(), satShare*b.secs)
	capacity := closedRate([]*phase{sat})
	for _, f := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		b.open(fmt.Sprintf("%.0f%%", 100*f), f*capacity, probeShare*b.secs, 0, 0)
	}
	return b.srv.close()
}
