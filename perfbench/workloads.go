package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	drs "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/rpc"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// workloadDef is one named traffic mix and the service that serves it.
// The service configuration is fixed; only the generated inputs change
// with the seed.
type workloadDef struct {
	name string

	model   string
	rows    int    // embedding rows per table (0 = the zoo default)
	store   string // embedding-store spec ("" = classic in-memory tables)
	access  string // sparse-index distribution ("" = uniform)
	sizes   string // query-size distribution spec
	batch   int
	topN    int
	limit   time.Duration
	wire    bool
	tenants []drs.TenantSpec

	// Fixed open-loop rates in q/s, about 20% and 50% of the closed-loop
	// capacity the service reached on the reference host (README.md). The
	// base rate is low so that the host's speed drift moves utilization,
	// and with it latency, little.
	baseRate, peakRate float64

	// tuneModels are the zoo models the traced run's scheduler replay
	// covers: the models nearest this workload's bottleneck. Together the
	// workloads cover the zoo once. The untraced run's tuning pass covers
	// the served model only.
	tuneModels []string
}

var workloads = []workloadDef{
	{
		// Embedding-bound: the hot-row cache, the store and index sampling
		// do most of the work here and none of it on ncf-wire.
		name:       "rmc1-zipf",
		model:      "DLRM-RMC1",
		rows:       1_000_000,
		store:      "synth,cache=lru:50000",
		access:     "zipf:1.2",
		sizes:      "production",
		batch:      256,
		topN:       10,
		limit:      400 * time.Millisecond,
		baseRate:   12,
		peakRate:   30,
		tuneModels: []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3", "DIN"},
	},
	{
		// Wire-bound: about 0.5 ms of compute per query, so the HTTP/JSON
		// path, the fleet front door and small-shape FC carry the cost.
		name:  "ncf-wire",
		model: "NCF",
		sizes: "fixed:32",
		batch: 256,
		topN:  10,
		limit: 25 * time.Millisecond,
		wire:  true,
		tenants: []drs.TenantSpec{
			{Model: "NCF", Name: "a", Share: 3, Seed: 1},
			{Model: "NCF", Name: "b", Share: 1, Seed: 2},
		},
		baseRate:   500,
		peakRate:   1500,
		tuneModels: []string{"NCF", "WnD", "MT-WnD", "DIEN"},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sizeDist parses the workload's query-size distribution.
func (w workloadDef) sizeDist() workload.SizeDist {
	d, err := workload.ParseDist(w.sizes)
	if err != nil {
		panic(err) // the table above is static
	}
	return d
}

// modelConfig returns the served model's configuration, for replay.
func (w workloadDef) modelConfig() (model.Config, *embstore.Spec, error) {
	cfg, err := model.ByName(w.model)
	if err != nil {
		return cfg, nil, err
	}
	if w.rows > 0 {
		if cfg, err = cfg.WithTableScale(w.rows, 0); err != nil {
			return cfg, nil, err
		}
	}
	if w.store == "" {
		return cfg, nil, nil
	}
	sp, err := embstore.ParseSpec(w.store)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Tables = func(table, rows, dim int, _ *rand.Rand, seed int64) (nn.RowStore, error) {
		return sp.Open(seed, table, rows, dim, embstore.Shard{})
	}
	return cfg, &sp, nil
}

// ledger is the service's own account of the queries it was sent.
type ledger struct {
	submitted, completed, cancelled, shed, shedDeadline, failed, abandoned uint64

	// wireRequests / wireOK are the HTTP server's counts (wire only).
	wireRequests, wireOK uint64

	tenants          []tenantLedger
	replicaCompleted []uint64

	embHits, embMisses, embEvictions, embBytes uint64
}

type tenantLedger struct {
	name                                                                   string
	submitted, completed, cancelled, shed, shedDeadline, failed, abandoned uint64
}

func conserved(who string, sub, comp, canc, shed, shedDL, failed, aband uint64) error {
	if sum := comp + canc + shed + shedDL + failed + aband; sub != sum {
		return fmt.Errorf("%s: Submitted %d != Completed+Cancelled+Shed+ShedDeadline+Failed+Abandoned %d", who, sub, sum)
	}
	return nil
}

// conserved checks the counter-conservation identity for the service and
// each tenant.
func (l ledger) conserved() error {
	errs := []error{conserved("service", l.submitted, l.completed, l.cancelled, l.shed, l.shedDeadline, l.failed, l.abandoned)}
	for _, t := range l.tenants {
		errs = append(errs, conserved("tenant "+t.name, t.submitted, t.completed, t.cancelled, t.shed, t.shedDeadline, t.failed, t.abandoned))
	}
	return errors.Join(errs...)
}

// server is a started workload service.
type server interface {
	target
	ledger(ctx context.Context) (ledger, error)
	// wireStats returns the client and transport counters (zero in-process).
	wireStats() wireStats
	close() error
}

// start builds the workload's system and service and returns once it is
// ready to serve.
func (w workloadDef) start(nproc int) (server, error) {
	opts := []drs.Option{}
	if w.rows > 0 {
		opts = append(opts, drs.WithTableScale(w.rows, 0))
	}
	if w.store != "" {
		opts = append(opts, drs.WithEmbeddingStore(w.store))
	}
	sys, err := drs.NewSystem(w.model, "skylake", opts...)
	if err != nil {
		return nil, err
	}
	so := drs.ServeOptions{Workers: nproc, BatchSize: w.batch, SLA: w.limit, Access: w.access}
	if w.wire {
		so.Replicas = 2
		so.Workers = max(1, nproc/2)
		so.Tenants = w.tenants
	}
	svc, err := sys.Serve(so)
	if err != nil {
		sys.Close()
		return nil, err
	}
	local := &localServer{sys: sys, svc: svc, topN: w.topN}
	if !w.wire {
		return local, nil
	}
	ws, err := startWire(local, w.topN, nproc)
	if err != nil {
		local.close()
		return nil, err
	}
	return ws, nil
}

// localServer drives a Service in-process through Submit.
type localServer struct {
	sys  *drs.System
	svc  *drs.Service
	topN int
}

func (s *localServer) call(ctx context.Context, size int) outcome {
	r, err := s.svc.Submit(ctx, size, s.topN)
	o := outcome{server: r.Latency, batch: r.BatchSize, tenant: r.Tenant, err: err}
	o.recs = make([]rec, len(r.Recs))
	for i, x := range r.Recs {
		o.recs[i] = rec{x.Item, x.CTR}
	}
	return o
}

func (s *localServer) ledger(context.Context) (ledger, error) {
	st := s.svc.Stats()
	l := ledger{
		submitted: st.Submitted, completed: st.Completed, cancelled: st.Cancelled, shed: st.Shed,
		shedDeadline: st.ShedDeadline, failed: st.Failed, abandoned: st.Abandoned,
		embHits: st.CacheHits, embMisses: st.CacheMisses, embEvictions: st.CacheEvictions, embBytes: st.CacheBytesRead,
	}
	for _, t := range st.Tenants {
		l.tenants = append(l.tenants, tenantLedger{t.Name, t.Submitted, t.Completed, t.Cancelled, t.Shed, t.ShedDeadline, t.Failed, t.Abandoned})
	}
	for _, r := range st.PerReplica {
		l.replicaCompleted = append(l.replicaCompleted, r.Completed)
	}
	return l, nil
}

func (s *localServer) wireStats() wireStats { return wireStats{} }

func (s *localServer) close() error {
	return errors.Join(s.svc.Close(), s.sys.Close())
}

// wireServer drives the same Service over loopback HTTP with the wire
// client, through a transport that counts bytes and dials.
type wireServer struct {
	*localServer
	http   *drs.HTTPServer
	client *rpc.Client
	meter  *meter
	topN   int
}

func startWire(local *localServer, topN, conns int) (*wireServer, error) {
	h, err := local.svc.StartHTTP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := newMeter(conns)
	c, err := rpc.NewClient("http://"+h.Addr(), rpc.ClientConfig{Transport: m})
	if err != nil {
		h.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Readyz(ctx); err != nil {
		h.Close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return &wireServer{localServer: local, http: h, client: c, meter: m, topN: topN}, nil
}

func (s *wireServer) call(ctx context.Context, size int) outcome {
	r, err := s.client.Recommend(ctx, rpc.RecommendRequest{Candidates: size, TopN: s.topN})
	o := outcome{server: time.Duration(r.ServerUs) * time.Microsecond, batch: r.Batch, tenant: r.Tenant, err: err}
	o.recs = make([]rec, len(r.Recs))
	for i, x := range r.Recs {
		o.recs[i] = rec{x.Item, x.CTR}
	}
	return o
}

// ledger reads the service's counters from /statsz, as a remote operator
// would; the per-replica breakdown, which /statsz does not carry, comes
// from the in-process Service.
func (s *wireServer) ledger(ctx context.Context) (ledger, error) {
	st, err := s.client.Statsz(ctx)
	if err != nil {
		return ledger{}, fmt.Errorf("statsz: %w", err)
	}
	v := st.Service
	l := ledger{
		submitted: v.Submitted, completed: v.Completed, cancelled: v.Cancelled, shed: v.Shed,
		shedDeadline: v.ShedDeadline, failed: v.Failed, abandoned: v.Abandoned,
		wireRequests: st.Server.Requests, wireOK: st.Server.OK,
		embHits: v.EmbHits, embMisses: v.EmbMisses, embEvictions: v.EmbEvictions, embBytes: v.EmbBytesRead,
	}
	for _, t := range st.Tenants {
		x := t.Stats
		l.tenants = append(l.tenants, tenantLedger{t.Name, x.Submitted, x.Completed, x.Cancelled, x.Shed, x.ShedDeadline, x.Failed, x.Abandoned})
	}
	for _, r := range s.svc.Stats().PerReplica {
		l.replicaCompleted = append(l.replicaCompleted, r.Completed)
	}
	return l, nil
}

func (s *wireServer) wireStats() wireStats {
	c := s.client.Stats()
	return wireStats{requests: c.Requests, attempts: c.Attempts, dials: uint64(s.meter.dials.Load()),
		reqBytes: uint64(s.meter.reqBytes.Load()), respBytes: uint64(s.meter.respBytes.Load()), recommends: uint64(s.meter.recommends.Load())}
}

func (s *wireServer) close() error {
	s.client.Close()
	s.meter.rt.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(s.http.Drain(ctx), s.localServer.close())
}

// wireStats are the client-side wire counters.
type wireStats struct {
	requests, attempts, dials, reqBytes, respBytes, recommends uint64
}

func (w wireStats) sub(b wireStats) wireStats {
	return wireStats{w.requests - b.requests, w.attempts - b.attempts, w.dials - b.dials,
		w.reqBytes - b.reqBytes, w.respBytes - b.respBytes, w.recommends - b.recommends}
}

// meter is the wire client's transport: at most conns connections, and
// counters for dials and recommend body bytes in each direction.
type meter struct {
	rt                                     *http.Transport
	dials, reqBytes, respBytes, recommends atomic.Int64
}

func newMeter(conns int) *meter {
	m := &meter{}
	var d net.Dialer
	m.rt = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			m.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return m
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	counted := req.URL.Path == rpc.PathRecommend
	if counted {
		m.recommends.Add(1)
		m.reqBytes.Add(max(req.ContentLength, 0))
	}
	resp, err := m.rt.RoundTrip(req)
	if err == nil && counted {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &m.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
