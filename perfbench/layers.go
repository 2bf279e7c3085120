package main

import (
	"math"
	"math/rand"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// gemmFLOPs is the operation count of an [m×k]·[k×n] product.
func gemmFLOPs(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// gemmBytes is the computed traffic of an [m×k]·[k×n] float32 product:
// both operands read once and the result written once.
func gemmBytes(m, k, n int) float64 {
	return 4 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
}

// replayMin is how long each replayed call is repeated for, at least.
const replayMin = 150 * time.Millisecond

// repeat calls fn until replayMin has passed (at least minReps times),
// recording one span per call, and returns the mean time per call.
func repeat(tr *tracer, zero time.Time, name string, minReps int, fn func()) time.Duration {
	var total time.Duration
	n := 0
	for n < minReps || total < replayMin {
		total += timeSpan(tr, zero, name, fn)
		n++
	}
	return total / time.Duration(n)
}

// layerNumbers are the serial replay's per-layer measurements.
type layerNumbers struct {
	zipfNsPerDraw      float64
	inputUsPerItem     float64
	forwardUsPerItem   float64
	rankUsPerChunk     float64
	embNsPerLookup     float64
	fcGFLOPs, fcShare  float64
	gemmGFLOPs, gemmMB float64
	rowNs              float64
	exec               func(size int) time.Duration // serial execution time of one chunk
}

// replayLayers replays, on the idle process, the calls one query makes
// into each layer, with the workload's model, chunk size and access
// distribution, timing each layer's exported functions.
func replayLayers(tr *tracer, zero time.Time, w workloadDef, chunk int) (layerNumbers, error) {
	var out layerNumbers
	cfg, sp, err := w.modelConfig()
	if err != nil {
		return out, err
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		return out, err
	}
	defer m.Close()
	access := workload.IndexDist(workload.UniformAccess{})
	if w.access != "" {
		if access, err = workload.ParseAccess(w.access); err != nil {
			return out, err
		}
	}
	rng := rand.New(rand.NewSource(1))
	src := access.Source(rng, cfg.TableRows)

	if _, zipf := access.(workload.ZipfAccess); zipf {
		const draws = 50000
		per := repeat(tr, zero, "workload.IndexSource.Next", 3, func() {
			for i := 0; i < draws; i++ {
				src.Next()
			}
		})
		out.zipfNsPerDraw = float64(per) / draws
	}

	// Input assembly, forward pass and ranking at the chunk size. A few
	// untimed passes first fill the hot-row cache of a store-backed model.
	s := model.NewScratch()
	var in *model.Input
	var ctrs *tensor.Tensor
	for i := 0; i < 20; i++ {
		in = m.NewInputSampled(s, rng, chunk, src)
		ctrs = m.ForwardInto(s, in)
	}
	input := repeat(tr, zero, "model.NewInputSampled", 5, func() { in = m.NewInputSampled(s, rng, chunk, src) })
	forward := repeat(tr, zero, "model.ForwardInto", 5, func() { ctrs = m.ForwardInto(s, in) })
	rank := repeat(tr, zero, "model.RankTopN", 5, func() { model.RankTopN(ctrs, w.topN) })
	out.inputUsPerItem = us(input) / float64(chunk)
	out.forwardUsPerItem = us(forward) / float64(chunk)
	out.rankUsPerChunk = us(rank)

	// Serial execution time per chunk size, for the wait estimate: a line
	// through input+forward+rank at a few sizes up to the chunk.
	var xs, ys []float64
	for _, size := range []int{max(1, chunk/8), max(1, chunk/2), chunk} {
		d := repeat(nil, zero, "", 3, func() {
			in := m.NewInputSampled(s, rng, size, src)
			model.RankTopN(m.ForwardInto(s, in), w.topN)
		})
		xs, ys = append(xs, float64(size)), append(ys, float64(d))
	}
	a, b := fitLine(xs, ys)
	out.exec = func(size int) time.Duration { return time.Duration(a + b*float64(size)) }

	// One embedding bag over table 0: store-backed like the served model,
	// or a classic in-memory table.
	lookups := cfg.LookupsPerTable
	var bag *nn.EmbeddingBag
	var store embstore.Store
	if sp != nil {
		if store, err = sp.Open(1, 0, cfg.TableRows, cfg.EmbDim, embstore.Shard{}); err != nil {
			return out, err
		}
		defer store.Close()
		bag = &nn.EmbeddingBag{Table: nn.NewStoreEmbeddingTable(0, store), Pool: cfg.Pool}
	} else {
		bag = nn.NewEmbeddingBag(rng, cfg.TableRows, cfg.EmbDim, cfg.Pool)
	}
	idx := make([][]int, chunk)
	for i := range idx {
		idx[i] = make([]int, lookups)
		for j := range idx[i] {
			idx[i][j] = src.Next()
		}
	}
	var ar tensor.Arena
	for i := 0; i < 20; i++ {
		ar.Reset()
		bag.ForwardInto(&ar, idx)
	}
	emb := repeat(tr, zero, "nn.EmbeddingBag.ForwardInto", 5, func() { ar.Reset(); bag.ForwardInto(&ar, idx) })
	out.embNsPerLookup = float64(emb) / float64(chunk*lookups)

	if store != nil {
		rows := make([]int, 50000)
		for i := range rows {
			rows[i] = src.Next()
		}
		per := repeat(tr, zero, "embstore.Store.Row", 3, func() {
			for _, r := range rows {
				store.Row(r)
			}
		})
		out.rowNs = float64(per) / float64(len(rows))
	}

	// The FC stacks: the config's dense MLP and its predictor MLPs, rebuilt
	// from the config's shapes.
	var stacks []*nn.MLP
	if cfg.DenseInDim > 0 && len(cfg.DenseFC) > 0 {
		stacks = append(stacks, nn.NewMLP(rng, append([]int{cfg.DenseInDim}, cfg.DenseFC...), nn.ReLU, nn.ReLU))
	}
	pred := append(append([]int{cfg.InteractionDim()}, cfg.PredictFC...), 1)
	for i := 0; i < max(1, cfg.NumTasks); i++ {
		stacks = append(stacks, nn.NewMLP(rng, pred, nn.ReLU, nn.Sigmoid))
	}
	var fcTime time.Duration
	var flops float64
	widest := [2]int{}
	for _, mlp := range stacks {
		x := tensor.RandUniform(rng, chunk, mlp.In(), 1)
		fcTime += repeat(tr, zero, "nn.MLP.ForwardInto", 5, func() { ar.Reset(); mlp.ForwardInto(&ar, x) })
		flops += float64(mlp.FLOPsPerItem()) * float64(chunk)
		for _, l := range mlp.Layers {
			if l.In()*l.Out() > widest[0]*widest[1] {
				widest = [2]int{l.In(), l.Out()}
			}
		}
	}
	out.fcGFLOPs = flops / float64(fcTime)
	out.fcShare = float64(fcTime) / float64(forward)

	// The widest FC layer's GEMM alone.
	k, n := widest[0], widest[1]
	x := tensor.RandUniform(rng, chunk, k, 1)
	wt := tensor.RandUniform(rng, k, n, 1)
	dst := tensor.New(chunk, n)
	gemm := repeat(tr, zero, "tensor.MatMulInto", 5, func() { tensor.MatMulInto(dst, x, wt) })
	out.gemmGFLOPs = gemmFLOPs(chunk, k, n) / float64(gemm)
	out.gemmMB = gemmBytes(chunk, k, n) / 1e6
	return out, nil
}

// fitLine returns the least-squares line y = a + b·x.
func fitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	if math.IsNaN(a) {
		a = 0
	}
	return a, b
}
