package main

import (
	"runtime"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// benchModel is what the nn microbenchmarks need from a model.
type benchModel interface {
	nn.Wavefunction
	nn.BatchEvaluatorBuilder
	nn.BatchAncestralBuilder
}

// timeOp runs op at least minReps times and for at least minDur, and
// returns the median duration of one call in milliseconds.
func timeOp(op func()) float64 {
	const minReps, minDur = 5, 150 * time.Millisecond
	op() // first call fills caches and scratch
	var xs []float64
	start := time.Now()
	for len(xs) < minReps || time.Since(start) < minDur {
		t0 := time.Now()
		op()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// layerBench times the model's batch evaluator and ancestral sampler on
// the given batch at 1 and 2 workers, and tensor.MatMul at the model's
// first-layer shape (B, n, h). flips are the Hamiltonian's flip bits; the
// flip kernel is skipped (reported as bypassed) when there are none.
// The microbenchmarks run at GOMAXPROCS = num_cpu whatever the workload
// runs at, so the 2-worker numbers measure two CPUs.
func layerBench(out *runOutput, m benchModel, b *sampler.Batch, flips []int, hidden int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	nn.Prewarm(m)
	cb := nn.ConfigBatch{N: b.N, Sites: b.Sites, Bits: b.Bits}
	d := m.NumParams()
	for _, w := range []int{1, 2} {
		suf := map[int]string{1: ".w1", 2: ".w2"}[w]
		be := m.NewBatchEvaluator(w)
		vals := make([]float64, b.N)
		out.layer("nn.logpsi_batch_ms"+suf, timeOp(func() { be.LogPsiBatch(cb, vals) }))
		if len(flips) > 0 {
			delta := make([]float64, b.N*len(flips))
			out.layer("nn.flip_logpsi_batch_ms"+suf, timeOp(func() { be.FlipLogPsiBatch(cb, flips, nil, delta) }))
		}
		ows := tensor.NewBatch(b.N, d)
		out.layer("nn.grad_logpsi_batch_ms"+suf, timeOp(func() { be.GradLogPsiBatch(cb, ows) }))

		anc := m.NewBatchAncestralSampler()
		u := make([]float64, b.N*b.Sites)
		rng.New(1).FillUniform(u, 0, 1)
		dst := nn.ConfigBatch{N: b.N, Sites: b.Sites, Bits: make([]int, b.N*b.Sites)}
		out.layer("nn.ancestral_sample_ms"+suf, timeOp(func() { anc.Sample(dst, u, w) }))
	}

	// First-layer GEMM: the batch's bits (B x n) times an n x h matrix.
	bs, n, h := b.N, b.Sites, hidden
	a := tensor.NewMatrix(bs, n)
	for i, x := range b.Bits {
		a.Data[i] = float64(x)
	}
	wm := tensor.NewMatrix(n, h)
	rng.New(2).FillUniform(wm.Data, -1, 1)
	dst := tensor.NewMatrix(bs, h)
	flop := 2 * float64(bs) * float64(n) * float64(h)
	for _, w := range []int{1, 2} {
		suf := map[int]string{1: ".w1", 2: ".w2"}[w]
		t := timeOp(func() { tensor.MatMul(dst, a, wm, w) })
		out.layer("tensor.matmul_gflops"+suf, flop/(t*1e-3)/1e9)
	}
	// Computed, not measured: flops over the bytes of the three operands.
	out.layer("tensor.matmul_flop_per_byte", flop/(8*float64(bs*n+n*h+bs*h)))
}
