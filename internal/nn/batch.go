package nn

import "github.com/vqmc-scale/parvqmc/internal/tensor"

// ConfigBatch is a flat batch of n-bit configurations, row-major N x Sites.
// It is structurally identical to sampler.Batch and exists so the batched
// evaluation contract can live here without an import cycle; callers
// holding a sampler.Batch alias its storage zero-copy.
type ConfigBatch struct {
	N, Sites int
	Bits     []int
}

// Row returns configuration i, aliasing the batch storage.
func (b ConfigBatch) Row(i int) []int { return b.Bits[i*b.Sites : (i+1)*b.Sites] }

// BatchEvaluator evaluates a whole batch of configurations through blocked
// matrix products over the sample dimension instead of per-sample
// matrix-vector calls — the evaluation fusion the paper's scalability
// argument rests on (amplitude work is embarrassingly parallel across
// samples, so it should saturate the hardware as GEMMs).
//
// Bitwise-equivalence guarantee: every method produces EXACTLY the bytes
// the corresponding scalar path produces — LogPsiBatch matches per-row
// LogPsi, GradLogPsiBatch matches per-row GradLogPsi, WeightedGradBatch
// matches GradLogPsiBatch followed by tensor.AddWeightedRows, and
// FlipLogPsiBatch matches the model's FlipCache (base log-psi as Reset
// computes it, deltas as Delta computes them) — and is invariant to the
// worker count the evaluator was built with. Implementations achieve this
// by accumulating every fused product in the same fixed contraction order
// as the scalar kernels (see tensor.MatMul and tensor.MatMulReLU, which
// MADE drives against pre-transposed masked weights; tensor.MatMulT is the
// same contract for untransposed operands) and by sharing the per-row
// reduction code with the scalar path verbatim. The guarantee is
// load-bearing: package dist checks replica consistency with exact ==, and
// the batched and scalar paths must remain interchangeable underneath it.
//
// Tail-only invariant (MADE): the flip super-batch is evaluated under the
// mask-aware tail-only convention of MADE.NewFlipCache — for a flip of bit
// b only output sites j >= b are re-evaluated (per row, resuming from the
// base row's partial-sum snapshots), with the head of the log-probability
// fold resumed from the base row's prefix sums — and the resulting flipped
// log-psi values are bitwise identical to a fresh LogPsi of each flipped
// configuration. Halving layer-2 work and the log-sigmoid tail is
// therefore invisible in the values: scalar FlipCache.Delta and the batched
// delta agree with exact ==.
//
// Implementations own growable scratch and are NOT safe for concurrent
// use; they parallelize internally across the workers they were built with.
type BatchEvaluator interface {
	// LogPsiBatch fills out[k] = log|psi(row k)| for every row of b.
	// len(out) must be b.N.
	LogPsiBatch(b ConfigBatch, out []float64)
	// GradLogPsiBatch fills ows row k with grad log|psi(row k)|.
	// ows must be b.N x NumParams. Only the SR path, whose Fisher solve
	// needs every O_k row, materializes them this way.
	GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch)
	// WeightedGradBatch accumulates dst += sum_k w[k] * grad log|psi(row k)|
	// — the REINFORCE gradient, which needs only this contraction of the
	// O_k rows. Its bytes are exactly those of GradLogPsiBatch followed by
	// tensor.AddWeightedRows over the rows: per-block partials of
	// tensor.GradBlockSize rows starting at +0 and accumulated in ascending
	// row order, folded into dst in ascending block order — for every
	// weight vector (zeros, subnormals, infinities and NaNs included: a
	// non-finite weight still adds w*0 to every entry of its row) and every
	// worker count. MADE forms it without materializing any O_k row; the
	// other families reduce GradLogPsiBatch slabs (see slabWeightedGrad).
	// len(w) must be b.N and len(dst) NumParams; dst is not zeroed first.
	WeightedGradBatch(b ConfigBatch, w []float64, dst tensor.Vector)
	// FlipLogPsiBatch evaluates the B x (F+1) flip super-batch: base[k]
	// receives log|psi(row k)| computed exactly as the model's FlipCache
	// base (the fresh forward convention), and delta[k*len(flips)+f]
	// receives log|psi(row k with bit flips[f] flipped)| - base[k],
	// computed exactly as FlipCache.Delta computes it (for MADE: the
	// tail-only fresh flipped log-psi minus the base; for RBM: the O(h)
	// incremental ln-cosh delta). Returning deltas rather than absolute
	// flipped amplitudes is what keeps core.LocalEnergies bitwise
	// interchangeable between the scalar and batched paths for EVERY model
	// family — the scalar loop exponentiates Delta directly, and
	// subtracting a batched absolute from a batched base would re-round.
	// base may be nil when the caller needs only the deltas (the
	// local-energy hot path) — implementations then skip any base-only
	// work their convention allows (the RBM's per-row ln-cosh fold).
	// Otherwise len(base) must be b.N; len(delta) must be b.N*len(flips).
	FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64)
}

// weightedGradSlabRows is the row slab slabWeightedGrad materializes at
// once: a multiple of tensor.GradBlockSize, so slab boundaries coincide with
// reduction-block boundaries and the slabbed reduction is bitwise one
// AddWeightedRows over the whole batch.
const weightedGradSlabRows = 128

// slabWeightedGrad is WeightedGradBatch for the families without a fused
// kernel (NADE, RNN, RBM): O_k rows are produced one weightedGradSlabRows
// slab at a time through the evaluator's GradLogPsiBatch and reduced with
// tensor.AddWeightedRows, so at most one slab of rows is ever resident. The
// zero value is ready to use; its workspaces grow on first use.
type slabWeightedGrad struct {
	buf         []float64    // one slab of O_k rows
	rows, parts tensor.Batch // the current slab's view of buf; block partials
}

// weightedGrad implements BatchEvaluator.WeightedGradBatch for be, whose
// gradients have d entries, fanning the reduction across workers.
func (s *slabWeightedGrad) weightedGrad(be BatchEvaluator, b ConfigBatch, w []float64, dst tensor.Vector, d, workers int) {
	if len(w) != b.N || len(dst) != d {
		panic("nn: WeightedGradBatch length mismatch")
	}
	if slab := min(weightedGradSlabRows, b.N); len(s.buf) < slab*d {
		s.buf = make([]float64, slab*d)
		s.parts = *tensor.NewBatch(tensor.GradBlocks(slab), d)
	}
	for lo := 0; lo < b.N; lo += weightedGradSlabRows {
		hi := min(lo+weightedGradSlabRows, b.N)
		slab := ConfigBatch{N: hi - lo, Sites: b.Sites, Bits: b.Bits[lo*b.Sites : hi*b.Sites]}
		s.rows = tensor.Batch{N: hi - lo, Dim: d, Data: s.buf[:(hi-lo)*d]}
		be.GradLogPsiBatch(slab, &s.rows)
		tensor.AddWeightedRows(dst, &s.rows, w[lo:hi], &s.parts, workers)
	}
}

// BatchEvaluatorBuilder is implemented by wavefunctions that provide a
// batched evaluation path. workers bounds the internal parallelism
// (<= 0 means GOMAXPROCS); the returned evaluator is worker-count invariant
// in its VALUES, workers only set the fan-out.
type BatchEvaluatorBuilder interface {
	NewBatchEvaluator(workers int) BatchEvaluator
}

// FullFlipBatchEvaluatorBuilder is implemented by wavefunctions whose
// batched path additionally provides a full-recompute flip oracle: a
// BatchEvaluator whose FlipLogPsiBatch re-evaluates every flip row from
// scratch instead of resuming from tail-only snapshots. The oracle produces
// bitwise the same outputs as the tail-only evaluator (the tail resume is
// provably an exact suffix of the full fold) and exists as the
// differential-testing reference and the A/B perf baseline; core.EvalFullFlip
// selects it through this interface.
type FullFlipBatchEvaluatorBuilder interface {
	NewFullFlipBatchEvaluator(workers int) BatchEvaluator
}

// BatchAncestralSampler draws a whole batch of ancestral samples in one
// call, in the loop order that suits the model: MADE walks each worker's
// rows one at a time in a private hidden-state vector; NADE and the RNN go
// site-major, one fused pass over the B x h state per site.
//
// Sample fills b's bits from pre-drawn uniforms u (row-major, u[k*Sites+i]
// drives bit i of sample k): bit = 1 iff u < P(x_i = 1 | x_<i). Because the
// per-sample conditional arithmetic is identical to the scalar incremental
// evaluator's (same ConditionalRow/AccumulateInput calls in the same
// per-sample order), the sampled bits are bitwise identical to scalar
// ancestral sampling fed the same uniforms.
type BatchAncestralSampler interface {
	Sample(b ConfigBatch, u []float64, workers int)
}

// BatchAncestralBuilder is implemented by autoregressive models that
// provide a batched ancestral sampler.
type BatchAncestralBuilder interface {
	NewBatchAncestralSampler() BatchAncestralSampler
}

// InvalidateParams notifies w, if it caches parameter-derived state (such
// as MADE's masked-weight product W.M), that its parameter vector was
// mutated in place. Trainers must call this after every optimizer step;
// it is a no-op for models without derived caches.
func InvalidateParams(w Wavefunction) {
	if v, ok := w.(interface{ InvalidateParams() }); ok {
		v.InvalidateParams()
	}
}

// Prewarm materializes any lazy parameter-derived caches the model keeps
// (MADE's masked-weight products, NADE's V^T/W^T layouts, the RBM's W^T;
// the RNN has none) for the current parameter version. Coordinators call it
// before fanning evaluation out to workers so the rebuild happens once, up
// front, on the coordinating goroutine instead of surprising the first
// worker that needs it. Rebuilds are mutex-serialized inside each model, so
// skipping Prewarm is a latency cost, never a data race; it is a no-op for
// models without derived caches. The parameter is any (rather than
// Wavefunction) so call sites that only hold a narrower view of the model
// (CacheBuilder, GradEvaluator) can still pre-warm it.
func Prewarm(model any) {
	if p, ok := model.(interface{ PrewarmCaches() }); ok {
		p.PrewarmCaches()
	}
}
