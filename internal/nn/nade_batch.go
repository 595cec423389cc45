package nn

import (
	"math"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// nadeBatchEvaluator is NADE's BatchEvaluator. NADE's forward is site-major
// by construction — the hidden accumulator a_i is shared by all later
// conditionals — so the batched path keeps the whole slab's B x h
// accumulator state resident and fuses each site's V_i . relu(a_i)
// conditional into one column-range GEMM (tensor.MatMulReLUCols against the
// cached V^T layout) before folding the site's log-sigmoid terms and
// applying the site's accumulation to every row. Per element the kernels
// accumulate in the exact ascending order the scalar conditionalZ/accumulate
// pair uses, so all values are bitwise identical to the scalar paths; see
// the BatchEvaluator contract.
type nadeBatchEvaluator struct {
	m       *NADE
	workers int
	wg      slabWeightedGrad // WeightedGradBatch's slab workspace
	// fullFlip disables the tail-only flip evaluation and replays every flip
	// row's accumulation chain from a_0 = c with a full log-probability fold
	// — the differential-test oracle. Outputs are bitwise identical to the
	// tail-only path (the tail resume is an exact suffix of the full fold).
	fullFlip bool
	// Slab workspaces, grown on demand and reused across calls: bufA/bufZ
	// back the base forward (accumulators and conditional pre-activations),
	// bufP the per-row log-probability prefix sums, bufSnap the per-site
	// accumulator snapshots the tail-only flip groups resume from,
	// bufAf/bufZf/bufLp the flip-group accumulators/pre-activations/folds,
	// and bufBase stages the base log-psi when the caller passes nil.
	bufA, bufZ, bufP    []float64
	bufSnap             []float64
	bufAf, bufZf, bufLp []float64
	bufBase             []float64
	gs                  []*NADEScratch // per-worker backward scratch
}

// NewBatchEvaluator implements BatchEvaluatorBuilder. workers bounds the
// internal fan-out (<= 0 means GOMAXPROCS) and does not affect any output
// value. The evaluator is not safe for concurrent use.
func (m *NADE) NewBatchEvaluator(workers int) BatchEvaluator {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	e := &nadeBatchEvaluator{m: m, workers: workers, gs: make([]*NADEScratch, workers)}
	for w := 0; w < workers; w++ {
		e.gs[w] = m.NewScratch()
	}
	return e
}

// NewFullFlipBatchEvaluator implements FullFlipBatchEvaluatorBuilder: a
// BatchEvaluator whose FlipLogPsiBatch replays every flip row from a_0 = c
// instead of resuming from the per-site accumulator snapshots. Bitwise
// identical to NewBatchEvaluator — the differential-testing oracle and A/B
// perf baseline for the tail-only path.
func (m *NADE) NewFullFlipBatchEvaluator(workers int) BatchEvaluator {
	e := m.NewBatchEvaluator(workers).(*nadeBatchEvaluator)
	e.fullFlip = true
	return e
}

// initRows fills rows [0, s) of a with the initial hidden state c.
func (e *nadeBatchEvaluator) initRows(a *tensor.Matrix, s int) {
	m := e.m
	parallel.For(s, e.workers, func(lo, hi int) {
		for si := lo; si < hi; si++ {
			copy(a.Row(si), m.C)
		}
	})
}

// siteZ fills column i of z with each row's conditional pre-activation
// V_i . relu(a) + b_i — bitwise the scalar conditionalZ (the column-range
// GEMM accumulates each element over hidden units in the same ascending
// order as Vector.Dot, with the implicit ReLU matching the scalar's
// copy+ReLU; skipped zero activations are exact no-op terms).
func (e *nadeBatchEvaluator) siteZ(z, a, vt *tensor.Matrix, i int) {
	tensor.MatMulReLUCols(z, a, vt, i, i+1, e.workers)
	tensor.AddRowBiasCols(z, e.m.B, i, i+1, e.workers)
}

// LogPsiBatch implements BatchEvaluator; out[k] matches LogPsi(row k)
// bitwise.
func (e *nadeBatchEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	m := e.m
	if b.Sites != m.n {
		panic("nn: LogPsiBatch sites mismatch")
	}
	if len(out) != b.N {
		panic("nn: LogPsiBatch output length mismatch")
	}
	vt, wt := m.transposed()
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		s := hi - lo
		a := growMat(&e.bufA, s, m.h)
		z := growMat(&e.bufZ, s, m.n)
		e.initRows(a, s)
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				out[lo+si] = 0
			}
		})
		for i := 0; i < m.n; i++ {
			e.siteZ(z, a, vt, i)
			wtRow := wt.Row(i)
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					bit := b.Row(lo + si)[i]
					out[lo+si] += condTerm(z.Row(si)[i], bit)
					if bit == 1 {
						arow := a.Row(si)
						for k, wv := range wtRow {
							arow[k] += wv
						}
					}
				}
			})
		}
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				out[lo+si] *= 0.5
			}
		})
	}
}

// GradLogPsiBatch implements BatchEvaluator. NADE's analytic backward is
// O(nh) per row with a per-row recorded forward, so the batched path shares
// the scalar GradLogPsiScratch verbatim across per-worker scratches — the
// same shape rbm_batch.go uses; there is no cross-row GEMM to fuse without
// changing the per-element arithmetic.
func (e *nadeBatchEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	m := e.m
	if b.Sites != m.n {
		panic("nn: GradLogPsiBatch sites mismatch")
	}
	if ows.N != b.N || ows.Dim != m.NumParams() {
		panic("nn: GradLogPsiBatch ows shape mismatch")
	}
	ranges := parallel.Partition(b.N, e.workers)
	parallel.ForEach(len(ranges), e.workers, func(w int) {
		s := e.gs[w]
		for r := ranges[w].Lo; r < ranges[w].Hi; r++ {
			m.GradLogPsiScratch(b.Row(r), ows.Sample(r), s)
		}
	})
}

// WeightedGradBatch implements BatchEvaluator through the shared
// GradLogPsiBatch-slab reduction (slabWeightedGrad).
func (e *nadeBatchEvaluator) WeightedGradBatch(b ConfigBatch, w []float64, dst tensor.Vector) {
	e.wg.weightedGrad(e, b, w, dst, e.m.NumParams(), e.workers)
}

// FlipLogPsiBatch implements BatchEvaluator under the tail-only flip
// convention. The base pass runs the site-major forward once per slab,
// snapshotting the B x h accumulator before every flipped site and the
// per-row log-probability prefix sums. Each flip group (all slab rows with
// bit f flipped) then re-branches the flipped site on the UNCHANGED base
// pre-activation — a flip of bit b cannot touch a_i for i <= b — reseeds
// the accumulators from the snapshot with the flipped bit folded in, and
// re-runs only the tail sites j > b as column-range GEMMs, resuming each
// row's fold from its recorded prefix. Flipped log-psi values are bitwise
// identical to a fresh LogPsi of the flipped configuration (the resumed
// chain is an exact suffix of the full chain), and the emitted deltas
// subtract the base exactly as the scalar FlipCache.Delta does.
func (e *nadeBatchEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	m := e.m
	nf := len(flips)
	if b.Sites != m.n {
		panic("nn: FlipLogPsiBatch sites mismatch")
	}
	if (base != nil && len(base) != b.N) || len(delta) != b.N*nf {
		panic("nn: FlipLogPsiBatch output length mismatch")
	}
	if base == nil {
		// NADE's deltas subtract the base log-psi, and the prefix fold
		// computes it as a byproduct — stage it in a reusable buffer.
		if cap(e.bufBase) < b.N {
			e.bufBase = make([]float64, b.N)
		}
		base = e.bufBase[:b.N]
	}
	vt, wt := m.transposed()
	needSnap := make([]bool, m.n)
	for _, bit := range flips {
		needSnap[bit] = true
	}
	slab := batchSlabRows / (nf + 1)
	if slab < 1 {
		slab = 1
	}
	for lo := 0; lo < b.N; lo += slab {
		hi := lo + slab
		if hi > b.N {
			hi = b.N
		}
		s := hi - lo
		a := growMat(&e.bufA, s, m.h)
		z := growMat(&e.bufZ, s, m.n)
		p := growMat(&e.bufP, s, m.n+1)
		var snap *tensor.Matrix
		if !e.fullFlip && nf > 0 {
			snap = growMat(&e.bufSnap, m.n*s, m.h)
		}
		// Base forward, recording z, prefix sums, and snapshot bands.
		e.initRows(a, s)
		for i := 0; i < m.n; i++ {
			if snap != nil && needSnap[i] {
				copy(snap.Data[i*s*m.h:(i+1)*s*m.h], a.Data[:s*m.h])
			}
			e.siteZ(z, a, vt, i)
			wtRow := wt.Row(i)
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					prow := p.Row(si)
					if i == 0 {
						prow[0] = 0
					}
					bit := b.Row(lo + si)[i]
					prow[i+1] = prow[i] + condTerm(z.Row(si)[i], bit)
					if bit == 1 {
						arow := a.Row(si)
						for k, wv := range wtRow {
							arow[k] += wv
						}
					}
				}
			})
		}
		parallel.For(s, e.workers, func(slo, shi int) {
			for si := slo; si < shi; si++ {
				base[lo+si] = 0.5 * p.Row(si)[m.n]
			}
		})
		if nf == 0 {
			continue
		}
		af := growMat(&e.bufAf, s, m.h)
		zf := growMat(&e.bufZf, s, m.n)
		lpf := growMat(&e.bufLp, s, 1)
		for f, bit := range flips {
			j0 := bit + 1
			if e.fullFlip {
				// Oracle: replay the whole chain from a_0 = c with the
				// flipped bit substituted at its site.
				e.initRows(af, s)
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						lpf.Data[si] = 0
					}
				})
				j0 = 0
			} else {
				// Tail-only: re-branch site bit on the unchanged base
				// pre-activation, reseed from the recorded snapshot with the
				// flipped bit, resume the fold from the recorded prefix.
				snapBand := snap.Data[bit*s*m.h : (bit+1)*s*m.h]
				wtRow := wt.Row(bit)
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						nb := 1 - b.Row(lo + si)[bit]
						lpf.Data[si] = p.Row(si)[bit] + condTerm(z.Row(si)[bit], nb)
						arow := af.Row(si)
						copy(arow, snapBand[si*m.h:(si+1)*m.h])
						if nb == 1 {
							for k, wv := range wtRow {
								arow[k] += wv
							}
						}
					}
				})
			}
			for j := j0; j < m.n; j++ {
				e.siteZ(zf, af, vt, j)
				wtRow := wt.Row(j)
				parallel.For(s, e.workers, func(slo, shi int) {
					for si := slo; si < shi; si++ {
						bj := b.Row(lo + si)[j]
						if j == bit {
							bj = 1 - bj
						}
						lpf.Data[si] += condTerm(zf.Row(si)[j], bj)
						if bj == 1 {
							arow := af.Row(si)
							for k, wv := range wtRow {
								arow[k] += wv
							}
						}
					}
				})
			}
			parallel.For(s, e.workers, func(slo, shi int) {
				for si := slo; si < shi; si++ {
					delta[(lo+si)*nf+f] = 0.5*lpf.Data[si] - base[lo+si]
				}
			})
		}
	}
}

// nadeBatchAncestral advances all samples of a batch site-by-site: one
// column-range GEMM per site over the resident B x h accumulator state, so
// weight column i of every sample is touched before moving to site i+1. The
// per-sample arithmetic is exactly the incremental evaluator's
// (conditionalZ + accumulate), so given the same uniforms the sampled bits
// are identical to scalar ancestral sampling.
type nadeBatchAncestral struct {
	m          *NADE
	bufA, bufZ []float64
}

// NewBatchAncestralSampler implements BatchAncestralBuilder.
func (m *NADE) NewBatchAncestralSampler() BatchAncestralSampler {
	return &nadeBatchAncestral{m: m}
}

// Sample implements BatchAncestralSampler.
func (a *nadeBatchAncestral) Sample(b ConfigBatch, u []float64, workers int) {
	m := a.m
	if b.Sites != m.n {
		panic("nn: batched ancestral sites mismatch")
	}
	if len(u) < b.N*m.n {
		panic("nn: batched ancestral uniforms too short")
	}
	vt, wt := m.transposed()
	acc := growMat(&a.bufA, b.N, m.h)
	z := growMat(&a.bufZ, b.N, m.n)
	parallel.For(b.N, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			copy(acc.Row(r), m.C)
		}
	})
	for i := 0; i < m.n; i++ {
		tensor.MatMulReLUCols(z, acc, vt, i, i+1, workers)
		tensor.AddRowBiasCols(z, m.B, i, i+1, workers)
		wtRow := wt.Row(i)
		parallel.For(b.N, workers, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				pr := 1 / (1 + math.Exp(-z.Row(r)[i]))
				bit := 0
				if u[r*m.n+i] < pr {
					bit = 1
				}
				b.Bits[r*b.Sites+i] = bit
				if bit == 1 {
					arow := acc.Row(r)
					for k, wv := range wtRow {
						arow[k] += wv
					}
				}
			}
		})
	}
}

var (
	_ BatchEvaluatorBuilder         = (*NADE)(nil)
	_ FullFlipBatchEvaluatorBuilder = (*NADE)(nil)
	_ BatchAncestralBuilder         = (*NADE)(nil)
)
