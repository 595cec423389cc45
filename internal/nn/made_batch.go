package nn

import (
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// batchSlabRows caps the number of network rows materialized at once by the
// batched evaluator, bounding workspace memory independently of the batch
// size (a B=1024, n=32 TIM flip super-batch is 33k rows; slabs keep the
// activations a few MB). Rows are independent, so slabbing cannot change a
// single output bit.
const batchSlabRows = 4096

// cacheLineFloats is one 64-byte cache line in float64s: the padding that
// keeps per-worker scratch vectors from sharing a line.
const cacheLineFloats = 8

// growMat returns a rows x cols matrix view over buf, growing it as needed.
// Contents are fully overwritten by the kernels, so no zeroing happens.
func growMat(buf *[]float64, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: (*buf)[:need]}
}

// reluRows applies ReLU to every row of m in parallel.
func reluRows(m *tensor.Matrix, workers int) {
	parallel.For(m.Rows, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			tensor.ReLU(m.Row(r))
		}
	})
}

// madeBatchEvaluator is MADE's BatchEvaluator. LogPsiBatch and
// GradLogPsiBatch fuse the per-sample masked matvecs of a whole batch into
// blocked GEMMs against the cached masked weights (see MADE.maskedWeights),
// slab by slab; FlipLogPsiBatch and WeightedGradBatch run sample-major, each
// worker carrying its rows end to end in a private workspace (madeWork).
// All values are bitwise identical to the scalar paths; see the
// BatchEvaluator contract.
type madeBatchEvaluator struct {
	m       *MADE
	workers int
	// Dense-forward slab workspaces, grown on demand and reused across
	// calls: float configurations, layer-1 pre-activations, activations
	// and layer-2 pre-activations.
	bufXF, bufZ1, bufA, bufZ2 []float64
	work                      []madeWork // one per worker
	// parts holds WeightedGradBatch's gradient partials, one NumParams-long
	// row per tensor.GradBlockSize-row reduction block of the batch.
	parts []float64
}

// madeWork is one worker's scratch. dz2/da back GradLogPsiBatch's backward
// pass; grad backs WeightedGradBatch and is allocated on its first call; the
// rest holds the flip kernel's row state and is allocated on the first
// FlipLogPsiBatch call — n x h + nSnap x n + O(n + h) floats, about 8 KB at
// TIM n=16, h=38, so a row's working set stays in L1.
type madeWork struct {
	dz2, da tensor.Vector
	// grad holds one reduction block's rows (tensor.GradBlockSize x 2(n+h),
	// see gradRow): each row's float bits xf (n), ReLU activations a (h),
	// output deltas dz2 (n) and ReLU-gated hidden deltas dz1 (h).
	grad []float64
	// Base row: layer-1 (h) and layer-2 (n) pre-activations after the bias,
	// and the log-probability fold's prefix sums p[j] over sites < j (n+1).
	z1, z2, p []float64
	// pre1 row i holds the layer-1 partial sums over inputs < i on the
	// units of flipRuns[i] (n x h); pre2 row k the layer-2 partial sums over
	// units < k, for k < nSnap, one past the last unit a flip's changes can
	// start at.
	pre1, pre2 []float64
	nSnap      int
	fz1, fz2   []float64 // one flip row's layer-1 (h) and layer-2 (n) state
}

// NewBatchEvaluator implements BatchEvaluatorBuilder. workers bounds the
// internal fan-out (<= 0 means GOMAXPROCS) and does not affect any output
// value. The evaluator is not safe for concurrent use.
func (m *MADE) NewBatchEvaluator(workers int) BatchEvaluator {
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	e := &madeBatchEvaluator{m: m, workers: workers, work: make([]madeWork, workers)}
	for w := range e.work {
		e.work[w].dz2 = tensor.NewVector(m.n)
		e.work[w].da = tensor.NewVector(m.h)
	}
	return e
}

// madeFullFlip is MADE's full-recompute flip oracle: FlipLogPsiBatch
// materializes every flipped configuration and runs it through the dense
// LogPsiBatch forward, with no tail-only resume anywhere.
type madeFullFlip struct{ *madeBatchEvaluator }

// NewFullFlipBatchEvaluator returns a BatchEvaluator whose FlipLogPsiBatch
// evaluates every flipped configuration with a fresh dense forward and a
// full log-probability fold. It produces bitwise the same outputs as
// NewBatchEvaluator — the tail-only kernel resumes exact prefixes of the
// same accumulation chains — and exists as the differential-testing oracle
// and the full-recompute perf baseline for cmd/vqmcbench.
func (m *MADE) NewFullFlipBatchEvaluator(workers int) BatchEvaluator {
	return madeFullFlip{m.NewBatchEvaluator(workers).(*madeBatchEvaluator)}
}

// FlipLogPsiBatch implements BatchEvaluator by brute force.
func (e madeFullFlip) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	nf := len(flips)
	if base == nil {
		base = make([]float64, b.N)
	}
	e.LogPsiBatch(b, base)
	fb := ConfigBatch{N: b.N * nf, Sites: b.Sites, Bits: make([]int, b.N*nf*b.Sites)}
	for r := 0; r < fb.N; r++ {
		row := fb.Row(r)
		copy(row, b.Row(r/nf))
		row[flips[r%nf]] ^= 1
	}
	e.LogPsiBatch(fb, delta)
	for r := range delta {
		delta[r] -= base[r/nf]
	}
}

// toFloats converts configuration rows [lo, hi) of b into xf rows [0, ...).
func (e *madeBatchEvaluator) toFloats(b ConfigBatch, lo, hi int, xf *tensor.Matrix) {
	parallel.For(hi-lo, e.workers, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			x := b.Row(lo + r)
			row := xf.Row(r)
			for i, bit := range x {
				row[i] = float64(bit)
			}
		}
	})
}

// forwardSlab runs the dense two-GEMM forward for rows [lo, hi) of b,
// returning the output pre-activation slab z2 and, when needAct is set, the
// ReLU activation slab a (otherwise a is the layer-1 pre-activation). The
// arithmetic per row is exactly MADE.Forward's.
func (e *madeBatchEvaluator) forwardSlab(b ConfigBatch, lo, hi int, needAct bool) (a, z2 *tensor.Matrix) {
	m := e.m
	rows := hi - lo
	wm1t, wm2t := m.maskedWeights()
	xf := growMat(&e.bufXF, rows, m.n)
	z1 := growMat(&e.bufZ1, rows, m.h)
	z2 = growMat(&e.bufZ2, rows, m.n)
	e.toFloats(b, lo, hi, xf)
	tensor.MatMul(z1, xf, wm1t, e.workers)
	tensor.AddRowBias(z1, m.B1, e.workers)
	if needAct {
		// The backward pass needs the activation, so materialize it (the
		// scalar Forward's copy+ReLU); otherwise the fused MatMulReLU
		// consumes the pre-activation directly.
		a = growMat(&e.bufA, rows, m.h)
		copy(a.Data, z1.Data)
		reluRows(a, e.workers)
	} else {
		a = z1
	}
	tensor.MatMulReLU(z2, a, wm2t, e.workers)
	tensor.AddRowBias(z2, m.B2, e.workers)
	return a, z2
}

// LogPsiBatch implements BatchEvaluator; out[k] matches LogPsi(row k)
// bitwise.
func (e *madeBatchEvaluator) LogPsiBatch(b ConfigBatch, out []float64) {
	m := e.m
	if b.Sites != m.n {
		panic("nn: LogPsiBatch sites mismatch")
	}
	if len(out) != b.N {
		panic("nn: LogPsiBatch output length mismatch")
	}
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		_, z2 := e.forwardSlab(b, lo, hi, false)
		parallel.For(hi-lo, e.workers, func(rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				out[lo+r] = 0.5 * logProbFromZ2(b.Row(lo+r), z2.Row(r))
			}
		})
	}
}

// GradLogPsiBatch implements BatchEvaluator: the forward runs as two
// blocked GEMMs shared across the slab, then the analytic backward
// (gradFromForward, the same code the scalar path runs) fills each ows row.
func (e *madeBatchEvaluator) GradLogPsiBatch(b ConfigBatch, ows *tensor.Batch) {
	m := e.m
	if b.Sites != m.n {
		panic("nn: GradLogPsiBatch sites mismatch")
	}
	if ows.N != b.N || ows.Dim != m.NumParams() {
		panic("nn: GradLogPsiBatch ows shape mismatch")
	}
	for lo := 0; lo < b.N; lo += batchSlabRows {
		hi := lo + batchSlabRows
		if hi > b.N {
			hi = b.N
		}
		a, z2 := e.forwardSlab(b, lo, hi, true)
		ranges := parallel.Partition(hi-lo, e.workers)
		parallel.ForEach(len(ranges), e.workers, func(w int) {
			dz2, da := e.work[w].dz2, e.work[w].da
			for r := ranges[w].Lo; r < ranges[w].Hi; r++ {
				grad := ows.Sample(lo + r)
				m.gradFromForward(b.Row(lo+r), a.Row(r), z2.Row(r), dz2, da, grad)
				grad.Scale(0.5)
			}
		})
	}
}

// WeightedGradBatch implements BatchEvaluator without materializing any
// O_k row, sample-major: one parallel section hands each worker whole
// reduction blocks, and for each block the worker runs every row's forward
// fold (forwardRow, bitwise forwardSlab's GEMM chains) and backward deltas
// into its grad buffer (blockRows), then accumulates the block partial
// parameter row by parameter row, block rows inner and ascending, over the
// mask supports (blockPartial):
//
//	W1[k][i] += w * ((dz1*0.5) * x[i])   for i in w1Runs[k]
//	B1[k]    += w * (dz1*0.5)
//	W2[j][k] += w * ((dz2*a[k]) * 0.5)   for k in w2Runs[j]
//	B2[j]    += w * (dz2*0.5)
//
// Each added term is the one AXPY adds from the materialized row, whose
// entries are gradFromForward's values times 0.5: for x[i] == 0 the W1 term
// is w*(+/-0), which like the oracle's w*(+0) is a no-op for a finite w — a
// partial starts at +0 and never becomes -0 — and NaN otherwise. Entries
// outside the supports are +0 in every row, so only a row with a
// non-finite weight touches them, adding w*0 (NaN) as AXPY does. The
// evaluator-owned partials are then folded into dst in ascending block
// order, so the result is bitwise GradLogPsiBatch + tensor.AddWeightedRows.
func (e *madeBatchEvaluator) WeightedGradBatch(b ConfigBatch, w []float64, dst tensor.Vector) {
	m := e.m
	n, h, d := m.n, m.h, m.NumParams()
	if b.Sites != n {
		panic("nn: WeightedGradBatch sites mismatch")
	}
	if len(w) != b.N || len(dst) != d {
		panic("nn: WeightedGradBatch length mismatch")
	}
	if e.work[0].grad == nil {
		for wk := range e.work {
			e.work[wk].grad = make([]float64, tensor.GradBlockSize*2*(n+h))
		}
	}
	nb := tensor.GradBlocks(b.N)
	if len(e.parts) < nb*d {
		e.parts = make([]float64, nb*d)
	}
	wm1t, wm2t := m.maskedWeights()
	ranges := parallel.Partition(nb, e.workers)
	parallel.ForEach(len(ranges), e.workers, func(wk int) {
		ws := &e.work[wk]
		for bi := ranges[wk].Lo; bi < ranges[wk].Hi; bi++ {
			k0 := bi * tensor.GradBlockSize
			k1 := min(k0+tensor.GradBlockSize, b.N)
			ws.blockRows(m, wm1t, wm2t, b, k0, k1)
			ws.blockPartial(m, w[k0:k1], e.parts[bi*d:(bi+1)*d])
		}
	})
	for bi := 0; bi < nb; bi++ {
		dst.Add(e.parts[bi*d : (bi+1)*d])
	}
}

// gradRow returns the views of block row t in the grad buffer.
func (ws *madeWork) gradRow(m *MADE, t int) (xf, a, dz2, dz1 []float64) {
	n, h := m.n, m.h
	row := ws.grad[t*2*(n+h) : (t+1)*2*(n+h)]
	return row[:n], row[n : n+h], row[n+h : 2*n+h], row[2*n+h:]
}

// blockRows fills the grad buffer for batch rows [k0, k1): each row's
// forward (forwardRow, then tensor.ReLU as forwardSlab applies it) and its
// backward deltas (backwardDeltas, the scalar path's own).
func (ws *madeWork) blockRows(m *MADE, wm1t, wm2t *tensor.Matrix, b ConfigBatch, k0, k1 int) {
	for t := 0; t < k1-k0; t++ {
		xf, a, dz2, dz1 := ws.gradRow(m, t)
		x := b.Row(k0 + t)
		m.forwardRow(wm1t, wm2t, x, a, dz2, nil, nil)
		tensor.ReLU(a)
		for i, bit := range x {
			xf[i] = float64(bit)
		}
		m.backwardDeltas(x, a, dz2, dz2, dz1)
	}
}

// isFinite reports whether x is neither infinite nor NaN, the only values
// for which x - x is not 0.
func isFinite(x float64) bool { return x-x == 0 }

// blockPartial overwrites p with the block partial sum_t w[t] * O_t of the
// rows blockRows just filled (see WeightedGradBatch for the per-entry
// arithmetic).
func (ws *madeWork) blockPartial(m *MADE, w []float64, p tensor.Vector) {
	n, h := m.n, m.h
	clear(p)
	pW1, pB1 := p[:h*n], p[h*n:h*n+h]
	pW2, pB2 := p[h*n+h:h*n+h+n*h], p[h*n+h+n*h:]
	for k := 0; k < h; k++ {
		prow := pW1[k*n : (k+1)*n]
		for t, wt := range w {
			xr, _, _, dz1 := ws.gradRow(m, t)
			hd := dz1[k] * 0.5
			pB1[k] += wt * hd
			if hd == 0 && isFinite(wt) {
				// A gated-off unit's row is all w*(+/-0): no-op terms for a
				// finite weight.
				continue
			}
			if !isFinite(hd) {
				// A non-finite delta times x[i] == 0 is NaN, not the oracle's
				// +0: select the entry instead of multiplying.
				for _, run := range m.w1Runs[k] {
					for i := run[0]; i < run[1]; i++ {
						g := 0.0
						if xr[i] != 0 {
							g = hd
						}
						prow[i] += wt * g
					}
				}
				continue
			}
			for _, run := range m.w1Runs[k] {
				src := xr[run[0]:run[1]]
				dst := prow[run[0]:run[1]]
				dst = dst[:len(src)]
				for i, xv := range src {
					dst[i] += wt * (hd * xv)
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		prow := pW2[j*h : (j+1)*h]
		for t, wt := range w {
			_, ar, dz2, _ := ws.gradRow(m, t)
			dj := dz2[j]
			pB2[j] += wt * (dj * 0.5)
			for _, run := range m.w2Runs[j] {
				src := ar[run[0]:run[1]]
				dst := prow[run[0]:run[1]]
				dst = dst[:len(src)]
				for k, av := range src {
					dst[k] += wt * ((dj * av) * 0.5)
				}
			}
		}
	}
	for _, wt := range w {
		if isFinite(wt) {
			continue
		}
		// Outside the mask supports every row's entry is +0, so only a
		// non-finite weight changes them: AXPY adds w*0 = NaN.
		z := wt * 0
		for e, mv := range m.M1.Data {
			if mv == 0 {
				pW1[e] += z
			}
		}
		for e, mv := range m.M2.Data {
			if mv == 0 {
				pW2[e] += z
			}
		}
	}
}

// FlipLogPsiBatch implements BatchEvaluator under the tail-only flip
// convention of MADE.NewFlipCache, sample-major: one parallel section splits
// the base rows across the workers, and each worker carries its rows end to
// end in its own workspace — the base forward with its resume snapshots
// (baseRow), then every flip of that row as a tail evaluation (flipRow).
// The flipped log-psi values are bitwise identical to a fresh LogPsi of each
// flipped configuration, and the deltas subtract the base exactly as the
// scalar FlipCache.Delta does.
func (e *madeBatchEvaluator) FlipLogPsiBatch(b ConfigBatch, flips []int, base, delta []float64) {
	m := e.m
	nf := len(flips)
	if b.Sites != m.n {
		panic("nn: FlipLogPsiBatch sites mismatch")
	}
	if (base != nil && len(base) != b.N) || len(delta) != b.N*nf {
		panic("nn: FlipLogPsiBatch output length mismatch")
	}
	if e.work[0].z1 == nil {
		e.allocFlipWork()
	}
	wm1t, wm2t := m.maskedWeights()
	ranges := parallel.Partition(b.N, e.workers)
	parallel.ForEach(len(ranges), e.workers, func(w int) {
		ws := &e.work[w]
		for r := ranges[w].Lo; r < ranges[w].Hi; r++ {
			x := b.Row(r)
			logPsi := 0.5 * ws.baseRow(m, wm1t, wm2t, x)
			if base != nil {
				base[r] = logPsi
			}
			for f, bit := range flips {
				delta[r*nf+f] = 0.5*ws.flipRow(m, wm1t, wm2t, x, bit) - logPsi
			}
		}
	})
}

// allocFlipWork sizes every worker's flip-kernel state for the model. The
// layer-2 snapshots cover the units a flip's changes can start at: the
// first unit of each non-empty flipRuns.
func (e *madeBatchEvaluator) allocFlipWork() {
	m := e.m
	nSnap := 0
	for _, runs := range m.flipRuns {
		if len(runs) > 0 && runs[0][0] >= nSnap {
			nSnap = runs[0][0] + 1
		}
	}
	for w := range e.work {
		// One block per worker, with a cache line of padding so no two
		// workers ever write to the same line.
		buf := make([]float64, 2*m.h+3*m.n+1+m.n*m.h+nSnap*m.n+cacheLineFloats)
		take := func(k int) []float64 {
			s := buf[:k:k]
			buf = buf[k:]
			return s
		}
		ws := &e.work[w]
		ws.z1, ws.fz1 = take(m.h), take(m.h)
		ws.z2, ws.fz2, ws.p = take(m.n), take(m.n), take(m.n+1)
		ws.pre1, ws.pre2 = take(m.n*m.h), take(nSnap*m.n)
		ws.nSnap = nSnap
	}
}

// forwardRow runs the fresh forward of configuration x into z1 (h, the
// layer-1 pre-activations after the bias) and z2 (n, the layer-2
// pre-activations after the bias). Both layers run as explicit ascending
// folds that are bitwise the chains of MatMul and MatMulReLU (see
// forwardSlab): layer 1 adds wm1t row i for every set bit i, but only on
// flipRuns[i], input i's mask support (the masked-out weights are +/-0,
// exact no-op terms); layer 2 adds relu(z1[k]) * wm2t row k over unit k's
// output support [deg(k), n); each bias follows its dot product. With a
// non-nil pre1 it also records the partial sums the flip rows resume from:
// pre1 row i the layer-1 sums over inputs < i on flipRuns[i] (n x h), and
// pre2 row k the layer-2 sums over units < k, for k < len(pre2)/n.
func (m *MADE) forwardRow(wm1t, wm2t *tensor.Matrix, x []int, z1, z2, pre1, pre2 []float64) {
	clear(z1)
	for i, xb := range x {
		if pre1 == nil && xb != 1 {
			continue
		}
		wrow := wm1t.Row(i)
		for _, run := range m.flipRuns[i] {
			dst := z1[run[0]:run[1]]
			if pre1 != nil {
				copy(pre1[i*m.h+run[0]:i*m.h+run[1]], dst)
			}
			if xb == 1 {
				for k, v := range wrow[run[0]:run[1]] {
					dst[k] += v
				}
			}
		}
	}
	for k, v := range m.B1 {
		z1[k] += v
	}
	clear(z2)
	nSnap := len(pre2) / m.n
	for k, av := range z1 {
		if k < nSnap {
			copy(pre2[k*m.n:(k+1)*m.n], z2)
		}
		d0 := m.deg[k]
		if d0 == 0 || av <= 0 {
			continue
		}
		dst := z2[d0:]
		for j, wv := range wm2t.Row(k)[d0:] {
			dst[j] += av * wv
		}
	}
	for j, v := range m.B2 {
		z2[j] += v
	}
}

// baseRow runs the fresh forward of configuration x (forwardRow, with the
// resume snapshots) and returns log pi(x), leaving z1, z2 and the fold
// prefix sums p in the workspace.
func (w *madeWork) baseRow(m *MADE, wm1t, wm2t *tensor.Matrix, x []int) float64 {
	m.forwardRow(wm1t, wm2t, x, w.z1, w.z2, w.pre1, w.pre2[:w.nSnap*m.n])
	var lp float64
	w.p[0] = 0
	for j, xb := range x {
		z := w.z2[j]
		if xb != 1 {
			z = -z
		}
		lp += logSigmoid(z)
		w.p[j+1] = lp
	}
	return lp
}

// flipRow returns log pi of x with bit flipped; baseRow(x) must have run on
// this workspace. It evaluates only the tail, as MADE.NewFlipCache argues:
// hidden units outside flipRuns[bit] keep their base values, and each unit
// inside resumes its layer-1 chain from the snapshot before site bit; output
// sites j > bit resume their layer-2 chain from the snapshot before the
// first changed unit (ReLU as MatMulReLU's skip-on-nonpositive); the fold
// resumes from p[bit], with site bit's unchanged pre-activation re-branched
// on the flipped value. Every element sees exactly the additions a fresh
// forward of the flipped configuration performs, so the result is bitwise
// that forward's.
func (w *madeWork) flipRow(m *MADE, wm1t, wm2t *tensor.Matrix, x []int, bit int) float64 {
	runs := m.flipRuns[bit]
	z2 := w.z2 // no hidden unit sees the bit: the base outputs stand
	if len(runs) > 0 {
		fz1 := w.fz1
		copy(fz1, w.z1)
		snap := w.pre1[bit*m.h : (bit+1)*m.h]
		for _, run := range runs {
			copy(fz1[run[0]:run[1]], snap[run[0]:run[1]])
		}
		for i := bit; i < m.n; i++ {
			xi := x[i]
			if i == bit {
				xi = 1 - xi
			}
			if xi != 1 {
				continue
			}
			off := 0
			if m.runsAscending {
				// Within an ascending run, input i's mask support is the
				// suffix starting i-bit units in.
				off = i - bit
			}
			wrow := wm1t.Row(i)
			for _, run := range runs {
				if r0 := run[0] + off; r0 < run[1] {
					src := wrow[r0:run[1]]
					dst := fz1[r0:run[1]]
					dst = dst[:len(src)]
					for k, v := range src {
						dst[k] += v
					}
				}
			}
		}
		for _, run := range runs {
			for k := run[0]; k < run[1]; k++ {
				fz1[k] += m.B1[k]
			}
		}
		if bit+1 < m.n {
			z2 = w.fz2
			k0 := runs[0][0]
			copy(z2[bit+1:], w.pre2[k0*m.n+bit+1:(k0+1)*m.n])
			for k := k0; k < m.h; k++ {
				av, d := fz1[k], m.deg[k]
				if av <= 0 || d == 0 {
					continue
				}
				// Unit k only feeds outputs j >= deg(k).
				lo := max(bit+1, d)
				src := wm2t.Row(k)[lo:]
				dst := z2[lo:]
				dst = dst[:len(src)]
				for j, wv := range src {
					dst[j] += av * wv
				}
			}
			for j := bit + 1; j < m.n; j++ {
				z2[j] += m.B2[j]
			}
		}
	}
	zb := w.z2[bit]
	if x[bit] == 1 { // flipped value is 0
		zb = -zb
	}
	lp := w.p[bit] + logSigmoid(zb)
	for j := bit + 1; j < m.n; j++ {
		z := z2[j]
		if x[j] != 1 {
			z = -z
		}
		lp += logSigmoid(z)
	}
	return lp
}

// madeBatchAncestral samples a batch row by row: one parallel section splits
// the rows across the workers, and each worker walks its rows through the
// incremental evaluator's arithmetic (ConditionalRow + AccumulateInput) in a
// private hidden-state vector, so given the same uniforms the sampled bits
// are identical to scalar ancestral sampling.
type madeBatchAncestral struct {
	m   *MADE
	buf []float64 // per-worker hidden pre-activations, h each
}

// NewBatchAncestralSampler implements BatchAncestralBuilder.
func (m *MADE) NewBatchAncestralSampler() BatchAncestralSampler {
	return &madeBatchAncestral{m: m}
}

// Sample implements BatchAncestralSampler.
func (a *madeBatchAncestral) Sample(b ConfigBatch, u []float64, workers int) {
	m := a.m
	if b.Sites != m.n {
		panic("nn: batched ancestral sites mismatch")
	}
	if len(u) < b.N*m.n {
		panic("nn: batched ancestral uniforms too short")
	}
	if workers <= 0 {
		workers = parallel.MaxWorkers()
	}
	ranges := parallel.Partition(b.N, workers)
	// Pad each worker's vector so no two workers write to one cache line.
	stride := m.h + cacheLineFloats
	if need := len(ranges) * stride; cap(a.buf) < need {
		a.buf = make([]float64, need)
	}
	parallel.ForEach(len(ranges), workers, func(w int) {
		z1 := a.buf[w*stride : w*stride+m.h]
		for r := ranges[w].Lo; r < ranges[w].Hi; r++ {
			copy(z1, m.B1)
			x, ur := b.Row(r), u[r*m.n:(r+1)*m.n]
			for i := range x {
				bit := 0
				if ur[i] < m.ConditionalRow(z1, i) {
					bit = 1
				}
				x[i] = bit
				m.AccumulateInput(z1, i, bit)
			}
		}
	})
}

var (
	_ BatchEvaluatorBuilder         = (*MADE)(nil)
	_ FullFlipBatchEvaluatorBuilder = (*MADE)(nil)
	_ BatchAncestralBuilder         = (*MADE)(nil)
)
