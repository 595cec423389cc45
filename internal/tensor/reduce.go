package tensor

import "github.com/vqmc-scale/parvqmc/internal/parallel"

// GradBlockSize is the fixed granule of the weighted row-sum reduction: rows
// are reduced into per-block partials (each block owned by exactly one
// worker, starting at +0 and accumulated in ascending row order) and the
// partials are folded serially in ascending block order. The block boundary
// depends only on the row index — never on the worker count — so the reduced
// vector is bitwise invariant to the worker count, the property the
// distributed trainer's replica x worker bit-identity rests on. Fused
// kernels that never materialize the rows (nn.BatchEvaluator's
// WeightedGradBatch) honour the same blocks, so their bytes equal
// AddWeightedRows over the materialized rows.
const GradBlockSize = 32

// GradBlocks returns the partial count AddWeightedRows needs for n rows
// (callers size the parts workspace once with it).
func GradBlocks(n int) int { return (n + GradBlockSize - 1) / GradBlockSize }

// AddWeightedRows accumulates dst += sum_k w[k] * rows.Sample(k) using the
// fixed-block scheme above, fanning block partials across up to workers
// goroutines. parts must be a GradBlocks(rows.N) x rows.Dim workspace; its
// contents are overwritten. dst is NOT zeroed first.
func AddWeightedRows(dst Vector, rows *Batch, w []float64, parts *Batch, workers int) {
	nb := GradBlocks(rows.N)
	if parts.N < nb || parts.Dim != rows.Dim {
		panic("tensor: AddWeightedRows parts workspace too small")
	}
	parallel.For(nb, workers, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			p := parts.Sample(bi)
			p.Fill(0)
			k1 := min((bi+1)*GradBlockSize, rows.N)
			for k := bi * GradBlockSize; k < k1; k++ {
				p.AXPY(w[k], rows.Sample(k))
			}
		}
	})
	for bi := 0; bi < nb; bi++ {
		dst.Add(parts.Sample(bi))
	}
}
