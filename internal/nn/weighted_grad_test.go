package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// weightedGradFamilies enumerates every model family with a batched path;
// each must honour the WeightedGradBatch contract.
var weightedGradFamilies = []struct {
	name  string
	build func(n, h int, r *rng.Rand) BatchEvaluatorBuilder
}{
	{"MADE", func(n, h int, r *rng.Rand) BatchEvaluatorBuilder { return NewMADE(n, h, r) }},
	{"NADE", func(n, h int, r *rng.Rand) BatchEvaluatorBuilder { return NewNADE(n, h, r) }},
	{"RNN", func(n, h int, r *rng.Rand) BatchEvaluatorBuilder { return NewRNN(n, h, r) }},
	{"RBM", func(n, h int, r *rng.Rand) BatchEvaluatorBuilder { return NewRBM(n, h, r) }},
}

// sameFloat is exact equality that also holds between two NaNs: every
// non-NaN entry must match bit for bit (so +0 and -0 differ), and NaNs must
// sit in the same entries. NaN payloads are left out because when two NaN
// terms meet, which operand's payload survives depends on how the compiler
// orders the add, not on the arithmetic.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// weightedGradOracle is the contract's reference: dst plus the
// materialized O_k rows reduced by tensor.AddWeightedRows.
func weightedGradOracle(rows *tensor.Batch, w []float64, dst tensor.Vector, workers int) tensor.Vector {
	want := dst.Clone()
	tensor.AddWeightedRows(want, rows, w, tensor.NewBatch(tensor.GradBlocks(rows.N), rows.Dim), workers)
	return want
}

// weightVectors returns the weight vectors each case runs: ordinary
// finite weights; finite weights salted with zeros of both signs,
// subnormals and magnitudes whose products overflow; and the same salted
// with infinities and NaNs.
func weightVectors(bs int, r *rng.Rand) [][]float64 {
	finite := make([]float64, bs)
	for k := range finite {
		finite[k] = 2*r.Float64() - 1
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-310, 1e308, -1e308}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	salted := append([]float64(nil), finite...)
	for k := range salted {
		if k%3 == 0 {
			salted[k] = specials[(k/3)%len(specials)]
		}
	}
	poisoned := append([]float64(nil), salted...)
	for k := range poisoned {
		if k%7 == 1 {
			poisoned[k] = nonFinite[(k/7)%len(nonFinite)]
		}
	}
	return [][]float64{finite, salted, poisoned}
}

// checkWeightedGrad runs WeightedGradBatch from a nonzero dst and compares
// it with the oracle over rows, b's GradLogPsiBatch rows.
func checkWeightedGrad(t *testing.T, tag string, e BatchEvaluator, b ConfigBatch, rows *tensor.Batch, w []float64, workers int, r *rng.Rand) {
	t.Helper()
	dst := tensor.NewVector(rows.Dim)
	for i := range dst {
		dst[i] = 2*r.Float64() - 1
	}
	want := weightedGradOracle(rows, w, dst, workers)
	e.WeightedGradBatch(b, w, dst)
	for i := range dst {
		if !sameFloat(dst[i], want[i]) {
			t.Fatalf("%s: entry %d: fused %v (%#x) != oracle %v (%#x)",
				tag, i, dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestWeightedGradBatchBitIdentical: for every family, WeightedGradBatch
// must equal GradLogPsiBatch + tensor.AddWeightedRows exactly, over site
// counts with hidden widths below and above n-1 (MADE's mask supports are
// single runs below n-1 and wrap into several above), batch sizes
// straddling the 32-row reduction block and the 128-row slab, worker counts
// above the block count, a nonzero starting dst, and weights including
// +/-0, subnormals, overflowing magnitudes, +/-Inf and NaN.
func TestWeightedGradBatchBitIdentical(t *testing.T) {
	bss := []int{1, 3, 31, 32, 33, 128, 1000}
	if testing.Short() {
		bss = []int{1, 3, 33}
	}
	for _, fam := range weightedGradFamilies {
		for _, n := range []int{1, 2, 7, 16, 19} {
			widths := []int{n + 1}
			if n > 4 {
				widths = append(widths, 3)
			}
			for _, h := range widths {
				m := fam.build(n, h, rng.New(uint64(31*n+h)))
				d := m.(Wavefunction).NumParams()
				for _, workers := range []int{1, 2, 3} {
					// One evaluator per worker count runs every batch size, so
					// its grown workspaces are reused across calls.
					e := m.NewBatchEvaluator(workers)
					for _, bs := range bss {
						r := rng.New(uint64(1000*n + 10*bs + workers))
						b := randomConfigs(bs, n, r)
						rows := tensor.NewBatch(bs, d)
						e.GradLogPsiBatch(b, rows)
						for wi, w := range weightVectors(bs, r) {
							tag := fmt.Sprintf("%s n=%d h=%d w=%d B=%d weights#%d", fam.name, n, h, workers, bs, wi)
							checkWeightedGrad(t, tag, e, b, rows, w, workers, r)
						}
					}
				}
			}
		}
	}
}

// TestMADEWeightedGradNonFiniteDeltas drives MADE's kernel through backward
// deltas that overflow: W2 entries of +/-1e308 make dA infinite (and, where
// infinities of both signs meet, NaN), so the W1 terms of unset bits must
// take the select path — a non-finite delta times x = 0 is NaN, while the
// materialized row holds +0 there.
func TestMADEWeightedGradNonFiniteDeltas(t *testing.T) {
	for _, h := range []int{3, 9} {
		m := NewMADE(7, h, rng.New(uint64(h)))
		for e := range m.W2.Data {
			m.W2.Data[e] = math.Copysign(1e308, m.W2.Data[e])
		}
		m.InvalidateParams()
		for _, workers := range []int{1, 2, 3} {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range []int{1, 33} {
				r := rng.New(uint64(bs + workers))
				b := randomConfigs(bs, 7, r)
				rows := tensor.NewBatch(bs, m.NumParams())
				e.GradLogPsiBatch(b, rows)
				for wi, w := range weightVectors(bs, r) {
					tag := fmt.Sprintf("h=%d w=%d B=%d weights#%d", h, workers, bs, wi)
					checkWeightedGrad(t, tag, e, b, rows, w, workers, r)
				}
			}
		}
	}
}

// FuzzMADEWeightedGrad fuzzes MADE's fused weighted-gradient kernel over the
// shape, batch size, worker count, configuration bits and weights (raw
// float64 bit patterns, so every special value is reachable): the result
// must equal GradLogPsiBatch + tensor.AddWeightedRows exactly.
func FuzzMADEWeightedGrad(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(37), uint8(40), uint8(1), []byte{0xa5, 0x3c, 0xff, 0x01}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint64(7), uint8(18), uint8(2), uint8(0), uint8(2), []byte{0x0f, 0xf0, 0x55}, []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint64(3), uint8(0), uint8(0), uint8(1), uint8(0), []byte{1}, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, hRaw, bRaw, wRaw uint8, bitRaw, weightRaw []byte) {
		n := 1 + int(nRaw)%24
		h := 1 + int(hRaw)%48
		bs := 1 + int(bRaw)%70
		workers := 1 + int(wRaw)%4
		b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
		for i := range b.Bits {
			if i/8 < len(bitRaw) {
				b.Bits[i] = int(bitRaw[i/8]>>(i%8)) & 1
			}
		}
		r := rng.New(seed)
		w := make([]float64, bs)
		for k := range w {
			if 8*k+8 <= len(weightRaw) {
				var u uint64
				for i := 0; i < 8; i++ {
					u |= uint64(weightRaw[8*k+i]) << (8 * i)
				}
				w[k] = math.Float64frombits(u)
			} else {
				w[k] = 2*r.Float64() - 1
			}
		}
		m := NewMADE(n, h, rng.New(seed))
		e := m.NewBatchEvaluator(workers)
		rows := tensor.NewBatch(bs, m.NumParams())
		e.GradLogPsiBatch(b, rows)
		checkWeightedGrad(t, "MADE", e, b, rows, w, workers, r)
	})
}

// BenchmarkMADEWeightedGrad times the REINFORCE gradient of one Max-Cut
// scaling-workload replica batch (n=256, h=154, B=128) on one worker: the
// fused kernel against materialized GradLogPsiBatch rows plus
// tensor.AddWeightedRows.
func BenchmarkMADEWeightedGrad(b *testing.B) {
	const n, h, bs = 256, 154, 128
	m := NewMADE(n, h, rng.New(1))
	cb := randomConfigs(bs, n, rng.New(2))
	w := weightVectors(bs, rng.New(3))[0]
	dst := tensor.NewVector(m.NumParams())
	e := m.NewBatchEvaluator(1)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.WeightedGradBatch(cb, w, dst)
		}
	})
	b.Run("rows+reduce", func(b *testing.B) {
		rows := tensor.NewBatch(bs, m.NumParams())
		parts := tensor.NewBatch(tensor.GradBlocks(bs), m.NumParams())
		for i := 0; i < b.N; i++ {
			e.GradLogPsiBatch(cb, rows)
			tensor.AddWeightedRows(dst, rows, w, parts, 1)
		}
	})
}
