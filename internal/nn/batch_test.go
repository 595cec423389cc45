package nn

import (
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// batchCases are the (B, workers, n) grids the batched-vs-scalar
// bit-identity properties run over (the ISSUE's acceptance matrix).
var (
	batchSizes   = []int{1, 3, 64}
	workerCounts = []int{1, 2, 5}
	siteCounts   = []int{1, 2, 7, 19}
)

// The MADE flip kernel and sampler run over a wider grid: an odd worker
// count, and the narrow width h=3 < n-1 next to each test's own width, under
// which every bit >= 3 has an empty flipRuns (no hidden unit sees it).
var madeWorkerCounts = []int{1, 2, 3, 5}

func madeWidths(h int) []int { return []int{h, 3} }

// flipLists returns the flip-site lists the flip kernels run: every single
// bit (the TIM pattern), a list with repeated sites, and no flips at all.
func flipLists(n int) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return [][]int{all, {n - 1, 0, n - 1, n / 2, 0}, {}}
}

func randomConfigs(bs, n int, r *rng.Rand) ConfigBatch {
	b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
	r.FillBits(b.Bits)
	return b
}

// TestLogPsiBatchBitIdentical: LogPsiBatch must equal per-row LogPsi with
// exact ==, for every batch size, worker count and site count.
func TestLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 6+n, rng.New(uint64(100+n)))
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(7*bs+n)))
				out := make([]float64, bs)
				e.LogPsiBatch(b, out)
				s := m.NewScratch()
				for k := 0; k < bs; k++ {
					want := m.LogPsiScratch(b.Row(k), s)
					if out[k] != want {
						t.Fatalf("n=%d w=%d B=%d row %d: batched %v != scalar %v",
							n, workers, bs, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestGradLogPsiBatchBitIdentical: every ows row must equal the scalar
// GradLogPsi of that configuration with exact ==.
func TestGradLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		m := NewMADE(n, 5+n/2, rng.New(uint64(200+n)))
		d := m.NumParams()
		for _, workers := range workerCounts {
			e := m.NewBatchEvaluator(workers)
			for _, bs := range batchSizes {
				b := randomConfigs(bs, n, rng.New(uint64(13*bs+n)))
				ows := tensor.NewBatch(bs, d)
				e.GradLogPsiBatch(b, ows)
				s := m.NewScratch()
				want := tensor.NewVector(d)
				for k := 0; k < bs; k++ {
					m.GradLogPsiScratch(b.Row(k), want, s)
					row := ows.Sample(k)
					for i := range want {
						if row[i] != want[i] {
							t.Fatalf("n=%d w=%d B=%d row %d param %d: batched %v != scalar %v",
								n, workers, bs, k, i, row[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestFlipLogPsiBatchBitIdentical: base values must match the flip cache's
// base LogPsi (and, under the fresh-forward convention, a fresh LogPsi) and
// delta values must match FlipCache.Delta, exactly — the property
// core.LocalEnergies' batched dispatch relies on.
func TestFlipLogPsiBatchBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		for _, h := range madeWidths(4 + n) {
			m := NewMADE(n, h, rng.New(uint64(300+n)))
			for _, flips := range flipLists(n) {
				nf := len(flips)
				for _, workers := range madeWorkerCounts {
					e := m.NewBatchEvaluator(workers)
					for _, bs := range batchSizes {
						b := randomConfigs(bs, n, rng.New(uint64(17*bs+n)))
						base := make([]float64, bs)
						delta := make([]float64, bs*nf)
						e.FlipLogPsiBatch(b, flips, base, delta)
						cache := m.NewFlipCache(b.Row(0))
						s := m.NewScratch()
						for k := 0; k < bs; k++ {
							if k > 0 {
								cache.Reset(b.Row(k))
							}
							if base[k] != cache.LogPsi() {
								t.Fatalf("n=%d h=%d nf=%d w=%d B=%d row %d: batched base %v != cache %v",
									n, h, nf, workers, bs, k, base[k], cache.LogPsi())
							}
							if want := m.LogPsiScratch(b.Row(k), s); base[k] != want {
								t.Fatalf("n=%d h=%d nf=%d w=%d B=%d row %d: batched base %v != fresh LogPsi %v",
									n, h, nf, workers, bs, k, base[k], want)
							}
							for f, bit := range flips {
								if want := cache.Delta(bit); delta[k*nf+f] != want {
									t.Fatalf("n=%d h=%d nf=%d w=%d B=%d row %d flip %d: batched delta %v != cache %v",
										n, h, nf, workers, bs, k, bit, delta[k*nf+f], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFlipLogPsiBatchMatchesFullRecompute: the tail-only super-batch and
// the full-recompute reference evaluator must agree byte for byte on every
// base and delta — the differential proof that skipping output sites j < b
// is invisible in the values.
func TestFlipLogPsiBatchMatchesFullRecompute(t *testing.T) {
	for _, n := range siteCounts {
		for _, h := range madeWidths(4 + n) {
			m := NewMADE(n, h, rng.New(uint64(350+n)))
			full := m.NewFullFlipBatchEvaluator(3)
			for _, flips := range flipLists(n) {
				nf := len(flips)
				for _, workers := range madeWorkerCounts {
					tail := m.NewBatchEvaluator(workers)
					for _, bs := range batchSizes {
						b := randomConfigs(bs, n, rng.New(uint64(23*bs+n)))
						baseT := make([]float64, bs)
						baseF := make([]float64, bs)
						deltaT := make([]float64, bs*nf)
						deltaF := make([]float64, bs*nf)
						tail.FlipLogPsiBatch(b, flips, baseT, deltaT)
						full.FlipLogPsiBatch(b, flips, baseF, deltaF)
						for k := range baseT {
							if baseT[k] != baseF[k] {
								t.Fatalf("n=%d h=%d nf=%d w=%d B=%d row %d: tail base %v != full base %v",
									n, h, nf, workers, bs, k, baseT[k], baseF[k])
							}
						}
						for i := range deltaT {
							if deltaT[i] != deltaF[i] {
								t.Fatalf("n=%d h=%d nf=%d w=%d B=%d delta %d: tail %v != full %v",
									n, h, nf, workers, bs, i, deltaT[i], deltaF[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFlipLogPsiBatchRandomSites pins the tail-only flip path against
// fresh LogPsi for RANDOM flip-site subsets (not just the all-bits TIM
// pattern) across the full B x n acceptance grid: for every row and flip,
// base + delta must reproduce exactly the values the scalar tail-only
// cache derives from a fresh forward of the flipped configuration.
func TestFlipLogPsiBatchRandomSites(t *testing.T) {
	r := rng.New(41)
	for _, n := range siteCounts {
		for _, h := range madeWidths(6 + n) {
			m := NewMADE(n, h, r.Split())
			s := m.NewScratch()
			y := make([]int, n)
			for _, workers := range madeWorkerCounts {
				e := m.NewBatchEvaluator(workers)
				for _, bs := range batchSizes {
					nf := 1 + r.Intn(n)
					flips := make([]int, nf)
					for f := range flips {
						flips[f] = r.Intn(n)
					}
					b := randomConfigs(bs, n, r.Split())
					base := make([]float64, bs)
					delta := make([]float64, bs*nf)
					e.FlipLogPsiBatch(b, flips, base, delta)
					for k := 0; k < bs; k++ {
						baseWant := m.LogPsiScratch(b.Row(k), s)
						if base[k] != baseWant {
							t.Fatalf("n=%d h=%d w=%d B=%d row %d: base %v != fresh %v",
								n, h, workers, bs, k, base[k], baseWant)
						}
						for f, bit := range flips {
							copy(y, b.Row(k))
							y[bit] = 1 - y[bit]
							want := m.LogPsiScratch(y, s) - baseWant
							if delta[k*nf+f] != want {
								t.Fatalf("n=%d h=%d w=%d B=%d row %d flip site %d: delta %v != fresh %v",
									n, h, workers, bs, k, bit, delta[k*nf+f], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchAncestralBitIdentical: fed the same uniforms, the batched
// sampler must produce exactly the bits of the scalar
// incremental evaluator walked sample-major.
func TestBatchAncestralBitIdentical(t *testing.T) {
	for _, n := range siteCounts {
		for _, h := range madeWidths(6 + n) {
			m := NewMADE(n, h, rng.New(uint64(400+n)))
			bsmp := m.NewBatchAncestralSampler()
			for _, bs := range batchSizes {
				u := make([]float64, bs*n)
				rng.New(uint64(19*bs+n)).FillUniform(u, 0, 1)
				// Scalar reference: incremental evaluator, one sample at a time.
				want := make([]int, bs*n)
				ev := m.NewIncrementalEvaluator()
				for k := 0; k < bs; k++ {
					ev.Reset()
					for i := 0; i < n; i++ {
						bit := 0
						if u[k*n+i] < ev.Prob(i) {
							bit = 1
						}
						want[k*n+i] = bit
						ev.Fix(i, bit)
					}
				}
				for _, workers := range madeWorkerCounts {
					b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
					bsmp.Sample(b, u, workers)
					for i := range want {
						if b.Bits[i] != want[i] {
							t.Fatalf("n=%d h=%d B=%d w=%d: bit %d = %d, scalar %d",
								n, h, bs, workers, i, b.Bits[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMaskedWeightCacheInvalidation: the W.M cache must be rebuilt after
// InvalidateParams and must poison results if it is NOT invalidated — the
// teeth that prove the version counter is load-bearing.
func TestMaskedWeightCacheInvalidation(t *testing.T) {
	n := 6
	m := NewMADE(n, 8, rng.New(5))
	e := m.NewBatchEvaluator(2)
	b := randomConfigs(4, n, rng.New(6))
	out := make([]float64, 4)
	e.LogPsiBatch(b, out) // builds the cache

	// Mutate a weight that is inside the mask support and invalidate: the
	// batched value must track the scalar one.
	m.Params()[0] += 0.125
	InvalidateParams(m)
	e.LogPsiBatch(b, out)
	for k := 0; k < 4; k++ {
		if want := m.LogPsi(b.Row(k)); out[k] != want {
			t.Fatalf("after invalidation row %d: batched %v != scalar %v", k, out[k], want)
		}
	}

	// Teeth: mutate again WITHOUT invalidating; the stale cache must now
	// disagree with the scalar path (if it silently agreed, the cache
	// would not actually be caching anything).
	m.Params()[0] += 0.125
	e.LogPsiBatch(b, out)
	stale := false
	for k := 0; k < 4; k++ {
		if out[k] != m.LogPsi(b.Row(k)) {
			stale = true
		}
	}
	if !stale {
		t.Fatal("stale masked-weight cache still matched fresh weights; cache is not engaged")
	}
	InvalidateParams(m)
}

// TestTailFlipCacheExactRegression pins the tail-only flip cache against
// fresh LogPsi calls with exact ==: after arbitrary interleavings of Flip,
// Delta and Reset the cached base log psi, the absolute flipped log psi
// (FlipLogPsi) and every delta must agree bitwise with a full
// recomputation — the tentpole invariant that evaluating only output sites
// j >= b changes nothing but the work done.
func TestTailFlipCacheExactRegression(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{1, 2, 7, 19} {
		m := NewMADE(n, 5+n, r.Split())
		x := make([]int, n)
		r.FillBits(x)
		c := m.NewFlipCache(x).(TailFlipCache)
		y := make([]int, n)
		for trial := 0; trial < 200; trial++ {
			if c.LogPsi() != m.LogPsi(c.State()) {
				t.Fatalf("n=%d trial %d: cache logPsi %v != fresh %v",
					n, trial, c.LogPsi(), m.LogPsi(c.State()))
			}
			bit := r.Intn(n)
			copy(y, c.State())
			y[bit] = 1 - y[bit]
			if got, want := c.FlipLogPsi(bit), m.LogPsi(y); got != want {
				t.Fatalf("n=%d trial %d: FlipLogPsi(%d) = %v != fresh %v", n, trial, bit, got, want)
			}
			if got, want := c.Delta(bit), m.LogPsi(y)-c.LogPsi(); got != want {
				t.Fatalf("n=%d trial %d: Delta(%d) = %v != fresh difference %v", n, trial, bit, got, want)
			}
			switch trial % 3 {
			case 0:
				c.Flip(bit)
			case 1:
				r.FillBits(y)
				c.Reset(y)
			}
		}
	}
}

// TestMADEBatchAllocsBounded pins the sample-major kernels' allocation
// profile: at steady state one FlipLogPsiBatch, WeightedGradBatch or batched
// ancestral Sample call allocates only its parallel sections' bookkeeping,
// a small constant independent of the batch size, the site count and the
// flip count.
func TestMADEBatchAllocsBounded(t *testing.T) {
	const maxAllocs = 16
	for _, n := range []int{16, 32} {
		m := NewMADE(n, 2*n+6, rng.New(uint64(n)))
		flips := flipLists(n)[0]
		for _, bs := range []int{64, 1024} {
			b := randomConfigs(bs, n, rng.New(uint64(bs+n)))
			delta := make([]float64, bs*n)
			u := make([]float64, bs*n)
			rng.New(uint64(bs)).FillUniform(u, 0, 1)
			for _, workers := range []int{1, 2} {
				e := m.NewBatchEvaluator(workers)
				if a := testing.AllocsPerRun(3, func() { e.FlipLogPsiBatch(b, flips, nil, delta) }); a > maxAllocs {
					t.Errorf("n=%d B=%d w=%d: FlipLogPsiBatch allocates %v per call, want <= %d", n, bs, workers, a, maxAllocs)
				}
				w := make([]float64, bs)
				grad := tensor.NewVector(m.NumParams())
				if a := testing.AllocsPerRun(3, func() { e.WeightedGradBatch(b, w, grad) }); a > maxAllocs {
					t.Errorf("n=%d B=%d w=%d: WeightedGradBatch allocates %v per call, want <= %d", n, bs, workers, a, maxAllocs)
				}
				smp := m.NewBatchAncestralSampler()
				if a := testing.AllocsPerRun(3, func() { smp.Sample(b, u, workers) }); a > maxAllocs {
					t.Errorf("n=%d B=%d w=%d: batched Sample allocates %v per call, want <= %d", n, bs, workers, a, maxAllocs)
				}
			}
		}
	}
}

// FuzzMADEFlipBatch fuzzes MADE's sample-major flip kernel over the shape,
// batch size, worker count, flip list and configuration bits: every base
// and delta must equal both the full-flip oracle's and a fresh LogPsi's with
// exact ==.
func FuzzMADEFlipBatch(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(37), uint8(3), uint8(1), []byte{0, 1, 2, 15}, []byte{0xa5, 0x3c, 0xff, 0x01})
	f.Add(uint64(7), uint8(18), uint8(2), uint8(0), uint8(2), []byte{18, 18, 0, 5}, []byte{0x0f, 0xf0, 0x55})
	f.Add(uint64(3), uint8(0), uint8(0), uint8(1), uint8(0), []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, hRaw, bRaw, wRaw uint8, flipRaw, bitRaw []byte) {
		n := 1 + int(nRaw)%24
		h := 1 + int(hRaw)%48
		bs := 1 + int(bRaw)%8
		workers := 1 + int(wRaw)%4
		if len(flipRaw) > 2*n {
			flipRaw = flipRaw[:2*n]
		}
		flips := make([]int, len(flipRaw))
		for i, v := range flipRaw {
			flips[i] = int(v) % n
		}
		b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
		for i := range b.Bits {
			if i/8 < len(bitRaw) {
				b.Bits[i] = int(bitRaw[i/8]>>(i%8)) & 1
			}
		}
		m := NewMADE(n, h, rng.New(seed))
		nf := len(flips)
		base, delta := make([]float64, bs), make([]float64, bs*nf)
		m.NewBatchEvaluator(workers).FlipLogPsiBatch(b, flips, base, delta)
		baseF, deltaF := make([]float64, bs), make([]float64, bs*nf)
		m.NewFullFlipBatchEvaluator(workers).FlipLogPsiBatch(b, flips, baseF, deltaF)
		y := make([]int, n)
		for k := 0; k < bs; k++ {
			want := m.LogPsi(b.Row(k))
			if base[k] != want || baseF[k] != want {
				t.Fatalf("n=%d h=%d w=%d row %d: base %v, oracle %v, fresh %v", n, h, workers, k, base[k], baseF[k], want)
			}
			for f, bit := range flips {
				copy(y, b.Row(k))
				y[bit] ^= 1
				d := m.LogPsi(y) - want
				if got := delta[k*nf+f]; got != d || deltaF[k*nf+f] != d {
					t.Fatalf("n=%d h=%d w=%d row %d flip site %d: delta %v, oracle %v, fresh %v",
						n, h, workers, k, bit, got, deltaF[k*nf+f], d)
				}
			}
		}
	})
}
