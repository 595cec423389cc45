package main

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

func TestQuantileMatchesInclusiveDefinition(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestCoveredIsUnionClippedToParent(t *testing.T) {
	p := span{Start: 10, End: 100}
	kids := []span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 90, End: 200}}
	// [10,30) + [50,60) + [90,100) = 20 + 10 + 10
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	r := newRecorder()
	root := r.add(span{Name: "step", Start: 0, End: 100})
	ph := r.add(span{Parent: root, Name: "core.energy", Start: 0, End: 60, Derived: true})
	r.add(span{Parent: ph, Name: "sampler.Sample", Start: 0, End: 20})
	r.add(span{Parent: root, Name: "other-rank", Start: 0, End: 100, Rank: 1})
	got := map[string]float64{}
	for _, s := range r.selfTimes("step") {
		got[s.Name] = s.Share
	}
	want := map[string]float64{"step": 0.4, "core.energy": 0.4, "sampler.Sample": 0.2}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["other-rank"]; ok {
		t.Error("rank 1 span counted")
	}
	if d := dominant(r.selfTimes("step"), "step"); d.Name != "core.energy" {
		t.Errorf("dominant = %s, want core.energy", d.Name)
	}
}

type plainSampler struct{}

func (plainSampler) Sample(*sampler.Batch) {}
func (plainSampler) Cost() sampler.Cost    { return sampler.Cost{} }

type plainOptimizer struct{}

func (plainOptimizer) Step(_, _ tensor.Vector) {}
func (plainOptimizer) Name() string            { return "plain" }

func TestWrappersForwardOptionalInterfacesExactly(t *testing.T) {
	ctx := &stepCtx{}
	m := nn.NewMADE(4, 3, rng.New(1))
	auto := sampler.NewAutoBatched(4, m, 1, rng.New(2))
	if w, _ := wrapSampler(auto, newRecorder(), ctx, 0); !isResumable(w) {
		t.Error("wrapped Auto sampler lost sampler.Resumable")
	}
	if w, _ := wrapSampler(plainSampler{}, newRecorder(), ctx, 0); isResumable(w) {
		t.Error("wrapped plain sampler claims sampler.Resumable")
	}
	if _, ok := wrapOptimizer(optimizer.NewAdam(0.01), newRecorder(), ctx, 0).(optimizer.StateCloner); !ok {
		t.Error("wrapped Adam lost optimizer.StateCloner")
	}
	if _, ok := wrapOptimizer(plainOptimizer{}, newRecorder(), ctx, 0).(optimizer.StateCloner); ok {
		t.Error("wrapped plain optimizer claims optimizer.StateCloner")
	}
	cl := wrapOptimizer(optimizer.NewAdam(0.01), newRecorder(), ctx, 0).(optimizer.StateCloner).CloneState()
	if _, ok := cl.(*tracedOptimizer); !ok {
		if _, ok := cl.(tracedClonerOptimizer); !ok {
			t.Errorf("clone of a wrapped optimizer is %T, want a traced wrapper", cl)
		}
	}
}

func isResumable(s sampler.Sampler) bool {
	_, ok := s.(sampler.Resumable)
	return ok
}

func TestTracedSamplerDrawsTheSameBits(t *testing.T) {
	m := nn.NewMADE(6, 5, rng.New(1))
	a := sampler.NewAutoBatched(6, m, 1, rng.New(3))
	w, ts := wrapSampler(sampler.NewAutoBatched(6, m, 1, rng.New(3)), newRecorder(), &stepCtx{}, 0)
	ba, bw := sampler.NewBatch(16, 6), sampler.NewBatch(16, 6)
	a.Sample(ba)
	w.Sample(bw)
	for i := range ba.Bits {
		if ba.Bits[i] != bw.Bits[i] || ts.lastBatch().Bits[i] != ba.Bits[i] {
			t.Fatal("traced sampler drew different bits")
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}
	for _, c := range []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"same", base, "lower", "within bound"},
		{"slower", shift(1.2), "lower", "worse"},
		{"faster", shift(0.8), "lower", "better"},
		{"higher is better", shift(1.2), "higher", "better"},
		{"noisy", noisy, "lower", "unresolved"},
	} {
		if got := verdict(base, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(base, base, "lower", 0); got != "same" {
		t.Errorf("unbounded identical: %s", got)
	}
}

func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	reads := make([]float64, 5*p99Window)
	for i := range reads {
		reads[i] = 1
	}
	for i := 0; i < p99Window; i++ {
		reads[i] = 50 // one window of interference
	}
	if got := windowedP99(reads); got != 1 {
		t.Fatalf("windowedP99 = %v, want 1", got)
	}
	if got := windowedP99(reads[:p99Window]); got != 50 {
		t.Fatalf("single window: %v, want the plain p99 50", got)
	}
}

func TestScheduleIsSeededAndSwapsAlternate(t *testing.T) {
	sp := findWorkload("serve-mixed").serve
	a := sp.schedule(rng.New(7), 2000, sp.swapEvery*3, 0)
	b := sp.schedule(rng.New(7), 2000, sp.swapEvery*3, 0)
	if len(a) != len(b) {
		t.Fatal("same stream gave different schedules")
	}
	var paths []string
	for i := range a {
		if a[i].at != b[i].at || string(a[i].body) != string(b[i].body) {
			t.Fatal("same stream gave different requests")
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatal("schedule not in due order")
		}
		if a[i].kind == kSwap {
			paths = append(paths, a[i].path)
		}
	}
	if len(paths) != 2 || paths[0] != "b.ckpt" || paths[1] != "a.ckpt" {
		t.Fatalf("swaps = %v, want [b.ckpt a.ckpt]", paths)
	}
}
