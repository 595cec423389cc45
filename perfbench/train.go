package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/dist"
	"github.com/vqmc-scale/parvqmc/internal/exact"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// trainSpec fixes one training workload. Everything not listed here comes
// from the workload seed.
type trainSpec struct {
	problem   string // "tim" or "maxcut"
	n, hidden int
	model     string // "made" or "nade"
	dist      bool
	replicas  int // dist only
	workers   int // serial trainer workers, or per-replica workers
	batch     int // serial batch, or per-replica mini-batch
	opt       string
	lr        float64
	sr        bool
	srMaxIter int
	// target is the quality goal: the training-batch relative energy gap
	// to the exact ground state (TIM) at most target, or the training-batch
	// mean cut at least target x the Goemans-Williamson cut (Max-Cut).
	target float64
	// horizon is the fixed number of steps the quality numbers and the
	// trajectory checksum cover; every run trains at least this many.
	horizon   int
	evalBatch int
}

// seeds are the independent streams one workload seed expands into.
type seeds struct {
	instance, init, sample, eval, ref uint64
}

func splitSeed(seed uint64) seeds {
	r := rng.New(seed)
	return seeds{instance: r.Uint64(), init: r.Uint64(), sample: r.Uint64(), eval: r.Uint64(), ref: r.Uint64()}
}

// trainModel is the wavefunction contract both trainers accept.
type trainModel interface {
	dist.Model
	nn.BatchAncestralBuilder
	nn.BatchEvaluatorBuilder
}

// trainSetup is everything one training run needs, built from the seed.
type trainSetup struct {
	spec   trainSpec
	h      hamiltonian.Hamiltonian
	g      *graph.Graph   // Max-Cut only
	e0     float64        // TIM exact ground energy
	gw     maxcut.Result  // Max-Cut reference
	refDur time.Duration  // time spent on the reference
	model  trainModel     // rank 0's model
	serial *core.Trainer  // exactly one of serial and dist is set
	dist   *dist.Trainer  //
	smp0   *tracedSampler // rank 0's sampler wrapper (traced only)
	rec    *recorder      // nil when untraced
	ctx    *stepCtx       //
	evalR  uint64         // evaluation stream seed
}

func newModel(kind string, n, h int, init uint64) trainModel {
	if kind == "nade" {
		return nn.NewNADE(n, h, rng.New(init))
	}
	return nn.NewMADE(n, h, rng.New(init))
}

func (s trainSpec) newOptimizer() (optimizer.Optimizer, *optimizer.SR) {
	var opt optimizer.Optimizer = optimizer.NewSGD(s.lr)
	if s.opt == "adam" {
		opt = optimizer.NewAdam(s.lr)
	}
	if !s.sr {
		return opt, nil
	}
	sr := optimizer.NewSR(1e-3)
	sr.Solver = optimizer.SolverPipelined
	if s.srMaxIter > 0 {
		sr.MaxIter = s.srMaxIter
	}
	return opt, sr
}

// setupTraining builds the instance, its reference solution, the model(s),
// sampler(s), optimizer(s) and the trainer. With rec non-nil the samplers
// and optimizers are wrapped to record spans.
func setupTraining(spec trainSpec, seed uint64, rec *recorder) (*trainSetup, error) {
	sd := splitSeed(seed)
	st := &trainSetup{spec: spec, rec: rec, ctx: &stepCtx{}, evalR: sd.eval}
	switch spec.problem {
	case "tim":
		tim := hamiltonian.RandomTIM(spec.n, rng.New(sd.instance))
		st.h = tim
		t1 := time.Now()
		res, err := exact.GroundState(tim, 400, sd.ref)
		if err != nil {
			return nil, fmt.Errorf("exact reference: %w", err)
		}
		st.refDur = time.Since(t1)
		st.e0 = res.Energy
	case "maxcut":
		st.g = graph.RandomBernoulli(spec.n, rng.New(sd.instance))
		st.h = hamiltonian.NewMaxCut(st.g)
		t1 := time.Now()
		st.gw = maxcut.GoemansWilliamson(st.g, maxcut.GWConfig{}, rng.New(sd.ref))
		st.refDur = time.Since(t1)
		if c := st.g.CutValue(st.gw.Assignment); c != st.gw.Cut || c > st.gw.SDPBound {
			return nil, fmt.Errorf("Goemans-Williamson reference: cut %v recomputes to %v (SDP bound %v)", st.gw.Cut, c, st.gw.SDPBound)
		}
	default:
		return nil, fmt.Errorf("unknown problem %q", spec.problem)
	}

	wrapS := func(s sampler.Sampler, rank int) sampler.Sampler {
		if rec == nil {
			return s
		}
		w, t := wrapSampler(s, rec, st.ctx, rank)
		if rank == 0 {
			st.smp0 = t
		}
		return w
	}
	wrapO := func(o optimizer.Optimizer, rank int) optimizer.Optimizer {
		if rec == nil {
			return o
		}
		return wrapOptimizer(o, rec, st.ctx, rank)
	}

	if !spec.dist {
		m := newModel(spec.model, spec.n, spec.hidden, sd.init)
		st.model = m
		smp := sampler.NewAutoBatched(spec.n, m, spec.workers, rng.New(sd.sample))
		opt, sr := spec.newOptimizer()
		st.serial = core.New(st.h, m, wrapS(smp, 0), wrapO(opt, 0), core.Config{
			BatchSize: spec.batch, Workers: spec.workers, SR: sr})
		return st, nil
	}
	streams := rng.New(sd.sample).SplitN(spec.replicas)
	reps := make([]dist.Replica, spec.replicas)
	for r := range reps {
		// Every replica starts from the same init stream, so parameters
		// start bit-identical.
		m := newModel(spec.model, spec.n, spec.hidden, sd.init)
		if r == 0 {
			st.model = m
		}
		opt, sr := spec.newOptimizer()
		reps[r] = dist.Replica{
			Model:   m,
			Smp:     wrapS(sampler.NewAutoBatched(spec.n, m, spec.workers, streams[r]), r),
			Opt:     wrapO(opt, r),
			SR:      sr,
			Workers: spec.workers,
		}
	}
	tr, err := dist.New(st.h, reps, spec.batch)
	if err != nil {
		return nil, fmt.Errorf("dist trainer: %w", err)
	}
	st.dist = tr
	return st, nil
}

// effectiveBatch is the number of samples one step draws.
func (st *trainSetup) effectiveBatch() int {
	if st.dist != nil {
		return st.dist.EffectiveBatch()
	}
	return st.spec.batch
}

// phases returns the program's cumulative per-phase times.
func (st *trainSetup) phases() []phase {
	if st.dist != nil {
		t := st.dist.Timings()
		return []phase{{"dist.sample", t.Sample}, {"dist.energy", t.Energy}, {"dist.grad", t.Grad},
			{"dist.sync", t.Sync}, {"dist.precond", t.Precond}, {"dist.update", t.Update}}
	}
	t := st.serial.Timings()
	return []phase{{"core.sample", t.Sample}, {"core.energy", t.Energy}, {"core.grad", t.Grad}, {"core.update", t.Update}}
}

func phaseDelta(after, before []phase) []phase {
	out := make([]phase, len(after))
	for i := range after {
		out[i] = phase{after[i].name, after[i].d - before[i].d}
	}
	return out
}

func (st *trainSetup) step(i int) (core.IterStats, error) {
	if st.dist != nil {
		return st.dist.Step(i)
	}
	return st.serial.Step(), nil
}

// meetsTarget reports whether a training-batch mean energy meets the
// workload's quality target.
func (st *trainSetup) meetsTarget(e float64) bool {
	if st.g != nil {
		return st.h.(*hamiltonian.MaxCut).CutFromEnergy(e) >= st.spec.target*st.gw.Cut
	}
	return math.Abs((e-st.e0)/st.e0) <= st.spec.target
}

// trainResult is what one pass of training measured.
type trainResult struct {
	steps       int
	stepMs      []float64
	trainTime   time.Duration
	checksum    uint64
	hitIter     int // 0 = target not met within the horizon
	hitTime     time.Duration
	quality     float64 // TIM: relative energy gap; Max-Cut: best cut / GW cut
	srIters     float64 // mean per step
	srResidual  float64 // mean per step
	stepFailed  int
	checkErrors []string
}

// train runs at least spec.horizon steps and keeps stepping until d has
// passed. The quality evaluation runs after step spec.horizon, outside the
// timed steps and with heap (which may be nil) paused.
func (st *trainSetup) train(d time.Duration, heap *heapSampler) trainResult {
	var res trainResult
	h := fnv.New64a()
	var buf [16]byte
	start := time.Now()
	var srIt, srRes float64
	for i := 1; i <= st.spec.horizon || time.Since(start) < d; i++ {
		var mark int64
		var before []phase
		var t0 int64
		if st.rec != nil {
			mark = st.rec.count()
			st.ctx.set(int64(i))
			before = st.phases()
			t0 = st.rec.now()
		}
		s0 := time.Now()
		s, err := st.step(i)
		dt := time.Since(s0)
		if st.rec != nil {
			id := st.rec.add(span{Name: "step", Start: t0, End: st.rec.now(), Step: int64(i)})
			st.rec.phaseSpans(id, mark, phaseDelta(st.phases(), before), phaseOwner)
		}
		res.steps++
		if err != nil {
			res.stepFailed++
			res.checkErrors = append(res.checkErrors, fmt.Sprintf("step %d: %v", i, err))
			break
		}
		res.stepMs = append(res.stepMs, ms(dt))
		res.trainTime += dt
		srIt += float64(s.SRIters)
		srRes += s.SRResidual
		if i <= st.spec.horizon {
			putBits(buf[:], s.Energy, s.Std)
			h.Write(buf[:])
			if res.hitIter == 0 && st.meetsTarget(s.Energy) {
				res.hitIter, res.hitTime = i, res.trainTime
			}
		}
		if i == st.spec.horizon {
			heap.pause()
			q, errs := st.evaluate()
			heap.resume()
			res.quality = q
			res.checkErrors = append(res.checkErrors, errs...)
		}
	}
	res.checksum = h.Sum64()
	res.srIters = srIt / float64(res.steps)
	res.srResidual = srRes / float64(res.steps)
	if st.dist != nil {
		if err := st.dist.CheckConsistent(); err != nil {
			res.checkErrors = append(res.checkErrors, "replicas diverged: "+err.Error())
		}
		if err := st.dist.CollectivesBalanced(); err != nil {
			res.checkErrors = append(res.checkErrors, "collectives unbalanced: "+err.Error())
		}
	}
	return res
}

var phaseOwner = map[string]string{
	"sampler.Sample": "sample",
	"optimizer.Step": "update",
}

func putBits(b []byte, x, y float64) {
	u, v := math.Float64bits(x), math.Float64bits(y)
	for k := 0; k < 8; k++ {
		b[k] = byte(u >> (8 * k))
		b[8+k] = byte(v >> (8 * k))
	}
}

// evaluate checks rank 0's model against the reference and returns the
// quality number, outside the timed steps.
//
// TIM: the model is a normalized autoregressive wavefunction on n <= 22
// sites, so the benchmark enumerates all 2^n configurations and computes
// the variational energy <psi|H|psi> = sum_x psi(x)^2 l(x) exactly. It must
// be normalized and must not lie below the exact ground energy (the
// variational principle); the returned quality is its relative gap. No
// sampling noise enters, so the gap repeats exactly for a seed.
//
// Max-Cut: a fresh batch is drawn on a stream of its own (so the training
// trajectory does not depend on it); each sample's cut is recomputed from
// the graph and must match the cut its local energy implies, and the best
// must not exceed the SDP bound. The returned quality is the best cut over
// the GW cut.
func (st *trainSetup) evaluate() (float64, []string) {
	nn.Prewarm(st.model)
	be := core.NewBatchedEval(st.model, core.EvalAuto, st.spec.workers)
	if st.g == nil {
		return st.evaluateExact(be)
	}
	n, bsz := st.spec.n, st.spec.evalBatch
	b := sampler.NewBatch(bsz, n)
	sampler.NewAutoBatched(n, st.model, st.spec.workers, rng.New(st.evalR)).Sample(b)
	locals := make([]float64, bsz)
	be.LocalEnergies(st.h, b, st.spec.workers, locals)
	var errs []string
	mc := st.h.(*hamiltonian.MaxCut)
	best := math.Inf(-1)
	for k := 0; k < bsz; k++ {
		cut := st.g.CutValue(b.Row(k))
		if rep := mc.CutFromEnergy(locals[k]); math.Abs(rep-cut) > 1e-9*st.g.TotalWeight() {
			errs = append(errs, fmt.Sprintf("sample %d: cut from local energy %v, recomputed from the graph %v", k, rep, cut))
			break
		}
		best = math.Max(best, cut)
	}
	if best > st.gw.SDPBound*(1+1e-12) {
		errs = append(errs, fmt.Sprintf("best cut %v exceeds the SDP bound %v", best, st.gw.SDPBound))
	}
	return best / st.gw.Cut, errs
}

// evaluateExact computes the TIM variational energy by enumeration, in
// chunks so the working set stays small.
func (st *trainSetup) evaluateExact(be *core.BatchedEval) (float64, []string) {
	const chunk = 4096
	n := st.spec.n
	dim := 1 << n
	b := sampler.NewBatch(min(chunk, dim), n)
	lp := make([]float64, b.N)
	locals := make([]float64, b.N)
	var norm, energy float64
	for lo := 0; lo < dim; lo += b.N {
		for k := 0; k < b.N; k++ {
			hamiltonian.IndexToBits(lo+k, b.Row(k))
		}
		be.LogPsi(b, lp)
		be.LocalEnergies(st.h, b, st.spec.workers, locals)
		for k := range lp {
			p := math.Exp(2 * lp[k])
			if p == 0 {
				continue
			}
			if math.IsNaN(locals[k]) || math.IsInf(locals[k], 0) {
				return 0, []string{fmt.Sprintf("configuration %d: non-finite local energy %v at probability %v", lo+k, locals[k], p)}
			}
			norm += p
			energy += p * locals[k]
		}
	}
	var errs []string
	if math.Abs(norm-1) > 1e-9 {
		errs = append(errs, fmt.Sprintf("wavefunction norm %v, want 1", norm))
	}
	if energy < st.e0-1e-8*math.Abs(st.e0) {
		errs = append(errs, fmt.Sprintf("variational energy %v lies below the exact ground energy %v", energy, st.e0))
	}
	return (energy - st.e0) / math.Abs(st.e0), errs
}

// runTraining is one benchmark run of a training workload.
func runTraining(wl *workload, seed uint64, d time.Duration, traced bool) (*runOutput, error) {
	spec := wl.train
	out := newRunOutput(wl, seed, traced)
	if !traced {
		// Set up several times and report the median; train on the last.
		var setups []float64
		var st *trainSetup
		for k := 0; k < setupRepeats; k++ {
			st = nil
			runtime.GC()
			t0 := time.Now()
			var err error
			st, err = setupTraining(*spec, seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		heap := startHeapSampler(5 * time.Millisecond)
		res := st.train(d, heap)
		heapMB := heap.stopMB()
		out.absorbTraining(st, res)
		p50, p90 := median(res.stepMs), quantile(res.stepMs, 0.9)
		sps := float64(res.steps*st.effectiveBatch()) / res.trainTime.Seconds()
		out.gate(mSetup, median(setups))
		out.gate(mLatP50, p50)
		out.gate(mLatTail, p90)
		out.gate(mThroughput, sps)
		out.gate(mHeap, heapMB)
		out.named("setup_s", median(setups))
		out.named("heap_peak_mb", heapMB)
		out.named("step_ms_p50", p50)
		out.named("step_ms_p90", p90)
		out.named("samples_per_s", sps)
		out.addQuality(st, res)
		return out, nil
	}

	// Traced run: an untraced pass and a traced pass over the same seed.
	// Their trajectories must agree bit for bit.
	plain, err := setupTraining(*spec, seed, nil)
	if err != nil {
		return nil, err
	}
	base := plain.train(0, nil)
	plain = nil
	runtime.GC()

	rec := newRecorder()
	st, err := setupTraining(*spec, seed, rec)
	if err != nil {
		return nil, err
	}
	before := st.phases()
	fwd0 := st.smp0.Cost().ForwardPasses
	var b0, m0, cs0, ca0, fa0 int64
	if st.dist != nil {
		b0, m0 = st.dist.Traffic()
		cs0, ca0 = st.dist.Collectives()
		fa0 = st.dist.FisherApplies()
	}
	res := st.train(0, nil)
	out.absorbTraining(st, res)
	if res.checksum != base.checksum {
		out.fail(fmt.Sprintf("traced trajectory checksum %016x differs from untraced %016x", res.checksum, base.checksum))
	}
	steps := float64(res.steps)
	for _, p := range phaseDelta(st.phases(), before) {
		out.layer(p.name+"_ms", ms(p.d)/steps)
	}
	out.layer("sampler.sample_ms", spanMeanMs(rec, "sampler.Sample", steps))
	out.layer("sampler.forward_passes_per_step", float64(st.smp0.Cost().ForwardPasses-fwd0)/steps)
	out.layer("optimizer.step_ms", spanMeanMs(rec, "optimizer.Step", steps))
	out.layer("optimizer.sr_iters", res.srIters)
	out.layer("optimizer.sr_residual", res.srResidual)
	if st.dist != nil {
		b1, m1 := st.dist.Traffic()
		cs1, ca1 := st.dist.Collectives()
		out.layer("comm.bytes_per_step", float64(b1-b0)/steps)
		out.layer("comm.messages_per_step", float64(m1-m0)/steps)
		out.layer("comm.blocking_per_step", float64(cs1-cs0)/steps)
		out.layer("comm.async_per_step", float64(ca1-ca0)/steps)
		out.layer("dist.fisher_applies_per_step", float64(st.dist.FisherApplies()-fa0)/steps)
	}
	out.layer("setup.reference_s", st.refDur.Seconds())
	out.layer("trace.overhead_pct", 100*(median(res.stepMs)/median(base.stepMs)-1))
	shares := rec.selfTimes("step")
	dom := dominant(shares, "step")
	out.layer("trace.dominant_share", dom.Share)
	out.Dominant = &dom
	out.Shares = shares
	out.addQuality(st, res)

	flips := flipBits(st.h)
	layerBench(out, st.model, st.smp0.lastBatch(), flips, spec.hidden)
	out.rec = rec
	return out, nil
}

func spanMeanMs(rec *recorder, name string, steps float64) float64 {
	var ns int64
	for _, s := range rec.spans {
		if s.Name == name && s.Rank == 0 {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e6 / steps
}

func flipBits(h hamiltonian.Hamiltonian) []int {
	var out []int
	for _, ft := range h.FlipTerms() {
		out = append(out, ft.Bit)
	}
	return out
}
