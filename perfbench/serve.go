package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/serve"
)

// serveSpec fixes the serving workload: an in-process vqmcd (NewServer
// behind NewHandler, driven through ServeHTTP with in-memory requests)
// under open-loop traffic.
type serveSpec struct {
	n, hidden int
	// lowRate and highRate are the fixed offered rates (requests/s).
	lowRate, highRate float64
	// mix is the read mix: logpsi, energy, sample shares.
	mix     [3]float64
	sampleN int
	// swapEvery spaces the checkpoint swaps between the two parameter
	// sets; swaps are writes and are not part of the read latencies.
	swapEvery time.Duration
	// sloMs is the p99 latency limit of max_rate_at_slo.
	sloMs float64
	// ladder is the ascending list of rates tried for max_rate_at_slo.
	ladder []float64
	// clients is the closed-loop client count of the saturation phase.
	clients int
	// setups is how many times an untraced run sets the server up.
	setups int
}

const modelName = "m"

type reqKind int

const (
	kLogPsi reqKind = iota
	kEnergy
	kSample
	kSwap
)

var kindNames = [...]string{"logpsi", "energy", "sample", "swap"}

// sreq is one scheduled request and what became of it.
type sreq struct {
	at     time.Duration // due time from the phase start
	kind   reqKind
	config []int  // logpsi/energy
	seed   uint64 // sample
	path   string // swap target checkpoint
	body   []byte // encoded request body

	due, sent, done time.Time
	status          int
	resp            []byte
}

func (r *sreq) latency() time.Duration { return r.done.Sub(r.due) }

// schedule generates one phase's requests: Poisson arrivals at rate from
// the stream, the read mix, and a swap every swapEvery alternating between
// the two checkpoints.
func (sp *serveSpec) schedule(r *rng.Rand, rate float64, d time.Duration, swapFirst int) []*sreq {
	var out []*sreq
	swapAt := sp.swapEvery
	swaps := swapFirst
	for t := time.Duration(0); ; {
		t += time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second))
		for swapAt <= t && swapAt < d {
			path := [2]string{"a.ckpt", "b.ckpt"}[(swaps+1)%2]
			swaps++
			out = append(out, &sreq{at: swapAt, kind: kSwap, path: path,
				body: mustJSON(map[string]string{"path": path})})
			swapAt += sp.swapEvery
		}
		if t >= d {
			break
		}
		q := &sreq{at: t}
		u := r.Float64()
		switch {
		case u < sp.mix[0]:
			q.kind = kLogPsi
		case u < sp.mix[0]+sp.mix[1]:
			q.kind = kEnergy
		default:
			q.kind = kSample
		}
		if q.kind == kSample {
			q.seed = r.Uint64()
			q.body = mustJSON(map[string]any{"count": sp.sampleN, "seed": q.seed})
		} else {
			q.config = make([]int, sp.n)
			r.FillBits(q.config)
			q.body = mustJSON(map[string]any{"configs": [][]int{q.config}})
		}
		out = append(out, q)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// serveSetup is one set-up server and its references.
type serveSetup struct {
	spec    *serveSpec
	dir     string
	srv     *serve.Server
	handler http.Handler
	ham     *hamiltonian.TIM
	models  [2]*nn.MADE // the parameter sets behind a.ckpt and b.ckpt
	refs    [2]*core.BatchedEval
	stream  uint64
	swaps   int         // swaps applied so far, so each phase continues the alternation
	inputs  hash.Hash64 // checksum of every generated request schedule
}

// prepareServe generates the workload's inputs: the Hamiltonian, the two
// parameter sets and their checkpoints (in a fresh directory under
// outDir), and the reference evaluators.
func prepareServe(sp *serveSpec, seed uint64, outDir string) (*serveSetup, error) {
	sd := splitSeed(seed)
	st := &serveSetup{spec: sp, stream: sd.sample, inputs: fnv.New64a()}
	st.ham = hamiltonian.RandomTIM(sp.n, rng.New(sd.instance))
	ir := rng.New(sd.init)
	for i := range st.models {
		st.models[i] = nn.NewMADE(sp.n, sp.hidden, ir.Split())
		st.refs[i] = core.NewBatchedEval(st.models[i], core.EvalAuto, 1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "serve-ckpt-")
	if err != nil {
		return nil, err
	}
	st.dir = dir
	for i, name := range []string{"a.ckpt", "b.ckpt"} {
		if err := nn.SaveFile(filepath.Join(dir, name), st.models[i]); err != nil {
			st.close()
			return nil, fmt.Errorf("save checkpoint: %w", err)
		}
	}
	return st, nil
}

// start is the timed set-up: it starts a server the way vqmcd does —
// load the checkpoint, register it with its Hamiltonian, wrap the server
// in the HTTP handler — and waits for the first answer through the
// handler, which it verifies.
func (st *serveSetup) start() error {
	if st.srv != nil {
		st.srv.Close()
	}
	st.swaps = 0
	live, err := nn.LoadFile(filepath.Join(st.dir, "a.ckpt"))
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	st.srv = serve.NewServer(serve.ServerConfig{CheckpointDir: st.dir})
	if err := st.srv.Register(modelName, serve.ModelSpec{WF: live, Ham: st.ham}); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	st.handler = serve.NewHandler(st.srv)
	q := &sreq{kind: kLogPsi, config: make([]int, st.spec.n)}
	q.body = mustJSON(map[string]any{"configs": [][]int{q.config}})
	st.callHTTP(q)
	res := phaseResult{reqs: []*sreq{q}}
	st.verify(&res)
	if q.status != http.StatusOK || len(res.wrong) > 0 {
		return fmt.Errorf("first request after start: status %d, %v", q.status, res.wrong)
	}
	return nil
}

func (st *serveSetup) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	os.RemoveAll(st.dir)
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	rate    float64
	reqs    []*sreq
	reads   []float64 // read latencies, ms
	byKind  [4][]float64
	lag     []float64
	failed  int // non-200 responses
	wrong   []string
	stats   serve.Stats // counter deltas over the phase
	wall    time.Duration
	backlog bool
}

// runPhase replays reqs open loop: one generator goroutine sleeps until
// each request is due and starts one goroutine per request. Every request
// is timed from its due time. direct sends the reads through the Server
// API instead of the HTTP handler. rec, when set, records request spans.
func (st *serveSetup) runPhase(reqs []*sreq, rate float64, direct bool, rec *recorder) phaseResult {
	before, _ := st.srv.ModelStats(modelName)
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, q := range reqs {
		q.due = start.Add(q.at)
		if d := time.Until(q.due); d > 0 {
			time.Sleep(d)
		}
		q.sent = time.Now()
		wg.Add(1)
		go func(q *sreq) {
			defer wg.Done()
			if direct && q.kind != kSwap {
				st.callDirect(q)
			} else {
				st.callHTTP(q)
				q.done = time.Now()
			}
		}(q)
	}
	wg.Wait()
	end := time.Now()
	after, _ := st.srv.ModelStats(modelName)
	res := phaseResult{rate: rate, reqs: reqs, wall: end.Sub(start)}
	res.stats = serve.Stats{Requests: after.Requests - before.Requests, Rows: after.Rows - before.Rows,
		Batches: after.Batches - before.Batches, Rejected: after.Rejected - before.Rejected}
	var late []float64
	for i, q := range reqs {
		if q.kind == kSwap {
			st.swaps++
		}
		l := ms(q.latency())
		res.byKind[q.kind] = append(res.byKind[q.kind], l)
		res.lag = append(res.lag, ms(q.sent.Sub(q.due)))
		if q.status != http.StatusOK {
			res.failed++
		}
		if q.kind != kSwap {
			res.reads = append(res.reads, l)
			if i >= len(reqs)*3/4 {
				late = append(late, l)
			}
		}
		if rec != nil {
			root := "request"
			if q.kind == kSwap {
				root = "swap"
			}
			id := rec.add(span{Name: root, Start: rec.at(q.due), End: rec.at(q.done), Step: int64(i)})
			rec.add(span{Parent: id, Name: "loadgen.lag", Start: rec.at(q.due), End: rec.at(q.sent), Step: int64(i)})
			rec.add(span{Parent: id, Name: "serve.handler", Start: rec.at(q.sent), End: rec.at(q.done), Step: int64(i)})
		}
	}
	res.backlog = len(late) > 0 && median(late) > st.spec.sloMs
	return res
}

func (st *serveSetup) callHTTP(q *sreq) {
	path := "/v1/models/" + modelName + "/" + kindNames[q.kind]
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.body))
	w := httptest.NewRecorder()
	st.handler.ServeHTTP(w, req)
	q.status = w.Code
	q.resp = w.Body.Bytes()
}

// callDirect sends a read through the Server API, sets q.done when the API
// call returns, then encodes the answer the way the handler would, so
// verification is shared.
func (st *serveSetup) callDirect(q *sreq) {
	ctx := context.Background()
	var v any
	var err error
	switch q.kind {
	case kLogPsi:
		var vals []float64
		vals, err = st.srv.LogPsi(ctx, modelName, [][]int{q.config})
		v = map[string]any{"values": vals}
	case kEnergy:
		var vals []float64
		vals, err = st.srv.LocalEnergy(ctx, modelName, [][]int{q.config})
		v = map[string]any{"values": vals}
	case kSample:
		var rows [][]int
		rows, err = st.srv.Sample(ctx, modelName, st.spec.sampleN, q.seed)
		v = map[string]any{"configs": rows}
	}
	q.done = time.Now()
	if err != nil {
		q.status = http.StatusInternalServerError
		q.resp = []byte(err.Error())
		return
	}
	q.status = http.StatusOK
	q.resp = mustJSON(v)
}

// verify checks every 200 response bitwise against the direct reference
// evaluation under one of the two parameter sets: BatchedEval for logpsi
// and energy, a fresh batched ancestral sampler for samples.
func (st *serveSetup) verify(res *phaseResult) {
	for i, q := range res.reqs {
		if q.status != http.StatusOK {
			continue
		}
		var ok bool
		var err error
		switch q.kind {
		case kSwap:
			ok = bytes.Equal(bytes.TrimSpace(q.resp), []byte(`{"swapped":true}`))
		case kLogPsi, kEnergy:
			var got struct{ Values []float64 }
			if err = json.Unmarshal(q.resp, &got); err == nil && len(got.Values) == 1 {
				for _, want := range st.refValues(q) {
					ok = ok || math.Float64bits(want) == math.Float64bits(got.Values[0])
				}
			}
		case kSample:
			var got struct{ Configs [][]int }
			if err = json.Unmarshal(q.resp, &got); err == nil {
				for m := range st.models {
					ok = ok || sameRows(got.Configs, st.refSample(m, q.seed))
				}
			}
		}
		if !ok {
			res.wrong = append(res.wrong, fmt.Sprintf("request %d (%s): response %.200q matches neither parameter set (%v)",
				i, kindNames[q.kind], q.resp, err))
		}
	}
}

func (st *serveSetup) refValues(q *sreq) []float64 {
	b := &sampler.Batch{N: 1, Sites: st.spec.n, Bits: q.config}
	out := make([]float64, 2)
	for m, ref := range st.refs {
		v := out[m : m+1]
		if q.kind == kLogPsi {
			ref.LogPsi(b, v)
		} else {
			ref.LocalEnergies(st.ham, b, 1, v)
		}
	}
	return out
}

func (st *serveSetup) refSample(m int, seed uint64) [][]int {
	b := sampler.NewBatch(st.spec.sampleN, st.spec.n)
	sampler.NewAutoBatched(st.spec.n, st.models[m], 1, rng.New(seed)).Sample(b)
	rows := make([][]int, b.N)
	for k := range rows {
		rows[k] = b.Row(k)
	}
	return rows
}

func sameRows(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// sum folds a schedule's due times and bodies into the input checksum.
func (st *serveSetup) sum(reqs []*sreq) {
	var b [8]byte
	for _, q := range reqs {
		binary.LittleEndian.PutUint64(b[:], uint64(q.at))
		st.inputs.Write(b[:])
		st.inputs.Write(q.body)
	}
}

// phase generates, runs and verifies one phase. Each phase draws its
// schedule from its own stream, numbered by idx.
func (st *serveSetup) phase(idx int, rate float64, d time.Duration, direct bool, rec *recorder) phaseResult {
	r := rng.New(st.stream + uint64(idx)*0x9E3779B97F4A7C15)
	reqs := st.spec.schedule(r, rate, d, st.swaps)
	st.sum(reqs)
	runtime.GC()
	res := st.runPhase(reqs, rate, direct, rec)
	st.verify(&res)
	return res
}

func (o *runOutput) absorbPhase(res phaseResult, countRefusals bool) {
	o.Attempted += int64(len(res.reqs))
	if countRefusals {
		o.Failed += int64(res.failed)
		if res.failed > 0 {
			o.Errors = append(o.Errors, fmt.Sprintf("%d of %d requests at %.0f/s were refused or failed", res.failed, len(res.reqs), res.rate))
		}
	}
	for _, w := range res.wrong {
		o.fail(w)
	}
}

// runServe is one benchmark run of the serving workload. Untraced: a
// warm-up, a low phase, a high phase and the rate ladder, for a fifteenth,
// a quarter, a quarter and half of d. Traced: the low phase through the handler untraced and
// traced, then through the Server API, then the high phase traced.
func runServe(wl *workload, seed uint64, d time.Duration, traced bool, outDir string) (*runOutput, error) {
	sp := wl.serve
	out := newRunOutput(wl, seed, traced)
	ckptDir := outDir + "/tmp"
	st, err := prepareServe(sp, seed, ckptDir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var setups []float64
	repeats := sp.setups
	if traced {
		repeats = 1
	}
	for k := 0; k < repeats; k++ {
		runtime.GC()
		t0 := time.Now()
		if err := st.start(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if !traced {
		heap := startHeapSampler(5 * time.Millisecond)
		// A short high-rate warm-up lets the server's buffers and the
		// runtime's goroutine and heap sizes settle; it is verified too.
		out.absorbPhase(st.phase(9, sp.highRate, d/15, false, nil), true)
		low := st.phase(0, sp.lowRate, d/4, false, nil)
		high := st.phase(1, sp.highRate, d/4, false, nil)
		out.absorbPhase(low, true)
		out.absorbPhase(high, true)
		satReqs := sp.schedule(rng.New(st.stream+2), sp.highRate, d/3, 0)
		st.sum(satReqs)
		runtime.GC()
		sat := st.saturate(satReqs, sp.clients, d/6, out)
		maxRate, rungs := st.ladder(d/3, out)
		heapMB := heap.stopMB()

		out.gate(mSetup, median(setups))
		out.gate(mLatP50, median(low.reads))
		out.gate(mLatTail, windowedP75(low.reads))
		out.gate(mThroughput, sat)
		out.gate(mHeap, heapMB)
		out.named("setup_s", median(setups))
		out.named("heap_peak_mb", heapMB)
		out.named("p50_ms.low", median(low.reads))
		out.named("p75_ms.low", windowedP75(low.reads))
		out.named("p90_ms.low", windowedP90(low.reads))
		out.named("p99_ms.low", quantile(low.reads, 0.99))
		out.named("p50_ms.high", median(high.reads))
		out.named("p99_ms.high", windowedP99(high.reads))
		out.named("p90_ms.high", windowedP90(high.reads))
		out.named("max_rate_at_slo", maxRate)
		out.named("saturated_reads_per_s", sat)
		out.named("error_ratio", float64(out.Failed)/float64(out.Attempted))
		out.Extra["ladder"] = rungs
		out.Extra["requests_low"] = len(low.reads)
		out.Extra["requests_high"] = len(high.reads)
		out.Checksum = fmt.Sprintf("%016x", st.inputs.Sum64())
		return out, nil
	}

	rec := newRecorder()
	plain := st.phase(0, sp.lowRate, d/4, false, nil)
	tracedLow := st.phase(0, sp.lowRate, d/4, false, rec)
	direct := st.phase(0, sp.lowRate, d/4, true, nil)
	high := st.phase(1, sp.highRate, d/4, false, rec)
	for _, p := range []phaseResult{plain, tracedLow, direct, high} {
		out.absorbPhase(p, true)
	}
	out.layer("serve.logpsi_ms_p50", median(high.byKind[kLogPsi]))
	out.layer("serve.energy_ms_p50", median(high.byKind[kEnergy]))
	out.layer("serve.sample_ms_p50", median(high.byKind[kSample]))
	out.layer("serve.swap_ms_p50", median(high.byKind[kSwap]))
	if high.stats.Batches > 0 {
		out.layer("serve.rows_per_batch", float64(high.stats.Rows)/float64(high.stats.Batches))
	}
	out.layer("serve.batches_per_s", float64(high.stats.Batches)/high.wall.Seconds())
	out.layer("serve.rejected_ratio", float64(high.stats.Rejected)/float64(len(high.reqs)))
	out.layer("serve.http_us_p50", 1000*(median(plain.reads)-median(direct.reads)))
	out.layer("loadgen.lag_ms_p99", quantile(high.lag, 0.99))
	out.layer("trace.overhead_pct", 100*(median(tracedLow.reads)/median(plain.reads)-1))
	out.layer("setup.reference_s", 0)
	shares := rec.selfTimes("request")
	dom := dominant(shares, "request")
	out.layer("trace.dominant_share", dom.Share)
	out.Dominant, out.Shares = &dom, shares
	out.rec = rec
	out.Checksum = fmt.Sprintf("%016x", st.inputs.Sum64())

	// The nn microbenchmarks run on the served model with the last
	// parameter set swapped in, over the configurations of the high
	// phase's reads.
	var bits []int
	rows := 0
	for _, q := range high.reqs {
		if q.config != nil && rows < 256 {
			bits = append(bits, q.config...)
			rows++
		}
	}
	b := &sampler.Batch{N: rows, Sites: sp.n, Bits: bits}
	layerBench(out, st.models[st.swaps%2], b, flipBits(st.ham), sp.hidden)
	return out, nil
}

// windowedQuantile splits the reads, in due order, into windows of size
// reads and returns the median over the windows of their q-quantile: the
// latency a typical stretch of traffic sees, so that a burst of
// interference on a shared machine moves one window rather than the
// result. With fewer than two windows' worth of reads it returns the plain
// quantile.
func windowedQuantile(reads []float64, q float64, size int) float64 {
	k := len(reads) / size
	if k < 2 {
		return quantile(reads, q)
	}
	ps := make([]float64, k)
	for i := range ps {
		ps[i] = quantile(reads[i*size:(i+1)*size], q)
	}
	return median(ps)
}

// Window sizes: every window holds 20 reads beyond its quantile.
const (
	p99Window = 2000
	p90Window = 200
	p75Window = 80
)

func windowedP99(reads []float64) float64 { return windowedQuantile(reads, 0.99, p99Window) }
func windowedP90(reads []float64) float64 { return windowedQuantile(reads, 0.90, p90Window) }
func windowedP75(reads []float64) float64 { return windowedQuantile(reads, 0.75, p75Window) }

// saturate runs a closed loop for d: clients goroutines each send their
// next read through the handler as soon as the previous one returns,
// taking reqs in order (swaps left out). It verifies every response and
// returns the completed reads per second: the median over ten equal time
// windows of each window's completion rate.
func (st *serveSetup) saturate(reqs []*sreq, clients int, d time.Duration, out *runOutput) float64 {
	var reads []*sreq
	for _, q := range reqs {
		if q.kind != kSwap {
			reads = append(reads, q)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if int(i) >= len(reads) {
					return
				}
				st.callHTTP(reads[i])
				reads[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	done := reads[:next.Load()]
	if int(next.Load()) > len(reads) {
		done = reads
	}
	res := phaseResult{rate: 0, reqs: done}
	for _, q := range done {
		if q.status != http.StatusOK {
			res.failed++
		}
	}
	st.verify(&res)
	out.absorbPhase(res, true)
	const windows = 10
	counts := make([]float64, windows)
	for _, q := range done {
		if w := int(float64(windows) * float64(q.done.Sub(start)) / float64(wall)); w < windows {
			counts[w]++
		}
	}
	return median(counts) * windows / wall.Seconds()
}

// rung is one step of the rate ladder.
type rung struct {
	Rate    float64 `json:"rate"`
	P99ms   float64 `json:"p99_ms"`
	Failed  int     `json:"failed"`
	LagP99  float64 `json:"lag_p99_ms"`
	Backlog bool    `json:"backlog"`
	Pass    bool    `json:"pass"`
}

// ladder offers each rate of the ladder in turn for an equal share of d,
// stopping at the first rate that misses the limit: p99 read latency above
// sloMs (windowed, see windowedQuantile), a refused or failed request, or a growing backlog. It returns the
// rate at which p99 crosses the limit, interpolated linearly in p99
// between the last rate that met it and the first that missed (a miss by
// refusal or backlog counts as p99 = 2 x sloMs), or the top rate if none
// missed. Refusals while probing overload are expected and are not run
// failures; wrong answers are.
func (st *serveSetup) ladder(d time.Duration, out *runOutput) (float64, []rung) {
	sp := st.spec
	each := d / time.Duration(len(sp.ladder))
	lastRate, lastP99 := 0.0, 0.0
	var rungs []rung
	for i, rate := range sp.ladder {
		res := st.phase(10+i, rate, each, false, nil)
		out.absorbPhase(res, false)
		rg := rung{Rate: rate, P99ms: windowedP99(res.reads), Failed: res.failed,
			LagP99: quantile(res.lag, 0.99), Backlog: res.backlog}
		rg.Pass = rg.P99ms <= sp.sloMs && rg.Failed == 0 && !rg.Backlog
		rungs = append(rungs, rg)
		if !rg.Pass {
			p99 := rg.P99ms
			if rg.Failed > 0 || rg.Backlog {
				p99 = max(p99, 2*sp.sloMs)
			}
			return lastRate + (sp.sloMs-lastP99)/(p99-lastP99)*(rate-lastRate), rungs
		}
		lastRate, lastP99 = rate, rg.P99ms
	}
	return lastRate, rungs
}
