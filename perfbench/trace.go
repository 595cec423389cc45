package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created. Derived spans are not stopwatched by the
// benchmark: they are placed from the program's own phase counters
// (core.Timings / dist.Timings deltas), in the order the trainer runs the
// phases, so that the phases the benchmark cannot wrap still appear in the
// span tree.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Step    int64  `json:"step"`
	Rank    int    `json:"rank"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run uses the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add stores s, assigns it an id and returns the id.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	return s.ID
}

// setParent re-parents span id (used once a step's phase spans exist).
func (r *recorder) setParent(id, parent int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Parent = parent
}

func (r *recorder) get(id int64) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// since returns the ids of spans recorded after id.
func (r *recorder) since(id int64) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for _, s := range r.spans[id:] {
		out = append(out, s.ID)
	}
	return out
}

func (r *recorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerShare is one span name's self time over the run.
type layerShare struct {
	Name   string  `json:"name"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes computes each span name's self time — its duration minus the
// part of that interval its children cover — summed over the run, as a
// share of the summed duration of the root spans named root. Spans of
// ranks other than 0 are left out: rank 0's phases are the ones the
// program times, and the replicas run in lockstep.
func (r *recorder) selfTimes(root string) []layerShare {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.Rank == 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	var total int64
	for _, s := range r.spans {
		if s.Rank != 0 {
			continue
		}
		if s.Name == root {
			total += s.dur()
		}
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	var out []layerShare
	for name, ns := range self {
		sh := 0.0
		if total > 0 {
			sh = float64(ns) / float64(total)
		}
		out = append(out, layerShare{Name: name, SelfMs: float64(ns) / 1e6, Share: sh})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// dominant returns the layer with the largest self time, the root
// excluded.
func dominant(shares []layerShare, root string) layerShare {
	for _, s := range shares {
		if s.Name != root {
			return s
		}
	}
	return layerShare{}
}

// stepCtx carries the id of the step span the wrappers' spans belong to.
type stepCtx struct {
	mu   sync.Mutex
	step int64
}

func (c *stepCtx) set(step int64) {
	c.mu.Lock()
	c.step = step
	c.mu.Unlock()
}

func (c *stepCtx) get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step
}

// tracedSampler records a span around every Sample call of the sampler it
// wraps and keeps a copy of the last batch it drew (for the nn
// microbenchmarks). wrapSampler returns a value that also implements
// sampler.Resumable exactly when the wrapped sampler does, so the trainer
// takes the same snapshotting path traced as untraced.
type tracedSampler struct {
	inner sampler.Sampler
	rec   *recorder
	ctx   *stepCtx
	rank  int
	mu    sync.Mutex
	last  *sampler.Batch
}

func (s *tracedSampler) Sample(b *sampler.Batch) {
	start := s.rec.now()
	s.inner.Sample(b)
	s.rec.add(span{Name: "sampler.Sample", Start: start, End: s.rec.now(), Step: s.ctx.get(), Rank: s.rank})
	s.mu.Lock()
	if s.last == nil || s.last.N != b.N {
		s.last = sampler.NewBatch(b.N, b.Sites)
	}
	copy(s.last.Bits, b.Bits)
	s.mu.Unlock()
}

func (s *tracedSampler) Cost() sampler.Cost { return s.inner.Cost() }

func (s *tracedSampler) lastBatch() *sampler.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

type tracedResumableSampler struct{ *tracedSampler }

func (s tracedResumableSampler) Snapshot() sampler.State {
	return s.inner.(sampler.Resumable).Snapshot()
}

func (s tracedResumableSampler) Restore(st sampler.State) {
	s.inner.(sampler.Resumable).Restore(st)
}

func wrapSampler(inner sampler.Sampler, rec *recorder, ctx *stepCtx, rank int) (sampler.Sampler, *tracedSampler) {
	t := &tracedSampler{inner: inner, rec: rec, ctx: ctx, rank: rank}
	if _, ok := inner.(sampler.Resumable); ok {
		return tracedResumableSampler{t}, t
	}
	return t, t
}

// tracedOptimizer records a span around every Step of the optimizer it
// wraps. wrapOptimizer forwards optimizer.StateCloner when the wrapped
// optimizer implements it; the clone is wrapped the same way.
type tracedOptimizer struct {
	inner optimizer.Optimizer
	rec   *recorder
	ctx   *stepCtx
	rank  int
}

func (o *tracedOptimizer) Step(params, grad tensor.Vector) {
	start := o.rec.now()
	o.inner.Step(params, grad)
	o.rec.add(span{Name: "optimizer.Step", Start: start, End: o.rec.now(), Step: o.ctx.get(), Rank: o.rank})
}

func (o *tracedOptimizer) Name() string { return o.inner.Name() }

type tracedClonerOptimizer struct{ *tracedOptimizer }

func (o tracedClonerOptimizer) CloneState() optimizer.Optimizer {
	return wrapOptimizer(o.inner.(optimizer.StateCloner).CloneState(), o.rec, o.ctx, o.rank)
}

func wrapOptimizer(inner optimizer.Optimizer, rec *recorder, ctx *stepCtx, rank int) optimizer.Optimizer {
	t := &tracedOptimizer{inner: inner, rec: rec, ctx: ctx, rank: rank}
	if _, ok := inner.(optimizer.StateCloner); ok {
		return tracedClonerOptimizer{t}
	}
	return t
}

// phaseSpans lays derived phase spans end to end as children of the step
// span, one per (name, duration) pair, starting where rank 0's first
// wrapper span of the step starts (or at the step start). It then
// re-parents the wrapper spans recorded since mark: rank 0's into the
// phase owner names (matched on the phase name's suffix), the other
// ranks' into the step.
func (r *recorder) phaseSpans(stepID, mark int64, phases []phase, owner map[string]string) {
	st := r.get(stepID)
	kids := r.since(mark)
	at := st.Start
	for _, id := range kids {
		if s := r.get(id); s.Rank == 0 && id != stepID {
			at = s.Start
			break
		}
	}
	ids := map[string]int64{}
	for _, p := range phases {
		end := at + int64(p.d)
		id := r.add(span{Parent: stepID, Name: p.name, Start: at, End: end, Step: st.Step, Derived: true})
		ids[p.name[strings.LastIndexByte(p.name, '.')+1:]] = id
		at = end
	}
	for _, id := range kids {
		if id == stepID {
			continue
		}
		parent := stepID
		if s := r.get(id); s.Rank == 0 && ids[owner[s.Name]] != 0 {
			parent = ids[owner[s.Name]]
		}
		r.setParent(id, parent)
	}
}

type phase struct {
	name string
	d    time.Duration
}

func fmtShares(shares []layerShare) string {
	out := ""
	for i, s := range shares {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %.1f%%", s.Name, 100*s.Share)
	}
	return out
}
