package serve

// Property tests for the coalescer's lifecycle invariants: no request is
// dropped, duplicated, or cross-wired under concurrent submit / cancel /
// timeout, admission control rejects deterministically, and the pending
// reservation always drains back to zero. The order-sensitive cases park
// the dispatcher on a gated evaluator instead of relying on timing: while
// it is parked, every submit queues, so the next collect sees exactly the
// backlog the test built.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// gatedEval wraps a model's real batch evaluator so a test can park the
// dispatcher: the first LogPsiBatch call closes entered and blocks until
// release is called. Values pass through unchanged. rows records every
// LogPsiBatch's batch size in dispatch order; only the dispatcher writes
// it, and a test reads it after the requests it served have completed.
type gatedEval struct {
	nn.BatchEvaluator
	once     sync.Once
	entered  chan struct{}
	unpark   sync.Once
	released chan struct{}
	rows     []int
}

func (g *gatedEval) LogPsiBatch(b nn.ConfigBatch, out []float64) {
	g.once.Do(func() {
		close(g.entered)
		<-g.released
	})
	g.rows = append(g.rows, b.N)
	g.BatchEvaluator.LogPsiBatch(b, out)
}

// release unparks the dispatcher; later calls are no-ops.
func (g *gatedEval) release() { g.unpark.Do(func() { close(g.released) }) }

// outcome is one asynchronous submit's result.
type outcome struct {
	got []float64
	err error
}

// goLogPsi submits a LogPsi against model "m" from its own goroutine.
func goLogPsi(ctx context.Context, s *Server, configs [][]int) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		got, err := s.LogPsi(ctx, "m", configs)
		ch <- outcome{got, err}
	}()
	return ch
}

// await receives one asynchronous outcome; a request that never completes
// was dropped, and fails the test instead of hanging it.
func await(t testing.TB, ch <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("request never completed: dropped by the coalescer")
		return outcome{}
	}
}

// parkModel registers spec as model "m" on s the way Register does, but
// behind a gatedEval, and parks the dispatcher inside its first dispatch
// with a one-row LogPsi. The returned channel yields that parking
// request's outcome once the gate is released. At cleanup the gate is
// released and s closed, so a test that fails while parked cannot hang
// in the drain.
func parkModel(t testing.TB, s *Server, spec ModelSpec) (*modelService, *gatedEval, <-chan outcome) {
	t.Helper()
	cfg := spec.Config.withDefaults()
	g := &gatedEval{
		BatchEvaluator: spec.WF.(nn.BatchEvaluatorBuilder).NewBatchEvaluator(cfg.Workers),
		entered:        make(chan struct{}),
		released:       make(chan struct{}),
	}
	m := newModelService("m", spec.WF, spec.Ham, core.NewBatchedEvalWith(g), cfg)
	s.mu.Lock()
	s.models["m"] = m
	s.mu.Unlock()
	m.start()
	t.Cleanup(func() {
		g.release()
		s.Close()
	})
	parked := goLogPsi(context.Background(), s, clientConfigs(1000, 1, m.sites))
	<-g.entered
	return m, g, parked
}

// waitFor polls cond until it holds. The parked tests use it only to
// observe a state they drove the coalescer into, so the deadline guards
// against a hang; it never decides an outcome.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// sameValues reports a mismatch between a served and a direct answer.
func sameValues(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("row %d: served %v != direct %v", k, got[k], want[k])
		}
	}
	return nil
}

// directLogPsi computes the single-caller reference for configs.
func directLogPsi(wf nn.Wavefunction, configs [][]int) []float64 {
	b := sampler.NewBatch(len(configs), len(configs[0]))
	for k, row := range configs {
		copy(b.Row(k), row)
	}
	out := make([]float64, b.N)
	core.NewBatchedEval(wf, core.EvalAuto, 1).LogPsi(b, out)
	return out
}

// TestCoalescerNoDropDupCrosswire floods one model from many clients whose
// workloads all differ, with a mix of request sizes and kinds, and asserts
// every single response carries exactly its own client's values — the
// cross-wiring detector — and that every submit completes exactly once
// (the test would hang on a drop; a duplicate would double-close ready and
// panic).
func TestCoalescerNoDropDupCrosswire(t *testing.T) {
	const n, h = 9, 10
	const clients, iters = 48, 20
	wf := buildWF("made", n, h, 7)
	ham := hamiltonian.RandomTIM(n, rng.New(8))
	s := NewServer(ServerConfig{})
	err := s.Register("m", ModelSpec{WF: wf, Ham: ham, Config: Config{
		MaxBatch: 16, MaxPending: 1 << 14,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref := core.NewBatchedEval(wf, core.EvalAuto, 1)
	refHam := func(configs [][]int) []float64 {
		b := sampler.NewBatch(len(configs), n)
		for k, row := range configs {
			copy(b.Row(k), row)
		}
		out := make([]float64, b.N)
		ref.LocalEnergies(ham, b, 1, out)
		return out
	}
	type workload struct {
		configs [][]int
		lp, en  []float64
	}
	works := make([]workload, clients)
	for c := range works {
		rows := 1 + c%5
		cfgs := clientConfigs(c, rows, n)
		works[c] = workload{configs: cfgs, lp: directLogPsi(wf, cfgs), en: refHam(cfgs)}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := works[c]
			for it := 0; it < iters; it++ {
				var got, want []float64
				var err error
				if (c+it)%2 == 0 {
					got, err = s.LogPsi(context.Background(), "m", w.configs)
					want = w.lp
				} else {
					got, err = s.LocalEnergy(context.Background(), "m", w.configs)
					want = w.en
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d it %d: %w", c, it, err)
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("client %d it %d: %d values, want %d", c, it, len(got), len(want))
					return
				}
				for k := range got {
					if got[k] != want[k] {
						errCh <- fmt.Errorf("client %d it %d row %d: cross-wired? served %v != own %v", c, it, k, got[k], want[k])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, _ := s.ModelStats("m")
	if want := uint64(clients * iters); st.Requests != want {
		t.Fatalf("served %d requests, want %d", st.Requests, want)
	}
	m, _ := s.lookup("m")
	if p := m.pendingRows.Load(); p != 0 {
		t.Fatalf("pending rows did not drain: %d", p)
	}
}

// TestCoalescerCancelAndTimeout cancels requests while they sit in the
// queue: with the dispatcher parked, client requests that are cancelled,
// that time out, or that arrive already cancelled all end with their
// context error; once released, the dispatcher completes them unevaluated
// and serves the rest bitwise correctly, and the admission reservation
// drains to zero. A second, unparked phase races the same mix against
// live dispatches: every submit ends with its own value or a context
// error and never hangs.
func TestCoalescerCancelAndTimeout(t *testing.T) {
	const n, h = 8, 10
	wf := buildWF("made", n, h, 11)
	s := NewServer(ServerConfig{})
	m, g, parked := parkModel(t, s, ModelSpec{WF: wf, Config: Config{MaxBatch: 1 << 12, MaxPending: 1 << 14}})

	const clients = 32
	works := make([][][]int, clients)
	wants := make([][]float64, clients)
	for c := range works {
		works[c] = clientConfigs(c, 1+c%3, n)
		wants[c] = directLogPsi(wf, works[c])
	}
	// Client c is plain (c%4 == 0), cancelled while queued (1), timed out
	// while queued (2), or cancelled before submitting (3).
	outs := make([]<-chan outcome, clients)
	cancels := make([]context.CancelFunc, clients)
	for c := range outs {
		ctx := context.Background()
		switch c % 4 {
		case 1:
			ctx, cancels[c] = context.WithCancel(ctx)
		case 2:
			ctx, cancels[c] = context.WithTimeout(ctx, time.Millisecond)
		case 3:
			ctx, cancels[c] = context.WithCancel(ctx)
			cancels[c]()
		}
		outs[c] = goLogPsi(ctx, s, works[c])
	}
	waitFor(t, "every client queued", func() bool { return len(m.reqCh) == clients })
	for c := 1; c < clients; c += 4 {
		cancels[c]()
	}
	// The dead submits return while the dispatcher is still parked.
	for c := range outs {
		if c%4 == 0 {
			continue
		}
		o := await(t, outs[c])
		if !errors.Is(o.err, context.Canceled) && !errors.Is(o.err, context.DeadlineExceeded) {
			t.Fatalf("client %d: got %v, want a context error", c, o.err)
		}
		cancels[c]()
	}
	g.release()
	if o := await(t, parked); o.err != nil {
		t.Fatalf("parking request: %v", o.err)
	}
	for c := 0; c < clients; c += 4 {
		o := await(t, outs[c])
		if o.err != nil {
			t.Fatalf("client %d: %v", c, o.err)
		}
		if err := sameValues(o.got, wants[c]); err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	waitFor(t, "pending rows to drain", func() bool { return m.pendingRows.Load() == 0 })
	st, _ := s.ModelStats("m")
	if want := uint64(clients - clients/4); st.Canceled != want {
		t.Fatalf("canceled counter %d, want %d", st.Canceled, want)
	}
	if want := uint64(1 + clients/4); st.Requests != want {
		t.Fatalf("served %d requests, want %d", st.Requests, want)
	}

	const iters = 10
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				switch it % 3 {
				case 1:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(c%5)*time.Millisecond)
				case 2:
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				got, err := s.LogPsi(ctx, "m", works[c])
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					if err := sameValues(got, wants[c]); err != nil {
						errCh <- fmt.Errorf("client %d it %d: %w", c, it, err)
						return
					}
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				default:
					errCh <- fmt.Errorf("client %d it %d: unexpected error %v", c, it, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The dispatcher owns every admitted request to completion, so the
	// reservation drains even for abandoned waits.
	waitFor(t, "pending rows to drain", func() bool { return m.pendingRows.Load() == 0 })
}

// TestAdmissionControl pins the rejection path: with a MaxPending of 8
// rows and the dispatcher parked on a one-row request, 23 concurrent
// one-row submits split exactly 7 admitted / 16 rejected with
// ErrOverloaded — nothing releases a reservation until the gate opens —
// and every admitted request still completes correctly afterwards.
func TestAdmissionControl(t *testing.T) {
	const n, h = 8, 10
	const maxPending = 8
	const attempts = 24 // including the parking request
	wf := buildWF("made", n, h, 13)
	s := NewServer(ServerConfig{})
	m, g, parked := parkModel(t, s, ModelSpec{WF: wf, Config: Config{MaxBatch: 1 << 12, MaxPending: maxPending}})

	cfgs := clientConfigs(0, 1, n)
	want := directLogPsi(wf, cfgs)
	outs := make([]<-chan outcome, attempts-1)
	for i := range outs {
		outs[i] = goLogPsi(context.Background(), s, cfgs)
	}
	waitFor(t, "every admission decision", func() bool {
		return m.pendingRows.Load() == maxPending && m.rejected.Load() == attempts-maxPending &&
			len(m.reqCh) == maxPending-1
	})
	g.release()
	if o := await(t, parked); o.err != nil {
		t.Fatalf("parking request: %v", o.err)
	}
	ok, rejected := 1, 0
	for _, ch := range outs {
		o := await(t, ch)
		switch {
		case o.err == nil:
			if err := sameValues(o.got, want); err != nil {
				t.Fatal(err)
			}
			ok++
		case errors.Is(o.err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", o.err)
		}
	}
	if ok != maxPending || rejected != attempts-maxPending {
		t.Fatalf("admission split ok=%d rejected=%d, want %d/%d", ok, rejected, maxPending, attempts-maxPending)
	}
	st, _ := s.ModelStats("m")
	if st.Rejected != uint64(rejected) {
		t.Fatalf("rejected counter %d, want %d", st.Rejected, rejected)
	}
	// The seven admitted requests were queued together: one fold.
	if st.Batches != 2 {
		t.Fatalf("%d batches, want 2 (the parking request, then the backlog)", st.Batches)
	}
}

// TestCoalescerMaxBatchFold pins what MaxBatch bounds: collect stops once
// the group holds MaxBatch rows or more and never splits a request. Three
// 3-row requests queued behind a parked dispatcher at MaxBatch=4 dispatch
// as exactly two batches, 6 rows then 3.
func TestCoalescerMaxBatchFold(t *testing.T) {
	const n, h = 8, 10
	wf := buildWF("made", n, h, 17)
	s := NewServer(ServerConfig{})
	m, g, parked := parkModel(t, s, ModelSpec{WF: wf, Config: Config{MaxBatch: 4, MaxPending: 64}})

	outs := make([]<-chan outcome, 3)
	wants := make([][]float64, 3)
	for i := range outs {
		cfgs := clientConfigs(20+i, 3, n)
		wants[i] = directLogPsi(wf, cfgs)
		outs[i] = goLogPsi(context.Background(), s, cfgs)
	}
	waitFor(t, "three requests queued", func() bool { return len(m.reqCh) == 3 })
	g.release()
	if o := await(t, parked); o.err != nil {
		t.Fatalf("parking request: %v", o.err)
	}
	for i, ch := range outs {
		o := await(t, ch)
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if err := sameValues(o.got, wants[i]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st, _ := s.ModelStats("m")
	if st.Batches != 3 || st.Rows != 10 {
		t.Fatalf("batches=%d rows=%d, want 3 batches (1 parked + 2) over 10 rows", st.Batches, st.Rows)
	}
	if fmt.Sprint(g.rows) != "[1 6 3]" {
		t.Fatalf("batch rows %v, want [1 6 3]", g.rows)
	}
}

// TestSwapIsQueueBarrier pins the hot-swap ordering semantics directly on
// the queue: request A, a swap, then request B all queue behind a parked
// dispatcher, so one collect sees all three; the barrier (not timing)
// must split them — A on the old parameters, B on the new, in separate
// batches.
func TestSwapIsQueueBarrier(t *testing.T) {
	const n, h = 8, 10
	live := buildWF("made", n, h, 21)
	next := buildWF("made", n, h, 22)
	cfgs := clientConfigs(3, 2, n)
	wantOld := directLogPsi(live, cfgs)
	wantNew := directLogPsi(next, cfgs)
	for k := range wantOld {
		if wantOld[k] == wantNew[k] {
			t.Fatalf("degenerate fixture: old and new params agree on row %d", k)
		}
	}

	s := NewServer(ServerConfig{})
	m, g, parked := parkModel(t, s, ModelSpec{WF: live, Config: Config{MaxBatch: 1 << 12, MaxPending: 1 << 12}})

	chA := goLogPsi(context.Background(), s, cfgs)
	waitFor(t, "A queued", func() bool { return len(m.reqCh) == 1 })
	swapped := make(chan error, 1)
	go func() { swapped <- s.Swap(context.Background(), "m", next) }()
	waitFor(t, "swap queued", func() bool { return len(m.reqCh) == 2 })
	chB := goLogPsi(context.Background(), s, cfgs)
	waitFor(t, "B queued", func() bool { return len(m.reqCh) == 3 })
	g.release()

	if o := await(t, parked); o.err != nil {
		t.Fatalf("parking request: %v", o.err)
	}
	if err := <-swapped; err != nil {
		t.Fatalf("swap: %v", err)
	}
	a, b := await(t, chA), await(t, chB)
	if a.err != nil || b.err != nil {
		t.Fatalf("A: %v, B: %v", a.err, b.err)
	}
	if err := sameValues(a.got, wantOld); err != nil {
		t.Fatalf("pre-swap request: %v", err)
	}
	if err := sameValues(b.got, wantNew); err != nil {
		t.Fatalf("post-swap request: %v", err)
	}
	st, _ := s.ModelStats("m")
	if st.Swaps != 1 {
		t.Fatalf("swap counter %d, want 1", st.Swaps)
	}
	if fmt.Sprint(g.rows) != "[1 2 2]" {
		t.Fatalf("batch rows %v, want [1 2 2]: the swap must split A from B", g.rows)
	}
}
