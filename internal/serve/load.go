package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// LoadConfig describes one closed-loop load measurement: Clients goroutines
// each issue one request at a time against a freshly built server for
// Duration. The same configuration with Coalesce=false is the A/B
// baseline: MaxBatch=1 dispatches every request through its own GEMM call,
// so the comparison isolates exactly the cross-request fold.
type LoadConfig struct {
	// Sites/Hidden size the MADE model served (the GEMM working set).
	Sites, Hidden int
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// ConfigsPerRequest is the rows each request carries (default 1 — the
	// "strangers" regime: every row arrives from a different client).
	ConfigsPerRequest int
	// Duration is the measurement wall-clock per run.
	Duration time.Duration
	// Kind selects the endpoint: "logpsi" or "energy".
	Kind string
	// Coalesce=true serves with the default batch bound; false forces
	// MaxBatch=1 (per-request dispatch).
	Coalesce bool
	// MaxBatch overrides the coalesced batch bound when nonzero.
	MaxBatch int
	// Workers bounds eval fan-out (<= 0: GOMAXPROCS).
	Workers int
	// Seed pins the model parameters and client workloads.
	Seed uint64
}

// LoadResult is one load measurement: throughput, latency percentiles and
// coalescing shape. Verified is the number of responses checked bitwise
// against the direct single-caller evaluation (every response is checked;
// a mismatch fails the run), so the harness proves correctness under the
// same load it measures.
type LoadResult struct {
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	Batches      uint64  `json:"batches"`
	RowsPerBatch float64 `json:"rows_per_batch"`
	Verified     int     `json:"verified"`
}

// RunLoad executes one load measurement. Every client's response is
// compared with exact == against the direct core.BatchedEval value for
// that client's configurations, computed up front; any divergence is an
// error. The returned percentiles are per-request wall-clock latencies.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 16
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 32
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.ConfigsPerRequest <= 0 {
		cfg.ConfigsPerRequest = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Kind == "" {
		cfg.Kind = "logpsi"
	}
	if cfg.Kind != "logpsi" && cfg.Kind != "energy" {
		return LoadResult{}, fmt.Errorf("serve: load kind %q", cfg.Kind)
	}

	r := rng.New(cfg.Seed + 1)
	ham := hamiltonian.RandomTIM(cfg.Sites, r)
	wf := nn.NewMADE(cfg.Sites, cfg.Hidden, r.Split())

	sc := Config{Workers: cfg.Workers, MaxBatch: cfg.MaxBatch}
	if !cfg.Coalesce {
		sc.MaxBatch = 1
	}
	// Admission must never throttle the measurement: bound well above the
	// worst-case backlog (every client in flight at once).
	sc.MaxPending = 2 * cfg.Clients * cfg.ConfigsPerRequest
	if sc.MaxPending < 4096 {
		sc.MaxPending = 4096
	}

	s := NewServer(ServerConfig{})
	if err := s.Register("m", ModelSpec{WF: wf, Ham: ham, Config: sc}); err != nil {
		return LoadResult{}, err
	}
	defer s.Close()

	// Per-client workloads and their direct single-caller reference
	// values, computed before any traffic: the harness asserts every
	// served response against these, bitwise.
	type clientWork struct {
		configs [][]int
		want    []float64
	}
	works := make([]clientWork, cfg.Clients)
	ref := core.NewBatchedEval(wf, core.EvalAuto, 1)
	for c := range works {
		cr := rng.New(cfg.Seed + 100 + uint64(c))
		b := sampler.NewBatch(cfg.ConfigsPerRequest, cfg.Sites)
		cr.FillBits(b.Bits)
		configs := make([][]int, b.N)
		for k := range configs {
			configs[k] = b.Row(k)
		}
		want := make([]float64, b.N)
		if cfg.Kind == "energy" {
			ref.LocalEnergies(ham, b, 1, want)
		} else {
			ref.LogPsi(b, want)
		}
		works[c] = clientWork{configs: configs, want: want}
	}

	var wg sync.WaitGroup
	lat := make([][]time.Duration, cfg.Clients)
	reqCounts := make([]int, cfg.Clients)
	errs := make([]error, cfg.Clients)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := works[c]
			buf := lat[c][:0]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				var got []float64
				var err error
				if cfg.Kind == "energy" {
					got, err = s.LocalEnergy(ctx, "m", w.configs)
				} else {
					got, err = s.LogPsi(ctx, "m", w.configs)
				}
				d := time.Since(t0)
				if err != nil {
					errs[c] = err
					return
				}
				for k := range got {
					if got[k] != w.want[k] {
						errs[c] = fmt.Errorf("client %d: served %v != direct %v (row %d)", c, got[k], w.want[k], k)
						return
					}
				}
				buf = append(buf, d)
				reqCounts[c]++
			}
			lat[c] = buf
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < cfg.Duration {
		elapsed = cfg.Duration
	}
	for _, err := range errs {
		if err != nil {
			return LoadResult{}, err
		}
	}

	var all []time.Duration
	total := 0
	for c := range lat {
		all = append(all, lat[c]...)
		total += reqCounts[c]
	}
	if total == 0 {
		return LoadResult{}, fmt.Errorf("serve: load run completed zero requests")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e6
	}
	st, err := s.ModelStats("m")
	if err != nil {
		return LoadResult{}, err
	}
	res := LoadResult{
		Requests: total,
		QPS:      float64(total) / elapsed.Seconds(),
		P50ms:    pct(0.50),
		P95ms:    pct(0.95),
		P99ms:    pct(0.99),
		Batches:  st.Batches,
		Verified: total,
	}
	if st.Batches > 0 {
		res.RowsPerBatch = float64(st.Rows) / float64(st.Batches)
	}
	return res, nil
}
