package main

// The -serve mode load-tests the internal/serve coalescer: for each
// endpoint kind and client count it runs the same closed-loop measurement
// twice — once with cross-request coalescing enabled and once with
// MaxBatch=1 (every request dispatched through its own GEMM call) — and
// reports the QPS ratio. Every response in both runs is verified bitwise
// against the direct single-caller evaluation, so the numbers come with a
// correctness proof attached (LoadResult.Verified counts the checks).

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/serve"
)

// ServeRow is one serve load measurement: a (kind, clients, coalesced)
// cell. Speedup is coalesced QPS over the matching per-request QPS and is
// recorded on the coalesced row of each pair.
type ServeRow struct {
	Kind         string  `json:"kind"`
	Clients      int     `json:"clients"`
	Coalesced    bool    `json:"coalesced"`
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	Batches      uint64  `json:"batches"`
	RowsPerBatch float64 `json:"rows_per_batch"`
	Verified     int     `json:"verified"`
	Speedup      float64 `json:"speedup,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
}

// runServe executes the serve load matrix and writes the report.
func runServe(n, hsz int, quick bool, out string) {
	clientCounts := []int{16, 64, 256}
	dur := time.Second
	if quick {
		clientCounts = []int{4, 16}
		dur = 150 * time.Millisecond
	}

	rep := Report{
		PR:         "pr10-serve-coalescing",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Note: "closed-loop serve load: coalesced (continuous batching: whenever the dispatcher " +
			"frees up it folds the queued backlog, up to the default MaxBatch) vs per-request " +
			"(MaxBatch=1) dispatch on the same MADE model; every response in every run is " +
			"verified bitwise against the direct single-caller evaluation (verified = checks " +
			"performed). speedup on a coalesced row is its QPS over the matching per-request " +
			"row. The fold pays off with concurrency: at high client counts the fused GEMM over " +
			"strangers' rows beats one dispatch per request.",
	}

	for _, kind := range []string{"logpsi", "energy"} {
		for _, clients := range clientCounts {
			var perReqQPS float64
			for _, coalesce := range []bool{false, true} {
				// Serving churns request-sized garbage; start each
				// measurement from a collected heap so earlier runs'
				// debris doesn't tax later ones.
				runtime.GC()
				res, err := serve.RunLoad(serve.LoadConfig{
					Sites:    n,
					Hidden:   hsz,
					Clients:  clients,
					Duration: dur,
					Kind:     kind,
					Coalesce: coalesce,
					Seed:     42,
				})
				if err != nil {
					log.Fatalf("serve load %s clients=%d coalesce=%v: %v", kind, clients, coalesce, err)
				}
				row := ServeRow{
					Kind: kind, Clients: clients, Coalesced: coalesce,
					Requests: res.Requests, QPS: res.QPS,
					P50ms: res.P50ms, P95ms: res.P95ms, P99ms: res.P99ms,
					Batches: res.Batches, RowsPerBatch: res.RowsPerBatch,
					Verified:   res.Verified,
					GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				}
				if coalesce {
					row.Speedup = res.QPS / perReqQPS
				} else {
					perReqQPS = res.QPS
				}
				rep.Serve = append(rep.Serve, row)
				mode := "per-request"
				if coalesce {
					mode = "coalesced  "
				}
				fmt.Printf("serve %-7s clients=%-4d %s: %9.0f qps  p50=%6.3fms p95=%6.3fms p99=%6.3fms  rows/batch=%6.1f  verified=%d",
					kind, clients, mode, res.QPS, res.P50ms, res.P95ms, res.P99ms, res.RowsPerBatch, res.Verified)
				if coalesce {
					fmt.Printf("  (%.2fx)", row.Speedup)
				}
				fmt.Println()
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
