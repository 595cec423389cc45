// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every output against a reference, and
// prints the workload's metrics. The last line of standard output is one
// JSON object with the gated metrics of BENCHMARK.json: the end-to-end
// metrics when untraced, the per-layer metrics of a traced run with
// --trace 1. Results and spans are also written under the output
// directory, and the compare subcommand judges two sets of result files by
// the bounds in BENCHMARK.json.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload tim-made-serial --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare .bench_build/results-old .bench_build/results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up; it
// reports the median.
const setupRepeats = 3

// workload is one named input set. Exactly one of train and serve is set.
// procs, when positive, is the GOMAXPROCS the workload runs at.
type workload struct {
	name  string
	procs int
	train *trainSpec
	serve *serveSpec
}

var workloads = []*workload{
	{name: "tim-made-serial", train: &trainSpec{
		problem: "tim", n: 16, hidden: 38, model: "made",
		workers: 2, batch: 1024, opt: "adam", lr: 0.01,
		target: 0.05, horizon: 300,
	}},
	// The dist workloads run their two replicas on one P. At GOMAXPROCS=2
	// every collective hand-off wakes the other vCPU, and on a shared VM
	// that wake-up latency moved the SR step between 84 and 150 ms across
	// runs of one seed; on one P the same step read 141 +- 1 ms.
	{name: "tim-nade-dist-sr", procs: 1, train: &trainSpec{
		problem: "tim", n: 16, hidden: 38, model: "nade",
		dist: true, replicas: 2, workers: 1, batch: 512, opt: "sgd", lr: 0.1,
		sr: true, srMaxIter: 32,
		target: 0.05, horizon: 100,
	}},
	{name: "maxcut-made-dist", procs: 1, train: &trainSpec{
		problem: "maxcut", n: 256, hidden: 154, model: "made",
		dist: true, replicas: 2, workers: 1, batch: 128, opt: "adam", lr: 0.01,
		target: 0.98, horizon: 100, evalBatch: 256,
	}},
	{name: "serve-mixed", serve: &serveSpec{
		n: 32, hidden: 64, lowRate: 500, highRate: 10000,
		mix:       [3]float64{0.80, 0.15, 0.05},
		sampleN:   8,
		swapEvery: 500 * time.Millisecond,
		sloMs:     10,
		ladder:    []float64{5000, 10000, 14000, 20000, 28000, 40000},
		clients:   64,
		setups:    15,
	}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env records where a result was measured.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Modified   bool   `json:"git_modified"`
}

func currentEnv() env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// namedValue is one of a workload's own metrics in a result file.
type namedValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Gate   string  `json:"gate,omitempty"`
}

// runOutput is one run's result file.
type runOutput struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Trace     bool                  `json:"trace"`
	Env       env                   `json:"env"`
	Checksum  string                `json:"trajectory_checksum"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Errors    []string              `json:"errors,omitempty"`
	Metrics   map[string]float64    `json:"metrics"`
	Named     map[string]namedValue `json:"named,omitempty"`
	Bypassed  []string              `json:"bypassed,omitempty"`
	Dominant  *layerShare           `json:"dominant,omitempty"`
	Shares    []layerShare          `json:"shares,omitempty"`
	SpanFile  string                `json:"span_file,omitempty"`
	Extra     map[string]any        `json:"extra,omitempty"`
	rec       *recorder
}

func newRunOutput(wl *workload, seed uint64, traced bool) *runOutput {
	return &runOutput{Workload: wl.name, Seed: seed, Trace: traced, Env: currentEnv(), Correct: true,
		Metrics: map[string]float64{}, Named: map[string]namedValue{}, Extra: map[string]any{}}
}

// gate sets an end-to-end metric (untraced runs).
func (o *runOutput) gate(name string, v float64) {
	if !o.Trace {
		o.Metrics[name] = v
	}
}

// layer sets a per-layer metric (traced runs).
func (o *runOutput) layer(name string, v float64) {
	if o.Trace {
		o.Metrics[name] = v
	}
}

// named records a workload's own metric for the report and compare mode.
func (o *runOutput) named(name string, v float64) {
	nm, ok := namedMetrics[name]
	if !ok {
		panic("perfbench: undeclared named metric " + name)
	}
	o.Named[name] = namedValue{Value: v, Unit: nm.unit, Better: nm.better, Gate: nm.gate}
}

func (o *runOutput) fail(msg string) {
	o.Correct = false
	o.Failed++
	o.Errors = append(o.Errors, msg)
}

func (o *runOutput) absorbTraining(st *trainSetup, res trainResult) {
	o.Attempted += int64(res.steps) + 1 // the steps plus the quality evaluation
	o.Checksum = fmt.Sprintf("%016x", res.checksum)
	for _, e := range res.checkErrors {
		o.fail(e)
	}
	o.Extra["steps"] = res.steps
	o.Extra["effective_batch"] = st.effectiveBatch()
	if st.g != nil {
		o.Extra["gw_cut"] = st.gw.Cut
		o.Extra["sdp_bound"] = st.gw.SDPBound
	} else {
		o.Extra["exact_energy"] = st.e0
	}
}

// addQuality records the quality numbers: deterministic for a seed, so
// they repeat exactly between runs of the same program, and vary with the
// generated instance between seeds. A target not met within the horizon
// reads -1.
func (o *runOutput) addQuality(st *trainSetup, res trainResult) {
	iters, tts := -1.0, -1.0
	if res.hitIter > 0 {
		iters, tts = float64(res.hitIter), res.hitTime.Seconds()
	}
	o.Extra["target"] = st.spec.target
	o.Extra["horizon"] = st.spec.horizon
	o.layer("quality.iters_to_target", iters)
	o.layer("quality.time_to_target_s", tts)
	if st.g != nil {
		o.layer("quality.cut_ratio", res.quality)
	} else {
		o.layer("quality.energy_gap", res.quality)
	}
	if !o.Trace {
		o.named("iters_to_target", iters)
		o.named("time_to_target_s", tts)
		if st.g != nil {
			o.named("cut_ratio", res.quality)
		} else {
			o.named("energy_gap", res.quality)
		}
		o.named("error_ratio", float64(o.Failed)/float64(o.Attempted))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "repository root holding BENCHMARK.json")
	outDir := fs.String("out", ".bench_build", "directory for result files, spans and scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	wl := findWorkload(*name)
	declared := false
	for _, w := range spec.Workloads {
		declared = declared || w.Name == *name
	}
	if wl == nil || !declared {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	traced := *trace == 1
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	d := time.Duration(*seconds * float64(time.Second))

	var out *runOutput
	if wl.train != nil {
		out, err = runTraining(wl, *seed, d, traced)
	} else {
		out, err = runServe(wl, *seed, d, traced, *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl.name, *seed, err)
		return 1
	}
	if traced {
		for _, m := range spec.PerLayer {
			if _, ok := out.Metrics[m.Name]; !ok {
				out.Metrics[m.Name] = 0
				out.Bypassed = append(out.Bypassed, m.Name)
			}
		}
	}
	if err := spec.checkEmitted(traced, out.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeResults(out, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(os.Stdout, out, spec)

	type gated struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]gated `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]gated{}}
	for k, v := range out.Metrics {
		m, _ := spec.metric(k)
		line.Metrics[k] = gated{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func writeResults(out *runOutput, dir string) error {
	rdir := filepath.Join(dir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", out.Workload, out.Seed, btoi(out.Trace))
	if out.rec != nil {
		sdir := filepath.Join(dir, "spans")
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		out.SpanFile = filepath.Join(sdir, base+".jsonl")
		if err := out.rec.writeFile(out.SpanFile); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rdir, base+".json"), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints the run in human-readable form: every metric by name with
// its unit and direction, then the per-layer breakdown.
func report(w *os.File, out *runOutput, spec *benchSpec) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: gomaxprocs %d, num_cpu %d, %s, commit %s\n",
		out.Workload, out.Seed, out.Trace, out.Env.GOMAXPROCS, out.Env.NumCPU, out.Env.GoVersion, out.Env.Commit)
	fmt.Fprintf(w, "  correct %v, attempted %d, failed %d, trajectory checksum %s\n", out.Correct, out.Attempted, out.Failed, out.Checksum)
	for _, e := range out.Errors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
	keys := func(m map[string]namedValue) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for _, k := range keys(out.Named) {
		v := out.Named[k]
		gate := ""
		if v.Gate != "" {
			gate = "  [gated as " + v.Gate + "]"
		}
		fmt.Fprintf(w, "  %-24s %14.6g %-6s (%s is better)%s\n", k, v.Value, v.Unit, v.Better, gate)
	}
	var mk []string
	for k := range out.Metrics {
		mk = append(mk, k)
	}
	sort.Strings(mk)
	if out.Trace {
		for _, k := range mk {
			m, _ := spec.metric(k)
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, out.Metrics[k], m.Unit)
		}
		if out.Dominant != nil {
			fmt.Fprintf(w, "  dominant layer: %s, %.1f%% of %s time (self time from spans)\n",
				out.Dominant.Name, 100*out.Dominant.Share, rootName(out))
			fmt.Fprintf(w, "  self-time shares: %s\n", fmtShares(out.Shares))
		}
		if out.SpanFile != "" {
			fmt.Fprintf(w, "  spans: %s\n", out.SpanFile)
		}
	}
}

func rootName(out *runOutput) string {
	if findWorkload(out.Workload).serve != nil {
		return "request"
	}
	return "step"
}
