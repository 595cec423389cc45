package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain judges two sets of result files (directories of the JSON
// files runs write) workload by workload and metric by metric, by the
// bounds in BENCHMARK.json. For each metric it prints both sides' median
// and quartiles and a verdict:
//
//	unresolved    the spread of either side (interquartile range over
//	              median) exceeds the bound, and not every new run lies
//	              beyond every old run
//	worse/better  the median moved by more than the bound
//	within bound  otherwise
//
// Metrics without a bound (per-layer metrics, and per-seed properties of
// the generated instances) get the verdict "no bound", or "same" when the
// two sides read identically.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD_DIR NEW_DIR")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	old, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cur, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	worse := false
	for _, key := range sortedKeys(old, cur) {
		o, n := old[key], cur[key]
		fmt.Printf("%s (old %d runs, new %d runs)\n", key, len(o.runs), len(n.runs))
		fmt.Printf("  %-32s %-6s %12s %12s %12s   %12s %12s %12s   %s\n",
			"metric", "unit", "old q1", "old med", "old q3", "new q1", "new med", "new q3", "verdict")
		for _, m := range sortedMetricKeys(o.values, n.values) {
			ov, nv := o.values[m], n.values[m]
			unit, better, bound := o.meta(m, spec)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Printf("  %-32s %-6s missing on one side\n", m, unit)
				continue
			}
			v := verdict(ov, nv, better, bound)
			worse = worse || v == "worse"
			fmt.Printf("  %-32s %-6s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %s\n", m, unit,
				quantile(ov, 0.25), median(ov), quantile(ov, 0.75),
				quantile(nv, 0.25), median(nv), quantile(nv, 0.75), v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// resultSet is one side's runs of one workload in one mode.
type resultSet struct {
	runs   []*runOutput
	values map[string][]float64
	named  map[string]namedValue
}

func (r *resultSet) meta(m string, spec *benchSpec) (unit, better string, bound float64) {
	if nv, ok := r.named[m]; ok {
		if g, ok := spec.metric(nv.Gate); ok && nv.Gate != "" {
			return nv.Unit, nv.Better, g.Bound
		}
		return nv.Unit, nv.Better, 0
	}
	ms, _ := spec.metric(m)
	return ms.Unit, ms.Better, ms.Bound
}

func loadResults(dir string) (map[string]*resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]*resultSet{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runOutput
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		set := out[key]
		if set == nil {
			set = &resultSet{values: map[string][]float64{}, named: map[string]namedValue{}}
			out[key] = set
		}
		set.runs = append(set.runs, &r)
		for k, v := range r.Metrics {
			set.values[k] = append(set.values[k], v)
		}
		for k, v := range r.Named {
			if _, gated := r.Metrics[k]; gated {
				continue
			}
			set.values[k] = append(set.values[k], v.Value)
			set.named[k] = v
		}
	}
	return out, nil
}

func verdict(old, cur []float64, better string, bound float64) string {
	om, nm := median(old), median(cur)
	if bound == 0 {
		if om == nm && quantile(old, 0.25) == quantile(cur, 0.25) && quantile(old, 0.75) == quantile(cur, 0.75) {
			return "same"
		}
		return "no bound"
	}
	spread := func(xs []float64) float64 {
		m := median(xs)
		if m == 0 {
			return 0
		}
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / abs(m)
	}
	// change > 0 means the new side is worse.
	change := (nm - om) / abs(om)
	if better == "higher" {
		change = -change
	}
	if spread(old) > bound || spread(cur) > bound {
		switch {
		case allBeyond(old, cur, better):
			return "better"
		case allBeyond(cur, old, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "within bound"
}

// allBeyond reports whether every value of b is better than every value of a.
func allBeyond(a, b []float64, better string) bool {
	amin, amax := minMax(a)
	bmin, bmax := minMax(b)
	if better == "higher" {
		return bmin > amax
	}
	return bmax < amin
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sortedKeys(a, b map[string]*resultSet) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	var out []string
	for k := range seen {
		if a[k] != nil && b[k] != nil {
			out = append(out, k)
		} else {
			fmt.Printf("%s: present on one side only\n", k)
		}
	}
	sort.Strings(out)
	return out
}

func sortedMetricKeys(a, b map[string][]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		// Gated metrics first (no dot), then the rest alphabetically.
		di, dj := strings.Contains(out[i], "."), strings.Contains(out[j], ".")
		if di != dj {
			return !di
		}
		return out[i] < out[j]
	})
	return out
}
