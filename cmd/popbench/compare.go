package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// -compare judges two sets of reports, A (the baseline) and B (the
// change), metric by metric and workload by workload. The i-th reports
// of the two sets, in file-name order, form a pair, as the
// alternating-pairs recipe in the README produces them. A metric is
//
//   - better when B wins at least nine in ten pairs and the medians
//     differ by more than A's interquartile range;
//   - worse when B's median is worse than A's by more than the metric's
//     bound: the one BENCHMARK.json fixes, or for a metric it does not
//     list the one metrics.go gives (for a metric without a bound: when
//     A wins nine in ten pairs and the medians differ by more than A's
//     IQR);
//   - unresolved when the spread of either set, IQR over median, is
//     wider than the bound (or there is no bound), unless every run of
//     B reads better than every run of A or all runs read the same;
//   - unchanged otherwise.

// report is the JSON popbench writes with -o.
type report struct {
	Provenance provenance `json:"provenance"`
	Workloads  []*result  `json:"workloads"`
}

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSet reads the reports a set names: a directory (every *.json in
// it) or a glob, in file-name order.
func loadSet(set string) ([]*report, error) {
	pattern := set
	if fi, err := os.Stat(set); err == nil && fi.IsDir() {
		pattern = filepath.Join(set, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no reports match %q", set)
	}
	sort.Strings(paths)
	var out []*report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), so spreads here match the ones the benchmark is held to.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// comparison is one metric on one workload.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	bound                  float64 // 0: no bound
	higher                 bool
	wins, losses           int
	verdict                string
}

func (c *comparison) judge() {
	ma, mb := median(c.a), median(c.b)
	qa1, qa3 := quartiles(c.a)
	qb1, qb3 := quartiles(c.b)
	// better(x, y): x reads better than y.
	better := func(x, y float64) bool { return x < y != c.higher && x != y }
	pairs := min(len(c.a), len(c.b))
	for i := 0; i < pairs; i++ {
		switch {
		case better(c.b[i], c.a[i]):
			c.wins++
		case better(c.a[i], c.b[i]):
			c.losses++
		}
	}
	separated := math.Abs(mb-ma) > qa3-qa1
	worse := ratio(mb-ma, math.Abs(ma))
	if c.higher {
		worse = -worse
	}
	allBetter, allEqual := true, true
	for _, x := range c.b {
		for _, y := range c.a {
			allBetter = allBetter && better(x, y)
			allEqual = allEqual && x == y
		}
	}
	spread := max(ratio(qa3-qa1, math.Abs(ma)), ratio(qb3-qb1, math.Abs(mb)))
	switch {
	case pairs > 0 && 10*c.wins >= 9*pairs && separated && worse < 0:
		c.verdict = "better"
	case c.bound > 0 && worse > c.bound:
		c.verdict = "worse"
	case c.bound == 0 && pairs > 0 && 10*c.losses >= 9*pairs && separated:
		c.verdict = "worse"
	case (c.bound == 0 || spread > c.bound) && !allBetter && !allEqual:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
}

// compareSets builds one comparison per workload and metric that both
// sets report, in workload and metric-definition order.
func compareSets(a, b []*report, sp *spec) []*comparison {
	bounds := map[string]float64{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			bounds[d.name] = d.bound
		}
	}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := func(set []*report, wl, metric string) []float64 {
		var out []float64
		for _, r := range set {
			for _, res := range r.Workloads {
				if v, ok := res.Metrics[metric]; ok && res.Workload == wl {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	var out []*comparison
	for _, wl := range workloadNames {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			av, bv := values(a, wl, def.name), values(b, wl, def.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := &comparison{
				workload: wl, metric: def.name, unit: def.unit, a: av, b: bv,
				higher: def.better == "higher", bound: bounds[def.name],
			}
			c.judge()
			out = append(out, c)
		}
	}
	return out
}

// settingsDiffer lists the provenance settings that are not the same
// across every report of both sets. Seeds and revisions differ by
// design and are not settings.
func settingsDiffer(sets ...[]*report) []string {
	seen := map[string]map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			for k, v := range r.Provenance.settings() {
				if seen[k] == nil {
					seen[k] = map[string]bool{}
				}
				seen[k][v] = true
			}
		}
	}
	var out []string
	for k, vs := range seen {
		if len(vs) > 1 {
			var list []string
			for v := range vs {
				list = append(list, v)
			}
			sort.Strings(list)
			out = append(out, fmt.Sprintf("%s: %s", k, strings.Join(list, " | ")))
		}
	}
	sort.Strings(out)
	return out
}

// runCompare prints the comparison of two report sets and reports
// whether any metric got worse.
func runCompare(w io.Writer, setA, setB, specPath string) (worse bool, err error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(setA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(setB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %d reports (%s), B: %d reports (%s)\n", len(a), revisions(a), len(b), revisions(b))
	for _, d := range settingsDiffer(a, b) {
		fmt.Fprintf(w, "WARNING settings differ, %s\n", d)
	}
	fmt.Fprintf(w, "%-15s %-34s %-26s %-26s %8s %6s %5s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "wins", "verdict")
	counts := map[string]int{}
	for _, c := range compareSets(a, b, sp) {
		qa1, qa3 := quartiles(c.a)
		qb1, qb3 := quartiles(c.b)
		bound := "-"
		if c.bound > 0 {
			bound = fmt.Sprintf("%.2f", c.bound)
		}
		fmt.Fprintf(w, "%-15s %-34s %-26s %-26s %+7.1f%% %6s %2d/%-2d  %s\n",
			c.workload, c.metric+" ("+c.unit+")",
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(c.a), qa1, qa3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(c.b), qb1, qb3),
			100*ratio(median(c.b)-median(c.a), math.Abs(median(c.a))), bound,
			c.wins, min(len(c.a), len(c.b)), c.verdict)
		counts[c.verdict]++
		worse = worse || c.verdict == "worse"
	}
	fmt.Fprintf(w, "verdicts: %d better, %d worse, %d unchanged, %d unresolved\n",
		counts["better"], counts["worse"], counts["unchanged"], counts["unresolved"])
	return worse, nil
}

func revisions(set []*report) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range set {
		rev := r.Provenance.Revision
		if rev == "" {
			rev = "unknown revision"
		}
		if !seen[rev] {
			seen[rev] = true
			out = append(out, rev)
		}
	}
	return strings.Join(out, ", ")
}
