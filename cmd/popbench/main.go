// Command popbench is the repository's benchmark: a closed-loop load
// generator that runs named workloads against the spatialdb.Table API,
// checks sampled answers against a brute-force oracle, and prints every
// end-to-end metric by name and unit. A traced run (-trace) also
// records spans around sampled table calls, replays those requests on
// each layer's public API, and prints the per-layer metrics. See
// README.md in this directory for the workloads, the metrics and the
// comparison recipe.
//
// Usage:
//
//	go run ./cmd/popbench [-workload name] [-seed n] [-seconds n] [-trace 0|1|file] [-o report.json]
//	go run ./cmd/popbench -compare setA setB
//
// -seconds sizes each workload's measured phase: it runs a fixed count
// of ops, the count the seed commit finished in that many seconds on a
// 2-vCPU host, so every build does the same work.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the bounded end-to-end metrics
// of an untraced run, or the unbounded and per-layer metrics of a
// traced one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// traceFlag is -trace: 0 or 1, or the file the spans are written to.
type traceFlag struct {
	on   bool
	path string
}

func (f *traceFlag) String() string {
	if f == nil || !f.on {
		return "0"
	}
	if f.path == "" {
		return "1"
	}
	return f.path
}

func (f *traceFlag) Set(s string) error {
	switch s {
	case "0", "false":
		*f = traceFlag{}
	case "1", "true":
		*f = traceFlag{on: true}
	default:
		*f = traceFlag{on: true, path: s}
	}
	return nil
}

// provenance records what produced a report.
type provenance struct {
	GoVersion   string         `json:"go_version"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	Clients     int            `json:"clients"`
	Seed        uint64         `json:"seed"`
	Seconds     int            `json:"seconds"`
	Setups      int            `json:"setups"`
	Trace       bool           `json:"trace"`
	SampleEvery int            `json:"sample_every"`
	Records     map[string]int `json:"records"`
	// ClientOps is each client's measured op count per workload; a
	// warm-up of a twentieth of it came first.
	ClientOps map[string]int `json:"client_ops"`
	// Ops is the ops attempted per workload, probes included.
	Ops      map[string]int64 `json:"ops"`
	Revision string           `json:"vcs_revision,omitempty"`
	Modified bool             `json:"vcs_modified,omitempty"`
	Started  string           `json:"started"`
}

// settings are the provenance fields two comparable runs share; a
// workload's record and op counts are settings of that workload only.
func (p provenance) settings() map[string]string {
	out := map[string]string{
		"go_version": p.GoVersion, "goos": p.GOOS, "goarch": p.GOARCH,
		"gomaxprocs": strconv.Itoa(p.GOMAXPROCS), "num_cpu": strconv.Itoa(p.NumCPU),
		"clients": strconv.Itoa(p.Clients), "seconds": strconv.Itoa(p.Seconds),
		"setups": strconv.Itoa(p.Setups), "trace": strconv.FormatBool(p.Trace),
		"sample_every": strconv.Itoa(p.SampleEvery),
	}
	for w, n := range p.Records {
		out["records "+w] = strconv.Itoa(n)
	}
	for w, n := range p.ClientOps {
		out["client_ops "+w] = strconv.Itoa(n)
	}
	return out
}

func newProvenance(cfg runConfig, seconds int) provenance {
	p := provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Clients: clients,
		Seed: cfg.seed, Seconds: seconds, Setups: cfg.setups,
		Trace: cfg.trace, SampleEvery: sampleEvery,
		Records: map[string]int{}, ClientOps: map[string]int{}, Ops: map[string]int64{},
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line from resultMetrics, naming each
// metric workload/metric when more than one workload ran.
func summarize(results []*result, trace bool) (resultLine, error) {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	defs := resultMetrics(trace)
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range defs {
			v, ok := r.Metrics[d.name]
			if !ok {
				return line, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
			}
			key := d.name
			if len(results) > 1 {
				key = r.Workload + "/" + d.name
			}
			line.Metrics[key] = v
		}
	}
	return line, nil
}

func printResult(r *result) {
	fmt.Printf("== %s: %d records, %d ops, %d failed, correct=%v\n", r.Workload, r.Records, r.Attempted, r.Failed, r.Correct)
	if r.Truncated {
		fmt.Println("  TRUNCATED: the phase hit its time limit before every op ran")
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %-6s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if d, _ := defOf(n); d.moves != "" {
			fmt.Printf("  (%s)", d.moves)
		}
		fmt.Println()
	}
	timers := make([]string, 0, len(r.Latency))
	for n := range r.Latency {
		timers = append(timers, n)
	}
	sort.Strings(timers)
	for _, n := range timers {
		l := r.Latency[n]
		fmt.Printf("  latency %-12s n=%-9d", n, l.N)
		for _, p := range percentiles {
			if v, ok := l.Percentiles[p.label]; ok {
				fmt.Printf(" %s=%.4gus", p.label, v)
			}
		}
		fmt.Println()
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "popbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var trace traceFlag
	workloadFlag := flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(workloadNames)+")")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 20, "size of each measured phase, in seconds of the seed commit on a 2-vCPU host")
	flag.Var(&trace, "trace", "0, 1, or the file to write spans to (1: trace.json under -dir): record spans on sampled ops and print per-layer metrics")
	out := flag.String("o", "", "write the full report, with provenance, to this JSON file")
	dir := flag.String("dir", "", "directory for table files (default: a temporary directory)")
	compare := flag.Bool("compare", false, "compare two report sets given as arguments (directories or globs)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report sets")
		}
		worse, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *specPath)
		if err == nil && worse {
			err = errors.New("a metric got worse")
		}
		return err
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	var ws []*workload
	for _, n := range names {
		w, err := newWorkload(n, 1)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	base := *dir
	if base == "" {
		tmp, err := os.MkdirTemp("", "popbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		base = tmp
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	cfg := runConfig{
		seed: *seed, limit: 2 * time.Duration(*seconds) * time.Second, setups: 3,
		trace: trace.on, dir: base,
	}
	if trace.on {
		cfg.setups = 1 // setup_s comes from untraced runs
	}
	prov := newProvenance(cfg, *seconds)
	var results []*result
	spans := map[string][]span{}
	for _, w := range ws {
		cfg.ops = max(w.rate**seconds/clients, 1)
		r, err := run(w, cfg)
		if err != nil {
			return err
		}
		printResult(r)
		prov.Records[w.name] = r.Records
		prov.ClientOps[w.name] = cfg.ops
		prov.Ops[w.name] = r.Attempted
		results = append(results, r)
		spans[w.name] = r.spans
	}
	if *out != "" {
		b, err := json.MarshalIndent(report{Provenance: prov, Workloads: results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if trace.on {
		path := trace.path
		if path == "" {
			path = filepath.Join(*dir, "trace.json")
		}
		if err := writeSpans(path, spans); err != nil {
			return err
		}
	}
	line, err := summarize(results, trace.on)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
