package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeScale runs every workload at a thousandth of its size.
const smokeScale = 1.0 / 1000

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		seed: 1, ops: 1000, limit: time.Minute, setups: 1, trace: trace, dir: t.TempDir(),
	}
}

// Every workload runs end to end with the oracle armed and every
// answer right. It measures every metric its result line carries and,
// untraced, every end-to-end metric that applies to it and no other,
// except the tail percentiles, which a smoke-sized sample does not
// support.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, err := newWorkload(name, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(w, smokeConfig(t, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (trace %v): correct=%v failed=%d attempted=%d: %v",
					name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			if res.Truncated || res.Attempted < int64(clients*1000) {
				t.Errorf("%s (trace %v): %d ops, truncated %v; want %d", name, trace, res.Attempted, res.Truncated, clients*1000)
			}
			for _, d := range resultMetrics(trace) {
				if _, ok := res.Metrics[d.name]; !ok && !strings.HasSuffix(d.name, "p99_us") {
					t.Errorf("%s (trace %v): metric %s missing", name, trace, d.name)
				}
			}
			for _, d := range endToEnd {
				_, ok := res.Metrics[d.name]
				if d.appliesTo(name) && !ok && !strings.HasSuffix(d.name, "p99_us") {
					t.Errorf("%s (trace %v): metric %s missing", name, trace, d.name)
				}
				if !d.appliesTo(name) && ok {
					t.Errorf("%s (trace %v): reports %s, which applies to %v only", name, trace, d.name, d.on)
				}
			}
		}
	}
}

// opsOf draws the first n ops of client 0 of a fresh data set.
func opsOf(t *testing.T, name string, seed uint64, n int) []op {
	t.Helper()
	w, err := newWorkload(name, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	g := newClientGen(w, w.generate(seed).pop, seed, 0)
	out := make([]op, n)
	for i := range out {
		o := g.next()
		o.ids = append([]uint64(nil), o.ids...)
		o.wants = append([]bool(nil), o.wants...)
		o.recs = append(o.recs[:0:0], o.recs...)
		for j := range o.recs {
			o.recs[j].Data = nil // payloads are derived from ids
		}
		out[i] = o
	}
	return out
}

func TestOpStreamIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := opsOf(t, name, 1, 2000), opsOf(t, name, 1, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op streams", name)
		}
		if c := opsOf(t, name, 2, 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", name)
		}
	}
}

// A wrong answer must fail the check and count as a failed op.
func TestTamperedAnswerFailsTheRun(t *testing.T) {
	w, err := newWorkload("mem-read", smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, false)
	tampered := 0
	cfg.tamper = func(s *sample) {
		if s.op.kind == kCount {
			s.count++
			tampered++
		}
	}
	res, err := run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tampered == 0 {
		t.Fatal("no count answer was checked")
	}
	if res.Correct || res.Failed < int64(tampered) || res.Metrics["failed_frac"].Value <= 0 {
		t.Errorf("%d tampered counts: correct=%v failed=%d failed_frac=%g",
			tampered, res.Correct, res.Failed, res.Metrics["failed_frac"].Value)
	}
}

func TestTraceFlag(t *testing.T) {
	for in, want := range map[string]traceFlag{
		"0": {}, "1": {on: true}, "true": {on: true}, "spans.json": {on: true, path: "spans.json"},
	} {
		var f traceFlag
		if err := f.Set(in); err != nil || f != want {
			t.Errorf("-trace %s = %+v, %v; want %+v", in, f, err, want)
		}
	}
}
