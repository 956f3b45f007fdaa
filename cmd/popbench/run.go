package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"popana/internal/geom"
	"popana/internal/spatialdb"
	"popana/internal/xrand"
)

const (
	// sampleEvery selects the ops a run checks and, when tracing,
	// records spans for: every 64th op of each client.
	sampleEvery = 64
	// checkCap bounds the checked answers per client and op kind; the
	// sampled ones are kept by reservoir sampling, so the checks cover
	// the whole phase.
	checkCap = 64
	// traceCap bounds the traced requests kept per client; their spans
	// get eight slots each on average (a batch write takes 65).
	traceCap = 4096
	// traceSlice alternates traced and untraced stretches of a traced
	// phase, so trace.overhead_frac compares like with like.
	traceSlice = 250 * time.Millisecond
	// probeOps is the number of calls a traced run makes after the
	// phase, split between the read kinds the mix lacks (see
	// phase.probe).
	probeOps = 512
)

// runConfig is how one workload is run.
type runConfig struct {
	seed uint64
	// ops is each client's measured op count; a discarded warm-up of a
	// twentieth of it comes first.
	ops int
	// limit ends a phase that runs this long, however many ops are left;
	// the result is then marked truncated.
	limit  time.Duration
	setups int // set-ups timed; setup_s is their median
	trace  bool
	dir    string // scratch directory for table files
	// tamper, when set, rewrites every kept answer before it is
	// checked; tests use it to prove a wrong answer fails the run.
	tamper func(*sample)
}

// timer indexes the latency histograms.
type timer int

const (
	tGet timer = iota
	tGetBatch
	tWindow
	tCount
	tKNN
	tWrite // Insert and Delete calls
	tInsertBatch
	numTimers
)

var timerNames = [numTimers]string{"get", "getbatch", "window", "count", "knn", "write", "insertbatch"}

// client is one closed-loop caller: it issues its next op only after
// the previous one returned.
type client struct {
	idx   int
	w     *workload
	pop   *population
	gen   *clientGen
	hists [numTimers]*hist
	sc    spatialdb.BatchScratch
	out   []spatialdb.Record
	found []bool

	ops, failed int64 // measured ops and the ones that failed online
	inserted    int64 // records inserted in the measured phase
	tracedOps   int64 // measured ops in traced slices
	truncated   bool  // the phase hit its time limit
	failures    []string
	checks      [numKinds]reservoir
	resRNG      *xrand.Rand
	trace       bool
	spans       *spanBuf
	traced      []*sample
}

// reservoir keeps a uniform sample of at most checkCap answers.
type reservoir struct {
	seen int
	kept []*sample
}

func (r *reservoir) offer(s *sample, rng *xrand.Rand) {
	r.seen++
	if len(r.kept) < checkCap {
		r.kept = append(r.kept, s)
		return
	}
	if j := rng.Intn(r.seen); j < checkCap {
		r.kept[j] = s
	}
}

// newClient returns client c. Client indexes from clients up belong to
// probers, which read as client c mod clients does.
func newClient(w *workload, pop *population, seed uint64, c int, trace bool) *client {
	cl := &client{
		idx:    c,
		w:      w,
		pop:    pop,
		gen:    newClientGen(w, pop, seed, c),
		out:    make([]spatialdb.Record, batchProbes),
		found:  make([]bool, batchProbes),
		trace:  trace,
		resRNG: xrand.New(xrand.Derive(seed, 3, uint64(c+1))),
	}
	for i := range cl.hists {
		cl.hists[i] = newHist()
	}
	return cl
}

// startTrace gives a tracing client its span buffer, timed from epoch.
func (c *client) startTrace(epoch time.Time) {
	if c.trace {
		c.spans = newSpanBuf(epoch, uint64(c.idx+1)<<56, 8*traceCap)
	}
}

// loop runs ops from..to of the client's stream. Measured ops are timed
// from start, the beginning of the measured phase, and stop at
// deadline.
func (c *client) loop(tab *spatialdb.Table, from, to uint64, measured bool, start, deadline time.Time) {
	for i := from; i < to; i++ {
		o := c.gen.next()
		sampled := measured && i%sampleEvery == 0
		traced := false
		if measured {
			t := time.Now()
			if t.After(deadline) {
				c.truncated = true
				return
			}
			if c.trace && tracedSlice(t.Sub(start)) {
				c.tracedOps++
				traced = sampled && len(c.traced) < traceCap
			}
		}
		c.exec(tab, o, measured, sampled, traced, uint64(c.idx+1)<<56|i)
	}
}

// tracedSlice reports whether offset into the phase falls in a traced
// slice: the odd ones.
func tracedSlice(offset time.Duration) bool { return (offset/traceSlice)%2 == 1 }

// sample is one checked or traced op: its inputs, the table's answer,
// what the other clients had committed around it, and, when traced,
// the table call's span and cost.
type sample struct {
	op       op
	probeLoc []geom.Point // locations of the live probes of a Get/GetBatch
	view     []liveView
	found    []bool
	recs     []spatialdb.Record
	count    int

	req     uint64
	spanIDs []uint64 // table call spans, in call order
	durNS   int64    // the read call's duration
	cost    spatialdb.Cost
	blocks  float64 // Explain.Blocks for a window
	writes  []geom.Point
	deletes []geom.Point
}

// liveView is what a query may see of one owner: every record in
// [sureLo, sureHi) was live throughout the call, and only records in
// [maybeLo, maybeHi) could have been live at any point of it.
type liveView struct{ sureLo, sureHi, maybeLo, maybeHi int }

// progress reads every owner's committed counters.
func (c *client) progress() [][2]int {
	out := make([][2]int, len(c.pop.owners))
	for i, o := range c.pop.owners {
		out[i] = [2]int{int(o.ins.Load()), int(o.del.Load())}
	}
	return out
}

// views turns the counters read before and after a call into the
// range of states the call could have observed. The calling client's
// own records are exact, and so is everything a prober sees, since it
// runs alone; another client may have one call in flight on either
// side, which can insert up to a batch and delete one record.
func (c *client) views(pre, post [][2]int) []liveView {
	out := make([]liveView, len(pre))
	for i := range pre {
		ins0, del0, ins1, del1 := pre[i][0], pre[i][1], post[i][0], post[i][1]
		if !c.w.sliding || i == c.idx || c.idx >= clients {
			out[i] = liveView{del0, ins0, del0, ins0}
			continue
		}
		out[i] = liveView{
			sureLo: del1 + 1, sureHi: ins0,
			maybeLo: del0, maybeHi: ins1 + insertBatch,
		}
	}
	return out
}

func (c *client) fail(measured bool, format string, args ...any) {
	if !measured {
		return
	}
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// exec runs one op, timing every table call it makes.
func (c *client) exec(tab *spatialdb.Table, o op, measured, sampled, traced bool, req uint64) {
	if measured {
		c.ops++
	}
	var s *sample
	var pre [][2]int
	if sampled {
		s = &sample{op: o, req: req}
		pre = c.progress()
	}
	call := func(t timer, name string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		if measured {
			c.hists[t].record(t1.Sub(t0).Nanoseconds())
		}
		if traced {
			s.spanIDs = append(s.spanIDs, c.spans.add(name, req, 0, t0, t1))
			s.durNS = t1.Sub(t0).Nanoseconds()
		}
	}
	switch o.kind {
	case kGet:
		var rec spatialdb.Record
		var found bool
		call(tGet, "spatialdb.get", func() { rec, found = tab.Get(o.id) })
		if found != o.want || found && rec.ID != o.id {
			c.fail(measured, "get %d: found=%v id=%d, want found=%v", o.id, found, rec.ID, o.want)
		}
		if s != nil {
			s.found, s.recs = []bool{found}, []spatialdb.Record{rec}
			s.op.ids = []uint64{o.id}
		}
	case kGetBatch:
		var n int
		call(tGetBatch, "spatialdb.getbatch", func() { n = tab.GetBatch(&c.sc, o.ids, c.out, c.found) })
		want := 0
		for i, w := range o.wants {
			if w {
				want++
			}
			if c.found[i] != w || w && c.out[i].ID != o.ids[i] {
				c.fail(measured, "getbatch probe %d (id %d): found=%v, want %v", i, o.ids[i], c.found[i], w)
				break
			}
		}
		if n != want {
			c.fail(measured, "getbatch found %d, want %d", n, want)
		}
		if s != nil {
			s.op.ids, s.op.wants = append([]uint64(nil), o.ids...), nil
			s.found = append([]bool(nil), c.found...)
			s.recs = append([]spatialdb.Record(nil), c.out...)
		}
	case kSelect:
		var recs []spatialdb.Record
		var cost spatialdb.Cost
		var err error
		call(tWindow, "spatialdb.select", func() { recs, cost, err = tab.Select(spatialdb.Query{Window: &o.win}) })
		if err != nil {
			c.fail(measured, "select %v: %v", o.win, err)
		}
		if s != nil {
			s.recs, s.cost, s.count = recs, cost, len(recs)
		}
	case kCount:
		var n int
		var cost spatialdb.Cost
		var err error
		call(tCount, "spatialdb.count", func() { n, cost, err = tab.CountRange(o.win, 0) })
		if err != nil {
			c.fail(measured, "count %v: %v", o.win, err)
		}
		if s != nil {
			s.count, s.cost = n, cost
		}
	case kKNN:
		var recs []spatialdb.Record
		var err error
		q := spatialdb.Query{Nearest: &spatialdb.NearestSpec{At: o.at, K: knnK}}
		call(tKNN, "spatialdb.knn", func() { recs, _, err = tab.Select(q) })
		if err != nil || len(recs) == 0 {
			c.fail(measured, "knn %v: %d records, %v", o.at, len(recs), err)
		}
		if s != nil {
			s.recs = recs
		}
	case kInsert, kInsertBatch:
		c.write(tab, o, measured, call, s)
	}
	if s == nil {
		return
	}
	s.view = c.views(pre, c.progress())
	if traced {
		c.finishTrace(tab, s)
	}
	c.checks[o.kind].offer(s, c.resRNG)
}

// write inserts the op's records and then deletes as many of the
// client's oldest ones, publishing progress after every call.
func (c *client) write(tab *spatialdb.Table, o op, measured bool, call func(timer, string, func()), s *sample) {
	own := c.gen.own
	var err error
	if o.kind == kInsert {
		call(tWrite, "spatialdb.insert", func() { err = tab.Insert(o.recs[0]) })
	} else {
		call(tInsertBatch, "spatialdb.insertbatch", func() { err = tab.InsertBatch(o.recs) })
	}
	if err != nil {
		c.fail(measured, "insert %d records from id %d: %v", len(o.recs), o.recs[0].ID, err)
	}
	own.ins.Add(int64(len(o.recs)))
	if measured {
		c.inserted += int64(len(o.recs))
	}
	for k := o.oldest; k < o.oldest+len(o.recs); k++ {
		id := own.base + uint64(k)
		var ok bool
		call(tWrite, "spatialdb.delete", func() { ok = tab.Delete(id) })
		if !ok {
			c.fail(measured, "delete %d: not found", id)
		}
		own.del.Add(1)
	}
	if s != nil {
		for _, r := range o.recs {
			s.writes = append(s.writes, r.Loc)
		}
		s.deletes = append(s.deletes, own.locs[o.oldest:o.oldest+len(o.recs)]...)
		s.op.recs = nil
	}
}

// finishTrace adds what the replay and the spatialdb metrics need to a
// traced sample: the probes' locations and the model's block estimate.
func (c *client) finishTrace(tab *spatialdb.Table, s *sample) {
	switch s.op.kind {
	case kGet, kGetBatch:
		// Probes name the client's own records or the static set; the
		// other client's sequence is not read while it grows.
		o := c.gen.own
		if o == nil {
			o = c.pop.owners[0]
		}
		for i, id := range s.op.ids {
			if k := id - o.base; s.found[i] && id >= o.base && k < uint64(len(o.locs)) {
				s.probeLoc = append(s.probeLoc, o.locs[k])
			}
		}
	case kSelect, kCount:
		if e, err := tab.Explain(spatialdb.Query{Window: &s.op.win}); err == nil {
			s.blocks = e.Blocks
		}
	}
	c.traced = append(c.traced, s)
}

// result is everything one workload run measured.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Latency   map[string]latency     `json:"latency"`
	Layers    map[string]selfTime    `json:"layer_self_time,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Records   int                    `json:"records"`
	// Truncated marks a phase that hit its time limit before every
	// client had run its ops.
	Truncated bool `json:"truncated,omitempty"`

	spans []span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latency summarises one timer: the sample count and every standard
// percentile the sample supports.
type latency struct {
	N           uint64             `json:"n"`
	Percentiles map[string]float64 `json:"percentiles_us"`
}

var percentiles = []struct {
	label string
	p     int
}{{"p50", 5000}, {"p90", 9000}, {"p99", 9900}, {"p99.9", 9990}}

// procStats is a snapshot of process-wide counters.
type procStats struct {
	at           time.Time
	mallocs      uint64
	gcCPU, cpu   float64
	rchar, wchar int64
}

// run executes one workload end to end: timed set-ups, the measured
// phase, the answer checks, recovery for a durable table, and, when
// tracing, the layer replays.
func run(w *workload, cfg runConfig) (*result, error) {
	ds := w.generate(cfg.seed)
	dir := filepath.Join(cfg.dir, w.name)
	defer os.RemoveAll(dir)
	res := &result{Workload: w.name, Metrics: map[string]metricValue{}, Latency: map[string]latency{}}
	m := metricSink(res.Metrics)

	tab, err := timedSetups(w, ds, dir, cfg.setups, m)
	if err != nil {
		return nil, err
	}
	res.Records = tab.Len()
	ph := runPhase(w, ds.pop, tab, dir, cfg)
	ph.summarize(res)
	if cfg.trace {
		ph.probe(w, ds.pop, tab, cfg.seed)
	}
	if p := ph.prober; p != nil {
		res.Attempted += p.ops
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failures...)
	}
	for _, c := range ph.all() {
		for k := range c.checks {
			for _, s := range c.checks[k].kept {
				if cfg.tamper != nil {
					cfg.tamper(s)
				}
				if err := ds.pop.check(s); err != nil {
					res.fail(err)
				}
			}
		}
	}

	var walCopy string
	if w.isDurable() {
		total, _, err := dirBytes(dir)
		if err != nil {
			tab.Kill()
			return nil, err
		}
		m.set("space_amp", float64(total)/float64(ds.pop.liveCount()*userBytes))
	}
	tab.Kill()
	if w.isDurable() {
		if cfg.trace {
			if walCopy, err = copyLargestWAL(dir, cfg.dir); err != nil {
				return nil, err
			}
			defer os.Remove(walCopy)
		}
		if err := recoverTimed(w, ds.pop, dir, cfg.seed, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	m.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))
	if cfg.trace {
		if err := ph.trace(w, ds.pop, dir, walCopy, cfg, res); err != nil {
			return nil, fmt.Errorf("replay %s: %w", w.name, err)
		}
	}
	return res, nil
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// timedSetups builds the table setups times from the same data and
// keeps the last; setup_s is the median build time and heap_mb the heap
// the last table holds.
func timedSetups(w *workload, ds *dataset, dir string, setups int, m metricSink) (*spatialdb.Table, error) {
	var tab *spatialdb.Table
	var secs []float64
	var heap0, heap1 uint64
	for i := 0; i < setups; i++ {
		if tab != nil {
			tab.Kill()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		heap0 = heapAlloc()
		t0 := time.Now()
		var err error
		if tab, err = w.setup(ds, dir); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		heap1 = heapAlloc()
	}
	m.set("setup_s", median(secs))
	m.set("heap_mb", float64(int64(heap1)-int64(heap0))/1e6)
	return tab, nil
}

// recoverTimed reopens the killed durable table three times, checking
// each recovery, and records the median open time as recover_s.
func recoverTimed(w *workload, pop *population, dir string, seed uint64, res *result) error {
	var secs []float64
	rng := xrand.New(xrand.Derive(seed, 4))
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		tab, err := w.reopen(dir)
		if err != nil {
			return fmt.Errorf("recover %s: %w", w.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if err := pop.verifyRecovered(tab, rng); err != nil {
			res.fail(err)
		}
		tab.Kill()
	}
	metricSink(res.Metrics).set("recover_s", median(secs))
	return nil
}

// phase is one measured phase's clients and process counters.
type phase struct {
	clients []*client
	// prober makes a traced run's post-phase probe calls.
	prober             *client
	start, deadline    time.Time // the measured part's start and time limit
	p0, p1             procStats
	diskRuns, walBytes int64
}

// all returns the phase's clients and its prober, if any.
func (ph *phase) all() []*client {
	if ph.prober == nil {
		return ph.clients
	}
	return append(ph.clients[:len(ph.clients):len(ph.clients)], ph.prober)
}

// runPhase runs the closed loop: each client runs its warm-up ops, and
// once every client has, all run their cfg.ops measured ops.
func runPhase(w *workload, pop *population, tab *spatialdb.Table, dir string, cfg runConfig) *phase {
	ph := &phase{}
	warm := uint64(max(cfg.ops/20, 1))
	begin, done := make(chan struct{}), make(chan struct{})
	var warmed, finished sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := newClient(w, pop, cfg.seed, c, cfg.trace)
		ph.clients = append(ph.clients, cl)
		warmed.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			cl.loop(tab, 0, warm, false, time.Time{}, time.Time{})
			warmed.Done()
			<-begin
			cl.loop(tab, warm, warm+uint64(cfg.ops), true, ph.start, ph.deadline)
		}()
	}
	warmed.Wait()
	ph.p0 = readProc()
	ph.start, ph.deadline = ph.p0.at, ph.p0.at.Add(cfg.limit)
	for _, cl := range ph.clients {
		cl.startTrace(ph.start)
	}
	close(begin)
	go func() {
		finished.Wait()
		close(done)
	}()
	ph.diskRuns, ph.walBytes = watchTable(tab, dir, w, cfg.trace, done)
	ph.p1 = readProc()
	return ph
}

// probe makes, on a traced run, probeOps calls of each read kind that
// carries per-layer metrics but that the workload's mix lacks, so that
// every layer metric is measured on every workload. The calls come from
// the workload's own generators, are traced and checked like sampled
// ops, and are not part of the measured phase: its latencies, counts
// and throughput do not include them.
func (ph *phase) probe(w *workload, pop *population, tab *spatialdb.Table, seed uint64) {
	pw := *w
	pw.mix = [numKinds]int{}
	var kinds []kind
	for _, k := range []kind{kSelect, kGetBatch} {
		if w.mix[k] == 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return
	}
	for _, k := range kinds {
		pw.mix[k] = 100 / len(kinds) // one or two kinds: the shares sum to 100
	}
	ph.prober = newClient(&pw, pop, seed, clients, true)
	ph.prober.startTrace(ph.start)
	for i := uint64(0); i < probeOps; i++ {
		ph.prober.exec(tab, ph.prober.gen.next(), true, true, true, uint64(clients+1)<<56|i)
	}
}

// summarize merges the clients' counts and histograms into res.
func (ph *phase) summarize(res *result) {
	m := metricSink(res.Metrics)
	for _, c := range ph.clients {
		res.Attempted += c.ops
		res.Failed += c.failed
		res.Failures = append(res.Failures, c.failures...)
		res.Truncated = res.Truncated || c.truncated
	}
	m.set("throughput_ops", float64(res.Attempted)/ph.p1.at.Sub(ph.p0.at).Seconds())
	for t := timer(0); t < numTimers; t++ {
		h := newHist()
		for _, c := range ph.clients {
			h.merge(c.hists[t])
		}
		if h.n == 0 {
			continue
		}
		l := latency{N: h.n, Percentiles: map[string]float64{}}
		for _, p := range percentiles {
			if p.p == 5000 || h.supports(p.p) {
				l.Percentiles[p.label] = h.quantile(p.p) / 1e3
			}
		}
		res.Latency[timerNames[t]] = l
		m.set(timerNames[t]+"_p50_us", l.Percentiles["p50"])
		if v, ok := l.Percentiles["p99"]; ok && unitOf(timerNames[t]+"_p99_us") != "" {
			m.set(timerNames[t]+"_p99_us", v)
		}
	}
}

// trace replays the phase's traced requests on the layers and records
// the per-layer metrics and the spans.
func (ph *phase) trace(w *workload, pop *population, dir, walCopy string, cfg runConfig, res *result) error {
	m := metricSink(res.Metrics)
	var samples []*sample
	var spans []span
	var ops, inserted int64
	for _, c := range ph.all() {
		samples = append(samples, c.traced...)
		spans = append(spans, c.spans.spans...)
	}
	for _, c := range ph.clients {
		ops += c.ops
		inserted += c.inserted
	}
	tr := &tracer{
		w: w, pop: pop, dir: dir, scratch: filepath.Join(cfg.dir, w.name+"-replay"),
		samples: samples, spans: spans, walCopy: walCopy, seed: cfg.seed, epoch: ph.start, m: m,
	}
	if err := tr.replay(); err != nil {
		return err
	}
	res.spans = tr.spans
	res.Layers = selfTimes(tr.spans)
	var reqSpans []span
	for _, s := range tr.spans {
		if s.Req != 0 {
			reqSpans = append(reqSpans, s)
		}
	}
	perReq := selfTimes(reqSpans)
	for _, layer := range []string{"spatialdb", "linearquad", "quadtree", "segment"} {
		st := perReq[layer]
		m.set(layer+".self_us", float64(st.NS)/float64(max(st.Spans, 1))/1e3)
	}
	p0, p1 := ph.p0, ph.p1
	m.set("spatialdb.disk_runs_max", float64(ph.diskRuns))
	m.set("wal.bytes_max", float64(ph.walBytes))
	m.set("process.allocs_per_op", float64(p1.mallocs-p0.mallocs)/float64(max(ops, 1)))
	m.set("process.gc_cpu_frac", ratio(p1.gcCPU-p0.gcCPU, p1.cpu-p0.cpu))
	m.set("process.write_amp", ratio(float64(p1.wchar-p0.wchar), float64(inserted*userBytes)))
	m.set("process.read_bytes_per_op", float64(p1.rchar-p0.rchar)/float64(max(ops, 1)))
	m.set("trace.overhead_frac", overhead(ph.clients, ph.start, p0.at, p1.at))
	return nil
}

// overhead is the share of throughput the traced slices lost against
// the untraced ones of the same phase.
func overhead(cls []*client, start, from, to time.Time) float64 {
	var traced, all int64
	for _, c := range cls {
		traced += c.tracedOps
		all += c.ops
	}
	// Time spent in traced slices, walked slice by slice.
	var tracedDur time.Duration
	for t := from; t.Before(to); {
		off := t.Sub(start)
		next := start.Add((off/traceSlice + 1) * traceSlice)
		if next.After(to) {
			next = to
		}
		if tracedSlice(off) {
			tracedDur += next.Sub(t)
		}
		t = next
	}
	untracedDur := to.Sub(from) - tracedDur
	if tracedDur <= 0 || untracedDur <= 0 || all == traced {
		return 0
	}
	tracedRate := float64(traced) / tracedDur.Seconds()
	untracedRate := float64(all-traced) / untracedDur.Seconds()
	return (untracedRate - tracedRate) / untracedRate
}

// watchTable waits until done is closed. On a traced durable run it
// samples the table once a second: its sealed run count and its WAL
// bytes.
func watchTable(tab *spatialdb.Table, dir string, w *workload, trace bool, done <-chan struct{}) (runsMax, walMax int64) {
	if !trace || !w.isDurable() {
		<-done
		return 0, 0
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		runsMax = max(runsMax, int64(tab.Stats().DiskRuns))
		if _, wal, err := dirBytes(dir); err == nil {
			walMax = max(walMax, wal)
		}
		select {
		case <-done:
			return runsMax, walMax
		case <-tick.C:
		}
	}
}

// readProc snapshots the process counters the process.* metrics
// difference: allocations, the runtime's CPU estimates, and the bytes
// read and written through syscalls (zero where /proc is unavailable).
func readProc() procStats {
	p := procStats{at: time.Now()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.cpu = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, _ := strings.Cut(line, ": ")
			n, _ := strconv.ParseInt(v, 10, 64)
			switch k {
			case "rchar":
				p.rchar = n
			case "wchar":
				p.wchar = n
			}
		}
	}
	return p
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSink fills a result's metric map, taking units from the
// metric definitions.
type metricSink map[string]metricValue

func (m metricSink) set(name string, v float64) {
	m[name] = metricValue{Value: v, Unit: unitOf(name)}
}
