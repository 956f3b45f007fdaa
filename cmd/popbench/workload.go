package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"popana/internal/geom"
	"popana/internal/spatialdb"
	"popana/internal/xrand"
)

// kind is one operation class of the load mix.
type kind int

const (
	kGet kind = iota
	kGetBatch
	kSelect
	kCount
	kKNN
	// kInsert is one Insert followed by one Delete of the client's
	// oldest record, so the live size stays fixed.
	kInsert
	// kInsertBatch is one InsertBatch of insertBatch records followed by
	// as many Deletes of the client's oldest records.
	kInsertBatch
	numKinds
)

var kindNames = [numKinds]string{"get", "getbatch", "window", "count", "knn", "insert", "insertbatch"}

const (
	clients     = 2   // closed-loop callers; the machine has two cores
	batchProbes = 256 // ids per GetBatch
	insertBatch = 64  // records per InsertBatch
	knnK        = 16
	payloadLen  = 32
	// userBytes is what one record means to its user: id, location and
	// payload. space_amp and process.write_amp divide by it.
	userBytes = 8 + 16 + payloadLen
	// recentIDs bounds the ids a sliding-window client reads back: the
	// newest ones it wrote.
	recentIDs = 16384
)

// tableOpts pins the table shape on every workload: the capacity the
// paper's model is solved for and the 16 shards internal/bench uses.
var tableOpts = spatialdb.TableOptions{Capacity: 8, ShardBits: 2}

// workload is one named traffic mix with its data set. Sizes scale
// together, so tests build the same workloads at a thousandth of the
// size.
type workload struct {
	name, why string
	// records is the live size. A static workload holds exactly these
	// records (plus extra); a sliding one splits them evenly between
	// the clients, each of which inserts new records and deletes its
	// oldest.
	records int
	sliding bool
	// extra holds, for lazy-scan, the sizes of the two delta runs and
	// the WAL tail sealed on top of the compacted base.
	extra [3]int
	// mix is the percentage of ops of each kind; it sums to 100.
	mix [numKinds]int
	// rate is the ops per second the two clients together sustained on
	// the seed commit on a 2-vCPU host. A phase sized to n seconds runs
	// rate×n measured ops, the same count on every build.
	rate    int
	durable spatialdb.DurableOptions // zero Dir: in-memory table
	// points draws record k of an owner's sequence.
	points func(r *xrand.Rand, k int) geom.Point
	// hotspot, when set, centres windows and kNN probes on the path
	// the records follow (k is the client's write position).
	hotspot func(k int) geom.Point
	// getMiss makes 1 in getMiss static Get probes miss; zipf skews
	// static probes towards low ids.
	getMiss int
	zipf    bool
	// Window sides are log-uniform in these ranges. On a workload whose
	// mix has no Select, selectSide sizes the traced run's probe windows.
	selectSide, countSide [2]float64
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"mem-read", "mem-churn", "lazy-scan", "durable-ingest"}

// newWorkload returns the named workload at the given scale: 1 is the
// benchmark, tests use a thousandth.
func newWorkload(name string, scale float64) (*workload, error) {
	n := func(full int) int { return max(int(float64(full)*scale), 64) }
	switch name {
	case "mem-read":
		return &workload{
			name:    name,
			why:     "eager in-memory table on fresh frozen snapshots: linearquad kernels and spatialdb routing do the work, no disk or writes",
			records: n(1 << 20),
			mix:     [numKinds]int{kGet: 40, kGetBatch: 10, kSelect: 20, kCount: 20, kKNN: 10},
			rate:    67000,
			points:  mixedPoints, getMiss: 8,
			selectSide: [2]float64{0.002, 0.02}, countSide: [2]float64{0.01, 0.2},
		}, nil
	case "mem-churn":
		return &workload{
			name:    name,
			why:     "sliding-window writes at a drifting hotspot keep snapshots stale: reads hit live quadtrees under shard locks and FreezeDelta rebuilds recur",
			records: n(1 << 18), sliding: true,
			mix:    [numKinds]int{kInsert: 50, kGet: 30, kCount: 20},
			rate:   64500,
			points: hotspotPoints, hotspot: hotspotCentre,
			selectSide: [2]float64{0.002, 0.01}, countSide: [2]float64{0.005, 0.05},
		}, nil
	case "lazy-scan":
		return &workload{
			name:    name,
			why:     "lazy durable table about 18x its 4 MiB block cache: every read goes through segment readers, the CLOCK cache, merged cursors and prefix filters",
			records: n(1 << 20), extra: [3]int{n(32768), n(32768), n(16384)},
			mix:     [numKinds]int{kGet: 40, kGetBatch: 10, kSelect: 25, kCount: 15, kKNN: 10},
			rate:    1300,
			durable: spatialdb.DurableOptions{Lazy: true},
			points:  mixedPoints, zipf: true,
			selectSide: [2]float64{0.002, 0.02}, countSide: [2]float64{0.005, 0.05},
		}, nil
	case "durable-ingest":
		return &workload{
			name:    name,
			why:     "write-heavy eager durable table: WAL appends, run sealing and background compaction dominate while tombstones pile up",
			records: n(1 << 18), sliding: true,
			mix:        [numKinds]int{kInsert: 81, kInsertBatch: 9, kGet: 5, kCount: 5},
			rate:       12200,
			durable:    spatialdb.DurableOptions{AutoFlush: 16384, CompactAfter: 4},
			points:     uniformPoints,
			selectSide: [2]float64{0.002, 0.02}, countSide: [2]float64{0.01, 0.2},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func (w *workload) isDurable() bool { return w.durable.AutoFlush > 0 || w.durable.Lazy }

func (w *workload) writes() bool { return w.mix[kInsert]+w.mix[kInsertBatch] > 0 }

// mixedPoints is 70% uniform and 30% from 16 Gaussian clusters whose
// centres are fixed, so clustered regions recur across seeds.
func mixedPoints(r *xrand.Rand, _ int) geom.Point {
	if r.Float64() < 0.7 {
		return geom.Pt(r.Float64(), r.Float64())
	}
	c := clusterCentres[r.Intn(len(clusterCentres))]
	return gaussianIn(r, c, 0.01)
}

var clusterCentres = func() []geom.Point {
	r := xrand.New(16)
	out := make([]geom.Point, 16)
	for i := range out {
		out[i] = geom.Pt(0.05+0.9*r.Float64(), 0.05+0.9*r.Float64())
	}
	return out
}()

func uniformPoints(r *xrand.Rand, _ int) geom.Point { return geom.Pt(r.Float64(), r.Float64()) }

// hotspotPeriod is the number of records a client writes while the
// hotspot goes once round its circle, which crosses 12 of the 16
// shard cells.
const hotspotPeriod = 1 << 19

func hotspotCentre(k int) geom.Point {
	a := 2 * math.Pi * float64(k) / hotspotPeriod
	return geom.Pt(0.5+0.3*math.Cos(a), 0.5+0.3*math.Sin(a))
}

func hotspotPoints(r *xrand.Rand, k int) geom.Point {
	return gaussianIn(r, hotspotCentre(k), 0.05)
}

// gaussianIn draws from N(c, sigma²) truncated to the unit square.
func gaussianIn(r *xrand.Rand, c geom.Point, sigma float64) geom.Point {
	for {
		p := geom.Pt(c.X+sigma*r.NormFloat64(), c.Y+sigma*r.NormFloat64())
		if geom.UnitSquare.Contains(p) {
			return p
		}
	}
}

// payloadOf derives a record's 32-byte payload from its id, so a
// checker can recompute it instead of storing it.
func payloadOf(id uint64) []byte {
	b := make([]byte, payloadLen)
	x := id
	for i := 0; i < payloadLen; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}

// owner is one sequence of records: the whole data set of a static
// workload, or one client's stream of a sliding one. Record k has id
// base+k. Once the phase starts only the owning client appends to
// locs; ins and del count completed inserts and deletes, so the live
// records are [del, ins), and other clients read them to bound what a
// concurrent query may see.
type owner struct {
	base     uint64
	rng      *xrand.Rand
	points   func(r *xrand.Rand, k int) geom.Point
	locs     []geom.Point
	ins, del atomic.Int64
}

// grow draws the next record of the sequence.
func (o *owner) grow() spatialdb.Record {
	k := len(o.locs)
	p := o.points(o.rng, k)
	o.locs = append(o.locs, p)
	id := o.base + uint64(k)
	return spatialdb.Record{ID: id, Loc: p, Data: payloadOf(id)}
}

// population is every owner of a workload: what the table should hold.
type population struct {
	owners []*owner
}

// locate maps an id to its owner's index and its sequence index.
func (p *population) locate(id uint64) (i, k int, ok bool) {
	for i, o := range p.owners {
		if id >= o.base && id-o.base < uint64(len(o.locs)) {
			return i, int(id - o.base), true
		}
	}
	return 0, 0, false
}

// liveCount is the number of live records.
func (p *population) liveCount() int {
	n := 0
	for _, o := range p.owners {
		n += int(o.ins.Load() - o.del.Load())
	}
	return n
}

// live returns every live record, owner by owner.
func (p *population) live() []spatialdb.Record {
	var out []spatialdb.Record
	for _, o := range p.owners {
		for k := int(o.del.Load()); k < int(o.ins.Load()); k++ {
			id := o.base + uint64(k)
			out = append(out, spatialdb.Record{ID: id, Loc: o.locs[k], Data: payloadOf(id)})
		}
	}
	return out
}

// dataset is a workload's generated inputs: the population and the
// record batches set-up loads, made before set-up is timed.
type dataset struct {
	pop *population
	// loads are the InsertBatch calls of set-up in order; for lazy-scan
	// each after the first is sealed separately (see setup).
	loads [][]spatialdb.Record
}

// generate draws the workload's data set from the seed.
func (w *workload) generate(seed uint64) *dataset {
	ds := &dataset{pop: &population{}}
	if !w.sliding {
		o := &owner{base: 1, rng: xrand.New(xrand.Derive(seed, 1)), points: w.points}
		sizes := append([]int{w.records}, w.extra[:]...)
		for _, n := range sizes {
			if n == 0 {
				continue
			}
			batch := make([]spatialdb.Record, n)
			for i := range batch {
				batch[i] = o.grow()
			}
			ds.loads = append(ds.loads, batch)
		}
		o.ins.Store(int64(len(o.locs)))
		ds.pop.owners = []*owner{o}
		return ds
	}
	var prefill []spatialdb.Record
	for c := 0; c < clients; c++ {
		o := &owner{
			base:   uint64(c+1) << 40,
			rng:    xrand.New(xrand.Derive(seed, 1, uint64(c+1))),
			points: w.points,
		}
		for i := 0; i < w.records/clients; i++ {
			prefill = append(prefill, o.grow())
		}
		o.ins.Store(int64(len(o.locs)))
		ds.pop.owners = append(ds.pop.owners, o)
	}
	ds.loads = [][]spatialdb.Record{prefill}
	return ds
}

// setup builds the workload's table from the data set; it is the part
// setup_s times. dir is an empty directory for a durable table.
func (w *workload) setup(ds *dataset, dir string) (*spatialdb.Table, error) {
	db := spatialdb.NewDB()
	var tab *spatialdb.Table
	var err error
	if w.isDurable() {
		dopts := w.durable
		dopts.Dir = dir
		tab, err = db.CreateDurableTable("t", tableOpts, dopts)
	} else {
		tab, err = db.CreateTableWith("t", tableOpts)
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*spatialdb.Table, error) {
		tab.Kill()
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	for i, batch := range ds.loads {
		if err := tab.InsertBatch(batch); err != nil {
			return fail(err)
		}
		switch {
		case w.durable.Lazy && i == 0:
			err = tab.CompactDisk() // the base: one compacted full run per shard
		case w.durable.Lazy && i == len(ds.loads)-1:
			// The last batch stays in the WAL tail.
		case w.isDurable():
			err = tab.Flush() // a delta run, or the sealed prefill
		}
		if err != nil {
			return fail(err)
		}
	}
	if !w.isDurable() {
		if err := tab.Compact(); err != nil {
			return fail(err)
		}
	}
	return tab, nil
}

// reopen recovers the durable table killed in dir.
func (w *workload) reopen(dir string) (*spatialdb.Table, error) {
	dopts := w.durable
	dopts.Dir = dir
	return spatialdb.NewDB().OpenDurableTable("t", tableOpts, dopts)
}

// dirBytes sums the sizes of the files in dir, and separately of its
// WAL files.
func dirBytes(dir string) (total, wal int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue // removed by a concurrent compaction
		}
		total += fi.Size()
		if strings.HasSuffix(e.Name(), ".wal") {
			wal += fi.Size()
		}
	}
	return total, wal, nil
}

// op is one generated operation.
type op struct {
	kind  kind
	id    uint64             // kGet
	want  bool               // kGet: whether the id is live
	ids   []uint64           // kGetBatch; owned by the generator
	wants []bool             // kGetBatch
	win   geom.Rect          // kSelect, kCount
	at    geom.Point         // kKNN
	recs  []spatialdb.Record // kInsert, kInsertBatch: records to insert
	// oldest is the sequence index of the first record to delete after
	// the insert.
	oldest int
}

// clientGen is one client's deterministic op stream.
type clientGen struct {
	w     *workload
	pop   *population
	own   *owner // sliding: the client's record sequence
	rng   *xrand.Rand
	zipf  *zipfian
	ids   []uint64
	wants []bool
	recs  []spatialdb.Record
	// ins and del are the planned write positions; they run ahead of
	// own.ins/own.del by the op being executed.
	ins, del int
}

func newClientGen(w *workload, pop *population, seed uint64, c int) *clientGen {
	g := &clientGen{
		w:     w,
		pop:   pop,
		rng:   xrand.New(xrand.Derive(seed, 2, uint64(c+1))),
		ids:   make([]uint64, batchProbes),
		wants: make([]bool, batchProbes),
		recs:  make([]spatialdb.Record, insertBatch),
	}
	if w.sliding {
		g.own = pop.owners[c%clients]
		g.ins, g.del = int(g.own.ins.Load()), int(g.own.del.Load())
	}
	if w.zipf {
		g.zipf = newZipfian(len(pop.owners[0].locs), zipfTheta)
	}
	return g
}

// zipfTheta is the skew of Zipf-distributed ids: YCSB's default request
// distribution, the usual model of a store whose few hot records are
// read far more often than the cold bulk.
const zipfTheta = 0.99

// zipfian draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^theta by the method of
// Gray et al., "Quickly generating billion-record synthetic databases"
// (SIGMOD 1994), which YCSB uses; unlike math/rand's Zipf it allows
// theta < 1.
type zipfian struct {
	n, alpha, eta, zetan, half float64
}

func newZipfian(n int, theta float64) *zipfian {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += math.Pow(float64(i), -theta)
	}
	zeta2 := 1 + math.Pow(2, -theta)
	return &zipfian{
		n: float64(n), alpha: 1 / (1 - theta), zetan: zetan, half: 1 + math.Pow(0.5, theta),
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
	}
}

// rank maps a uniform u in [0, 1) to a rank.
func (z *zipfian) rank(u float64) uint64 {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	return min(uint64(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), uint64(z.n)-1)
}

func (g *clientGen) next() op {
	o := op{kind: g.pick()}
	switch o.kind {
	case kGet:
		o.id, o.want = g.probe()
	case kGetBatch:
		for i := range g.ids {
			g.ids[i], g.wants[i] = g.probe()
		}
		o.ids, o.wants = g.ids, g.wants
	case kSelect:
		o.win = g.window(g.w.selectSide)
	case kCount:
		o.win = g.window(g.w.countSide)
	case kKNN:
		o.at = g.centre()
	case kInsert, kInsertBatch:
		n := 1
		if o.kind == kInsertBatch {
			n = insertBatch
		}
		o.recs = g.recs[:n]
		for i := range o.recs {
			o.recs[i] = g.own.grow()
		}
		o.oldest = g.del
		g.ins += n
		g.del += n
	}
	return o
}

func (g *clientGen) pick() kind {
	x := g.rng.Intn(100)
	for k, pct := range g.w.mix {
		if x < pct {
			return kind(k)
		}
		x -= pct
	}
	panic("popbench: op mix does not sum to 100")
}

// probe draws an id to look up and whether it should be found.
func (g *clientGen) probe() (uint64, bool) {
	if g.own != nil {
		live := min(g.ins-g.del, recentIDs)
		return g.own.base + uint64(g.ins-1-g.rng.Intn(live)), true
	}
	o := g.pop.owners[0]
	n := len(o.locs)
	switch {
	case g.zipf != nil:
		return o.base + g.zipf.rank(g.rng.Float64()), true
	case g.w.getMiss > 0 && g.rng.Intn(g.w.getMiss) == 0:
		return o.base + uint64(n+g.rng.Intn(n)), false
	}
	return o.base + uint64(g.rng.Intn(n)), true
}

// centre draws a query point: near the hotspot when there is one.
func (g *clientGen) centre() geom.Point {
	if g.w.hotspot != nil {
		return gaussianIn(g.rng, g.w.hotspot(g.ins), 0.05)
	}
	return geom.Pt(g.rng.Float64(), g.rng.Float64())
}

// window draws a square window with a log-uniform side in [lo, hi],
// inside the unit square.
func (g *clientGen) window(side [2]float64) geom.Rect {
	s := side[0] * math.Pow(side[1]/side[0], g.rng.Float64())
	if g.w.hotspot == nil {
		x, y := g.rng.Float64()*(1-s), g.rng.Float64()*(1-s)
		return geom.R(x, y, x+s, y+s)
	}
	c := g.centre()
	x := min(max(c.X-s/2, 0), 1-s)
	y := min(max(c.Y-s/2, 0), 1-s)
	return geom.R(x, y, x+s, y+s)
}
