package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"popana/internal/core"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
	"popana/internal/segment"
	"popana/internal/solver"
	"popana/internal/spatialdb"
	"popana/internal/wal"
	"popana/internal/xrand"
)

// The replay re-runs the traced requests on each layer's public API,
// over structures built from the workload's own records: per-shard
// quadtrees and their frozen snapshots, sealed runs (the lazy table's
// own files, or runs written from the snapshots), a scratch WAL, and
// the population model. Every layer sees every workload, so a layer
// metric that should stay flat on a workload is measured there too.

// The replay copies three private choices of spatialdb; a test
// (TestReplayMirrorsSpatialdb) fails when any of them drifts.

// dirtyLevel mirrors the grid level of spatialdb's per-shard dirty
// bitmap, so replayed snapshot rebuilds splice what the table's would.
const dirtyLevel = 6

// rebuildEvery mirrors spatialdb.DefaultSnapshotThreshold: a shard's
// snapshot is rebuilt once it has absorbed this many mutations.
const rebuildEvery = spatialdb.DefaultSnapshotThreshold

// walPayload is the size of one Insert's WAL frame payload: an op
// byte, id, location, the payload's length, and the payload with its
// codec byte.
const walPayload = 1 + 8 + 16 + 4 + 1 + payloadLen

// runPayload is a record payload as a sealed run stores it: a codec
// byte marking a []byte, then the bytes.
func runPayload(data []byte) []byte { return append([]byte{1}, data...) }

// replica is one shard rebuilt from the workload's records.
type replica struct {
	cell   geom.Rect
	coder  linearquad.CellCoder
	tree   *quadtree.Tree[spatialdb.Record]
	frozen *linearquad.Frozen[spatialdb.Record]
	dirty  *linearquad.Dirty
	marks  int
	runs   []*segment.Reader // serving stack, oldest first
}

type tracer struct {
	w       *workload
	pop     *population
	dir     string // the table's directory, when durable
	scratch string
	samples []*sample
	spans   []span // the phase's spans; replay spans are added
	walCopy string // a copy of the killed table's largest WAL, if any
	seed    uint64
	epoch   time.Time
	m       metricSink

	buf      *spanBuf
	durs     map[string][]float64
	shards   []*replica
	cache    *segment.Cache
	pruned   int
	consult  int
	lqs      linearquad.Scratch
	serving  string
	runsMax  int
	writeMS  float64
	writeMiB float64
}

// servingLayer is the layer that answers the table's reads on a
// workload; replays on it are children of the table's spans.
func servingLayer(w *workload) string {
	switch {
	case w.durable.Lazy:
		return "segment"
	case w.writes():
		return "quadtree"
	}
	return "linearquad"
}

func (t *tracer) replay() error {
	if err := os.RemoveAll(t.scratch); err != nil {
		return err
	}
	if err := os.MkdirAll(t.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(t.scratch)
	capacity := 1 << 14
	for _, s := range t.samples {
		capacity += 8 + len(s.writes) + len(s.deletes)
	}
	t.buf = newSpanBuf(t.epoch, uint64(clients+2)<<56, capacity) // ids above the clients' and the prober's
	t.durs = map[string][]float64{}
	t.serving = servingLayer(t.w)

	t.solve()
	if err := t.build(); err != nil {
		return err
	}
	if err := t.openRuns(); err != nil {
		return err
	}
	defer func() {
		for _, r := range t.shards {
			for _, rd := range r.runs {
				rd.Close()
			}
		}
	}()
	if err := t.warm(); err != nil {
		return err
	}
	cs := t.cache.Stats()
	t.m.set("segment.cache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	t.m.set("segment.filter_prune_ratio", ratio(float64(t.pruned), float64(t.pruned+t.consult)))
	for _, layer := range []string{"linearquad", "quadtree", "segment"} {
		if err := t.replayReads(layer); err != nil {
			return err
		}
	}
	for _, s := range t.samples {
		if s.op.kind == kInsert || s.op.kind == kInsertBatch {
			t.replayWrites(s)
		}
	}
	if !t.w.writes() {
		t.syntheticWrites()
	}
	if err := t.blocks(); err != nil {
		return err
	}
	if err := t.wal(); err != nil {
		return err
	}
	t.spans = append(t.spans, t.buf.spans...)
	t.metrics()
	return nil
}

// rec records a replay span and its duration.
func (t *tracer) rec(name string, req, parent uint64, t0, t1 time.Time) {
	t.buf.add(name, req, parent, t0, t1)
	t.durs[name] = append(t.durs[name], float64(t1.Sub(t0).Nanoseconds()))
}

// parentIf links a replay to its table span when layer served it.
func (t *tracer) parentIf(layer string, id uint64) uint64 {
	if layer == t.serving {
		return id
	}
	return 0
}

// solve times the population-model solve a table's creation runs
// (spatialdb caches it per process, so only the first set-up pays it);
// the result itself is not needed.
func (t *tracer) solve() {
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if model, err := core.NewPointModel(tableOpts.Capacity, 4); err == nil {
			_, _, _ = model.SolveLadder(solver.LadderConfig{})
		}
		t.rec("core.solve", 0, 0, t0, time.Now())
	}
}

// build partitions the live records into the table's shards, bulk
// loads a quadtree per shard and freezes it three times.
func (t *tracer) build() error {
	bits := tableOpts.ShardBits
	n := 1 << (2 * bits)
	pts := make([][]geom.Point, n)
	vals := make([][]spatialdb.Record, n)
	for _, r := range t.pop.live() {
		si := geom.UnitSquare.CellOf(r.Loc, bits)
		pts[si] = append(pts[si], r.Loc)
		vals[si] = append(vals[si], r)
	}
	t.shards = make([]*replica, n)
	for si := range t.shards {
		cell := geom.UnitSquare.Cell(uint64(si), bits)
		tree, err := quadtree.New[spatialdb.Record](quadtree.Config{
			Capacity: tableOpts.Capacity, Region: cell, MaxDepth: quadtree.DefaultMaxDepth - bits,
		})
		if err != nil {
			return err
		}
		if _, err := tree.BulkLoad(pts[si], vals[si]); err != nil {
			return err
		}
		t.shards[si] = &replica{
			cell: cell, tree: tree, dirty: linearquad.NewDirty(dirtyLevel),
			coder: linearquad.NewCellCoder(cell, linearquad.MaxDepth),
		}
	}
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, r := range t.shards {
			f, err := linearquad.Freeze(r.tree)
			if err != nil {
				return err
			}
			r.frozen = f
		}
		t.rec("linearquad.freeze", 0, 0, t0, time.Now())
	}
	return nil
}

// openRuns writes one full run per shard from the frozen snapshots —
// timing the writes — and opens the serving stacks behind one cache of
// the table's budget: the lazy table's own runs when there are any,
// otherwise the runs just written.
func (t *tracer) openRuns() error {
	paths := make([][]string, len(t.shards))
	for si, r := range t.shards {
		path := filepath.Join(t.scratch, fmt.Sprintf("replay-%d.seg", si))
		xs, ys := r.frozen.XYs()
		vals := r.frozen.Values()
		entries := make([]segment.Entry, len(xs))
		for i := range xs {
			data, _ := vals[i].Data.([]byte)
			entries[i] = segment.Entry{
				Code: r.coder.Code(geom.Pt(xs[i], ys[i])), ID: vals[i].ID, X: xs[i], Y: ys[i],
				Payload: runPayload(data),
			}
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].Less(entries[b]) })
		meta := segment.Meta{Kind: segment.Full, Shard: uint32(si), Seq: 1, Region: r.cell, Depth: linearquad.MaxDepth}
		t0 := time.Now()
		if err := segment.Write(path, meta, nil, nil, entries, nil); err != nil {
			return err
		}
		t1 := time.Now()
		t.buf.add("segment.write", 0, 0, t0, t1)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		t.writeMS += float64(t1.Sub(t0).Nanoseconds()) / 1e6
		t.writeMiB += float64(fi.Size()) / (1 << 20)
		paths[si] = []string{path}
	}
	if t.w.isDurable() {
		own, err := tableRuns(t.dir, len(t.shards))
		if err != nil {
			return err
		}
		for si, ps := range own {
			t.runsMax = max(t.runsMax, len(ps))
			if t.w.durable.Lazy {
				paths[si] = servingStack(ps)
			}
		}
	}
	t.cache = segment.NewCache(spatialdb.DefaultCacheBytes)
	for si, ps := range paths {
		for _, p := range ps {
			rd, err := segment.OpenReader(p)
			if err != nil {
				return err
			}
			rd.SetCache(t.cache)
			t.shards[si].runs = append(t.shards[si].runs, rd)
		}
	}
	return nil
}

// tableRuns lists a durable table's run files per shard, by sequence.
func tableRuns(dir string, shards int) ([][]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([][]string, shards)
	for _, e := range entries { // ReadDir sorts by name; names embed the zero-padded sequence
		var si int
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "run-%d-%d.seg", &si, &seq); n == 2 && si >= 0 && si < shards {
			out[si] = append(out[si], filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// servingStack trims a shard's runs to the newest full run onward, the
// stack a lazy table serves from.
func servingStack(paths []string) []string {
	start := 0
	for i, p := range paths {
		if m, err := segment.ReadMeta(p); err == nil && m.Kind == segment.Full {
			start = i
		}
	}
	return paths[start:]
}

// warm runs the sampled reads through the run stacks once, untimed,
// starting from an empty cache of the table's budget: the hit and
// prune ratios come from this pass. The timed replays that follow find
// their blocks cached, so segment.find_ns and segment.seek_us are the
// layer's own work; what a miss costs is segment.block_miss_us.
func (t *tracer) warm() error {
	for _, s := range t.samples {
		for _, p := range s.probeLoc {
			if err := t.find(t.shardOf(p), p); err != nil {
				return err
			}
		}
		if s.op.kind != kSelect && s.op.kind != kCount {
			continue
		}
		for _, r := range t.shards {
			if r.cell.OverlapsClosed(s.op.win) {
				if err := t.seek(r, s.op.win); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (t *tracer) shardOf(p geom.Point) *replica {
	return t.shards[geom.UnitSquare.CellOf(p, tableOpts.ShardBits)]
}

// spanName names a replay span: the layer and the operation, where the
// segment layer's lookup is a find and its window walks are seeks.
func spanName(layer, op string) string {
	if layer == "segment" {
		switch op {
		case "get":
			return "segment.find"
		case "count", "range":
			return "segment.seek"
		}
	}
	return layer + "." + op
}

// replayReads re-runs every traced read on one layer. Layers are
// replayed one after another, each over all the requests, so a pass
// keeps its own working set warm as the phase kept the table's.
func (t *tracer) replayReads(layer string) error {
	var out []spatialdb.Record
	collect := func(_ geom.Point, v spatialdb.Record) bool { out = append(out, v); return true }
	vals := make([]spatialdb.Record, batchProbes)
	found := make([]bool, batchProbes)
	for _, s := range t.samples {
		if len(s.spanIDs) == 0 || s.spanIDs[0] == 0 {
			continue // the span buffer was full
		}
		parent := t.parentIf(layer, s.spanIDs[0])
		var err error
		switch s.op.kind {
		case kGet, kGetBatch:
			if len(s.probeLoc) == 0 {
				continue // a miss never reaches a layer below spatialdb
			}
			groups := make([][]geom.Point, len(t.shards))
			for _, p := range s.probeLoc {
				si := geom.UnitSquare.CellOf(p, tableOpts.ShardBits)
				groups[si] = append(groups[si], p)
			}
			t0 := time.Now()
			for si, g := range groups {
				r := t.shards[si]
				switch {
				case len(g) == 0:
				case layer == "linearquad" && s.op.kind == kGetBatch:
					r.frozen.GetBatch(&t.lqs, g, vals[:len(g)], found[:len(g)])
				case layer == "linearquad":
					r.frozen.Get(g[0])
				case layer == "quadtree":
					for _, p := range g {
						r.tree.Get(p)
					}
				default:
					for _, p := range g {
						if err == nil {
							err = t.find(r, p)
						}
					}
				}
			}
			t1 := time.Now()
			op := "get"
			if s.op.kind == kGetBatch {
				op = "getbatch"
				t.durs[layer+".getbatch_per_probe"] = append(t.durs[layer+".getbatch_per_probe"],
					float64(t1.Sub(t0).Nanoseconds())/float64(len(s.probeLoc)))
			}
			t.rec(spanName(layer, op), s.req, parent, t0, t1)
		case kSelect, kCount:
			w, count := s.op.win, s.op.kind == kCount
			var over []*replica
			for _, r := range t.shards {
				if r.cell.OverlapsClosed(w) {
					over = append(over, r)
				}
			}
			out = out[:0]
			t0 := time.Now()
			for _, r := range over {
				switch {
				case layer == "linearquad" && count:
					r.frozen.CountRange(w)
				case layer == "linearquad":
					r.frozen.Range(w, collect)
				case layer == "quadtree" && count:
					r.tree.CountRange(w)
				case layer == "quadtree":
					r.tree.Range(w, collect)
				case err == nil:
					err = t.seek(r, w)
				}
			}
			t1 := time.Now()
			op := "range"
			if count {
				op = "count"
			}
			t.rec(spanName(layer, op), s.req, parent, t0, t1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// find looks a point up the way a lazy Get does below the tail: the
// run stack newest first, each run's prefix filter before its blocks.
func (t *tracer) find(r *replica, p geom.Point) error {
	code := r.coder.Code(p)
	for i := len(r.runs) - 1; i >= 0; i-- {
		if !r.runs[i].MayContain(code) {
			t.pruned++
			continue
		}
		t.consult++
		_, ok, err := r.runs[i].Find(code, p.X, p.Y)
		if err != nil || ok {
			return err
		}
	}
	return nil
}

// seek walks one shard's runs over a window the way a lazy scan does:
// prefix filters over the window's Z-interval, a merged cursor over the
// admitted runs, SeekGE to the interval's start, and BIGMIN jumps past
// cells outside the window.
func (t *tracer) seek(r *replica, w geom.Rect) error {
	zmin := r.coder.Code(geom.Pt(w.MinX, w.MinY))
	zmax := r.coder.Code(geom.Pt(w.MaxX, w.MaxY))
	cxmin, cymin := linearquad.Deinterleave(zmin)
	cxmax, cymax := linearquad.Deinterleave(zmax)
	var cursors []segment.EntryCursor
	for _, rd := range r.runs {
		if !rd.MayContainRange(zmin, zmax) {
			t.pruned++
			continue
		}
		t.consult++
		cursors = append(cursors, rd.Cursor())
	}
	m := segment.NewMergedCursor(cursors...)
	e, ok, err := m.SeekGE(zmin)
	for err == nil && ok && e.Code <= zmax {
		cx, cy := linearquad.Deinterleave(e.Code)
		if cx >= cxmin && cx <= cxmax && cy >= cymin && cy <= cymax {
			e, ok, err = m.Next()
			continue
		}
		next, inside := linearquad.BigMin(e.Code, zmin, zmax)
		if !inside {
			break
		}
		e, ok, err = m.SeekGE(next)
	}
	return err
}

// replayWrites re-applies a traced write's inserts and deletes to the
// replica trees, timing each one and restoring the tree after it, and
// rebuilds a shard's snapshot incrementally whenever it has absorbed
// rebuildEvery mutations, as the table does.
func (t *tracer) replayWrites(s *sample) {
	eager := !t.w.durable.Lazy
	for _, p := range s.writes {
		parent := uint64(0)
		if eager {
			parent = s.spanIDs[0]
		}
		t.mutate(p, true, s.req, parent)
	}
	for j, p := range s.deletes {
		parent := uint64(0)
		if eager && 1+j < len(s.spanIDs) {
			parent = s.spanIDs[1+j]
		}
		t.mutate(p, false, s.req, parent)
	}
}

// mutate times one insert (or delete) of p in its replica tree. The
// tree is first brought to the state the op needs and afterwards
// restored, untimed, so the replica keeps the workload's final records.
func (t *tracer) mutate(p geom.Point, insert bool, req, parent uint64) {
	r := t.shardOf(p)
	rec := spatialdb.Record{Loc: p}
	present := r.tree.Contains(p)
	if insert && present {
		r.tree.Delete(p)
	} else if !insert && !present {
		_, _ = r.tree.Insert(p, rec)
	}
	t0 := time.Now()
	if insert {
		_, _ = r.tree.Insert(p, rec)
		t.rec("quadtree.insert", req, parent, t0, time.Now())
	} else {
		r.tree.Delete(p)
		t.rec("quadtree.delete", req, parent, t0, time.Now())
	}
	if insert && !present {
		r.tree.Delete(p)
	} else if !insert && present {
		_, _ = r.tree.Insert(p, rec)
	}
	r.dirty.Mark(r.coder.Code(p) >> uint(2*(linearquad.MaxDepth-dirtyLevel)))
	if r.marks++; r.marks >= rebuildEvery {
		t0 := time.Now()
		if f, err := linearquad.FreezeDelta(r.tree, r.frozen, r.dirty); err == nil {
			r.frozen = f
		}
		t.rec("linearquad.freeze_delta", req, 0, t0, time.Now())
		r.dirty.Reset()
		r.marks = 0
	}
}

// syntheticWrites gives a read-only workload's write-path layers
// something to measure: 1024 inserts of fresh points from the
// workload's own distribution, each deleted again.
func (t *tracer) syntheticWrites() {
	rng := xrand.New(xrand.Derive(t.seed, 5))
	for i := 0; i < 1024; i++ {
		p := t.w.points(rng, i)
		t.mutate(p, true, 0, 0)
		t.mutate(p, false, 0, 0)
	}
}

// blocks times single block reads on the serving runs: each drawn
// block is read once right after the cache is dropped and once again
// from the cache.
func (t *tracer) blocks() error {
	rng := xrand.New(xrand.Derive(t.seed, 6))
	var runs []*segment.Reader
	for _, r := range t.shards {
		for _, rd := range r.runs {
			if rd.NumBlocks() > 0 {
				runs = append(runs, rd)
			}
		}
	}
	if len(runs) == 0 {
		return nil
	}
	for i := 0; i < 256; i++ {
		rd := runs[rng.Intn(len(runs))]
		bi := rng.Intn(rd.NumBlocks())
		t.cache.Drop()
		t0 := time.Now()
		if _, err := rd.Block(bi); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := rd.Block(bi); err != nil {
			return err
		}
		t2 := time.Now()
		t.rec("segment.block_miss", 0, 0, t0, t1)
		t.rec("segment.block_hit", 0, 0, t1, t2)
	}
	return nil
}

// wal drives a scratch log with record-sized frames, syncing every 256
// appends, then times a full fold of the killed table's largest WAL
// (or of the scratch log when the workload has none).
func (t *tracer) wal() error {
	path := filepath.Join(t.scratch, "replay.wal")
	l, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, walPayload)
	for i := 0; i < 4096; i++ {
		t0 := time.Now()
		if err := l.Append(payload); err != nil {
			l.Close()
			return err
		}
		t.rec("wal.append", 0, 0, t0, time.Now())
		if (i+1)%256 == 0 {
			t0 := time.Now()
			if err := l.Sync(); err != nil {
				l.Close()
				return err
			}
			t.rec("wal.sync", 0, 0, t0, time.Now())
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	if t.walCopy != "" {
		if fi, err := os.Stat(t.walCopy); err == nil && fi.Size() > 0 {
			path = t.walCopy
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fl, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	defer fl.Close()
	t0 := time.Now()
	if _, err := fl.Fold(func([]byte) error { return nil }); err != nil {
		return err
	}
	t1 := time.Now()
	t.buf.add("wal.fold", 0, 0, t0, t1)
	t.m.set("wal.fold_ms_per_mib", float64(t1.Sub(t0).Nanoseconds())/1e6/(float64(fi.Size())/(1<<20)))
	return nil
}

// copyLargestWAL copies the killed table's largest shard WAL into dst,
// so the fold replay reads the table's real log without touching it.
func copyLargestWAL(dir, dst string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var best string
	var size int64 = -1
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && filepath.Ext(e.Name()) == ".wal" && e.Name() != "batches.wal" && fi.Size() > size {
			best, size = e.Name(), fi.Size()
		}
	}
	if best == "" {
		return "", nil
	}
	in, err := os.Open(filepath.Join(dir, best))
	if err != nil {
		return "", err
	}
	defer in.Close()
	path := filepath.Join(dst, "killed-"+best)
	out, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}

// metrics derives the per-layer metrics from the traced samples and the
// replay durations.
func (t *tracer) metrics() {
	md := func(name string) float64 { return median(t.durs[name]) }
	child := childTime(t.spans)
	var getRes, countRes, winRes, batchNS, nodes, leaves, perBlock, blockErr []float64
	var scanned, results float64
	for _, s := range t.samples {
		if len(s.spanIDs) == 0 {
			continue
		}
		c, linked := child[s.spanIDs[0]]
		v := s.durNS - c
		switch s.op.kind {
		case kGet:
			if linked {
				getRes = append(getRes, float64(v))
			}
		case kGetBatch:
			batchNS = append(batchNS, float64(s.durNS)/float64(len(s.op.ids)))
		case kSelect, kCount:
			if linked && s.op.kind == kCount {
				countRes = append(countRes, float64(v))
			} else if linked {
				winRes = append(winRes, float64(v))
			}
			if s.op.kind == kCount {
				nodes = append(nodes, float64(s.cost.NodesVisited))
			} else if s.blocks > 0 {
				perBlock = append(perBlock, float64(s.durNS)/s.blocks)
			}
			leaves = append(leaves, float64(s.cost.LeavesVisited))
			scanned += float64(s.cost.RecordsScanned)
			results += float64(s.count)
			if l := float64(s.cost.LeavesVisited); l > 0 {
				blockErr = append(blockErr, math.Abs(s.blocks-l)/l)
			}
		}
	}
	m := t.m
	m.set("spatialdb.get_residue_ns", median(getRes))
	m.set("spatialdb.count_residue_ns", median(countRes))
	m.set("spatialdb.window_residue_ns", median(winRes))
	m.set("spatialdb.getbatch_ns_per_probe", median(batchNS))
	m.set("spatialdb.nodes_per_count", median(nodes))
	m.set("spatialdb.scanned_per_result", ratio(scanned, results))
	m.set("spatialdb.blocks_per_window", median(leaves))
	m.set("spatialdb.ns_per_predicted_block", median(perBlock))
	m.set("core.solve_ms", md("core.solve")/1e6)
	m.set("core.explain_block_error", median(blockErr))
	m.set("linearquad.get_ns", md("linearquad.get"))
	m.set("linearquad.count_ns", md("linearquad.count"))
	m.set("linearquad.range_ns", md("linearquad.range"))
	m.set("linearquad.getbatch_ns_per_probe", md("linearquad.getbatch_per_probe"))
	m.set("linearquad.freeze_ms", md("linearquad.freeze")/1e6)
	m.set("linearquad.freeze_delta_ms", md("linearquad.freeze_delta")/1e6)
	m.set("quadtree.insert_ns", md("quadtree.insert"))
	m.set("quadtree.delete_ns", md("quadtree.delete"))
	m.set("quadtree.get_ns", md("quadtree.get"))
	m.set("quadtree.count_ns", md("quadtree.count"))
	m.set("segment.find_ns", md("segment.find"))
	m.set("segment.block_hit_ns", md("segment.block_hit"))
	m.set("segment.block_miss_us", md("segment.block_miss")/1e3)
	m.set("segment.seek_us", md("segment.seek")/1e3)
	m.set("segment.write_ms_per_mib", ratio(t.writeMS, t.writeMiB))
	m.set("segment.runs_per_shard_max", float64(t.runsMax))
	m.set("wal.append_ns", md("wal.append"))
	m.set("wal.sync_ms", md("wal.sync")/1e6)
}
