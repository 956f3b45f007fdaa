package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"popana/internal/geom"
	"popana/internal/segment"
	"popana/internal/spatialdb"
	"popana/internal/wal"
)

// The replay copies private choices of spatialdb: the dirty bitmap's
// grid level, the run payload codec, the Insert WAL frame size and the
// run file names. This test fails when the table stops making them.
func TestReplayMirrorsSpatialdb(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "internal", "spatialdb", "shard.go"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("const dirtyLevel = %d\n", dirtyLevel); !bytes.Contains(src, []byte(want)) {
		m := regexp.MustCompile(`const dirtyLevel = .*`).Find(src)
		t.Errorf("spatialdb's dirty level is %q, the replay assumes %q", m, want)
	}

	dir := t.TempDir()
	tab, err := spatialdb.NewDB().CreateDurableTable("t", tableOpts, spatialdb.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := spatialdb.Record{ID: 7, Loc: geom.Pt(0.3, 0.6), Data: payloadOf(7)}
	if err := tab.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(spatialdb.Record{ID: 8, Loc: geom.Pt(0.7, 0.2), Data: payloadOf(8)}); err != nil {
		t.Fatal(err)
	}
	tab.Kill()

	runs, err := tableRuns(dir, 1<<(2*tableOpts.ShardBits))
	if err != nil {
		t.Fatal(err)
	}
	shard := geom.UnitSquare.CellOf(rec.Loc, tableOpts.ShardBits)
	if len(runs[shard]) != 1 {
		t.Fatalf("shard %d has runs %v, want one", shard, runs[shard])
	}
	rd, err := segment.OpenReader(runs[shard][0])
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	es, err := rd.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || !bytes.Equal(es[0].Payload, runPayload(payloadOf(7))) {
		t.Errorf("the run stores %x, the replay writes %x", es[0].Payload, runPayload(payloadOf(7)))
	}

	logs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	for _, path := range logs {
		l, err := wal.Open(path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Fold(func(p []byte) error { frames = append(frames, len(p)); return nil }); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if len(frames) != 1 || frames[0] != walPayload {
		t.Errorf("the table's WAL holds frames of %v bytes after one Insert, the replay appends %d", frames, walPayload)
	}
}
