package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"popana/internal/geom"
	"popana/internal/spatialdb"
	"popana/internal/xrand"
)

// The oracle is brute force over the population: every answer is
// recomputed by scanning each owner's records in the range the sample's
// view allows. With concurrent writers a query may see any state
// between what was committed before it started and what could have
// been committed by the time it ended, so a count must lie between the
// two scans' counts, a window must return every surely-live match and
// nothing that was never live, and the i-th nearest distance must lie
// between the i-th nearest of the two sets.

// check verifies one sampled answer.
func (p *population) check(s *sample) error {
	switch s.op.kind {
	case kGet, kGetBatch:
		for i, id := range s.op.ids {
			if err := p.checkGet(s.view, id, s.found[i], s.recs[i]); err != nil {
				return err
			}
		}
	case kSelect:
		return p.checkWindow(s.view, s.op.win, s.recs)
	case kCount:
		lo, hi := p.countIn(s.view, s.op.win)
		if s.count < lo || s.count > hi {
			return fmt.Errorf("count %v = %d, want within [%d, %d]", s.op.win, s.count, lo, hi)
		}
	case kKNN:
		return p.checkNearest(s.view, s.op.at, s.recs)
	}
	return nil
}

// ranges returns owner i's sure and maybe ranges, clamped to the
// records it has.
func (p *population) ranges(v []liveView, i int) (sureLo, sureHi, maybeLo, maybeHi int) {
	n := len(p.owners[i].locs)
	c := func(x int) int { return min(max(x, 0), n) }
	return c(v[i].sureLo), c(v[i].sureHi), c(v[i].maybeLo), c(v[i].maybeHi)
}

// checkRecord verifies that rec is record k of owner i, intact.
func (p *population) checkRecord(rec spatialdb.Record) (i, k int, err error) {
	i, k, ok := p.locate(rec.ID)
	if !ok {
		return 0, 0, fmt.Errorf("record %d was never written", rec.ID)
	}
	if want := p.owners[i].locs[k]; rec.Loc != want {
		return 0, 0, fmt.Errorf("record %d at %v, want %v", rec.ID, rec.Loc, want)
	}
	if data, _ := rec.Data.([]byte); !bytes.Equal(data, payloadOf(rec.ID)) {
		return 0, 0, fmt.Errorf("record %d: payload %x differs", rec.ID, data)
	}
	return i, k, nil
}

func (p *population) checkGet(v []liveView, id uint64, found bool, rec spatialdb.Record) error {
	if found {
		if rec.ID != id {
			return fmt.Errorf("get %d returned record %d", id, rec.ID)
		}
		i, k, err := p.checkRecord(rec)
		if err != nil {
			return err
		}
		if _, _, lo, hi := p.ranges(v, i); k < lo || k >= hi {
			return fmt.Errorf("get %d found a record that was not live", id)
		}
		return nil
	}
	if i, k, ok := p.locate(id); ok {
		if lo, hi, _, _ := p.ranges(v, i); k >= lo && k < hi {
			return fmt.Errorf("get %d missed a live record", id)
		}
	}
	return nil
}

// countIn counts the window's surely-live and possibly-live records.
func (p *population) countIn(v []liveView, win geom.Rect) (lo, hi int) {
	for i, o := range p.owners {
		sl, sh, ml, mh := p.ranges(v, i)
		for k := ml; k < mh; k++ {
			if win.ContainsClosed(o.locs[k]) {
				hi++
				if k >= sl && k < sh {
					lo++
				}
			}
		}
	}
	return lo, hi
}

func (p *population) checkWindow(v []liveView, win geom.Rect, recs []spatialdb.Record) error {
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		i, k, err := p.checkRecord(r)
		if err != nil {
			return err
		}
		if _, _, ml, mh := p.ranges(v, i); k < ml || k >= mh {
			return fmt.Errorf("window %v returned record %d that was not live", win, r.ID)
		}
		if !win.ContainsClosed(r.Loc) {
			return fmt.Errorf("window %v returned record %d at %v outside it", win, r.ID, r.Loc)
		}
		if seen[r.ID] {
			return fmt.Errorf("window %v returned record %d twice", win, r.ID)
		}
		seen[r.ID] = true
	}
	for i, o := range p.owners {
		sl, sh, _, _ := p.ranges(v, i)
		for k := sl; k < sh; k++ {
			if win.ContainsClosed(o.locs[k]) && !seen[o.base+uint64(k)] {
				return fmt.Errorf("window %v missed live record %d", win, o.base+uint64(k))
			}
		}
	}
	return nil
}

func (p *population) checkNearest(v []liveView, at geom.Point, recs []spatialdb.Record) error {
	if len(recs) > knnK {
		return fmt.Errorf("nearest %v returned %d records, want at most %d", at, len(recs), knnK)
	}
	got := make([]float64, len(recs))
	seen := make(map[uint64]bool, len(recs))
	for j, r := range recs {
		i, k, err := p.checkRecord(r)
		if err != nil {
			return err
		}
		if _, _, ml, mh := p.ranges(v, i); k < ml || k >= mh || seen[r.ID] {
			return fmt.Errorf("nearest %v returned record %d that was not live or twice", at, r.ID)
		}
		seen[r.ID] = true
		got[j] = r.Loc.Dist2(at)
	}
	sure, maybe := p.nearest(v, at)
	if len(recs) < len(sure) {
		return fmt.Errorf("nearest %v returned %d records, at least %d were live", at, len(recs), len(sure))
	}
	for j, d := range got {
		if j > 0 && d < got[j-1] {
			return errors.New("nearest results are not ordered by distance")
		}
		if d < maybe[j] || j < len(sure) && d > sure[j] {
			return fmt.Errorf("nearest %v: distance² %g at rank %d is not a possible %d-th nearest", at, d, j, j+1)
		}
	}
	return nil
}

// nearest returns the knnK smallest squared distances from at over the
// surely-live and the possibly-live records, ascending.
func (p *population) nearest(v []liveView, at geom.Point) (sure, maybe []float64) {
	for i, o := range p.owners {
		sl, sh, ml, mh := p.ranges(v, i)
		for k := ml; k < mh; k++ {
			d := o.locs[k].Dist2(at)
			maybe = keepSmallest(maybe, d)
			if k >= sl && k < sh {
				sure = keepSmallest(sure, d)
			}
		}
	}
	return sure, maybe
}

// keepSmallest inserts d into the ascending list xs of at most knnK.
func keepSmallest(xs []float64, d float64) []float64 {
	if len(xs) == knnK && d >= xs[knnK-1] {
		return xs
	}
	i := sort.SearchFloat64s(xs, d)
	if len(xs) < knnK {
		xs = append(xs, 0)
	}
	copy(xs[i+1:], xs[i:len(xs)-1])
	xs[i] = d
	return xs
}

// verifyRecovered checks a reopened durable table: it must hold exactly
// the live records, and a sample of live and deleted ids must read back
// as such.
func (p *population) verifyRecovered(tab *spatialdb.Table, rng *xrand.Rand) error {
	if want := p.liveCount(); tab.Len() != want {
		return fmt.Errorf("recovered %d records, want %d", tab.Len(), want)
	}
	for _, o := range p.owners {
		ins, del := int(o.ins.Load()), int(o.del.Load())
		for j := 0; j < 64; j++ {
			k := del + rng.Intn(ins-del)
			id := o.base + uint64(k)
			rec, ok := tab.Get(id)
			if !ok {
				return fmt.Errorf("recovered table lost record %d", id)
			}
			if _, _, err := p.checkRecord(rec); err != nil {
				return fmt.Errorf("recovered table: %w", err)
			}
			if del > 0 {
				gone := o.base + uint64(rng.Intn(del))
				if _, ok := tab.Get(gone); ok {
					return fmt.Errorf("recovered table resurrected deleted record %d", gone)
				}
			}
		}
	}
	return nil
}
