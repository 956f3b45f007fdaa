package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// own files. Root spans wrap the table calls of sampled requests in the
// traced phase; replay spans re-run the same request on one layer's
// public API afterwards and carry the request's id. A replay on the
// layer that served the request in the table is the table span's child,
// so the table span's self time is the work spatialdb itself added.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name up to the first dot: "segment.find" belongs to
// the segment layer.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanBuf is a preallocated span buffer. It never grows during a
// phase: spans beyond its capacity are counted as dropped, so tracing
// cannot add allocation or copying to the measured loop.
type spanBuf struct {
	epoch   time.Time
	prefix  uint64 // high bits that keep the ids of different buffers apart
	n       uint64
	spans   []span
	dropped int
}

func newSpanBuf(epoch time.Time, prefix uint64, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, prefix: prefix, spans: make([]span, 0, capacity)}
}

// add records a span from t0 to t1 and returns its id (0 when dropped).
func (b *spanBuf) add(name string, req, parent uint64, t0, t1 time.Time) uint64 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	b.n++
	id := b.prefix | b.n
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: t0.Sub(b.epoch).Nanoseconds(), End: t1.Sub(b.epoch).Nanoseconds(),
	})
	return id
}

// selfTime is one layer's accumulated self time.
type selfTime struct {
	NS    int64 `json:"ns"`
	Spans int   `json:"spans"`
}

// childTime sums, for every span that has children, their durations.
// A child either ran inside its parent or, for a replay, re-executed
// the part of the parent's work its layer does; either way its time is
// not the parent's own.
func childTime(spans []span) map[uint64]int64 {
	out := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus its children's. A replay can measure
// longer than the call it stands in for, so a span's self time may come
// out negative; it is kept rather than clamped, so layer totals stay
// unbiased.
func selfTimes(spans []span) map[string]selfTime {
	child := childTime(spans)
	out := map[string]selfTime{}
	for _, s := range spans {
		st := out[s.layer()]
		st.NS += s.dur() - child[s.ID]
		st.Spans++
		out[s.layer()] = st
	}
	return out
}

// writeSpans writes each workload's spans, ordered by start time, as
// one JSON object keyed by workload.
func writeSpans(path string, byWorkload map[string][]span) error {
	for _, spans := range byWorkload {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
	b, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
