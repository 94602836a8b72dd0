package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/identity"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

// The replay workload is the analyst read side over the as-written
// per-site stores, with no HTTP and no cache. Each query opens its
// store, replays under the query's plan, computes the serve view and
// JSON-encodes it — the work roamd does on a cache fill, in bulk.

// replayDevices is the number of exact-device lookups per site.
const replayDevices = 16

// query is one member of the fixed per-site query set.
type query struct {
	st    *site
	class string // "full", "day" or "device"
	q     store.Query
	day   int
	dev   identity.DeviceID
	ref   []byte // the reference view bytes
}

// buildQueries lays out the query set: per site, one full window,
// every one-day window and a seeded list of exact-device lookups, each
// with its reference view.
func buildQueries(r *run, sites []*site) []*query {
	var qs []*query
	for i, s := range sites {
		qs = append(qs, &query{st: s, class: "full", q: store.Query{}, ref: s.refStats(r.workers)})
		for d := 0; d < s.days; d++ {
			qs = append(qs, &query{st: s, class: "day", day: d, q: store.Query{}.Days(d, d), ref: s.refDays(d, d)})
		}
		for _, dev := range s.pickDevices(newRand(r.opt.seed, 3, int64(i)), replayDevices) {
			qs = append(qs, &query{st: s, class: "device", dev: dev, q: store.Query{}.Device(dev), ref: s.refDevice(dev, r.workers)})
		}
	}
	return qs
}

// view computes the query's serve view from its replayed catalog.
func (q *query) view(cat *catalog.Catalog, workers int) any {
	switch q.class {
	case "full":
		return serve.ComputeStats(q.st.name, q.st.days, cat, workers)
	case "day":
		return serve.ComputeDaySlice(q.st.name, q.day, q.day, cat)
	}
	v, ok := serve.ComputeDeviceView(q.dev, cat, workers)
	if !ok {
		return nil
	}
	return v
}

// exec runs the query untraced and returns the encoded view.
func (q *query) exec(workers int) ([]byte, error) {
	rd, err := store.Open(q.st.dir)
	if err != nil {
		return nil, err
	}
	cat, _, err := rd.Replay(q.q, workers)
	if err != nil {
		return nil, err
	}
	return json.Marshal(q.view(cat, workers))
}

// classTrace accumulates one query class's traced volumes in a pass.
type classTrace struct {
	replay, decode, fold                time.Duration
	segRead, prunedRange, prunedBloom   int
	bytesRead, recordsRead, recordsKept int64
}

// passTrace accumulates a traced pass's per-layer timings.
type passTrace struct {
	open, summaries, classify, compute, encode time.Duration
	class                                      map[string]*classTrace
}

// execTraced runs the query timing each public call separately: Open,
// Replay, a second decode into a counting sink, a third decode whose
// records are folded through a fresh builder, summaries and
// classification of the replayed catalog, the view compute and the
// JSON encode. The extra decodes and folds re-do work, which is why
// traced passes are kept out of the end-to-end numbers.
func (q *query) execTraced(workers int, pt *passTrace) ([]byte, error) {
	ct := pt.class[q.class]
	t := time.Now()
	rd, err := store.Open(q.st.dir)
	pt.open += time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	cat, st, err := rd.Replay(q.q, workers)
	ct.replay += time.Since(t)
	if err != nil {
		return nil, err
	}
	ct.segRead += st.SegmentsRead
	ct.prunedRange += st.SegmentsPruned - st.SegmentsPrunedBloom
	ct.prunedBloom += st.SegmentsPrunedBloom
	ct.bytesRead += st.BytesRead
	ct.recordsRead += st.RecordsRead
	ct.recordsKept += st.RecordsKept

	n := 0
	t = time.Now()
	if _, err := rd.ReplayRecords(q.q, func(cdrs.Record) { n++ }); err != nil {
		return nil, err
	}
	ct.decode += time.Since(t)
	recs := make([]cdrs.Record, 0, n)
	if _, err := rd.ReplayRecords(q.q, func(rec cdrs.Record) { recs = append(recs, rec) }); err != nil {
		return nil, err
	}
	meta := rd.Manifest().Meta()
	t = time.Now()
	b := catalog.NewBuilder(meta.Host, meta.Start, meta.Days, nil)
	for _, rec := range recs {
		b.AddRecord(rec)
	}
	b.Build()
	ct.fold += time.Since(t)

	if q.class != "day" {
		t = time.Now()
		sums := cat.SummariesWorkers(nil, workers)
		pt.summaries += time.Since(t)
		t = time.Now()
		core.NewClassifier().ClassifyWorkers(sums, workers)
		pt.classify += time.Since(t)
	}
	t = time.Now()
	v := q.view(cat, workers)
	pt.compute += time.Since(t)
	t = time.Now()
	out, err := json.Marshal(v)
	pt.encode += time.Since(t)
	return out, err
}

// replayPass runs the query set once, checking every view against its
// reference, and returns each query's latency in ms. A non-nil pt
// makes it a traced pass.
func replayPass(r *run, qs []*query, pt *passTrace) sample {
	var lat sample
	for _, q := range qs {
		t := time.Now()
		var got []byte
		var err error
		if pt != nil {
			got, err = q.execTraced(r.workers, pt)
		} else {
			got, err = q.exec(r.workers)
		}
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			r.fail(fmt.Errorf("%s query on %s: %w", q.class, q.st.name, err))
			continue
		}
		r.attempt(bytes.Equal(got, q.ref), "%s query on %s (day %d, device %v): view differs from the reference", q.class, q.st.name, q.day, q.dev)
	}
	return lat
}

// runReplay is the replay workload.
func runReplay(r *run) error {
	fx, err := setupArchive(r)
	if err != nil {
		return err
	}
	qs := buildQueries(r, fx.sites)
	checkPinnedViews(r, fx, qs)
	r.say("query set: %d queries over %d sites (%d full, %d one-day, %d exact-device per site)",
		len(qs), len(fx.sites), 1, fx.sites[0].days, replayDevices)
	var l *layers
	var heap *heapSampler
	if r.opt.trace {
		l = newLayers(r)
		heap = startHeapSampler()
	}
	var rates, lat, plainWalls, tracedWalls sample
	var traces []*passTrace
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for i := 0; i < r.minPasses() || time.Now().Before(deadline); i++ {
		traced := r.opt.trace && i%2 == 1
		var pt *passTrace
		if traced {
			pt = &passTrace{class: map[string]*classTrace{}}
			for _, c := range queryClasses {
				pt.class[c] = &classTrace{}
			}
		}
		pass := time.Now()
		ql := replayPass(r, qs, pt)
		wall := time.Since(pass).Seconds()
		if traced {
			tracedWalls = append(tracedWalls, wall)
			traces = append(traces, pt)
		} else {
			lat = append(lat, ql...)
			plainWalls = append(plainWalls, wall)
			rates = append(rates, float64(len(qs))/wall)
		}
	}
	if r.opt.trace {
		reportReplayLayers(l, fx, traces)
		l.set("process.heap_peak_mib", heap.stopMiB())
		if len(tracedWalls) > 0 && len(plainWalls) > 0 {
			l.set("process.tracing_overhead", tracedWalls.median()/plainWalls.median()-1)
		}
		r.say("traced run: %d untraced and %d traced passes", len(plainWalls), len(tracedWalls))
		if err := measureServing(r, fx, l); err != nil {
			return err
		}
		l.flush()
		return nil
	}
	r.set("ops_per_s", rates.median(), "op/s", fmt.Sprintf("queries_per_s: %d queries per pass, median of %d passes", len(qs), len(rates)))
	r.say("%-34s %14.6g %-6s", "queries_per_s", rates.median(), "q/s")
	r.set("p50_ms", lat.rank(0.5), "ms", fmt.Sprintf("per query, n=%d", len(lat)))
	r.set("p99_ms", lat.rank(0.99), "ms", fmt.Sprintf("per query, n=%d", len(lat)))
	r.set("bytes_per_record", fx.stats.bytesPerRecord(), "B", fmt.Sprintf("queried archive: %d bytes, %d records", fx.stats.bytes, fx.stats.records))
	return nil
}

// reportReplayLayers reduces the traced passes to per-layer metrics:
// each timing is the seconds one pass spends in that call, the median
// over traced passes; counts are per pass and repeat exactly.
func reportReplayLayers(l *layers, fx *fixture, traces []*passTrace) {
	med := func(f func(*passTrace) time.Duration) float64 {
		var s sample
		for _, pt := range traces {
			s = append(s, f(pt).Seconds())
		}
		return s.median()
	}
	l.set("store.open_s", med(func(pt *passTrace) time.Duration { return pt.open }))
	l.set("catalog.summaries_s", med(func(pt *passTrace) time.Duration { return pt.summaries }))
	l.set("core.classify_s", med(func(pt *passTrace) time.Duration { return pt.classify }))
	l.set("serve.compute_s", med(func(pt *passTrace) time.Duration { return pt.compute }))
	l.set("serve.encode_s", med(func(pt *passTrace) time.Duration { return pt.encode }))
	for _, c := range queryClasses {
		l.set("store.replay_s."+c, med(func(pt *passTrace) time.Duration { return pt.class[c].replay }))
		l.set("store.decode_s."+c, med(func(pt *passTrace) time.Duration { return pt.class[c].decode }))
		l.set("catalog.fold_s."+c, med(func(pt *passTrace) time.Duration { return pt.class[c].fold }))
		if len(traces) == 0 {
			continue
		}
		ct := traces[0].class[c]
		l.set("store.segments_read."+c, float64(ct.segRead))
		l.set("store.segments_pruned_range."+c, float64(ct.prunedRange))
		l.set("store.segments_pruned_bloom."+c, float64(ct.prunedBloom))
		l.set("store.bytes_read."+c, float64(ct.bytesRead))
		if ct.recordsRead > 0 {
			l.set("store.useful_share."+c, float64(ct.recordsKept)/float64(ct.recordsRead))
		}
	}
	l.set("store.archive_bytes", float64(fx.stats.bytes))
	l.set("store.archive_segments", float64(fx.stats.segments))
}
