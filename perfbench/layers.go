package main

import (
	"fmt"
	"math/rand"

	"whereroam/internal/serve"
)

// queryClasses are the replay query classes, in report order.
var queryClasses = []string{"full", "day", "device"}

// routeOps are the serve request types, in report order.
var routeOps = []string{serve.OpDeviceLookup, serve.OpDaySlice, serve.OpStatsReq, serve.OpAnalysis, serve.OpCompare}

// layerMetric is one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run reports, for
// every workload. A layer a workload does not exercise reads 0: it did
// no work there (for example every serve.* metric under ingest).
// BENCHMARK.json lists the same names; a self-test keeps them in step.
func layerMetrics() []layerMetric {
	out := []layerMetric{
		{"dataset.generate_s", "s"},
		{"dataset.generate_alloc_mib", "MiB"},
		{"store.compact_s", "s"},
		{"store.compact_bytes_out", "B"},
		{"store.archive_bytes", "B"},
		{"store.archive_segments", "count"},
		{"catalog.summaries_s", "s"},
		{"core.classify_s", "s"},
		{"core.validate_s", "s"},
		{"store.open_s", "s"},
	}
	for _, c := range queryClasses {
		out = append(out,
			layerMetric{"store.replay_s." + c, "s"},
			layerMetric{"store.decode_s." + c, "s"},
			layerMetric{"catalog.fold_s." + c, "s"},
			layerMetric{"store.segments_read." + c, "count"},
			layerMetric{"store.segments_pruned_range." + c, "count"},
			layerMetric{"store.segments_pruned_bloom." + c, "count"},
			layerMetric{"store.bytes_read." + c, "B"},
			layerMetric{"store.useful_share." + c, "ratio"},
		)
	}
	out = append(out,
		layerMetric{"serve.compute_s", "s"},
		layerMetric{"serve.encode_s", "s"},
	)
	for _, op := range routeOps {
		out = append(out,
			layerMetric{"serve.route_p50_ms." + op, "ms"},
			layerMetric{"serve.route_p99_ms." + op, "ms"},
		)
	}
	return append(out,
		layerMetric{"serve.max_qps", "req/s"},
		layerMetric{"serve.cache_hit_ratio", "ratio"},
		layerMetric{"serve.cache_fills", "count"},
		layerMetric{"serve.cache_waits", "count"},
		layerMetric{"serve.cache_evictions", "count"},
		layerMetric{"serve.server_p99_ms", "ms"},
		layerMetric{"loadgen.late_p99_ms", "ms"},
		layerMetric{"loadgen.backlog_max", "count"},
		layerMetric{"process.heap_peak_mib", "MiB"},
		layerMetric{"process.tracing_overhead", "ratio"},
	)
}

// layers collects a traced run's per-layer values.
type layers struct {
	r    *run
	vals map[string]float64
}

func newLayers(r *run) *layers { return &layers{r: r, vals: map[string]float64{}} }

// set records a per-layer value; the name must be listed.
func (l *layers) set(name string, v float64) { l.vals[name] = v }

// flush reports every listed per-layer metric, 0 where unset.
func (l *layers) flush() {
	for _, m := range layerMetrics() {
		l.r.set(m.name, l.vals[m.name], m.unit, "")
		delete(l.vals, m.name)
	}
	for name := range l.vals {
		panic(fmt.Sprintf("perfbench: unlisted layer metric %q", name))
	}
}

// newRand derives an independent seeded stream for one use of the
// workload seed.
func newRand(seed int64, use, index int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + use*10_007 + index))
}
