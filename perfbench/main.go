// Command perfbench is whereroam's end-to-end benchmark. It runs one
// workload against the shipped system through its public API — the
// dataset, store, catalog, core and serve packages and the roamd
// binary — checks every output against a reference, and prints each
// metric by name and unit, ending with one JSON result line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload ingest|replay --seed N --seconds S --trace 0|1
//	          [--roamd PATH] [--work DIR]
//
// Workloads share one seeded federation archive built in set-up:
//
//	ingest  write side: GenerateFederation with ArchiveDir, store.Compact
//	        per site, then SummariesWorkers, ClassifyWorkers and Validate
//	replay  analyst read side: full-window, one-day and exact-device
//	        queries over the as-written stores, each view JSON-encoded
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that times each layer's public calls from outside and reports the
// per-layer metrics. The replay workload's traced run also serves its
// archive from roamd under an open-loop schedule, for the serving
// layers. perfbench/README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the settings of one run. The command sets scale and
// setupReps to benchScale and setupReps; only the self-tests shrink
// them.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	setupReps int
	roamd     string
	work      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one workload run's options, failure tally and metrics.
type run struct {
	opt     options
	log     io.Writer // human-readable lines
	workers int
	res     result
}

// attempt counts one checked operation; a false ok is a failure.
func (r *run) attempt(ok bool, format string, args ...any) bool {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// fail counts one failed operation.
func (r *run) fail(err error) { r.attempt(false, "%v", err) }

// set records a metric and prints it as a human-readable line.
func (r *run) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "%-34s %14.6g %-6s %s\n", name, v, unit, note)
}

// minPasses is the fewest passes a batch workload makes, however short
// --seconds is. A traced run alternates untraced and traced passes, so
// the tracing overhead compares passes made under the same load, and
// needs one of each.
func (r *run) minPasses() int {
	if r.opt.trace {
		return 2
	}
	return 1
}

// say prints a human-readable line that is not a metric.
func (r *run) say(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// The benchmark's fixed size. They are part of its definition, not
// settings: a later change is measured on the same inputs.
const (
	// benchScale sizes the federation: a quarter of
	// DefaultFederationConfig's fleet and native populations.
	benchScale = 0.25
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 3
)

// e2eMetrics are the end-to-end metrics every untraced run reports.
// Each workload reads ops_per_s, p50_ms and p99_ms in its own unit of
// work; README.md gives the definitions.
var e2eMetrics = []layerMetric{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"bytes_per_record", "B"},
}

// workloads maps each workload name to its run.
var workloads = map[string]func(*run) error{
	"ingest": runIngest,
	"replay": runReplay,
}

func main() {
	os.Exit(command(os.Args[1:], os.Stdout))
}

// command runs the command and returns its exit code: 0 when every
// operation succeeded and every output check passed, 1 on a failed
// check (the result is still printed), 2 on a usage or set-up error
// (no result is printed).
func command(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	opt := options{scale: benchScale, setupReps: setupReps}
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "ingest or replay")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&opt.roamd, "roamd", ".bench_build/bin/roamd", "roamd binary (replay's traced run)")
	fs.StringVar(&opt.work, "work", ".bench_build/work", "scratch directory for archives")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	return execute(opt, stdout)
}

// execute runs one workload with opt and returns command's exit code.
func execute(opt options, stdout io.Writer) int {
	wl := workloads[opt.workload]
	if wl == nil || opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s) and --seconds > 0\n", workloadNames())
		return 2
	}
	work, err := workDir(opt.work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	opt.work = work

	r := &run{opt: opt, log: stdout, workers: runtime.GOMAXPROCS(0),
		res: result{Metrics: map[string]metric{}}}
	r.say("perfbench workload=%s seed=%d seconds=%g trace=%v scale=%g gomaxprocs=%d",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.scale, r.workers)
	start := time.Now()
	if err := wl(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if r.res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 2
	}
	want := e2eMetrics
	if opt.trace {
		want = layerMetrics()
	}
	final := map[string]metric{}
	for _, m := range want {
		v, ok := r.res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", opt.workload, m.name)
			return 2
		}
		final[m.name] = v
	}
	r.res.Metrics = final
	r.res.Correct = r.res.Failed == 0
	share := float64(r.res.Failed) / float64(r.res.Attempted)
	r.say("%-34s %14.6g %-6s %d failed of %d attempted (not a JSON metric: it is 0 on a clean run)",
		"error_share", share, "ratio", r.res.Failed, r.res.Attempted)
	r.say("wall %.1fs", time.Since(start).Seconds())
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !r.res.Correct {
		return 1
	}
	return 0
}

// workloadNames lists the workloads for usage text.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
