package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// update rewrites pinned.json from the program's current outputs.
var update = flag.Bool("update", false, "rewrite pinned.json")

// tinyOptions runs a workload at a tiny federation scale, with one
// set-up, for a second.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 1, trace: trace,
		scale: 0.02, setupReps: 1, work: t.TempDir(), roamd: roamdBinary(t)}
}

var builtRoamd string

// roamdBinary builds cmd/roamd once per test binary.
func roamdBinary(t *testing.T) string {
	t.Helper()
	if builtRoamd != "" {
		return builtRoamd
	}
	dir, err := os.MkdirTemp("", "perfbench-roamd-")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "roamd")
	out, err := exec.Command("go", "build", "-o", bin, "whereroam/cmd/roamd").CombinedOutput()
	if err != nil {
		t.Fatalf("building roamd: %v\n%s", err, out)
	}
	builtRoamd = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtRoamd != "" {
		os.RemoveAll(filepath.Dir(builtRoamd))
	}
	os.Exit(code)
}

// runTiny runs a workload and decodes its result line.
func runTiny(t *testing.T, opt options) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := execute(opt, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, res, out.String()
}

// TestWorkloadsTiny runs every workload end to end, untraced and
// traced (replay's traced run includes the roamd serving leg), at a
// tiny scale: every output check must pass and the result must carry
// exactly the metrics BENCHMARK.json lists.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds roamd and runs every workload")
	}
	for _, wl := range []string{"ingest", "replay"} {
		for _, trace := range []bool{false, true} {
			code, res, out := runTiny(t, tinyOptions(t, wl, trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", wl, trace, code, res, out)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", wl, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.name, got.Value)
				}
			}
		}
	}
}

// TestReplayCheckCatchesWrongView corrupts one reference view and one
// stored segment: each must count as a failed operation.
func TestReplayCheckCatchesWrongView(t *testing.T) {
	r := &run{opt: options{seed: 5, scale: 0.02, setupReps: 1, work: t.TempDir()},
		log: &bytes.Buffer{}, workers: 2, res: result{Metrics: map[string]metric{}}}
	fx, err := setupArchive(r)
	if err != nil {
		t.Fatal(err)
	}
	qs := buildQueries(r, fx.sites)
	replayPass(r, qs, nil)
	if r.res.Failed != 0 {
		t.Fatalf("clean pass: %d of %d failed", r.res.Failed, r.res.Attempted)
	}
	qs[1].ref = append([]byte(nil), qs[1].ref...)
	qs[1].ref[len(qs[1].ref)/2] ^= 1
	replayPass(r, qs, nil)
	if r.res.Failed != 1 {
		t.Fatalf("wrong reference: %d failed, want 1", r.res.Failed)
	}
	seg, err := filepath.Glob(filepath.Join(qs[0].st.dir, "seg-*.wrseg"))
	if err != nil || len(seg) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	b, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xff
	if err := os.WriteFile(seg[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := r.res.Failed
	if _, err := qs[0].exec(r.workers); err == nil {
		t.Fatal("replay over a corrupted segment succeeded")
	}
	replayPass(r, qs[:1], nil)
	if r.res.Failed != before+1 {
		t.Fatalf("corrupted segment: %d failed, want %d", r.res.Failed, before+1)
	}
}

// TestPinnedReferences checks that seed 1 at the benchmark's scale
// reproduces pinned.json; with -update it rewrites the file for every
// pinned seed.
func TestPinnedReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark's archive")
	}
	seeds := []int64{1}
	if *update {
		seeds = pinnedSeeds
	}
	set := pinnedSet{Scale: benchScale, Seeds: map[string]pinnedSeed{}}
	for _, seed := range seeds {
		r := &run{opt: options{seed: seed, scale: benchScale, setupReps: 1, work: t.TempDir()},
			log: &bytes.Buffer{}, workers: 2, res: result{Metrics: map[string]metric{}}}
		ref, err := setupIngest(r)
		if err != nil {
			t.Fatal(err)
		}
		fx, err := setupArchive(r)
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedSeed{Records: ref.stats.records, Segments: ref.stats.segments,
			Sites: ref.digests, Views: viewsDigest(r, fx.sites, buildQueries(r, fx.sites))}
		if !ref.stats.sameRecords(fx.stats) {
			t.Fatalf("seed %d: two builds differ: %+v and %+v", seed, ref.stats, fx.stats)
		}
		set.Seeds[strconv.FormatInt(seed, 10)] = got
		if *update {
			continue
		}
		if want, ok := r.pinned(); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: outputs %+v, pinned %+v (rerun with -update only if the outputs are meant to change)", seed, got, want)
		}
		if r.res.Failed != 0 {
			t.Errorf("seed %d: %d of %d set-up checks failed", seed, r.res.Failed, r.res.Attempted)
		}
	}
	if *update {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pinned.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPinnedMismatchFails pins wrong outputs for the tiny runs' seed:
// both workloads must count the mismatch as a failure and exit 1.
func TestPinnedMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	saved := pinnedRefs
	defer func() { pinnedRefs = saved }()
	wrong := pinnedSeed{Records: 1, Segments: 1, Sites: []siteDigest{{Catalog: "x"}}, Views: "x"}
	pinnedRefs = pinnedSet{Scale: 0.02, Seeds: map[string]pinnedSeed{"3": wrong}}
	for _, wl := range []string{"ingest", "replay"} {
		code, res, out := runTiny(t, tinyOptions(t, wl, false))
		if code != 1 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong pinned reference: exit %d, result %+v\n%s", wl, code, res, out)
		}
	}
}

// TestReferenceStepCountsFailures: a failed and an abandoned request
// of the reference step are failed operations, and the route
// percentiles stay finite, over the completed requests only.
func TestReferenceStepCountsFailures(t *testing.T) {
	r := &run{log: &bytes.Buffer{}, res: result{Metrics: map[string]metric{}}}
	st := &stepResult{rate: 70, duration: time.Second}
	for _, c := range []struct {
		op string
		o  outcome
	}{
		{routeOps[0], outcome{sent: true, status: 200, lat: 4}},
		{routeOps[1], outcome{sent: true, status: 500, lat: 9}},
		{routeOps[0], outcome{sent: false}},
		{routeOps[0], outcome{sent: true, status: 200, lat: 6}},
	} {
		st.reqs = append(st.reqs, request{op: c.op, path: "/v1/x"})
		st.outs = append(st.outs, c.o)
	}
	tally(r, st, true)
	if r.res.Attempted != 4 || r.res.Failed != 2 {
		t.Fatalf("reference step: %d failed of %d, want 2 of 4", r.res.Failed, r.res.Attempted)
	}
	l := newLayers(r)
	reportReference(r, l, st, 2)
	l.flush()
	if _, err := json.Marshal(r.res); err != nil {
		t.Fatalf("result does not encode: %v", err)
	}
	if got := r.res.Metrics["serve.route_p99_ms."+routeOps[0]].Value; got != 6 {
		t.Errorf("%s p99 = %v, want 6 (the completed requests' slowest)", routeOps[0], got)
	}
	if got := r.res.Metrics["serve.route_p99_ms."+routeOps[1]].Value; got != 0 {
		t.Errorf("%s p99 = %v, want 0 (no request completed)", routeOps[1], got)
	}

	ladder := &run{log: &bytes.Buffer{}, res: result{Metrics: map[string]metric{}}}
	tally(ladder, st, false)
	if ladder.res.Attempted != 3 || ladder.res.Failed != 1 {
		t.Errorf("ladder step: %d failed of %d, want 1 of 3 (an abandoned request is the rung's verdict)", ladder.res.Failed, ladder.res.Attempted)
	}
}

// TestMainRejectsBadUsage: no result line, exit 2.
func TestMainRejectsBadUsage(t *testing.T) {
	var out bytes.Buffer
	if code := command([]string{"--workload", "nope"}, &out); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, output %q", code, out.String())
	}
}

func TestNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.11, 2},
	} {
		if got := s.rank(c.p); got != c.want {
			t.Errorf("rank(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (sample{3, 1, 2, 4}).median(); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := (sample{}).rank(0.5); got != 0 {
		t.Errorf("empty rank = %v", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	dur := 3 * time.Second
	series := func(f func(at float64) int) []backlogPoint {
		var out []backlogPoint
		for i := 0; i < 300; i++ {
			at := float64(i) / 100
			out = append(out, backlogPoint{at: at, backlog: f(at)})
		}
		return out
	}
	steady := series(func(at float64) int { return int(at*100) % 5 })
	ramp := series(func(at float64) int { return int(at * 20) })
	for _, c := range []struct {
		name   string
		points []backlogPoint
		rate   float64
		want   bool
	}{
		{"steady", steady, 100, false},
		{"ramp", ramp, 100, true},
		{"ramp below the rate floor", ramp, 1000, false},
		{"empty", nil, 100, false},
		{"late spike only", series(func(at float64) int {
			if at > 2.9 {
				return 50
			}
			return 1
		}), 100, false},
	} {
		if got := backlogGrowing(c.points, dur, c.rate); got != c.want {
			t.Errorf("%s: backlogGrowing = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaxQPS(t *testing.T) {
	const limit = 100
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"every rung meets", []rung{{50, 10, false}, {100, 20, false}, {200, 60, false}}, 200},
		{"first rung fails", []rung{{50, 500, false}, {100, 20, false}}, 0},
		{"backlog grows", []rung{{50, 10, false}, {100, 20, false}, {200, 60, true}}, 100},
		{"requests abandoned", []rung{{50, 10, false}, {100, 20, false}, {200, math.Inf(1), true}}, 100},
		// log p99 crosses log 100 halfway between 50 ms and 200 ms.
		{"interpolated", []rung{{50, 10, false}, {100, 50, false}, {200, 200, false}}, 150},
		{"stops at the first failure", []rung{{50, 10, false}, {100, 400, false}, {200, 20, false}}, 50 + 50*math.Log(10)/math.Log(40)},
	} {
		if got := maxQPS(c.rungs, limit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxQPS = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestVerdictPoolsARetriedRung(t *testing.T) {
	step := func(lat float64, unsent bool) *stepResult {
		st := &stepResult{rate: 100, duration: time.Second}
		for i := 0; i < 100; i++ {
			st.reqs = append(st.reqs, request{op: "stats"})
			st.outs = append(st.outs, outcome{sent: true, status: 200, lat: lat})
		}
		if unsent {
			st.outs[0].sent = false
		}
		return st
	}
	// One slow step and one fast one: the pooled p99 is the slow one's.
	g := verdict(100, step(300, true), step(10, false))
	if g.p99 != 300 || g.growing {
		t.Errorf("pooled verdict = %+v, want p99 300 and no growth (only one run abandoned requests)", g)
	}
	if g := verdict(100, step(10, true), step(10, true)); !g.growing || g.meets(1000) {
		t.Errorf("both runs abandoned requests: verdict = %+v, want a growing backlog", g)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json in step with
// the metrics the command reports.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
}
