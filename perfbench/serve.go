package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"whereroam/internal/serve"
)

// The serving leg of the replay workload's traced run: roamd over the
// replay archive, driven by the open-loop generator. Its load shape is
// part of the benchmark's definition: a later change is measured
// against the same values.
const (
	// refRate is the reference rate (requests per second) the route
	// latencies are measured at, and the ladder's first rung.
	refRate = 70.0
	// refShare is the reference step's length as a share of --seconds.
	refShare = 0.5
	// p99LimitMS is the latency limit a ladder rung must meet.
	p99LimitMS = 250.0
	// cacheMB bounds roamd's slice cache below the working set the
	// mix touches (see README.md for the sizes).
	cacheMB = 32
	// targetDevices is how many devices per site the mix addresses.
	targetDevices = 256
	// warmRequests is the closed-loop warm-up length.
	warmRequests = 300
	// rungSeconds is each ladder rung's length.
	rungSeconds = 1.5
)

// ladder lists the rates above refRate, ascending.
var ladder = []float64{100, 140, 200, 280, 400, 560, 800}

// daemon is a running roamd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan error
	stopped bool
}

// freeAddr reserves a loopback port for roamd.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon runs roamd -metrics over archive and waits until it
// answers.
func startDaemon(bin, archive, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-archive", archive, "-addr", addr, "-cache-mb", strconv.Itoa(cacheMB), "-metrics")
	cmd.Stdout, cmd.Stderr = logf, logf
	// roamd must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting roamd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("roamd exited before serving: %v (log %s)", err, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("roamd did not become healthy within 60s")
		}
	}
}

// stop kills roamd and waits for it to exit; later calls do nothing.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	<-d.done
}

// serveEnv is a roamd under load.
type serveEnv struct {
	r       *run
	fx      *fixture
	targets []target
	client  *http.Client
	conns   int
	d       *daemon
	// seq numbers schedules so each draws from its own seeded stream.
	seq int64
}

func (e *serveEnv) picker() *picker {
	e.seq++
	return newPicker(newRand(e.r.opt.seed, 11, e.seq), e.targets)
}

// warm drives roamd closed-loop through warmRequests requests of the
// mix, filling its cache before anything is timed.
func (e *serveEnv) warm() {
	p := e.picker()
	reqs := make([]request, warmRequests)
	for i := range reqs {
		reqs[i] = p.next()
	}
	tally(e.r, runStep(e.client, e.d.base, reqs, e.conns, 0, 0, time.Hour), true)
}

// tally counts a step's requests as attempts: a non-2xx response or a
// transport error is a failure. When mustSend is set (warm-up and the
// reference step), so is a request abandoned unsent at the step's hard
// stop; a ladder rung that abandons requests has failed its rate,
// which is its verdict, not a failed operation.
func tally(r *run, st *stepResult, mustSend bool) {
	for i := range st.outs {
		o := &st.outs[i]
		if !o.sent && !mustSend {
			continue
		}
		r.attempt(o.ok(), "GET %s: sent %v, status %d, err %v", st.reqs[i].path, o.sent, o.status, o.err)
	}
}

// check compares each kept body with the reference view computed from
// the serial fold of the decoded archive.
func (e *serveEnv) check(st *stepResult) {
	for i := range st.outs {
		rq, o := &st.reqs[i], &st.outs[i]
		if !rq.check || !o.ok() {
			continue
		}
		s := e.fx.sites[rq.key.site]
		var want []byte
		switch rq.op {
		case serve.OpDeviceLookup:
			want = s.refDevice(rq.key.dev, e.r.workers)
		case serve.OpDaySlice:
			want = s.refDays(rq.key.lo, rq.key.hi)
		case serve.OpStatsReq:
			want = s.refStats(e.r.workers)
		case serve.OpAnalysis:
			want = s.refSeries(rq.key.series, e.r.workers)
		case serve.OpCompare:
			want = refCompare(e.fx.sites, e.r.workers)
		}
		e.r.attempt(bytes.Equal(o.body, append(want, '\n')),
			"GET %s: body differs from the reference view (%d vs %d bytes)", rq.path, len(o.body), len(want)+1)
	}
}

// step runs one fixed-rate step, tallying and checking it. The
// reference step checks the first response of each request type and
// must send every request.
func (e *serveEnv) step(rate float64, dur time.Duration, reference bool) *stepResult {
	st := runStep(e.client, e.d.base, e.picker().schedule(rate, dur, reference), e.conns, rate, dur, dur+drainGrace)
	tally(e.r, st, reference)
	e.check(st)
	return st
}

// climb runs the ladder from the reference rung until a rung fails. A
// rung that fails is run a second time and judged on both runs
// together, so one burst of cache fills does not end the climb.
func (e *serveEnv) climb(ref *stepResult) []rung {
	rungs := []rung{verdict(refRate, ref)}
	rungDur := time.Duration(rungSeconds * float64(time.Second))
	for _, rate := range ladder {
		if !rungs[len(rungs)-1].meets(p99LimitMS) {
			break
		}
		steps := []*stepResult{e.step(rate, rungDur, false)}
		if !verdict(rate, steps...).meets(p99LimitMS) {
			steps = append(steps, e.step(rate, rungDur, false))
		}
		rungs = append(rungs, verdict(rate, steps...))
	}
	return rungs
}

// measureServing starts roamd -metrics over the fixture's archive,
// warms it, runs the reference step and the ladder, and reports the
// serving layers from the client's timings and a final /metrics
// scrape. Every response must be 2xx, and the first of each request
// type at the reference rate byte-equal to its reference view.
func measureServing(r *run, fx *fixture, l *layers) error {
	if _, err := os.Stat(r.opt.roamd); err != nil {
		return fmt.Errorf("roamd binary: %w (perfbench/run.sh builds it)", err)
	}
	e := &serveEnv{r: r, fx: fx, conns: runtime.NumCPU()}
	e.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: e.conns, MaxIdleConnsPerHost: e.conns,
			DisableCompression: true},
	}
	for i, s := range fx.sites {
		e.targets = append(e.targets, target{name: s.name, days: s.days,
			devs: s.pickDevices(newRand(r.opt.seed, 7, int64(i)), targetDevices)})
	}
	d, err := startDaemon(r.opt.roamd, fx.dir, filepath.Join(r.opt.work, "roamd.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	e.d = d
	e.warm()

	ref := e.step(refRate, time.Duration(r.opt.seconds*refShare*float64(time.Second)), true)
	reportReference(r, l, ref, e.conns)

	rungs := e.climb(ref)
	for _, g := range rungs {
		r.say("rung %6.1f req/s  p99 %9.2f ms  growing backlog %-5v  meets %v", g.rate, g.p99, g.growing, g.meets(p99LimitMS))
	}
	q := maxQPS(rungs, p99LimitMS)
	r.say("%-34s %14.6g %-6s highest ladder rate meeting p99 <= %g ms without a growing backlog", "max_qps", q, "req/s", p99LimitMS)
	l.set("serve.max_qps", q)

	g, err := scrapeGauges(e.client, d.base)
	if err != nil {
		return err
	}
	if n := g["roamd_cache_hits"] + g["roamd_cache_misses"]; n > 0 {
		l.set("serve.cache_hit_ratio", g["roamd_cache_hits"]/n)
	}
	l.set("serve.cache_fills", g["roamd_cache_fills"])
	l.set("serve.cache_waits", g["roamd_cache_waits"])
	l.set("serve.cache_evictions", g["roamd_cache_evictions"])
	p99, ok, err := serve.ScrapeHistogramQuantile(e.client, d.base, "roamd_http_latency_seconds", 0.99)
	if err != nil {
		return err
	}
	if ok {
		l.set("serve.server_p99_ms", ms(p99))
	}
	return nil
}

// reportReference reports the reference step's route percentiles and
// the generator's lateness and backlog. The route percentiles are over
// completed 2xx requests, each printed with its count; the requests
// that failed are already counted as failed operations.
func reportReference(r *run, l *layers, ref *stepResult, conns int) {
	lat, late := ref.latencies(), ref.lateness()
	r.say("serving at %g req/s over %d connections: %d requests, p50 %.3f ms, p99 %.3f ms, lateness p99 %.3f ms (n=%d), backlog max %d",
		ref.rate, conns, len(lat), lat.rank(0.5), lat.rank(0.99), late.rank(0.99), len(late), ref.backlogMax())
	for _, op := range routeOps {
		lat := ref.completed(op)
		r.say("route %-14s n=%d", op, len(lat))
		l.set("serve.route_p50_ms."+op, lat.rank(0.5))
		l.set("serve.route_p99_ms."+op, lat.rank(0.99))
	}
	l.set("loadgen.late_p99_ms", late.rank(0.99))
	l.set("loadgen.backlog_max", float64(ref.backlogMax()))
}

// scrapeGauges reads the unlabeled numeric series of roamd's /metrics.
func scrapeGauges(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
