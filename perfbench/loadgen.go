package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/serve"
)

// The open-loop generator. Requests are due on a schedule fixed before
// the step starts; at most conns requests are in flight, and a request
// that finds every connection busy waits in the client backlog.
// Latency runs from the due time, so a stall is charged to every
// request queued behind it.

// request is one scheduled GET.
type request struct {
	op    string
	path  string
	due   time.Duration // offset from the step start
	check bool          // keep the body for the output check
	key   checkKey
}

// checkKey identifies the view a request asks for, so the check can
// compute the reference for it.
type checkKey struct {
	site   int
	lo, hi int
	dev    identity.DeviceID
	series string
}

// target is one mounted site the generator addresses.
type target struct {
	name string
	days int
	devs []identity.DeviceID // popularity order: devs[0] is the hottest
}

// picker draws requests from serve.DefaultMix with zipfian device
// popularity, the same shape roamload issues.
type picker struct {
	rng     *rand.Rand
	mix     serve.Mix
	targets []target
	zipfs   []*rand.Zipf
}

// zipfS is the device-popularity skew.
const zipfS = 1.2

func newPicker(rng *rand.Rand, targets []target) *picker {
	p := &picker{rng: rng, mix: serve.DefaultMix, targets: targets}
	for _, t := range targets {
		p.zipfs = append(p.zipfs, rand.NewZipf(p.rng, zipfS, 1, uint64(max(len(t.devs), 1)-1)))
	}
	return p
}

// next draws one request.
func (p *picker) next() request {
	si := p.rng.Intn(len(p.targets))
	t := p.targets[si]
	m := p.mix
	pick := p.rng.Intn(m.DeviceLookup + m.DaySlice + m.Stats + m.Analysis + m.Compare)
	k := checkKey{site: si}
	switch {
	case pick < m.DeviceLookup && len(t.devs) > 0:
		k.dev = t.devs[p.zipfs[si].Uint64()]
		return request{op: serve.OpDeviceLookup, key: k,
			path: fmt.Sprintf("/v1/sites/%s/devices/%s", t.name, k.dev)}
	case pick < m.DeviceLookup+m.DaySlice:
		k.lo = p.rng.Intn(t.days)
		k.hi = min(k.lo+p.rng.Intn(3), t.days-1)
		return request{op: serve.OpDaySlice, key: k,
			path: fmt.Sprintf("/v1/sites/%s/days?lo=%d&hi=%d", t.name, k.lo, k.hi)}
	case pick < m.DeviceLookup+m.DaySlice+m.Stats:
		return request{op: serve.OpStatsReq, key: k, path: fmt.Sprintf("/v1/sites/%s/stats", t.name)}
	case pick < m.DeviceLookup+m.DaySlice+m.Stats+m.Analysis:
		names := serve.SeriesNames()
		k.series = names[p.rng.Intn(len(names))]
		return request{op: serve.OpAnalysis, key: k,
			path: fmt.Sprintf("/v1/sites/%s/analysis/%s", t.name, k.series)}
	default:
		return request{op: serve.OpCompare, key: k, path: "/v1/compare"}
	}
}

// schedule draws a step's requests, due at evenly spaced times at rate
// per second over dur. Even spacing keeps arrival bursts out of the
// measured variance; the seeded mix still decides which requests miss
// the cache. When checkFirst is set, the first request of each op
// keeps its body for the output check.
func (p *picker) schedule(rate float64, dur time.Duration, checkFirst bool) []request {
	var out []request
	seen := map[string]bool{}
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= dur {
			return out
		}
		rq := p.next()
		rq.due = due
		if checkFirst && !seen[rq.op] {
			seen[rq.op] = true
			rq.check = true
		}
		out = append(out, rq)
	}
}

// outcome is one request's fate.
type outcome struct {
	sent   bool
	status int
	err    error
	lat    float64 // ms from due time to response end
	late   float64 // ms the generator sent after it could have
	body   []byte  // kept for checked requests
}

// backlogPoint samples the client backlog: requests due but not sent.
type backlogPoint struct {
	at      float64 // seconds into the step
	backlog int
}

// stepResult is one fixed-rate step of the schedule.
type stepResult struct {
	rate     float64
	reqs     []request
	outs     []outcome
	backlog  []backlogPoint
	duration time.Duration
}

// drainGrace bounds how long a step waits for its backlog after the
// last request is due; requests still unsent then are abandoned and
// count as missing every latency limit.
const drainGrace = 2 * time.Second

// runStep executes a schedule against base with at most conns
// requests in flight and returns once every request has finished or
// been abandoned: no request is sent later than stop after the start.
// A schedule whose requests are all due at once is a closed loop.
func runStep(client *http.Client, base string, reqs []request, conns int, rate float64, dur, stop time.Duration) *stepResult {
	res := &stepResult{rate: rate, reqs: reqs, outs: make([]outcome, len(reqs)), duration: dur}
	dues := make([]time.Duration, len(reqs))
	for i := range reqs {
		dues[i] = reqs[i].due
	}
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	hardStop := start.Add(stop)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ready := time.Now()
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ready.After(hardStop) {
					return
				}
				due := start.Add(dues[i])
				// Backlog: requests already due that no worker has taken.
				nDue := sort.Search(len(dues), func(k int) bool { return dues[k] > ready.Sub(start) })
				mu.Lock()
				res.backlog = append(res.backlog, backlogPoint{at: ready.Sub(start).Seconds(), backlog: max(nDue-i, 0)})
				mu.Unlock()
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				earliest := due
				if ready.After(due) {
					earliest = ready
				}
				o := &res.outs[i]
				o.sent = true
				o.late = ms(sent.Sub(earliest))
				o.status, o.body, o.err = get(client, base+reqs[i].path, reqs[i].check)
				o.lat = ms(time.Since(due))
			}
		}()
	}
	wg.Wait()
	sort.Slice(res.backlog, func(i, j int) bool { return res.backlog[i].at < res.backlog[j].at })
	return res
}

// get issues one GET, keeping the body when asked.
func get(client *http.Client, url string, keep bool) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ok reports a completed 2xx response.
func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status/100 == 2 }

// latencies returns the step's latencies, with every unsent or failed
// request as +Inf: it missed any limit.
func (s *stepResult) latencies() sample {
	var out sample
	for i := range s.outs {
		if s.outs[i].ok() {
			out = append(out, s.outs[i].lat)
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// completed returns the latencies of op's completed 2xx requests.
func (s *stepResult) completed(op string) sample {
	var out sample
	for i := range s.outs {
		if s.reqs[i].op == op && s.outs[i].ok() {
			out = append(out, s.outs[i].lat)
		}
	}
	return out
}

// lateness returns how late the generator sent each sent request.
func (s *stepResult) lateness() sample {
	var out sample
	for i := range s.outs {
		if s.outs[i].sent {
			out = append(out, s.outs[i].late)
		}
	}
	return out
}

// backlogMax is the largest client backlog sampled in the step.
func (s *stepResult) backlogMax() int {
	m := 0
	for _, p := range s.backlog {
		m = max(m, p.backlog)
	}
	return m
}

// unsent counts requests abandoned at the step's hard stop.
func (s *stepResult) unsent() int {
	n := 0
	for i := range s.outs {
		if !s.outs[i].sent {
			n++
		}
	}
	return n
}

// backlogGrowing reports a backlog that grows over a step: the mean
// backlog over the last third of the step exceeds the mean over the
// first third by more than a floor of two requests or a twentieth of
// a second's arrivals, whichever is larger. A server that keeps up
// shows a backlog that comes and goes; one that does not shows a
// backlog that climbs for as long as the step lasts.
func backlogGrowing(points []backlogPoint, dur time.Duration, rate float64) bool {
	third := dur.Seconds() / 3
	var first, last sample
	for _, p := range points {
		switch {
		case p.at < third:
			first = append(first, float64(p.backlog))
		case p.at >= 2*third:
			last = append(last, float64(p.backlog))
		}
	}
	if len(last) == 0 {
		return false
	}
	return mean(last)-mean(first) > math.Max(2, rate/20)
}

func mean(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// rung is one ladder rate's verdict.
type rung struct {
	rate    float64
	p99     float64 // ms, +Inf when a request missed
	growing bool
}

// verdict judges one rate from one or more steps run at it: p99 over
// their pooled latencies, and a growing backlog only when every step
// showed one (or abandoned requests).
func verdict(rate float64, steps ...*stepResult) rung {
	g := rung{rate: rate, growing: true}
	var lat sample
	for _, st := range steps {
		lat = append(lat, st.latencies()...)
		g.growing = g.growing && (st.unsent() > 0 || backlogGrowing(st.backlog, st.duration, st.rate))
	}
	g.p99 = lat.rank(0.99)
	return g
}

// meets reports whether the rung meets the p99 limit with no growing
// backlog.
func (g rung) meets(limit float64) bool { return !g.growing && g.p99 <= limit }

// maxQPS is the highest rate that meets the p99 limit with no growing
// backlog. Rungs run in ascending rate order and stop at the first
// that fails; between the last rung that meets the limit and that one,
// the rate is interpolated where log p99 crosses log limit, so the
// figure moves continuously rather than in ladder steps. A failing
// rung that shows a growing backlog or an unbounded p99 (requests
// abandoned) adds nothing above the last rung that met the limit. It
// returns 0 when the first rung already fails.
func maxQPS(rungs []rung, limit float64) float64 {
	best := 0.0
	for i, g := range rungs {
		if g.meets(limit) {
			best = g.rate
			continue
		}
		if i == 0 || g.growing || math.IsInf(g.p99, 1) {
			return best
		}
		a := rungs[i-1]
		frac := (math.Log(limit) - math.Log(a.p99)) / (math.Log(g.p99) - math.Log(a.p99))
		return a.rate + math.Max(0, math.Min(1, frac))*(g.rate-a.rate)
	}
	return best
}
