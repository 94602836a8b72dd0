package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle value (the mean of the two middle values for
// an even count); 0 for an empty sample.
func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// rank is the nearest-rank p-quantile (0 < p <= 1): the smallest
// value with at least a p share of the sample at or below it.
func (s sample) rank(p float64) float64 {
	return nearestRank(s.sorted(), p)
}

// nearestRank is rank over an already sorted sample.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(n)))
	k = max(1, min(k, n))
	return sorted[k-1]
}

// heapSampler tracks the peak live-heap bytes of this process by
// polling runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// heapObjects is the runtime/metrics series the sampler polls.
const heapObjects = "/memory/classes/heap/objects:bytes"

// startHeapSampler polls every 5 ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMiB stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
