package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, so the figure is never set by a
// single outlier; ok is false when n is too small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// Samples strictly beyond the p-th percentile: n*(1-p/100),
		// rounded down. The epsilon absorbs binary-fraction error.
		if int(math.Floor(float64(n)*(100-p)/100+1e-9)) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bucket is one cumulative Prometheus histogram bucket.
type bucket struct{ le, cum float64 }

// histQuantile returns the upper bound of the first bucket at which the
// merged histograms reach quantile q (0..1). Each histogram lists its
// buckets in ascending order up to its highest non-empty one, so its
// cumulative count at any bound is that of the last bucket at or below it.
func histQuantile(hists [][]bucket, q float64) float64 {
	var total float64
	var bounds []float64
	for _, h := range hists {
		for _, b := range h {
			if math.IsInf(b.le, 1) {
				total += b.cum
			} else {
				bounds = append(bounds, b.le)
			}
		}
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(bounds)
	for _, le := range bounds {
		var cum float64
		for _, h := range hists {
			var c float64
			for _, b := range h {
				if b.le <= le {
					c = b.cum
				}
			}
			cum += c
		}
		if cum >= q*total {
			return le
		}
	}
	return bounds[len(bounds)-1]
}

// memSampler tracks the peak of the Go runtime's resident memory — all
// memory it has mapped minus what it has released to the OS — by sampling
// runtime/metrics until stopped. Unlike the process's peak RSS, which only
// ever grows, it gives each iteration its own peak.
type memSampler struct {
	stop chan struct{}
	done chan uint64
}

var memMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := make([]metrics.Sample, len(memMetrics))
		for i, name := range memMetrics {
			samples[i].Name = name
		}
		var peak uint64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() - samples[1].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-m.stop:
				m.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak in MiB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	return float64(<-m.done) / (1 << 20)
}
