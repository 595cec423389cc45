package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition). xs need not be sorted and
// is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler polls the live heap — the bytes the last garbage collection
// marked live — and keeps its peak. The live heap is the program's working
// set; the total heap between collections also holds garbage, whose amount
// depends on when the collector happens to run. The sampler owns one
// goroutine between start and stop; stop waits for it to exit.
type heapSampler struct {
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	paused bool
	peak   uint64
}

// pause stops counting until resume, for work the benchmark does between
// measured steps (the quality evaluation). resume collects first, so the
// paused work's buffers are not in the live heap it reads next.
func (h *heapSampler) pause() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.paused = true
	h.mu.Unlock()
}

func (h *heapSampler) resume() {
	if h == nil {
		return
	}
	runtime.GC()
	h.mu.Lock()
	h.paused = false
	h.mu.Unlock()
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	if !h.paused && v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	h.peak = readHeap(s)
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(readHeap(s))
			}
		}
	}()
	return h
}

// stopMB stops the sampler, collects once more so the live heap at the
// end counts, and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	runtime.GC()
	h.observe(readHeap([]metrics.Sample{{Name: heapMetric}}))
	return float64(h.peak) / (1 << 20)
}
