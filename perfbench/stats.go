package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// frac is a/b, or 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// liveHeapMiB collects garbage and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// gcDelta measures the Go runtime over an interval.
type gcDelta struct{ before runtime.MemStats }

func startGC() *gcDelta {
	d := &gcDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop reports allocated MiB, GC cycles and total GC pause since startGC.
func (d *gcDelta) stop() (allocMiB float64, cycles int, pause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-d.before.TotalAlloc) / mib,
		int(after.NumGC - d.before.NumGC),
		time.Duration(after.PauseTotalNs - d.before.PauseTotalNs)
}

// setRuntime records the runtime layer's metrics from a gcDelta.
func setRuntime(m metrics, d *gcDelta) {
	alloc, cycles, pause := d.stop()
	m.set("runtime.alloc_mib", alloc)
	m.set("runtime.gc_cycles", float64(cycles))
	m.set("runtime.gc_pause_ms", ms(pause))
}
