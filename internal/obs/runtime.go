package obs

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeBridge samples the Go runtime's own telemetry (runtime/metrics)
// into the starcdn_go_* gauge family, so a chaos run shows GC and goroutine
// behaviour in the same /metrics scrape, flight-recorder rings and
// /timeseries.json epochs as hit rate and burn rate.
//
// The bridge pre-registers its gauges and pre-builds its sample batch at
// construction; Sample only reads the runtime and stores — it allocates
// nothing and registers nothing, which makes it safe to run inside the
// recorder's snapshot lock (BindRecorder attaches it as a pre-epoch hook so
// each epoch's ring slot carries that epoch's runtime sample).
//
// Every series is a gauge — even the monotone ones (gc cycles) — so
// /timeseries.json's ?form=delta|rate transforms apply uniformly and a
// process restart shows up as a counter reset (clamped by the transform)
// rather than a lie. A nil *RuntimeBridge no-ops everywhere, matching the
// registry's nil discipline.
type RuntimeBridge struct {
	mu      sync.Mutex // metrics.Read batches are not safe for concurrent reuse
	samples []metrics.Sample

	goroutines *Gauge
	heapBytes  *Gauge
	totalBytes *Gauge
	gcCycles   *Gauge
	gcPause    *Gauge
	schedP99   *Gauge

	prevPause *metrics.Float64Histogram // last /gc/pauses snapshot, for deltas
	lastPause float64                   // LastGCPauseSec of the last sample; sticky between GCs
}

// The runtime/metrics names the bridge samples, in batch order.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmTotalBytes = "/memory/classes/total:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// RuntimeStatus is one sample of the bridge, the struct behind the /healthz
// runtime line.
type RuntimeStatus struct {
	Goroutines     int64
	HeapBytes      uint64
	TotalBytes     uint64
	GCCycles       uint64
	LastGCPauseSec float64 // upper bound of the newest pause bucket; sticky between GCs
	SchedP99Sec    float64 // p99 of the cumulative scheduling-latency distribution
}

// NewRuntimeBridge builds a bridge registering its gauges in reg. A nil
// registry is allowed: the bridge still samples (HealthLine works) but
// exports no series.
func NewRuntimeBridge(reg *Registry) *RuntimeBridge {
	b := &RuntimeBridge{
		samples: []metrics.Sample{
			{Name: rmGoroutines},
			{Name: rmHeapBytes},
			{Name: rmTotalBytes},
			{Name: rmGCCycles},
			{Name: rmGCPauses},
			{Name: rmSchedLat},
		},
	}
	if reg != nil {
		b.goroutines = reg.Gauge("starcdn_go_goroutines")
		b.heapBytes = reg.Gauge("starcdn_go_heap_objects_bytes")
		b.totalBytes = reg.Gauge("starcdn_go_mem_total_bytes")
		b.gcCycles = reg.Gauge("starcdn_go_gc_cycles")
		b.gcPause = reg.Gauge("starcdn_go_gc_pause_last_seconds")
		b.schedP99 = reg.Gauge("starcdn_go_sched_latency_p99_seconds")
	}
	return b
}

// Sample reads the runtime, updates the gauges, and returns the snapshot.
// Nil-safe; safe for concurrent use (serialised internally).
func (b *RuntimeBridge) Sample() RuntimeStatus {
	if b == nil {
		return RuntimeStatus{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	metrics.Read(b.samples)

	st := RuntimeStatus{LastGCPauseSec: b.lastPause}
	for i := range b.samples {
		s := &b.samples[i]
		switch s.Name {
		case rmGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				st.Goroutines = int64(s.Value.Uint64())
			}
		case rmHeapBytes:
			if s.Value.Kind() == metrics.KindUint64 {
				st.HeapBytes = s.Value.Uint64()
			}
		case rmTotalBytes:
			if s.Value.Kind() == metrics.KindUint64 {
				st.TotalBytes = s.Value.Uint64()
			}
		case rmGCCycles:
			if s.Value.Kind() == metrics.KindUint64 {
				st.GCCycles = s.Value.Uint64()
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				if p, ok := newestBucketUpper(h, b.prevPause); ok {
					st.LastGCPauseSec = p
				}
				b.prevPause = cloneHist(h)
			}
		case rmSchedLat:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				st.SchedP99Sec = histQuantileUpper(s.Value.Float64Histogram(), 0.99)
			}
		}
	}

	b.lastPause = st.LastGCPauseSec
	b.goroutines.Set(float64(st.Goroutines))
	b.heapBytes.Set(float64(st.HeapBytes))
	b.totalBytes.Set(float64(st.TotalBytes))
	b.gcCycles.Set(float64(st.GCCycles))
	b.gcPause.Set(st.LastGCPauseSec)
	b.schedP99.Set(st.SchedP99Sec)
	return st
}

// HealthLine samples the runtime and renders the compact /healthz line, e.g.
// "goroutines=12 heap=2.5MiB total=13.1MiB gc=4 pause=128µs sched_p99=33µs".
// Nil bridges return "".
func (b *RuntimeBridge) HealthLine() string {
	if b == nil {
		return ""
	}
	st := b.Sample()
	return fmt.Sprintf("goroutines=%d heap=%s total=%s gc=%d pause=%s sched_p99=%s",
		st.Goroutines, fmtBytes(st.HeapBytes), fmtBytes(st.TotalBytes),
		st.GCCycles, fmtSeconds(st.LastGCPauseSec), fmtSeconds(st.SchedP99Sec))
}

// BindRecorder samples the runtime on every recorder epoch, inside the
// snapshot, so each epoch's rings carry that epoch's runtime state. Nil-safe
// on both sides.
func (b *RuntimeBridge) BindRecorder(rec *Recorder) {
	if b == nil || rec == nil {
		return
	}
	rec.OnEpochPre(func(float64) { b.Sample() })
}

// newestBucketUpper finds the highest finite bucket of h that gained counts
// since prev (a cumulative-histogram delta) and returns its upper bound — the
// bridge's "last GC pause" approximation. With no previous snapshot the whole
// histogram counts as new; ok is false when nothing new landed.
func newestBucketUpper(h, prev *metrics.Float64Histogram) (pause float64, ok bool) {
	if h == nil || len(h.Counts) == 0 {
		return 0, false
	}
	for i := len(h.Counts) - 1; i >= 0; i-- {
		c := h.Counts[i]
		if prev != nil && i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		if c == 0 {
			continue
		}
		// Buckets[i+1] is the bucket's upper bound; fall back to the lower
		// bound when the histogram's last bucket is +Inf-capped.
		if i+1 < len(h.Buckets) && !isInf(h.Buckets[i+1]) {
			return h.Buckets[i+1], true
		}
		if i < len(h.Buckets) {
			return h.Buckets[i], true
		}
		return 0, false
	}
	return 0, false
}

// histQuantileUpper returns the upper bound of the bucket containing quantile
// q of a cumulative runtime/metrics histogram (0 when empty).
func histQuantileUpper(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen > want {
			if i+1 < len(h.Buckets) && !isInf(h.Buckets[i+1]) {
				return h.Buckets[i+1]
			}
			if i < len(h.Buckets) {
				return h.Buckets[i]
			}
			return 0
		}
	}
	return 0
}

func cloneHist(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	if h == nil {
		return nil
	}
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

func isInf(f float64) bool { return f > 1e300 || f < -1e300 }

// fmtBytes renders a byte count with a binary-unit suffix, one decimal.
func fmtBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// fmtSeconds renders a duration in seconds with time.Duration's adaptive
// unit formatting ("128µs", "1.5ms").
func fmtSeconds(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
