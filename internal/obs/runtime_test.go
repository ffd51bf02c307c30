package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// mkRuntimeHist builds a cumulative runtime/metrics histogram fixture:
// len(buckets) = len(counts)+1, Buckets are bounds.
func mkRuntimeHist(buckets []float64, counts []uint64) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{Counts: counts, Buckets: buckets}
}

// TestRuntimeBridgeSample: a sample fills the status struct with live
// runtime figures and mirrors them into the starcdn_go_* gauges.
func TestRuntimeBridgeSample(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg)
	runtime.GC() // guarantee at least one GC cycle and pause sample
	st := b.Sample()
	if st.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", st.Goroutines)
	}
	if st.HeapBytes == 0 || st.TotalBytes == 0 {
		t.Errorf("memory sample empty: heap=%d total=%d", st.HeapBytes, st.TotalBytes)
	}
	if st.GCCycles == 0 {
		t.Errorf("gc cycles = 0 after an explicit runtime.GC()")
	}
	if st.LastGCPauseSec <= 0 {
		t.Errorf("last GC pause = %v, want > 0 after runtime.GC()", st.LastGCPauseSec)
	}
	if got := reg.Gauge("starcdn_go_goroutines").Value(); got != float64(st.Goroutines) {
		t.Errorf("goroutines gauge = %v, status = %d", got, st.Goroutines)
	}
	if got := reg.Gauge("starcdn_go_heap_objects_bytes").Value(); got == 0 {
		t.Error("heap gauge not set")
	}
	if got := reg.Gauge("starcdn_go_gc_cycles").Value(); got != float64(st.GCCycles) {
		t.Errorf("gc cycles gauge = %v, status = %d", got, st.GCCycles)
	}
	if got := reg.Gauge("starcdn_go_mem_total_bytes").Value(); got != float64(st.TotalBytes) {
		t.Errorf("total-bytes gauge = %v, status = %d", got, st.TotalBytes)
	}
	if got := reg.Gauge("starcdn_go_gc_pause_last_seconds").Value(); got != st.LastGCPauseSec {
		t.Errorf("last-pause gauge = %v, status = %v", got, st.LastGCPauseSec)
	}
	if got := reg.Gauge("starcdn_go_sched_latency_p99_seconds").Value(); got != st.SchedP99Sec {
		t.Errorf("sched-p99 gauge = %v, status = %v", got, st.SchedP99Sec)
	}
}

// TestRuntimeBridgeHealthLine: the /healthz line carries every field in its
// compact key=value form.
func TestRuntimeBridgeHealthLine(t *testing.T) {
	b := NewRuntimeBridge(nil) // nil registry: sampling without exposition
	line := b.HealthLine()
	for _, key := range []string{"goroutines=", "heap=", "total=", "gc=", "pause=", "sched_p99="} {
		if !strings.Contains(line, key) {
			t.Errorf("health line missing %q: %q", key, line)
		}
	}
}

// TestRuntimeBridgeNil: the nil bridge no-ops everywhere.
func TestRuntimeBridgeNil(t *testing.T) {
	var b *RuntimeBridge
	if b.Sample() != (RuntimeStatus{}) {
		t.Error("nil bridge returned a non-zero sample")
	}
	if b.HealthLine() != "" {
		t.Error("nil bridge rendered a health line")
	}
	b.BindRecorder(nil)
}

// TestRuntimeBridgeBindRecorder: a bound bridge samples pre-snapshot, so the
// epoch's ring slot carries that epoch's runtime state; gauges being plain
// series, delta/rate transforms in /timeseries.json apply to them.
func TestRuntimeBridgeBindRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	b := NewRuntimeBridge(reg)
	b.BindRecorder(rec)
	rec.TickAt(1)
	pts := rec.Window("starcdn_go_goroutines", 0)
	if len(pts) != 1 || pts[0].V < 1 {
		t.Fatalf("goroutine series after one epoch = %v, want one point >= 1", pts)
	}
	rec.TickAt(2)
	if pts = rec.Window("starcdn_go_goroutines", 0); len(pts) != 2 {
		t.Fatalf("goroutine series after two epochs = %v", pts)
	}
}

// TestNewestBucketUpper pins the pause-delta convention: highest bucket with
// fresh counts wins; +Inf upper bounds fall back to the lower bound; no new
// counts means no pause.
func TestNewestBucketUpper(t *testing.T) {
	h := mkRuntimeHist([]float64{0.001, 0.01, 0.1}, []uint64{3, 1})
	if p, ok := newestBucketUpper(h, nil); !ok || p != 0.1 {
		t.Errorf("fresh histogram: %v,%v, want 0.1,true", p, ok)
	}
	prev := mkRuntimeHist([]float64{0.001, 0.01, 0.1}, []uint64{3, 1})
	if _, ok := newestBucketUpper(h, prev); ok {
		t.Error("unchanged histogram reported a new pause")
	}
	next := mkRuntimeHist([]float64{0.001, 0.01, 0.1}, []uint64{4, 1})
	if p, ok := newestBucketUpper(next, prev); !ok || p != 0.01 {
		t.Errorf("delta in the low bucket: %v,%v, want 0.01,true", p, ok)
	}
	inf := mkRuntimeHist([]float64{0.001, 0.01, math.Inf(1)}, []uint64{0, 2})
	if p, ok := newestBucketUpper(inf, nil); !ok || p != 0.01 {
		t.Errorf("+Inf-capped bucket: %v,%v, want lower bound 0.01,true", p, ok)
	}
}

// TestHistQuantileUpper pins the p99 approximation on a known distribution.
func TestHistQuantileUpper(t *testing.T) {
	h := mkRuntimeHist([]float64{0.001, 0.01, 0.1, 1}, []uint64{98, 1, 1})
	if got := histQuantileUpper(h, 0.99); got != 1 {
		t.Errorf("p99 = %v, want 1 (the top bucket's upper bound)", got)
	}
	if got := histQuantileUpper(h, 0.5); got != 0.01 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	if got := histQuantileUpper(mkRuntimeHist([]float64{1, 2}, []uint64{0}), 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}

func TestFmtBytesAndSeconds(t *testing.T) {
	cases := map[uint64]string{
		512:             "512B",
		2 * 1024:        "2.0KiB",
		3 * 1024 * 1024: "3.0MiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if got := fmtSeconds(0.000128); got != "128µs" {
		t.Errorf("fmtSeconds(128µs) = %q", got)
	}
	if got := fmtSeconds(1.5); got != "1.5s" {
		t.Errorf("fmtSeconds(1.5s) = %q", got)
	}
}
