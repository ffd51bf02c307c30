package obs

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"starcdn/internal/obs/sketch"
)

// The micro-benchmarks below price the obs operations sim.Run pays with
// Sketches, a Recorder and Phases on: a top-K update (three per request), a
// sketch observation (one per request), the phase chain (five or six marks
// and a lap per request, one request in seventeen lit) and a recorder epoch
// over a few hundred per-satellite sketches.
// BENCH_obs.json records them in ns per operation, next to the whole-run
// variants they explain.

const benchStream = 1 << 16 // pre-drawn stream length; a power of two, so i&(benchStream-1) cycles it

// benchBatch is how many updates one ObserveEach call applies: the batch
// length sim.Run hands its telemetry consumer.
const benchBatch = 1024

// BenchmarkTopKObserve is one top-K update at the default k=32, applied in
// TopK.ObserveEach batches as sim.Run's consumer applies them and reported
// per update, under the two key streams of a run: Zipf object IDs (the hot
// keys stay tracked, the tail evicts) and near-uniform satellite IDs (almost
// every update evicts).
func BenchmarkTopKObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 7999)
	objects, sats := make([]uint64, benchStream), make([]uint64, benchStream)
	for i := range objects {
		objects[i] = zipf.Uint64()
		sats[i] = uint64(rng.Intn(1170))
	}
	for _, v := range []struct {
		name string
		keys []uint64
	}{{"zipf-objects", objects}, {"uniform-sats", sats}} {
		b.Run(v.name, func(b *testing.B) {
			tk := NewRegistry().TopK("bench_topk", 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i += benchBatch {
				tk.ObserveEach(min(benchBatch, b.N-i), func(j int) (uint64, sketch.Exemplar, bool) {
					return v.keys[(i+j)&(benchStream-1)], sketch.Exemplar{Req: int64(i + j)}, true
				})
			}
		})
	}
}

// benchLatenciesMs draws log-normal latencies around 30 ms, the shape of a
// run's serve latencies.
func benchLatenciesMs(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(rng.NormFloat64()*0.6 + 3.4)
	}
	return out
}

// BenchmarkSketchObserve is one sketch observation, applied in
// Sketch.ObserveEach batches and reported per observation: "continuous"
// never repeats a value, so every observation pays the math.Log of the
// bucket index; "repeated" is the memo hit — the counters and one indexed
// add, with the lock shared by the batch.
func BenchmarkSketchObserve(b *testing.B) {
	continuous := benchLatenciesMs(rand.New(rand.NewSource(2)), benchStream)
	repeated := make([]float64, benchStream)
	for i := range repeated {
		repeated[i] = 29.5
	}
	for _, v := range []struct {
		name string
		xs   []float64
	}{{"continuous", continuous}, {"repeated", repeated}} {
		b.Run(v.name, func(b *testing.B) {
			sk := NewRegistry().Sketch("bench_sketch", 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i += benchBatch {
				sk.ObserveEach(min(benchBatch, b.N-i), func(j int) (float64, sketch.Exemplar) {
					x := v.xs[(i+j)&(benchStream-1)]
					return x, sketch.Exemplar{Req: int64(i + j), Value: x}
				})
			}
		})
	}
}

// BenchmarkPhaseMark prices the phase chain. "sim" is one lit Mark on a live
// profiler — a monotonic clock read and an atomic add — which a fully lit
// chain (the replayer's) pays at every stage boundary. "sim/dark" is the same
// loop on a dark request, where Mark is one branch: ~3.5 ns, of which ~3 is
// the loop's own i%6 (with a constant stage it reads 0.4 ns, too small for
// the whole-nanosecond baselines). "sim/strided" is what sim.Run pays per
// request with Phases on: the six marks of a miss plus the Lap, of which one
// request in phaseStride is lit and one Lap in phaseStride reads the clock.
func BenchmarkPhaseMark(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		pc := NewSimPhases(nil).Clock()
		pc.Begin()
		for i := 0; i < b.N; i++ {
			pc.Mark(i % len(SimPhaseStages))
		}
	})
	b.Run("sim/dark", func(b *testing.B) {
		pc := NewSimPhases(nil).Clock()
		pc.Begin()
		pc.Lap() // request 1 of the stride: dark
		for i := 0; i < b.N; i++ {
			pc.Mark(i % len(SimPhaseStages))
		}
	})
	b.Run("sim/strided", func(b *testing.B) {
		pc := NewSimPhases(nil).Clock()
		pc.Begin()
		for i := 0; i < b.N; i++ {
			for stage := range SimPhaseStages {
				pc.Mark(stage)
			}
			pc.Lap()
		}
	})
}

// sketchRecorder returns a recorder over a registry of n per-satellite
// latency sketches, each holding a few hundred observations, that has taken
// its first snapshot (so the plan and the rings exist).
func sketchRecorder(n int) *Recorder {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < n; s++ {
		sk := reg.Sketch("bench_sat_latency_ms", 0, L("sat", strconv.Itoa(s)))
		xs := benchLatenciesMs(rng, 400)
		sk.ObserveEach(len(xs), func(i int) (float64, sketch.Exemplar) { return xs[i], sketch.Exemplar{} })
	}
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1, Capacity: 64})
	rec.Seal(0)
	return rec
}

// BenchmarkRecorderSnapshot is one recorder epoch over 300 populated
// sketches: one bucket walk per sketch for its three quantiles, and no
// allocation once the plan is built.
func BenchmarkRecorderSnapshot(b *testing.B) {
	b.Run("300-sketches", func(b *testing.B) {
		rec := sketchRecorder(300)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Seal(float64(i + 1))
		}
	})
}

// TestRecorderSketchSnapshotAllocFree holds the recorder's sketch path to
// zero allocations per epoch in steady state.
func TestRecorderSketchSnapshotAllocFree(t *testing.T) {
	rec := sketchRecorder(20)
	now := 0.0
	if allocs := testing.AllocsPerRun(50, func() { now++; rec.Seal(now) }); allocs != 0 {
		t.Errorf("a recorder epoch over sketches allocates %v times, want 0", allocs)
	}
	pts := rec.Window(`bench_sat_latency_ms_q{sat="7",q="0.5"}`, 0)
	if len(pts) == 0 || !(pts[len(pts)-1].V > 10 && pts[len(pts)-1].V < 100) {
		t.Errorf("recorded median ring = %+v, want it to end at a latency near 30 ms", pts)
	}
}
