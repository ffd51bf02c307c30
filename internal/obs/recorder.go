package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the constellation flight recorder: it snapshots every series of
// a Registry on a fixed epoch into fixed-capacity ring buffers, turning the
// point-in-time /metrics surface into a queryable time series (hit rate over
// a kill window, latency quantiles across handovers, per-satellite health
// history). Epochs can be driven by simulated time (sim.Run calls TickAt with
// each request's trace timestamp) or by wall time (StartWall spawns a ticker,
// for the TCP replayer) — the storage and query sides are identical.
//
// The recorder only ever reads the registry; it consumes no randomness and
// touches no simulation state, so enabling it cannot change results.
//
// Counters and gauges record their value per epoch under their canonical
// series key (name{labels}). Histograms fan out into `<key>_count`,
// `<key>_sum`, and one `<name>_bucket{...,le="..."}` series per bound.
//
// A nil *Recorder ignores every call, like the rest of this package.
type Recorder struct {
	reg      *Registry
	epochSec float64
	capN     int

	mu    sync.Mutex
	times []float64            // shared epoch-timestamp ring
	vals  map[string][]float64 // per-series ring, NaN-padded, aligned to times
	head  int                  // next physical write slot
	n     int                  // live entries (<= capN)
	ticks int64                // total snapshots taken

	// next is the next epoch boundary (TickAt driving) as float64 bits,
	// written under mu and read without it: the per-request TickAt that
	// crosses no boundary is one load and a compare.
	next atomic.Uint64

	// plan caches, per registry series in registration order, the
	// destination ring slices and the atomic sources, so the steady-state
	// snapshot is a straight array walk with no sorting, label rendering, or
	// map lookups. The registry is append-only, so the plan only ever grows
	// by the series registered since the last snapshot (paying each one's
	// key-rendering cost once).
	plan []recSeries
	qv   []float64 // snapshot scratch: one sketch's SketchQuantiles estimates

	onEpoch  []func(epochSec float64) // hooks (SLO evaluation), run unlocked
	preEpoch []func(epochSec float64) // pre-snapshot hooks, run under r.mu
}

// recSeries is one plan entry: where a series' epoch samples land.
type recSeries struct {
	src     *series
	ring    []float64   // counter/gauge destination
	cntRing []float64   // histogram <key>_count destination
	sumRing []float64   // histogram <key>_sum destination
	buckets [][]float64 // histogram cumulative _bucket destinations
	samples []float64   // topk/sketch <key>_samples destination
	ranks   [][]float64 // topk <name>_topk{rank=...} destinations
	qs      [][]float64 // sketch <name>_q{q=...} destinations
}

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// EpochSec is the snapshot interval in seconds (simulated or wall,
	// depending on the driver). 0 selects 1s.
	EpochSec float64
	// Capacity is the ring size in epochs. 0 selects
	// DefaultRecorderCapacity.
	Capacity int
}

// DefaultRecorderCapacity is the ring size, in epochs, of a recorder built
// without RecorderOptions.Capacity: older epochs are overwritten.
const DefaultRecorderCapacity = 512

// NewRecorder builds a flight recorder over reg. A nil registry yields a
// recorder that ticks but records nothing (hooks still fire, so SLOs over an
// empty registry simply never evaluate).
func NewRecorder(reg *Registry, opts RecorderOptions) *Recorder {
	if opts.EpochSec <= 0 {
		opts.EpochSec = 1
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultRecorderCapacity
	}
	r := &Recorder{
		reg:      reg,
		epochSec: opts.EpochSec,
		capN:     opts.Capacity,
		times:    make([]float64, opts.Capacity),
		vals:     make(map[string][]float64),
		qv:       make([]float64, len(SketchQuantiles)),
	}
	r.setNext(opts.EpochSec)
	return r
}

// nextBoundary and setNext read and write next as the float64 it holds.
func (r *Recorder) nextBoundary() float64 { return math.Float64frombits(r.next.Load()) }
func (r *Recorder) setNext(t float64)     { r.next.Store(math.Float64bits(t)) }

// EpochSec returns the snapshot interval (0 on nil).
func (r *Recorder) EpochSec() float64 {
	if r == nil {
		return 0
	}
	return r.epochSec
}

// Epochs returns how many snapshots have been taken (0 on nil).
func (r *Recorder) Epochs() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Retained returns how many snapshots the ring still holds: the newest, at
// most its capacity (0 on nil).
func (r *Recorder) Retained() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// OnEpoch registers a hook invoked (outside the recorder lock) after every
// snapshot with the epoch's timestamp. The SLO engine registers itself here.
func (r *Recorder) OnEpoch(fn func(t float64)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onEpoch = append(r.onEpoch, fn)
	r.mu.Unlock()
}

// OnEpochPre registers a hook invoked at the start of every snapshot, while
// the recorder lock is held and *before* the registry plan walk — so values
// the hook pushes into the registry (a runtime-bridge sample, a phase-timer
// flush) land in the very epoch being snapshotted rather than the next one.
//
// Pre-hooks run under r.mu: they must not call back into the recorder (that
// would deadlock) and should only read external state and store into
// registry instruments. Series a hook writes to must be registered before
// the first snapshot if they are to appear in that snapshot's plan (the
// plan is extended after the pre-hooks, so same-call registrations are
// still picked up — but keep hooks allocation-free by pre-registering).
func (r *Recorder) OnEpochPre(fn func(t float64)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.preEpoch = append(r.preEpoch, fn)
	r.mu.Unlock()
}

// Resume starts a new run of an event clock that begins at zero and returns
// the origin the caller adds to it. A fresh recorder's origin is 0. One that
// holds points resumes at the first epoch boundary after the last of them,
// and its next snapshot falls one epoch later, as a fresh recorder's does:
// a later run's points follow the earlier runs' in time, one per epoch the
// run spans. Nil-safe.
func (r *Recorder) Resume() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ticks == 0 {
		return 0
	}
	origin := r.nextBoundary()
	r.setNext(origin + r.epochSec)
	return origin
}

// Due reports whether TickAt(t) would snapshot: t has reached the next epoch
// boundary. A caller with state to settle before a snapshot settles it when
// Due. Nil-safe.
func (r *Recorder) Due(t float64) bool {
	return r != nil && t >= r.nextBoundary()
}

// TickAt drives the recorder from a monotone event clock (simulated seconds):
// the first call at or past the next epoch boundary snapshots the registry,
// stamped with the boundary time. At most one snapshot is taken per call, so
// quiet stretches skip epochs rather than replaying stale values. Nil-safe.
func (r *Recorder) TickAt(t float64) {
	if r == nil {
		return
	}
	if !r.Due(t) {
		return
	}
	r.mu.Lock()
	if t < r.nextBoundary() { // another driver took this epoch
		r.mu.Unlock()
		return
	}
	boundary := math.Floor(t/r.epochSec) * r.epochSec
	r.snapshotLocked(boundary)
	r.setNext(boundary + r.epochSec)
	hooks := r.onEpoch
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(boundary)
	}
}

// Seal forces one final snapshot at time t regardless of epoch alignment —
// the end-of-run flush, so the last partial epoch is not lost. Nil-safe.
func (r *Recorder) Seal(t float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snapshotLocked(t)
	r.setNext(math.Floor(t/r.epochSec)*r.epochSec + r.epochSec)
	hooks := r.onEpoch
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(t)
	}
}

// StartWall drives the recorder from wall time: a background ticker snapshots
// every EpochSec seconds, stamped with seconds-since-start. The returned stop
// function halts the ticker and seals a final epoch; it is idempotent.
func (r *Recorder) StartWall() (stop func()) {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(time.Duration(r.epochSec * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				r.Seal(now.Sub(start).Seconds())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			r.Seal(time.Since(start).Seconds())
		})
	}
}

// snapshotLocked appends one epoch. Callers hold r.mu.
//
// The hot path is the plan walk: one atomic load and one float store per
// recorded series, with the key rendering and ring allocation paid once per
// series in planLocked. Registry series are append-only, so every ring in
// r.vals is covered by the plan and no NaN back-padding pass is needed.
func (r *Recorder) snapshotLocked(t float64) {
	for _, fn := range r.preEpoch {
		fn(t)
	}
	slot := r.head
	r.times[slot] = t
	r.planLocked(r.reg.seriesFrom(len(r.plan)))
	for _, rs := range r.plan {
		s := rs.src
		switch s.kind {
		case counterKind:
			rs.ring[slot] = float64(s.c.Value())
		case gaugeKind:
			rs.ring[slot] = s.g.Value()
		case histogramKind:
			var run int64
			for i := range s.h.counts {
				run += s.h.counts[i].Load()
				rs.buckets[i][slot] = float64(run)
			}
			rs.cntRing[slot] = float64(run)
			rs.sumRing[slot] = s.h.Sum()
		case topkKind:
			top := s.tk.Top()
			for i := range rs.ranks {
				if i < len(top) {
					rs.ranks[i][slot] = float64(top[i].Count)
				} else {
					rs.ranks[i][slot] = math.NaN()
				}
			}
			rs.samples[slot] = float64(s.tk.N())
		case sketchKind:
			rs.samples[slot] = float64(s.sk.quantilesInto(r.qv))
			for i := range rs.qs {
				rs.qs[i][slot] = r.qv[i]
			}
		}
	}
	r.head = (r.head + 1) % r.capN
	if r.n < r.capN {
		r.n++
	}
	r.ticks++
}

// planLocked extends the snapshot plan with newly registered series: one
// entry each, with destination rings resolved (and NaN-backfilled) and
// histogram bucket keys rendered once. Callers hold r.mu.
func (r *Recorder) planLocked(added []*series) {
	for _, s := range added {
		rs := recSeries{src: s}
		switch s.kind {
		case histogramKind:
			rs.cntRing = r.ringLocked(s.key + "_count")
			rs.sumRing = r.ringLocked(s.key + "_sum")
			rs.buckets = make([][]float64, len(s.h.counts))
			for i := range s.h.counts {
				le := "+Inf"
				if i < len(s.h.bounds) {
					le = formatFloat(s.h.bounds[i])
				}
				bs := SeriesSnapshot{Labels: append(append([]Label(nil), s.labels...), L("le", le))}
				rs.buckets[i] = r.ringLocked(s.name + "_bucket" + bs.LabelString())
			}
		case topkKind:
			rs.samples = r.ringLocked(s.key + "_samples")
			rs.ranks = make([][]float64, promTopKRanks)
			for i := range rs.ranks {
				rs.ranks[i] = r.ringLocked(derivedRingKey(s.name+"_topk", s.labels, "rank", formatFloat(float64(i+1))))
			}
		case sketchKind:
			rs.samples = r.ringLocked(s.key + "_samples")
			rs.qs = make([][]float64, len(SketchQuantiles))
			for i, q := range SketchQuantiles {
				rs.qs[i] = r.ringLocked(derivedRingKey(s.name+"_q", s.labels, "q", formatFloat(q)))
			}
		default:
			rs.ring = r.ringLocked(s.key)
		}
		r.plan = append(r.plan, rs)
	}
}

// derivedRingKey renders the ring key of a derived series — the base
// labels plus one appended dimension (rank for top-K, q for sketches),
// following the histogram _bucket convention of appending the extra label
// last.
func derivedRingKey(name string, labels []Label, extraKey, extraVal string) string {
	bs := SeriesSnapshot{Labels: append(append([]Label(nil), labels...), L(extraKey, extraVal))}
	return name + bs.LabelString()
}

// ringLocked returns (creating and NaN-backfilling if needed) the ring for a
// series key. Callers hold r.mu.
func (r *Recorder) ringLocked(key string) []float64 {
	ring, ok := r.vals[key]
	if !ok {
		ring = make([]float64, r.capN)
		for i := range ring {
			ring[i] = math.NaN()
		}
		r.vals[key] = ring
	}
	return ring
}

// Point is one (time, value) sample of a recorded series. Value is NaN for
// epochs the series had not yet appeared in.
type Point struct {
	T float64
	V float64
}

// slotAt maps logical index i (0 oldest .. n-1 newest) to a physical slot.
func (r *Recorder) slotAt(i int) int {
	return (r.head - r.n + i + r.capN) % r.capN
}

// Series returns the sorted keys of every recorded series (nil on nil).
func (r *Recorder) Series() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.vals))
	for k := range r.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Window returns the samples of series key whose epoch time is strictly
// greater than lastEpochTime-windowSec (windowSec <= 0 returns everything
// retained). Unknown series and nil recorders return nil.
func (r *Recorder) Window(key string, windowSec float64) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ring, ok := r.vals[key]
	if !ok || r.n == 0 {
		return nil
	}
	latest := r.times[r.slotAt(r.n-1)]
	var out []Point
	for i := 0; i < r.n; i++ {
		slot := r.slotAt(i)
		if windowSec > 0 && r.times[slot] <= latest-windowSec {
			continue
		}
		out = append(out, Point{T: r.times[slot], V: ring[slot]})
	}
	return out
}

// Delta returns how much a cumulative series (counter, histogram
// _count/_sum/_bucket) grew inside the window, accumulated epoch by epoch
// following the increase() convention:
//
//   - A series born inside the retained history counts its whole first
//     value (the first in-window epoch's increments are attributed to the
//     window, not silently dropped).
//   - A *decrease* between adjacent epochs means the underlying counter
//     restarted from zero (a killed-and-revived server re-registering its
//     meters); the post-reset value is counted as that epoch's increase, so
//     the delta stays monotone non-negative instead of going negative and
//     poisoning rates and SLO ratios across the reset.
//
// ok=false without at least one in-window sample.
func (r *Recorder) Delta(key string, windowSec float64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ring, ok := r.vals[key]
	if !ok || r.n == 0 {
		return 0, false
	}
	latest := r.times[r.slotAt(r.n-1)]
	prev, total, seen := math.NaN(), 0.0, false
	for i := 0; i < r.n; i++ {
		slot := r.slotAt(i)
		v := ring[slot]
		if math.IsNaN(v) {
			continue
		}
		if windowSec > 0 && r.times[slot] <= latest-windowSec {
			prev = v // pre-window baseline (resets before the window don't matter)
			continue
		}
		seen = true
		if math.IsNaN(prev) || v < prev {
			total += v // first appearance, or counter reset: count the accrual from zero
		} else {
			total += v - prev
		}
		prev = v
	}
	if !seen {
		return 0, false
	}
	return total, true
}
