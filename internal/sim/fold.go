package sim

import (
	"math/rand"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/stats"
	"starcdn/internal/trace"
)

// record is one decided request as the fold reads it; object, size, time and
// location are read back from the trace by index. It holds no pointer and
// packs into 16 bytes: a wider record costs the decision loop, which appends
// one per request, more than the pricing moved off it.
type record struct {
	first, server int32 // -1 when none
	legs          Legs
	src           uint8 // Source
}

// batchLen is how many records a batch holds, and batches how many batches a
// run cycles through: one filling, the rest queued or being folded.
const (
	batchLen = 1024
	batches  = 3
)

// batch is one handoff: consecutive requests' records, the sampled ones'
// spans, and — with an obs fold — the priced records its instruments take.
type batch struct {
	recs  []record
	spans []*obs.Span
	pop   []PopRecord
}

func (b *batch) reset() *batch {
	b.recs, b.spans, b.pop = b.recs[:0], b.spans[:0], b.pop[:0]
	return b
}

// pipeline carries the decision loop's records through the run's folds, in
// request order: the loop fills a batch (add), and a full one goes to one
// consumer goroutine, started with the first, which folds batches in handoff
// order. Without an obs fold the consumer prices and meters (fold.apply);
// with one, the request goroutine prices each batch just before its handoff
// and the consumer applies the instruments (runObs.apply); DESIGN.md §9 has
// the measured layouts. The barrier (sync), which Run calls before every
// recorder snapshot and at its end, makes each see exactly the requests
// before it.
type pipeline struct {
	fold *fold
	ro   *runObs // nil: no obs fold
	// Owned by the request goroutine. cur is the batch being filled; work
	// carries full batches to the consumer (nil until the first handoff),
	// free brings them back folded, and done closes when the consumer exits.
	cur        *batch
	work, free chan *batch
	done       chan struct{}
}

func (p *pipeline) newBatch() *batch {
	b := &batch{recs: make([]record, 0, batchLen)}
	if p.ro != nil {
		b.pop = make([]PopRecord, 0, batchLen)
	}
	return b
}

// add appends one decided request, and its span when sampled, handing the
// batch on when it is full.
func (p *pipeline) add(rec record, span *obs.Span) {
	b := p.cur
	b.recs = append(b.recs, rec)
	if span != nil {
		b.spans = append(b.spans, span)
	}
	if len(b.recs) == batchLen {
		p.handOff()
	}
}

// handOff queues the full batch for the consumer, starting it on the first
// call, and takes the next empty batch free gives back, which makes the
// request path wait when every batch is queued.
func (p *pipeline) handOff() {
	if p.ro != nil {
		p.fold.apply(p.cur)
	}
	if p.work == nil {
		// Both channels hold every batch there is, so neither side ever
		// blocks on a send; free starts with the spare ones.
		p.work, p.free = make(chan *batch, batches), make(chan *batch, batches)
		p.done = make(chan struct{})
		for range batches - 1 {
			p.free <- p.newBatch()
		}
		go p.consume()
	}
	p.work <- p.cur
	p.cur = (<-p.free).reset()
}

// consume is the consumer goroutine: it folds batches in handoff order and
// gives each back.
func (p *pipeline) consume() {
	defer close(p.done)
	for b := range p.work {
		if p.ro != nil {
			p.ro.apply(b.pop)
		} else {
			p.fold.apply(b)
		}
		p.free <- b
	}
}

// sync is the barrier: when it returns, every request added so far has been
// folded.
func (p *pipeline) sync() {
	if p.work != nil {
		// Once every batch but cur is back on free, all are folded.
		var back [batches - 1]*batch
		for i := range back {
			back[i] = <-p.free
		}
		for _, b := range back {
			p.free <- b
		}
	}
	p.fold.apply(p.cur)
	if p.ro != nil {
		p.ro.apply(p.cur.pop)
	}
	p.cur.reset()
}

// finish folds what is left and stops the consumer: no goroutine of the run
// outlives Run.
func (p *pipeline) finish() {
	p.sync()
	if p.work != nil {
		close(p.work)
		<-p.done
	}
}

// fold prices decided requests and meters them, in request order: the only
// reader of the run's seeded latency stream and the only writer of its
// Metrics. Nothing it touches per request shares a cache line with what the
// decision loop writes (a shared line moves between the cores on every
// write, and whether two objects share one is the allocator's luck): the
// fold is padded at both ends and holds the stream and config by value, the
// memos are padded too, and apply meters into a copy of the Metrics.
type fold struct {
	//lint:ignore deadfield cache-line padding, read by no code by design: it keeps the decision loop's writes off the fold's lines (TestFoldOwnsItsCacheLines)
	_     [64]byte
	c     *orbit.Constellation
	users []geo.Point
	reqs  []trace.Request
	cfg   Config
	lat   LatencyModel
	rng   rand.Rand
	m     *Metrics
	next  int // trace index of the next record
	// The rolling uplink demand of the congestion model (TrafficScale > 0).
	windowStart, utilization float64
	windowBytes              int64
	// Per-location memo of the user-link propagation delay, refreshed per
	// scheduler epoch (the first contact is stable within one); memoEpoch
	// holds the epoch plus one, so zero is empty.
	epochSec  float64
	memoEpoch []int64
	propMs    []float64
	//lint:ignore deadfield cache-line padding at the fold's end, read by no code by design, as the first field at its start
	_ [64]byte
}

// apply folds b's records: prices and meters each, and fills b.pop for the
// obs fold when there is one. It meters into a private copy of the Metrics
// and their latency CDF, stored back once per batch (see fold).
func (f *fold) apply(b *batch) {
	const demandWindowSec = 15.0
	m, recs, spans, pop := *f.m, b.recs, b.spans, b.pop
	var cdf stats.CDF
	if m.Latency != nil {
		cdf = *m.Latency
	}
	for i := range recs {
		rec := &recs[i]
		idx := f.next
		f.next++
		r := &f.reqs[idx]
		var span *obs.Span
		if len(spans) > 0 && spans[0].Req == int64(idx) {
			span, spans = spans[0], spans[1:]
		}
		src := Source(rec.src)
		if f.cfg.TrafficScale > 0 {
			if r.TimeSec-f.windowStart >= demandWindowSec {
				f.utilization = float64(f.windowBytes) * 8 * f.cfg.TrafficScale /
					demandWindowSec / (f.lat.Links.GSL.BandwidthGbps * 1e9)
				f.windowStart, f.windowBytes = r.TimeSec, 0
			}
			if src.Uplink() {
				f.windowBytes += r.Size
			}
		}
		totalMs := f.price(rec, r, src, span)
		isl := r.Size * int64(int(rec.legs.PlaneHops)+int(rec.legs.SlotHops)+int(rec.legs.RelayHops))
		m.record(orbit.SatID(rec.server), r.Size, src)
		if m.Latency != nil {
			cdf.Add(totalMs)
		}
		m.ISLBytes += isl
		if m.PerClass != nil {
			k := f.cfg.ClassOf(r.Object)
			cm := m.PerClass[k]
			if cm == nil {
				cm = &cache.Meter{}
				m.PerClass[k] = cm
			}
			cm.Record(r.Size, src.Hit())
		}
		if f.cfg.UplinkWindowSec > 0 && src.Uplink() {
			w := int(r.TimeSec / f.cfg.UplinkWindowSec)
			for len(m.UplinkWindows) <= w {
				m.UplinkWindows = append(m.UplinkWindows, 0)
			}
			m.UplinkWindows[w] += r.Size
		}
		if pop != nil {
			traceID := ""
			if span != nil {
				traceID = span.TraceID
			}
			pop = append(pop, PopRecord{Req: int64(idx), Object: r.Object, Size: r.Size,
				LatencyMs: totalMs, TraceID: traceID, Sat: orbit.SatID(rec.server), src: src, isl: isl})
		}
	}
	if m.Latency != nil {
		*m.Latency = cdf
	}
	*f.m, b.pop = m, pop
}

// price draws rec's legs from the run's stream in the order a policy drew
// them before pricing left the request path — route, relay, tail, user link
// — so every sample is unchanged, and returns the end-to-end latency. A
// sampled span gets each leg on its hop, its verdict, and is emitted.
func (f *fold) price(rec *record, r *trace.Request, src Source, span *obs.Span) float64 {
	lat, rng, legs := &f.lat, &f.rng, rec.legs
	routeMs := lat.ISLPathRTTMs(int(legs.PlaneHops), int(legs.SlotHops), rng)
	relayMs := lat.ISLPathRTTMs(int(legs.RelayHops), 0, rng)
	var tailMs float64
	switch legs.Tail {
	case TailGround:
		tailMs = lat.GroundFetchRTTMs(rng)
	case TailGSLPair:
		tailMs = lat.Links.GSL.Sample(rng) + lat.Links.GSL.Sample(rng)
	case TailTerrestrial:
		tailMs = lat.TerrestrialRTTMs(rng)
	}
	totalMs := routeMs + relayMs + tailMs
	if f.cfg.TrafficScale > 0 && src.Uplink() {
		totalMs += lat.QueueingDelayMs(f.utilization)
	}
	var userMs float64
	if legs.Tail != TailTerrestrial {
		var prop float64
		if first := orbit.SatID(rec.first); first < 0 {
			// No coverage: account a nominal overhead-path user link.
			prop = geo.PropagationDelayMs(f.c.Config().AltitudeKm)
		} else {
			epoch := int64(r.TimeSec/f.epochSec) + 1
			if f.memoEpoch[r.Location] != epoch {
				f.memoEpoch[r.Location] = epoch
				d := f.c.SlantRangeKm(first, f.users[r.Location], r.TimeSec)
				f.propMs[r.Location] = geo.PropagationDelayMs(d)
			}
			prop = f.propMs[r.Location]
		}
		userMs = lat.UserLinkRTTMs(prop, rng)
		totalMs += userMs
	}
	if span != nil {
		for h := range span.Hops {
			switch hop := &span.Hops[h]; hop.Kind {
			case "owner":
				hop.SimMs = routeMs
			case "relay-west", "relay-east":
				hop.SimMs = relayMs
			case "ground":
				hop.SimMs = tailMs
			}
		}
		if legs.Tail != TailTerrestrial {
			span.AddHop(obs.Hop{Kind: "user-link", Sat: int(rec.first), SimMs: userMs})
		}
		span.Source = src.String()
		span.Hit = src.Hit()
		span.SimMs = totalMs
		f.cfg.Tracer.Emit(span)
	}
	return totalMs
}
