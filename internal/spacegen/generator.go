package spacegen

import (
	"fmt"
	"math"
	"math/rand"

	"starcdn/internal/cache"
	"starcdn/internal/trace"
)

// Generator runs Algorithm 1 of the paper: correlated synthetic trace
// generation from a GPD and per-location pFDs.
type Generator struct {
	models *Models
	rng    *rand.Rand
	// caches[i] is the generation cache C_i for location i.
	caches []*byteList
	// reqCnt[i] counts requests already emitted per object at location i.
	reqCnt []map[cache.ObjectID]int64
	// nextObj allocates synthetic object IDs.
	nextObj cache.ObjectID
}

// NewGenerator prepares a generator from fitted models. Synthetic object IDs
// are freshly allocated and unrelated to production IDs.
func NewGenerator(models *Models, seed int64) (*Generator, error) {
	if models == nil || models.GPD == nil || len(models.GPD.Tuples) == 0 {
		return nil, fmt.Errorf("spacegen: empty models")
	}
	if len(models.PFDs) != len(models.GPD.Locations) {
		return nil, fmt.Errorf("spacegen: %d pFDs for %d locations",
			len(models.PFDs), len(models.GPD.Locations))
	}
	g := &Generator{
		models:  models,
		rng:     rand.New(rand.NewSource(seed)),
		nextObj: 1,
	}
	n := len(models.GPD.Locations)
	g.caches = make([]*byteList, n)
	g.reqCnt = make([]map[cache.ObjectID]int64, n)
	for i := 0; i < n; i++ {
		g.caches[i] = newByteList(uint64(seed) + uint64(i)*0x1000193 + 1)
		g.reqCnt[i] = make(map[cache.ObjectID]int64)
	}
	g.initialize()
	return g, nil
}

// sampleObject draws a fresh object from the GPD and inserts it at the back
// of every location cache where its popularity is positive (Algorithm 1,
// lines 9-14 and line 25).
func (g *Generator) sampleObject() {
	tup := g.models.GPD.Sample(g.rng)
	id := g.nextObj
	g.nextObj++
	for i, p := range tup.Pops {
		if p > 0 {
			g.caches[i].PushBack(Entry{Obj: id, Size: tup.Size, Pop: p})
		}
	}
}

// initialize fills every cache until it is at least as large as the maximum
// stack distance of its location's pFD (Algorithm 1, phase 1).
func (g *Generator) initialize() {
	needMore := func() bool {
		for i, c := range g.caches {
			if c.TotalBytes() < g.models.PFDs[i].MaxStackDist {
				return true
			}
		}
		return false
	}
	// The guard bounds pathological models where some location's popularity
	// never appears in the GPD; 100x the tuple count is far beyond any
	// realistic fill requirement.
	for guard := 100 * len(g.models.GPD.Tuples); needMore() && guard > 0; guard-- {
		g.sampleObject()
	}
}

// Generate emits approximately totalRequests requests. Time advances in
// one-second ticks; each location emits requests at its fitted rate, so the
// synthetic trace reproduces the production trace's per-location volumes
// (Algorithm 1, phase 2).
func (g *Generator) Generate(totalRequests int) (*trace.Trace, error) {
	if totalRequests <= 0 {
		return nil, fmt.Errorf("spacegen: totalRequests must be positive")
	}
	n := len(g.caches)
	tr := &trace.Trace{
		Locations: append([]string(nil), g.models.GPD.Locations...),
		Requests:  make([]trace.Request, 0, totalRequests),
	}
	counter := make([]float64, n)
	emitted := 0
	for tick := 0; emitted < totalRequests; tick++ {
		progressed := false
		for i := 0; i < n && emitted < totalRequests; i++ {
			pfd := g.models.PFDs[i]
			rate := pfd.ReqRate
			if pfd.ProfilePeriodSec > 0 {
				frac := math.Mod(float64(tick), pfd.ProfilePeriodSec) / pfd.ProfilePeriodSec
				rate *= pfd.RateAt(frac)
			}
			counter[i] += rate
			emitThisTick := 0
			for counter[i] >= 1 && emitted < totalRequests {
				counter[i]--
				if g.emitOne(tr, i, float64(tick), &emitThisTick) {
					emitted++
					progressed = true
				}
			}
		}
		if !progressed && allRatesZero(g.models.PFDs) {
			return nil, fmt.Errorf("spacegen: all locations have zero request rate")
		}
	}
	tr.Sort()
	return tr, nil
}

func allRatesZero(pfds []*PFD) bool {
	for _, p := range pfds {
		if p.ReqRate > 0 {
			return false
		}
	}
	return true
}

// emitOne pops the head of cache i, appends a request, and reinserts or
// replaces the object (Algorithm 1, lines 22-29).
func (g *Generator) emitOne(tr *trace.Trace, i int, tickTime float64, emitThisTick *int) bool {
	e, ok := g.caches[i].PopFront()
	if !ok {
		// Cache drained (all popularity spent): resample until non-empty.
		for attempts := 0; attempts < 10000 && g.caches[i].Len() == 0; attempts++ {
			g.sampleObject()
		}
		e, ok = g.caches[i].PopFront()
		if !ok {
			return false
		}
	}
	// Sub-tick offset keeps same-tick requests ordered but distinct.
	*emitThisTick++
	tr.Append(trace.Request{
		TimeSec:  tickTime + float64(*emitThisTick)*1e-4,
		Object:   e.Obj,
		Size:     e.Size,
		Location: i,
	})
	g.reqCnt[i][e.Obj]++
	if g.reqCnt[i][e.Obj] >= e.Pop {
		// Popularity exhausted at this location: retire and replace.
		delete(g.reqCnt[i], e.Obj)
		g.sampleObject()
		return true
	}
	d := g.models.PFDs[i].SampleStackDistance(g.rng, e.Pop, e.Size)
	g.caches[i].InsertAtBytes(e, d)
	return true
}

// Emitted sub-tick offsets are 1e-4 apart; ticks are 1 s, so a tick holds up
// to 10,000 ordered requests per location before offsets would collide with
// the next tick. Guard against absurd rates at construction time instead of
// silently misordering.
const maxPerLocationTickRate = 9000

// ValidateRates returns an error if any location's fitted request rate would
// overflow the per-tick timestamp budget.
func (m *Models) ValidateRates() error {
	for _, p := range m.PFDs {
		if p.ReqRate > maxPerLocationTickRate {
			return fmt.Errorf("spacegen: location %q rate %.0f req/s exceeds %d",
				p.Location, p.ReqRate, maxPerLocationTickRate)
		}
	}
	return nil
}
