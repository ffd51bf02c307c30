// Package spacegen implements SpaceGEN (§4 of the paper): a synthetic trace
// generator for satellite-based CDNs built on footprint descriptors. It fits
// two traffic models from a production trace —
//
//   - the Global Popularity Distribution (GPD): the joint distribution of an
//     object's popularity at every location and its size, capturing the
//     geographic correlation of content access, and
//   - per-location popularity-size Footprint Descriptors (pFD): the joint
//     distribution of popularity, size, stack distance (unique bytes between
//     consecutive accesses), and request rate,
//
// and regenerates arbitrarily long synthetic traces with Algorithm 1, whose
// caches are realised as byte-indexed treaps.
package spacegen

import (
	"fmt"
	"math/bits"
	"math/rand"

	"starcdn/internal/cache"
	"starcdn/internal/trace"
)

// GPDTuple is one empirical sample of the Global Popularity Distribution:
// an object's request count at each location and its size.
type GPDTuple struct {
	Pops []int64 // per-location popularity (request count), len == locations
	Size int64
}

// GPD is the empirical Global Popularity Distribution P(p_1..p_n, s).
type GPD struct {
	Locations []string
	Tuples    []GPDTuple
}

// Sample draws a tuple uniformly from the empirical distribution.
func (g *GPD) Sample(rng *rand.Rand) GPDTuple {
	return g.Tuples[rng.Intn(len(g.Tuples))]
}

// binKey buckets (popularity, size) pairs on log2 scales; conditioning the
// stack-distance distribution on the exact pair would leave most bins with a
// single observation.
type binKey struct {
	p uint8 // log2 bucket of popularity
	s uint8 // log2 bucket of size in KiB
}

func keyFor(pop, size int64) binKey {
	return binKey{p: log2Bucket(pop), s: log2Bucket(size >> 10)}
}

func log2Bucket(v int64) uint8 {
	if v <= 0 {
		return 0
	}
	return uint8(bits.Len64(uint64(v)) - 1)
}

// PFD is the fitted popularity-size footprint descriptor of one location:
// f(p, s, d, t) factored as the GPD marginal times f_i(d | p, s) plus the
// location's average request rate.
type PFD struct {
	Location     string
	ReqRate      float64 // average requests per second in the production trace
	MaxStackDist int64   // largest finite stack distance observed (bytes)
	// RateProfile holds the location's fine-grained request rate, fitted as
	// normalised per-window multipliers over the production trace span
	// (mean 1). Algorithm 1's timestamp assignment supports either the
	// average rate or this profile (§4.2); the profile preserves diurnal
	// load swings, which matter for orbiting caches.
	RateProfile []float64
	// ProfilePeriodSec is the span the profile covers (the production trace
	// duration); synthetic traces longer than one period tile it.
	ProfilePeriodSec float64
	bins             map[binKey][]int64
	fallback         []int64 // all finite stack distances, any (p, s)
}

// RateAt returns the rate multiplier at the given fraction [0,1) of the
// trace span (1.0 when no profile was fitted).
func (p *PFD) RateAt(frac float64) float64 {
	if len(p.RateProfile) == 0 {
		return 1
	}
	if frac < 0 {
		frac = 0
	}
	idx := int(frac * float64(len(p.RateProfile)))
	if idx >= len(p.RateProfile) {
		idx = len(p.RateProfile) - 1
	}
	return p.RateProfile[idx]
}

// SampleStackDistance draws a stack distance conditioned on the object's
// popularity and size. Unseen (p, s) bins fall back to the nearest populated
// popularity bin at the same size bucket, then to the marginal distribution.
func (p *PFD) SampleStackDistance(rng *rand.Rand, pop, size int64) int64 {
	k := keyFor(pop, size)
	if ds := p.bins[k]; len(ds) > 0 {
		return ds[rng.Intn(len(ds))]
	}
	// Nearest populated popularity bucket with the same size bucket.
	for delta := uint8(1); delta < 64; delta++ {
		if k.p >= delta {
			if ds := p.bins[binKey{p: k.p - delta, s: k.s}]; len(ds) > 0 {
				return ds[rng.Intn(len(ds))]
			}
		}
		if ds := p.bins[binKey{p: k.p + delta, s: k.s}]; len(ds) > 0 {
			return ds[rng.Intn(len(ds))]
		}
	}
	if len(p.fallback) > 0 {
		return p.fallback[rng.Intn(len(p.fallback))]
	}
	return p.MaxStackDist
}

// Models bundles the fitted GPD and the per-location pFDs.
type Models struct {
	GPD  *GPD
	PFDs []*PFD
}

// Fit derives the GPD and pFDs from a production trace, mirroring how the
// paper computes footprint descriptors from Akamai logs.
func Fit(tr *trace.Trace) (*Models, error) {
	n := len(tr.Locations)
	if n == 0 {
		return nil, fmt.Errorf("spacegen: trace has no locations")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("spacegen: trace has no requests")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("spacegen: %w", err)
	}

	// Popularity per object per location, and size per object. Objects are
	// kept in first-appearance order so fitting is deterministic (the tuple
	// order feeds the generator's sampling).
	pops := make(map[cache.ObjectID][]int64)
	sizes := make(map[cache.ObjectID]int64)
	var order []cache.ObjectID
	for i := range tr.Requests {
		r := &tr.Requests[i]
		v, ok := pops[r.Object]
		if !ok {
			v = make([]int64, n)
			pops[r.Object] = v
			order = append(order, r.Object)
		}
		v[r.Location]++
		sizes[r.Object] = r.Size
	}
	gpd := &GPD{Locations: append([]string(nil), tr.Locations...)}
	gpd.Tuples = make([]GPDTuple, 0, len(order))
	for _, obj := range order {
		gpd.Tuples = append(gpd.Tuples, GPDTuple{Pops: pops[obj], Size: sizes[obj]})
	}

	// Per-location stack distances.
	duration := tr.DurationSec()
	if duration <= 0 {
		duration = 1
	}
	pfds := make([]*PFD, n)
	perLoc := tr.SplitByLocation()
	for loc := 0; loc < n; loc++ {
		sub := perLoc[loc]
		pfd := &PFD{
			Location:         tr.Locations[loc],
			ReqRate:          float64(sub.Len()) / duration,
			RateProfile:      fitRateProfile(sub, tr.Requests[0].TimeSec, duration),
			ProfilePeriodSec: duration,
			bins:             make(map[binKey][]int64),
		}
		fitStackDistances(sub, pops, loc, pfd)
		pfds[loc] = pfd
	}
	return &Models{GPD: gpd, PFDs: pfds}, nil
}

// rateProfileWindows is the number of windows the fine-grained rate profile
// divides the trace span into (enough to resolve diurnal swings on day-long
// traces without overfitting short ones).
const rateProfileWindows = 24

// fitRateProfile histograms a location's request times into windows and
// normalises to mean 1. Empty sub-traces fit a flat profile.
func fitRateProfile(sub *trace.Trace, startSec, duration float64) []float64 {
	profile := make([]float64, rateProfileWindows)
	if sub.Len() == 0 || duration <= 0 {
		for i := range profile {
			profile[i] = 1
		}
		return profile
	}
	for i := range sub.Requests {
		frac := (sub.Requests[i].TimeSec - startSec) / duration
		idx := int(frac * rateProfileWindows)
		if idx < 0 {
			idx = 0
		}
		if idx >= rateProfileWindows {
			idx = rateProfileWindows - 1
		}
		profile[idx]++
	}
	mean := float64(sub.Len()) / rateProfileWindows
	for i := range profile {
		profile[i] /= mean
	}
	return profile
}

// fitStackDistances computes, for every non-first access of each object at
// this location, the number of unique bytes requested since the previous
// access of the same object, using a Fenwick tree over access positions.
func fitStackDistances(sub *trace.Trace, pops map[cache.ObjectID][]int64, loc int, pfd *PFD) {
	nReq := sub.Len()
	fen := newFenwick(nReq + 1)
	lastPos := make(map[cache.ObjectID]int, nReq/4+1)
	for i := range sub.Requests {
		r := &sub.Requests[i]
		pos := i + 1 // Fenwick positions are 1-based
		if prev, seen := lastPos[r.Object]; seen {
			// Unique bytes between the accesses: every object whose latest
			// access lies strictly between prev and pos contributes once.
			d := fen.sum(pos-1) - fen.sum(prev)
			pop := pops[r.Object][loc]
			k := keyFor(pop, r.Size)
			pfd.bins[k] = append(pfd.bins[k], d)
			pfd.fallback = append(pfd.fallback, d)
			if d > pfd.MaxStackDist {
				pfd.MaxStackDist = d
			}
			fen.add(prev, -r.Size) // clear the stale latest-position marker
		}
		fen.add(pos, r.Size)
		lastPos[r.Object] = pos
	}
	if pfd.MaxStackDist == 0 {
		// Degenerate trace with no reuse: pick the total footprint so the
		// generator still initialises.
		var total int64
		seen := map[cache.ObjectID]bool{}
		for i := range sub.Requests {
			r := &sub.Requests[i]
			if !seen[r.Object] {
				seen[r.Object] = true
				total += r.Size
			}
		}
		if total == 0 {
			total = 1
		}
		pfd.MaxStackDist = total
	}
}

// fenwick is a classic binary indexed tree over int64 values.
type fenwick struct {
	tree []int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(i int, delta int64) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over positions [1, i].
func (f *fenwick) sum(i int) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
