// Package workload synthesises the "production" CDN traces that stand in for
// the paper's Akamai traces. The paper measured (§3.1) that content access is
// geographically diverse: nearby cities share ~55% of objects but ~90% of
// traffic volume (Fig. 2), while cities in different language areas share few
// objects even within one continent (Table 2). This generator reproduces
// those statistics with a three-tier catalogue:
//
//   - global objects: accessed everywhere, popularity-boosted (the Zipf head)
//   - cluster objects: shared within a language group and geographic radius
//   - local objects: accessed only at their home city
//
// SpaceGEN (internal/spacegen) is then *fitted* to traces from this package,
// exactly as the paper fits footprint descriptors to Akamai logs.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

// Class holds the knobs for one CDN traffic class.
type Class struct {
	Name string
	// Catalogue
	NumObjects int
	ZipfS      float64 // Zipf exponent for the popularity distribution
	// Object size: log-normal in bytes.
	SizeMedianBytes float64
	SizeSigma       float64 // sigma of ln(size)
	MinSizeBytes    int64
	MaxSizeBytes    int64
	// Tier probabilities (remainder is local).
	GlobalFrac  float64
	ClusterFrac float64
	// GlobalBoost multiplies the popularity of global objects so the traffic
	// head is shared even though most objects are not.
	GlobalBoost float64
	// GlobalReachKm is the mean of the exponentially distributed reach
	// radius drawn per global object: the object is accessed at every city
	// within that radius of its home. Because the radius is shared, nearby
	// cities carry correlated catalogues, which reproduces Fig. 2's high
	// near-pair traffic overlap and its monotone decay with distance.
	GlobalReachKm float64
	// GlobalFloor is the probability that a city beyond the reach radius
	// still carries the object (the truly world-wide head).
	GlobalFloor float64
	// ClusterRadiusKm is the geographic radius within which cluster objects
	// are shared regardless of language.
	ClusterRadiusKm float64
	// DiurnalAmplitude in [0,1) modulates request rate over the day with the
	// local solar phase of each city.
	DiurnalAmplitude float64
}

// Video returns the video traffic-class parameters, calibrated so the
// object/traffic overlap statistics match §3.1 of the paper (Table 2 and
// Fig. 2): large objects, strongly skewed popularity, a popular shared head.
func Video() Class {
	return Class{
		Name:             "video",
		NumObjects:       120_000,
		ZipfS:            0.9,
		SizeMedianBytes:  1 << 20, // ~1 MB per request unit, matching 512TB/423M
		SizeSigma:        1.2,
		MinSizeBytes:     64 << 10,
		MaxSizeBytes:     512 << 20,
		GlobalFrac:       0.02,
		ClusterFrac:      0.50,
		GlobalBoost:      25,
		GlobalReachKm:    4000,
		GlobalFloor:      0.12,
		ClusterRadiusKm:  3000,
		DiurnalAmplitude: 0.5,
	}
}

// Web returns the web traffic-class parameters: many small objects, flatter
// popularity, lower total footprint (§5.5: hit rate curves rise gradually).
func Web() Class {
	return Class{
		Name:             "web",
		NumObjects:       300_000,
		ZipfS:            0.8,
		SizeMedianBytes:  64 << 10,
		SizeSigma:        1.5,
		MinSizeBytes:     1 << 10,
		MaxSizeBytes:     32 << 20,
		GlobalFrac:       0.03,
		ClusterFrac:      0.25,
		GlobalBoost:      10,
		GlobalReachKm:    5000,
		GlobalFloor:      0.3,
		ClusterRadiusKm:  3000,
		DiurnalAmplitude: 0.5,
	}
}

// Download returns the software-download class: few, very large objects with
// a strongly shared catalogue (software is global) and fewer requests.
func Download() Class {
	return Class{
		Name:             "download",
		NumObjects:       30_000,
		ZipfS:            1.0,
		SizeMedianBytes:  8 << 20,
		SizeSigma:        1.8,
		MinSizeBytes:     256 << 10,
		MaxSizeBytes:     4 << 30,
		GlobalFrac:       0.15,
		ClusterFrac:      0.25,
		GlobalBoost:      6,
		GlobalReachKm:    9000,
		GlobalFloor:      0.5,
		ClusterRadiusKm:  5000,
		DiurnalAmplitude: 0.4,
	}
}

// ClassByName resolves a traffic class by name.
func ClassByName(name string) (Class, error) {
	switch name {
	case "video":
		return Video(), nil
	case "web":
		return Web(), nil
	case "download":
		return Download(), nil
	}
	return Class{}, fmt.Errorf("workload: unknown traffic class %q", name)
}

// tier of an object's geographic scope.
type tier uint8

const (
	tierLocal tier = iota
	tierCluster
	tierGlobal
)

// object is one catalogue entry.
type object struct {
	id    cache.ObjectID
	size  int64
	tier  tier
	home  int     // home city index
	base  float64 // base popularity weight
	langs string  // language of home city (cluster sharing key)
}

// Generator produces trace.Trace values for a set of cities and one class.
type Generator struct {
	class  Class
	cities []geo.City
	rng    *rand.Rand
	// catalogue
	objects []object
	// per-location weighted samplers
	samplers []*aliasSampler
	// locWeight holds normalised request-rate weights per city.
	locWeight []float64
}

// NewGenerator builds the catalogue and per-city popularity distributions.
// The generator is deterministic for a given (class, cities, seed).
func NewGenerator(class Class, cities []geo.City, seed int64) (*Generator, error) {
	if len(cities) == 0 {
		return nil, fmt.Errorf("workload: need at least one city")
	}
	if class.NumObjects <= 0 {
		return nil, fmt.Errorf("workload: class %q has no objects", class.Name)
	}
	g := &Generator{
		class:  class,
		cities: cities,
		rng:    rand.New(rand.NewSource(seed)),
	}
	g.buildCatalogue()
	g.buildSamplers()
	g.buildLocWeights()
	return g, nil
}

// Cities returns the generator's city list.
func (g *Generator) Cities() []geo.City { return g.cities }

// Class returns the traffic class.
func (g *Generator) Class() Class { return g.class }

// NumObjects returns the catalogue size.
func (g *Generator) NumObjects() int { return len(g.objects) }

func (g *Generator) buildCatalogue() {
	n := g.class.NumObjects
	g.objects = make([]object, n)
	// Zipf weights over ranks; assign ranks randomly to objects so object ID
	// carries no popularity information.
	for i := 0; i < n; i++ {
		rank := i + 1
		w := math.Pow(float64(rank), -g.class.ZipfS)
		t := tierLocal
		r := g.rng.Float64()
		switch {
		case r < g.class.GlobalFrac:
			t = tierGlobal
			w *= g.class.GlobalBoost
		case r < g.class.GlobalFrac+g.class.ClusterFrac:
			t = tierCluster
		}
		home := g.sampleHomeCity()
		g.objects[i] = object{
			id:    cache.ObjectID(i + 1),
			size:  g.sampleSize(),
			tier:  t,
			home:  home,
			base:  w,
			langs: g.cities[home].Language,
		}
	}
}

func (g *Generator) sampleHomeCity() int {
	total := 0.0
	for _, c := range g.cities {
		total += c.Weight
	}
	r := g.rng.Float64() * total
	for i, c := range g.cities {
		r -= c.Weight
		if r <= 0 {
			return i
		}
	}
	return len(g.cities) - 1
}

func (g *Generator) sampleSize() int64 {
	s := g.class.SizeMedianBytes * math.Exp(g.class.SizeSigma*g.rng.NormFloat64())
	v := int64(s)
	if v < g.class.MinSizeBytes {
		v = g.class.MinSizeBytes
	}
	if v > g.class.MaxSizeBytes {
		v = g.class.MaxSizeBytes
	}
	return v
}

// weightAt returns the popularity weight of object o at city loc, applying
// the tier sharing rules. Zero means the object is not accessed there.
func (g *Generator) weightAt(o *object, loc int) float64 {
	if loc == o.home {
		return o.base
	}
	switch o.tier {
	case tierGlobal:
		// A global object reaches every city within its per-object reach
		// radius (exponential, deterministic per object), plus a floored
		// independent chance beyond it.
		d := geo.DistanceKm(g.cities[loc].Point, g.cities[o.home].Point)
		radius := -g.class.GlobalReachKm * math.Log(1-carryHash(uint64(o.id), 0))
		if d <= radius {
			return o.base
		}
		if carryHash(uint64(o.id), uint64(loc)+1) < g.class.GlobalFloor {
			return o.base
		}
		return 0
	case tierCluster:
		// Cluster content is language-bound (Table 2: cross-language overlap
		// is low even between nearby European cities); within a language it
		// decays with distance (Fig. 2).
		c := g.cities[loc]
		if c.Language != o.langs {
			return 0
		}
		if geo.DistanceKm(c.Point, g.cities[o.home].Point) <= g.class.ClusterRadiusKm {
			return o.base
		}
		return o.base * 0.5
	default:
		return 0
	}
}

func (g *Generator) buildSamplers() {
	g.samplers = make([]*aliasSampler, len(g.cities))
	for loc := range g.cities {
		idx := make([]int32, 0, len(g.objects)/2)
		w := make([]float64, 0, len(g.objects)/2)
		for i := range g.objects {
			if wt := g.weightAt(&g.objects[i], loc); wt > 0 {
				idx = append(idx, int32(i))
				w = append(w, wt)
			}
		}
		g.samplers[loc] = newAliasSampler(idx, w)
	}
}

func (g *Generator) buildLocWeights() {
	g.locWeight = make([]float64, len(g.cities))
	total := 0.0
	for i, c := range g.cities {
		g.locWeight[i] = c.Weight
		total += c.Weight
	}
	for i := range g.locWeight {
		g.locWeight[i] /= total
	}
}

// Generate emits a trace with approximately totalRequests requests spanning
// durationSec seconds across all cities, with per-city request rates
// proportional to city weights and diurnally modulated by local solar time.
func (g *Generator) Generate(totalRequests int, durationSec float64) (*trace.Trace, error) {
	if totalRequests <= 0 || durationSec <= 0 {
		return nil, fmt.Errorf("workload: totalRequests and durationSec must be positive")
	}
	tr := &trace.Trace{Locations: make([]string, len(g.cities))}
	for i, c := range g.cities {
		tr.Locations[i] = c.Name
	}
	perCity := make([]int, len(g.cities))
	total := 0
	for loc := range perCity {
		perCity[loc] = int(math.Round(float64(totalRequests) * g.locWeight[loc]))
		total += perCity[loc]
	}
	tr.Requests = make([]trace.Request, 0, total)
	amp := g.class.DiurnalAmplitude
	for loc, n := range perCity {
		phase := geo.Radians(g.cities[loc].Point.LonDeg) // solar phase by longitude
		for k := 0; k < n; k++ {
			t := g.sampleArrival(durationSec, amp, phase)
			oi := g.samplers[loc].sample(g.rng)
			o := &g.objects[oi]
			tr.Append(trace.Request{
				TimeSec:  t,
				Object:   o.id,
				Size:     o.size,
				Location: loc,
			})
		}
	}
	tr.Sort()
	return tr, nil
}

// sampleArrival draws an arrival time in [0, durationSec) from a diurnally
// modulated rate via thinning: rate(t) = 1 + amp*sin(2*pi*t/day + phase).
func (g *Generator) sampleArrival(durationSec, amp, phase float64) float64 {
	if amp <= 0 {
		return g.rng.Float64() * durationSec
	}
	const day = 86400.0
	for {
		t := g.rng.Float64() * durationSec
		rate := 1 + amp*math.Sin(2*math.Pi*t/day+phase)
		if g.rng.Float64()*(1+amp) <= rate {
			return t
		}
	}
}

// aliasSampler is a Walker alias table for O(1) weighted sampling.
type aliasSampler struct {
	idx   []int32
	prob  []float64
	alias []int32
}

func newAliasSampler(idx []int32, weights []float64) *aliasSampler {
	n := len(idx)
	s := &aliasSampler{idx: idx, prob: make([]float64, n), alias: make([]int32, n)}
	if n == 0 {
		return s
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		gg := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = gg
		scaled[gg] = scaled[gg] + scaled[l] - 1
		if scaled[gg] < 1 {
			small = append(small, gg)
		} else {
			large = append(large, gg)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
	}
	for _, i := range small {
		s.prob[i] = 1
	}
	return s
}

// sample returns a catalogue index drawn with the table's weights.
func (s *aliasSampler) sample(rng *rand.Rand) int32 {
	if len(s.idx) == 0 {
		return -1
	}
	i := rng.Intn(len(s.idx))
	if rng.Float64() < s.prob[i] {
		return s.idx[i]
	}
	return s.idx[s.alias[i]]
}

// Overlap holds the pairwise overlap statistics the paper reports in Table 2
// and Fig. 2: the fraction of location i's objects (and of its traffic
// volume) that are also accessed at location j.
type Overlap struct {
	ObjectFrac  float64
	TrafficFrac float64
}

// MeasureOverlap computes Overlap(i→j) for every ordered pair of locations in
// the trace. The result is indexed [i][j]; the diagonal is 1.
func MeasureOverlap(tr *trace.Trace) [][]Overlap {
	n := len(tr.Locations)
	// objects[loc] -> object -> bytes requested at loc
	perLoc := make([]map[cache.ObjectID]int64, n)
	for i := range perLoc {
		perLoc[i] = make(map[cache.ObjectID]int64)
	}
	for _, r := range tr.Requests {
		if r.Location >= 0 && r.Location < n {
			perLoc[r.Location][r.Object] += r.Size
		}
	}
	out := make([][]Overlap, n)
	for i := 0; i < n; i++ {
		out[i] = make([]Overlap, n)
		var totalBytes int64
		for _, b := range perLoc[i] {
			totalBytes += b
		}
		for j := 0; j < n; j++ {
			if i == j {
				out[i][j] = Overlap{ObjectFrac: 1, TrafficFrac: 1}
				continue
			}
			var sharedObjects int
			var sharedBytes int64
			for obj, b := range perLoc[i] {
				if _, ok := perLoc[j][obj]; ok {
					sharedObjects++
					sharedBytes += b
				}
			}
			var o Overlap
			if len(perLoc[i]) > 0 {
				o.ObjectFrac = float64(sharedObjects) / float64(len(perLoc[i]))
			}
			if totalBytes > 0 {
				o.TrafficFrac = float64(sharedBytes) / float64(totalBytes)
			}
			out[i][j] = o
		}
	}
	return out
}

// SpreadDistributions returns the object-spread and traffic-spread
// distributions of Fig. 6a/6b: for k = 1..n locations, the fraction of
// objects (and of request traffic, weighted by bytes requested) whose objects
// are accessed from exactly k locations.
func SpreadDistributions(tr *trace.Trace) (objectSpread, trafficSpread []float64) {
	n := len(tr.Locations)
	locSets := make(map[cache.ObjectID]uint64)
	objBytes := make(map[cache.ObjectID]int64) // total bytes requested per object
	for _, r := range tr.Requests {
		locSets[r.Object] |= 1 << uint(r.Location)
		objBytes[r.Object] += r.Size
	}
	objectSpread = make([]float64, n+1)
	trafficSpread = make([]float64, n+1)
	var totalBytes int64
	for obj, mask := range locSets {
		k := popcount(mask)
		objectSpread[k]++
		trafficSpread[k] += float64(objBytes[obj])
		totalBytes += objBytes[obj]
	}
	totObj := float64(len(locSets))
	for k := range objectSpread {
		if totObj > 0 {
			objectSpread[k] /= totObj
		}
		if totalBytes > 0 {
			trafficSpread[k] /= float64(totalBytes)
		}
	}
	return objectSpread, trafficSpread
}

// carryHash maps (object, location) to a deterministic uniform value in
// [0, 1) using a splitmix64-style mixer.
func carryHash(obj, loc uint64) float64 {
	x := obj*0x9E3779B97F4A7C15 ^ (loc+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// OverlapVsDistance returns, for each location other than origin, the
// distance from the origin city and the object/traffic overlap (Fig. 2).
type DistanceOverlap struct {
	Location   string
	DistanceKm float64
	Overlap    Overlap
}

// MeasureOverlapFrom computes Fig. 2's series: overlap of each location with
// the origin location (fraction of origin's objects/traffic also accessed at
// the other location), ordered by distance.
func MeasureOverlapFrom(tr *trace.Trace, cities []geo.City, origin string) ([]DistanceOverlap, error) {
	originIdx := -1
	for i, name := range tr.Locations {
		if name == origin {
			originIdx = i
		}
	}
	if originIdx == -1 {
		return nil, fmt.Errorf("workload: origin %q not in trace", origin)
	}
	oc, err := geo.CityByName(cities, origin)
	if err != nil {
		return nil, err
	}
	all := MeasureOverlap(tr)
	var out []DistanceOverlap
	for j, name := range tr.Locations {
		if j == originIdx {
			continue
		}
		c, err := geo.CityByName(cities, name)
		if err != nil {
			return nil, err
		}
		out = append(out, DistanceOverlap{
			Location:   name,
			DistanceKm: geo.DistanceKm(oc.Point, c.Point),
			Overlap:    all[originIdx][j],
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].DistanceKm < out[b].DistanceKm })
	return out, nil
}
