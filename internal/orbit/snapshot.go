package orbit

import (
	"math"

	"starcdn/internal/geo"
)

// bandSlackDeg widens both prefilter bands far past the rounding error of the
// exact test, so a band only rejects what that test also rejects.
const bandSlackDeg = 1e-6

// view is the visibility predicate for one ground point: a latitude band and
// a longitude band that reject most satellites with a subtraction each, then
// the exact central-angle test on the survivors (DESIGN.md §3.1).
type view struct {
	p       geo.Point
	latBand float64 // reject when |Δlat| exceeds this, degrees
	lonBand float64 // reject when the wrapped |Δlon| exceeds this, degrees
	covRad  float64
}

func (c *Constellation) viewFrom(p geo.Point) view {
	// Central angle >= |Δlat| for any two points on the sphere.
	v := view{p: p, latBand: geo.Degrees(c.coverageRad) + bandSlackDeg, lonBand: 180, covRad: c.coverageRad}
	absLat := math.Abs(p.LatDeg)
	if !(absLat <= 90) {
		v.latBand = math.Inf(1) // off the sphere the haversine no longer bounds |Δlat|
		return v
	}
	// Inside the latitude band cos φ_sat >= cos(|φ_p|+band), so the haversine
	// gives sin(Δlon/2) <= sin(cov/2)/sqrt(cos φ_p · cos(|φ_p|+band)) = q.
	// Near the poles q reaches 1 and every longitude stays a candidate.
	if far := absLat + v.latBand; far < 90 {
		q := math.Sin(c.coverageRad/2) / math.Sqrt(math.Cos(geo.Radians(absLat))*math.Cos(geo.Radians(far)))
		if q < 0.99 { // asin is ill-conditioned at 1, and the band is useless there
			v.lonBand = geo.Degrees(2*math.Asin(q)) + bandSlackDeg
		}
	}
	return v
}

// sees reports whether a satellite over sp is above the elevation mask from
// v's point.
func (v *view) sees(sp geo.Point) bool {
	if math.Abs(sp.LatDeg-v.p.LatDeg) > v.latBand {
		return false
	}
	// Folded across the date line. Longitudes outside [-180, 180] fold to at
	// most the true separation, which only weakens the band.
	dLon := math.Abs(sp.LonDeg - v.p.LonDeg)
	if dLon > 180 {
		dLon = 360 - dLon
	}
	if dLon > v.lonBand {
		return false
	}
	return geo.CentralAngleRad(v.p, sp) <= v.covRad
}

// Snapshot holds the sub-satellite point of every satellite active at one
// instant, in SatID order, so that many ground points can be tested against
// one pass of orbit propagation. It is scratch for one goroutine.
type Snapshot struct {
	c           *Constellation
	inactiveToo bool // a Timeline's snapshot holds every slot
	ids         []SatID
	pts         []geo.Point
}

// NewSnapshot returns an empty snapshot with room for every slot, so Update
// never allocates.
func (c *Constellation) NewSnapshot() *Snapshot {
	n := len(c.active)
	return &Snapshot{c: c, ids: make([]SatID, 0, n), pts: make([]geo.Point, 0, n)}
}

// Update refills the snapshot with the satellites active now, placed at tSec.
func (s *Snapshot) Update(tSec float64) {
	s.ids, s.pts = s.ids[:0], s.pts[:0]
	for i, up := range s.c.active {
		if up || s.inactiveToo {
			s.ids = append(s.ids, SatID(i))
			s.pts = append(s.pts, s.c.SubSatellitePoint(SatID(i), tSec))
		}
	}
}

// VisibleFrom appends to dst the snapshot's satellites visible from p: the
// same satellites in the same order as Constellation.VisibleFrom at the
// snapshot's instant and activity mask.
func (s *Snapshot) VisibleFrom(dst []SatID, p geo.Point) []SatID {
	v := s.c.viewFrom(p)
	for i := range s.pts {
		if v.sees(s.pts[i]) {
			dst = append(dst, s.ids[i])
		}
	}
	return dst
}
