// Package geo provides geodetic primitives used throughout the StarCDN
// simulator: latitude/longitude points, great-circle distance, bearing, and
// the city database used to place CDN users and ground stations.
//
// All angles at the package boundary are degrees; internal math uses radians.
// Distances are kilometres on a spherical Earth (radius EarthRadiusKm), which
// is the same approximation the paper's evaluation substrate uses.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean spherical Earth radius in kilometres.
const EarthRadiusKm = 6371.0

// Point is a geodetic position on the Earth's surface.
type Point struct {
	LatDeg float64 // latitude, degrees north-positive, in [-90, 90]
	LonDeg float64 // longitude, degrees east-positive, in [-180, 180]
}

// NewPoint returns a Point with the longitude normalised into [-180, 180).
func NewPoint(latDeg, lonDeg float64) Point {
	return Point{LatDeg: latDeg, LonDeg: NormalizeLonDeg(lonDeg)}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f°, %.3f°)", p.LatDeg, p.LonDeg)
}

// NormalizeLonDeg wraps a longitude in degrees into [-180, 180).
func NormalizeLonDeg(lon float64) float64 {
	lon = math.Mod(lon, 360)
	if lon >= 180 {
		lon -= 360
	}
	if lon < -180 {
		lon += 360
	}
	return lon
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// CentralAngleRad returns the great-circle central angle between a and b in
// radians, computed with the haversine formula for numerical stability at
// small separations.
func CentralAngleRad(a, b Point) float64 {
	lat1 := Radians(a.LatDeg)
	lat2 := Radians(b.LatDeg)
	dLat := lat2 - lat1
	dLon := Radians(b.LonDeg - a.LonDeg)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * math.Asin(math.Sqrt(h))
}

// DistanceKm returns the great-circle surface distance between a and b.
func DistanceKm(a, b Point) float64 {
	return EarthRadiusKm * CentralAngleRad(a, b)
}

// SlantRangeKm returns the straight-line distance from a ground point to a
// satellite at altitude altKm whose sub-satellite point is separated from the
// ground point by the great-circle central angle gammaRad.
func SlantRangeKm(gammaRad, altKm float64) float64 {
	r := EarthRadiusKm
	s := r + altKm
	// Law of cosines in the Earth-centre / ground / satellite triangle.
	d2 := r*r + s*s - 2*r*s*math.Cos(gammaRad)
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// CoverageAngleRad returns the maximum great-circle central angle at which a
// satellite at altitude altKm is still visible above minElevDeg degrees of
// elevation. This is the angular radius of the satellite's footprint.
func CoverageAngleRad(altKm, minElevDeg float64) float64 {
	r := EarthRadiusKm
	s := r + altKm
	e := Radians(minElevDeg)
	// gamma = acos(R/(R+h) * cos(e)) - e
	c := r / s * math.Cos(e)
	if c > 1 {
		c = 1
	}
	return math.Acos(c) - e
}

// PropagationDelayMs returns the speed-of-light propagation delay in
// milliseconds over distKm kilometres of free space.
func PropagationDelayMs(distKm float64) float64 {
	const cKmPerMs = 299.792458 // speed of light, km per millisecond
	return distKm / cKmPerMs
}
