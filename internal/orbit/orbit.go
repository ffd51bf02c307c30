// Package orbit models the LEO constellation that carries StarCDN's edge
// caches. It replaces the paper's use of the Microsoft CosmicBeats simulator
// with a circular-orbit Walker-delta propagator: the paper's experiments
// consume only per-epoch sub-satellite points, fields of view, and the ISL
// grid, all of which a circular Keplerian model reproduces exactly at 15 s
// granularity (the Starlink shell's eccentricity is ~0).
//
// The default shell mirrors the paper's simulation setup (§5.1): 72 orbital
// planes inclined at 53°, 18 slots per plane (1,296 slots), 550 km altitude,
// with 126 out-of-slot satellites leaving 1,170 active — the constellation
// state the paper measured from CelesTrak and starlink.sx.
package orbit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"starcdn/internal/geo"
)

// Physical constants.
const (
	// MuEarth is the standard gravitational parameter of Earth, km^3/s^2.
	MuEarth = 398600.4418
	// EarthRotationRadPerSec is the sidereal rotation rate of Earth.
	EarthRotationRadPerSec = 2 * math.Pi / 86164.0905
)

// SatID identifies a satellite slot: plane*SatsPerPlane + slot.
type SatID int

// Config describes a single Walker-delta shell.
type Config struct {
	Planes         int     // number of orbital planes
	SatsPerPlane   int     // slots per plane
	InclinationDeg float64 // orbital inclination
	AltitudeKm     float64 // altitude above the spherical Earth
	PhasingF       int     // Walker delta phasing factor in [0, Planes)
	MinElevDeg     float64 // user terminal minimum elevation mask
}

// DefaultStarlinkShell returns the paper's evaluation shell: the
// Starlink-53 Gen-1 configuration with 72 planes × 18 slots at 550 km / 53°.
//
// The Walker phasing factor is chosen so the shell reproduces the ground
// track geometry the paper's Fig. 3 shows for Starlink: the same-slot
// satellite one plane to the west is over the position this satellite held
// ΔT = raanStep/ωE ≈ 20 minutes earlier (track coincidence requires the
// in-plane phase offset to absorb the mean motion over ΔT, which pins
// F ≈ 1296·(1 − frac(ΔT/T)) = 1025). This westward retrace is exactly what
// relayed fetch (§3.3) exploits.
func DefaultStarlinkShell() Config {
	return Config{
		Planes:         72,
		SatsPerPlane:   18,
		InclinationDeg: 53,
		AltitudeKm:     550,
		PhasingF:       1025,
		MinElevDeg:     25,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Planes <= 0:
		return fmt.Errorf("orbit: Planes must be positive, got %d", c.Planes)
	case c.SatsPerPlane <= 0:
		return fmt.Errorf("orbit: SatsPerPlane must be positive, got %d", c.SatsPerPlane)
	case c.AltitudeKm <= 0:
		return fmt.Errorf("orbit: AltitudeKm must be positive, got %v", c.AltitudeKm)
	case c.InclinationDeg <= 0 || c.InclinationDeg > 180:
		return fmt.Errorf("orbit: InclinationDeg out of range: %v", c.InclinationDeg)
	case c.MinElevDeg < 0 || c.MinElevDeg >= 90:
		return fmt.Errorf("orbit: MinElevDeg out of range: %v", c.MinElevDeg)
	case c.PhasingF < 0 || c.PhasingF >= c.Planes*c.SatsPerPlane:
		return fmt.Errorf("orbit: PhasingF out of range: %d", c.PhasingF)
	}
	return nil
}

// PeriodSec returns the orbital period in seconds for the shell altitude.
func (c Config) PeriodSec() float64 {
	a := geo.EarthRadiusKm + c.AltitudeKm
	return 2 * math.Pi * math.Sqrt(a*a*a/MuEarth)
}

// Constellation is an instantiated shell with an activity mask.
type Constellation struct {
	cfg          Config
	active       []bool
	numActive    int
	meanMotion   float64 // rad/s
	sinIncl      float64 // sin and cos of the inclination, constant per shell
	cosIncl      float64
	coverageRad  float64 // footprint angular radius, rad
	raanStep     float64 // rad between adjacent planes
	slotStep     float64 // rad between adjacent slots in a plane
	phaseStep    float64 // rad of in-plane phase offset per plane (Walker F)
	planeOfCache []int16 // precomputed plane per SatID
	slotOfCache  []int16 // precomputed slot per SatID

	timelinesMu sync.Mutex
	timelines   []*Timeline // one per (users, epochSec) asked about, see Timeline
}

// New constructs a Constellation from cfg with all slots active.
func New(cfg Config) (*Constellation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Planes * cfg.SatsPerPlane
	incl := geo.Radians(cfg.InclinationDeg)
	c := &Constellation{
		cfg:         cfg,
		active:      make([]bool, n),
		numActive:   n,
		meanMotion:  2 * math.Pi / cfg.PeriodSec(),
		sinIncl:     math.Sin(incl),
		cosIncl:     math.Cos(incl),
		coverageRad: geo.CoverageAngleRad(cfg.AltitudeKm, cfg.MinElevDeg),
		raanStep:    2 * math.Pi / float64(cfg.Planes),
		slotStep:    2 * math.Pi / float64(cfg.SatsPerPlane),
		phaseStep:   2 * math.Pi * float64(cfg.PhasingF) / float64(n),
	}
	for i := range c.active {
		c.active[i] = true
	}
	c.planeOfCache = make([]int16, n)
	c.slotOfCache = make([]int16, n)
	for i := 0; i < n; i++ {
		c.planeOfCache[i] = int16(i / cfg.SatsPerPlane)
		c.slotOfCache[i] = int16(i % cfg.SatsPerPlane)
	}
	return c, nil
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config) *Constellation {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the shell configuration.
func (c *Constellation) Config() Config { return c.cfg }

// NumSlots returns the total number of satellite slots.
func (c *Constellation) NumSlots() int { return len(c.active) }

// NumActive returns the number of active satellites.
func (c *Constellation) NumActive() int { return c.numActive }

// Active reports whether the slot is occupied by a working satellite.
func (c *Constellation) Active(id SatID) bool {
	return int(id) >= 0 && int(id) < len(c.active) && c.active[id]
}

// SetActive marks a slot active or inactive.
func (c *Constellation) SetActive(id SatID, up bool) {
	if int(id) < 0 || int(id) >= len(c.active) {
		return
	}
	if c.active[id] != up {
		c.active[id] = up
		if up {
			c.numActive++
		} else {
			c.numActive--
		}
	}
}

// ApplyOutageMask deactivates n distinct pseudo-randomly chosen slots using
// the given seed, modelling out-of-slot satellites (§5.4 observed 126/1296).
// It reactivates everything first so calls are idempotent per (n, seed).
func (c *Constellation) ApplyOutageMask(n int, seed int64) {
	for i := range c.active {
		c.SetActive(SatID(i), true)
	}
	if n <= 0 {
		return
	}
	if n > len(c.active) {
		n = len(c.active)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.active))
	for _, idx := range perm[:n] {
		c.SetActive(SatID(idx), false)
	}
}

// SatAt returns the SatID for a plane/slot pair (both taken modulo their
// ranges, so negative indices wrap).
func (c *Constellation) SatAt(plane, slot int) SatID {
	p := mod(plane, c.cfg.Planes)
	s := mod(slot, c.cfg.SatsPerPlane)
	return SatID(p*c.cfg.SatsPerPlane + s)
}

// PlaneSlot returns the plane and slot of a SatID.
func (c *Constellation) PlaneSlot(id SatID) (plane, slot int) {
	return int(c.planeOfCache[id]), int(c.slotOfCache[id])
}

// SubSatellitePoint returns the geodetic point directly beneath the satellite
// at simulation time tSec seconds after epoch.
func (c *Constellation) SubSatellitePoint(id SatID, tSec float64) geo.Point {
	plane, slot := c.PlaneSlot(id)
	// Argument of latitude: in-plane phase at epoch plus mean motion.
	u := float64(slot)*c.slotStep + float64(plane)*c.phaseStep + c.meanMotion*tSec
	raan := float64(plane) * c.raanStep
	sinU, cosU := math.Sincos(u)
	sinLat := c.sinIncl * sinU
	lat := math.Asin(sinLat)
	dLon := math.Atan2(c.cosIncl*sinU, cosU)
	lon := raan + dLon - EarthRotationRadPerSec*tSec
	return geo.NewPoint(geo.Degrees(lat), geo.Degrees(lon))
}

// CoverageAngleRad returns the angular radius of each satellite's footprint.
func (c *Constellation) CoverageAngleRad() float64 { return c.coverageRad }

// VisibleFrom returns the active satellites visible from ground point p at
// time tSec (elevation above the configured mask), appended to dst to allow
// allocation reuse across epochs. Callers asking about many points at one
// instant should take a Snapshot instead.
func (c *Constellation) VisibleFrom(dst []SatID, p geo.Point, tSec float64) []SatID {
	v := c.viewFrom(p)
	for i, up := range c.active {
		if up && v.sees(c.SubSatellitePoint(SatID(i), tSec)) {
			dst = append(dst, SatID(i))
		}
	}
	return dst
}

// SlantRangeKm returns the line-of-sight distance from ground point p to the
// satellite at time tSec.
func (c *Constellation) SlantRangeKm(id SatID, p geo.Point, tSec float64) float64 {
	sp := c.SubSatellitePoint(id, tSec)
	return geo.SlantRangeKm(geo.CentralAngleRad(p, sp), c.cfg.AltitudeKm)
}

// GroundTrack samples the sub-satellite point from startSec to endSec every
// stepSec and returns the resulting track.
func (c *Constellation) GroundTrack(id SatID, startSec, endSec, stepSec float64) []geo.Point {
	if stepSec <= 0 || endSec < startSec {
		return nil
	}
	var pts []geo.Point
	for t := startSec; t <= endSec; t += stepSec {
		pts = append(pts, c.SubSatellitePoint(id, t))
	}
	return pts
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
