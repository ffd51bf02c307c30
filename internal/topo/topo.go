// Package topo models the inter-satellite link (ISL) grid and the link-level
// delay/bandwidth characteristics of the Starlink network, following Table 1
// of the paper. Each satellite has four ISLs — previous/next in the same
// orbit (intra-orbit) and the same slot in the adjacent planes (inter-orbit)
// — forming the torus grid that StarCDN's consistent hashing tiles (§3.2).
package topo

import (
	"fmt"
	"math"
	"math/rand"

	"starcdn/internal/orbit"
)

// Direction identifies one of a satellite's four ISL neighbours.
type Direction int

// Grid directions. North/South are intra-orbit (next/previous slot in the
// same plane); East/West are inter-orbit (adjacent planes). The paper's
// relayed fetch uses only East and West (§3.3).
const (
	North Direction = iota // same plane, next slot
	South                  // same plane, previous slot
	East                   // next plane, same slot
	West                   // previous plane, same slot
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Directions lists all four ISL directions.
var Directions = [4]Direction{North, South, East, West}

// DelaySpec is a one-way propagation delay distribution (milliseconds) and a
// link bandwidth, as published in Table 1 of the paper.
type DelaySpec struct {
	AvgMs         float64
	StdMs         float64
	MinMs         float64
	BandwidthGbps float64
}

// Sample draws a delay from a normal distribution clipped below at MinMs.
func (d DelaySpec) Sample(rng *rand.Rand) float64 {
	v := d.AvgMs + d.StdMs*rng.NormFloat64()
	if v < d.MinMs {
		v = d.MinMs
	}
	return v
}

// LinkModel holds the per-link-class delay specifications.
type LinkModel struct {
	IntraOrbitISL DelaySpec
	InterOrbitISL DelaySpec
	GSL           DelaySpec
}

// StarlinkTable1 returns the paper's measured Starlink link parameters.
func StarlinkTable1() LinkModel {
	return LinkModel{
		IntraOrbitISL: DelaySpec{AvgMs: 8.03, StdMs: 0.376, MinMs: 4.76, BandwidthGbps: 100},
		InterOrbitISL: DelaySpec{AvgMs: 2.15, StdMs: 0.492, MinMs: 1.32, BandwidthGbps: 100},
		GSL:           DelaySpec{AvgMs: 2.94, StdMs: 1.01, MinMs: 1.82, BandwidthGbps: 20},
	}
}

// Spec returns the delay spec for a hop in the given direction.
func (m LinkModel) Spec(d Direction) DelaySpec {
	if d == North || d == South {
		return m.IntraOrbitISL
	}
	return m.InterOrbitISL
}

// edge is a canonical undirected satellite pair (lo < hi).
type edge struct{ lo, hi orbit.SatID }

func canonicalEdge(a, b orbit.SatID) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a, b}
}

// Grid is the ISL torus over a constellation, plus an explicit set of failed
// links (e.g. during collision-avoidance maneuvers, §3.4).
type Grid struct {
	c      *orbit.Constellation
	model  LinkModel
	failed map[edge]bool
}

// Opposite returns the reverse grid direction.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	default:
		return East
	}
}

// NewGrid builds the ISL grid for the constellation with the given model.
func NewGrid(c *orbit.Constellation, model LinkModel) *Grid {
	return &Grid{c: c, model: model, failed: make(map[edge]bool)}
}

// Constellation returns the underlying constellation.
func (g *Grid) Constellation() *orbit.Constellation { return g.c }

// Model returns the link model.
func (g *Grid) Model() LinkModel { return g.model }

// Neighbor returns the satellite in the given grid direction. The grid wraps
// in both axes (torus). The neighbour is returned regardless of whether the
// link to it is currently usable; use LinkUp for that.
func (g *Grid) Neighbor(id orbit.SatID, d Direction) orbit.SatID {
	plane, slot := g.c.PlaneSlot(id)
	switch d {
	case North:
		return g.c.SatAt(plane, slot+1)
	case South:
		return g.c.SatAt(plane, slot-1)
	case East:
		return g.c.SatAt(plane+1, slot)
	case West:
		return g.c.SatAt(plane-1, slot)
	}
	return id
}

// FailLink marks the undirected link between a and b as down.
func (g *Grid) FailLink(a, b orbit.SatID) { g.failed[canonicalEdge(a, b)] = true }

// RestoreLink clears a failure injected with FailLink.
func (g *Grid) RestoreLink(a, b orbit.SatID) { delete(g.failed, canonicalEdge(a, b)) }

// RestoreAllLinks clears all injected link failures.
func (g *Grid) RestoreAllLinks() { g.failed = make(map[edge]bool) }

// LinkUp reports whether the direct ISL between a and b is usable: both
// endpoints active, actually grid-adjacent, and not explicitly failed.
func (g *Grid) LinkUp(a, b orbit.SatID) bool {
	if !g.c.Active(a) || !g.c.Active(b) {
		return false
	}
	if g.failed[canonicalEdge(a, b)] {
		return false
	}
	for _, d := range Directions {
		if g.Neighbor(a, d) == b {
			return true
		}
	}
	return false
}

// BrokenISLCount returns the number of grid links that are down because at
// least one endpoint is inactive, counted among links with at least one
// active endpoint, mirroring the paper's §5.4 accounting (126 dead satellites
// => 438 broken ISLs among available satellites).
func (g *Grid) BrokenISLCount() int {
	n := 0
	slots := g.c.NumSlots()
	for i := 0; i < slots; i++ {
		a := orbit.SatID(i)
		// Count each undirected link once via North and East.
		for _, d := range []Direction{North, East} {
			b := g.Neighbor(a, d)
			aUp, bUp := g.c.Active(a), g.c.Active(b)
			if aUp != bUp { // exactly one endpoint dead
				n++
			}
		}
	}
	return n
}

// HopDistance returns the minimum number of grid hops between two satellites
// on the torus, decomposed into inter-orbit (plane) and intra-orbit (slot)
// components.
func (g *Grid) HopDistance(a, b orbit.SatID) (planeHops, slotHops int) {
	pa, sa := g.c.PlaneSlot(a)
	pb, sb := g.c.PlaneSlot(b)
	cfg := g.c.Config()
	planeHops = torusDist(pa, pb, cfg.Planes)
	slotHops = torusDist(sa, sb, cfg.SatsPerPlane)
	return planeHops, slotHops
}

// TotalHops returns planeHops+slotHops between two satellites.
func (g *Grid) TotalHops(a, b orbit.SatID) int {
	p, s := g.HopDistance(a, b)
	return p + s
}

// PathDelayMs returns the expected one-way propagation delay along a minimal
// grid path between a and b using average per-hop delays from the model.
func (g *Grid) PathDelayMs(a, b orbit.SatID) float64 {
	p, s := g.HopDistance(a, b)
	return float64(p)*g.model.InterOrbitISL.AvgMs + float64(s)*g.model.IntraOrbitISL.AvgMs
}

// SamplePathDelayMs draws a one-way delay along a minimal grid path, sampling
// each hop independently.
func (g *Grid) SamplePathDelayMs(a, b orbit.SatID, rng *rand.Rand) float64 {
	p, s := g.HopDistance(a, b)
	total := 0.0
	for i := 0; i < p; i++ {
		total += g.model.InterOrbitISL.Sample(rng)
	}
	for i := 0; i < s; i++ {
		total += g.model.IntraOrbitISL.Sample(rng)
	}
	return total
}

// GridPath returns a minimal hop sequence from a to b (plane axis first, then
// slot axis), including both endpoints. Paths do not consider failures; the
// caller is responsible for rerouting around dead satellites.
func (g *Grid) GridPath(a, b orbit.SatID) []orbit.SatID {
	pa, sa := g.c.PlaneSlot(a)
	pb, sb := g.c.PlaneSlot(b)
	cfg := g.c.Config()
	path := []orbit.SatID{a}
	p, s := pa, sa
	for p != pb {
		p += torusStep(p, pb, cfg.Planes)
		p = mod(p, cfg.Planes)
		path = append(path, g.c.SatAt(p, s))
	}
	for s != sb {
		s += torusStep(s, sb, cfg.SatsPerPlane)
		s = mod(s, cfg.SatsPerPlane)
		path = append(path, g.c.SatAt(p, s))
	}
	return path
}

// torusDist is the minimal ring distance between i and j modulo n.
func torusDist(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// torusStep returns -1 or +1: the direction of the shorter way around the
// ring from i to j (ties resolve to +1).
func torusStep(i, j, n int) int {
	fwd := mod(j-i, n)
	bwd := mod(i-j, n)
	if bwd < fwd {
		return -1
	}
	return 1
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// WorstCaseBucketHops returns the paper's bound on the number of hops needed
// to reach any of L buckets tiled in a sqrt(L) x sqrt(L) grid pattern:
// 2*floor(sqrt(L)/2) (§3.2) — which is why L=4 and L=9 share the same
// worst-case routing overhead (§5.3). L must be a perfect square.
func WorstCaseBucketHops(l int) int {
	root := int(math.Round(math.Sqrt(float64(l))))
	return 2 * (root / 2)
}
