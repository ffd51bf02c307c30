// Package core implements the paper's primary contribution: StarCDN's
// LSN-specific consistent hashing (§3.2), relayed fetch (§3.3), and
// robustness to unavailability (§3.4).
//
// Objects are hashed into L buckets (L a perfect square). The buckets are
// tiled over the ISL grid in a repeating √L × √L pattern: the satellite at
// (plane, slot) owns bucket (plane mod √L)*√L + (slot mod √L). Where √L
// divides both ring sizes, any bucket is therefore reachable from any
// first-contact satellite within 2⌊√L/2⌋ hops. Where it does not, the tile
// pattern breaks at the seam and even the nearest owner can lie further away:
// on the 72×18 Starlink shell the worst route is 5 hops at L = 16 and 7 at
// L = 25, against a bound of 4. The owner table is filled by one outward walk
// per first-contact satellite, so it holds the nearest owner at every L, seams
// included; there is no residue search.
// On a cache miss, the bucket's home satellite may relay the request to its
// nearest same-bucket inter-orbit neighbours — √L planes east or west —
// whose ground tracks retrace the home satellite's footprint, letting cached
// content flow opposite to the orbital motion.
package core

import (
	"fmt"
	"math"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

// BucketID identifies one of the L consistent-hashing buckets.
type BucketID int

// HashScheme maps objects to buckets and buckets to satellites on the grid.
type HashScheme struct {
	grid *topo.Grid
	l    int
	root int
	// near[first*l+b] is the nearest owner of bucket b seen from first, and
	// relay[sat] holds sat's west and east relay neighbour slots. Both are pure
	// functions of the grid and L, filled once at construction; satellite
	// health is read at lookup time, so kills, revivals and outage masks
	// applied later are seen exactly as before.
	near  []orbit.SatID
	relay [][2]orbit.SatID
}

// NewHashScheme builds a scheme with l buckets over the grid. l must be a
// perfect square (the paper uses 4 and 9; 1 degenerates to no partitioning).
func NewHashScheme(g *topo.Grid, l int) (*HashScheme, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil grid")
	}
	if l <= 0 {
		return nil, fmt.Errorf("core: bucket count must be positive, got %d", l)
	}
	root := int(math.Round(math.Sqrt(float64(l))))
	if root*root != l {
		return nil, fmt.Errorf("core: bucket count %d is not a perfect square", l)
	}
	cfg := g.Constellation().Config()
	if root > cfg.Planes || root > cfg.SatsPerPlane {
		return nil, fmt.Errorf("core: %d buckets need a %dx%d tile but the grid is %dx%d",
			l, root, root, cfg.Planes, cfg.SatsPerPlane)
	}
	return newScheme(g, l, root), nil
}

// newScheme builds the scheme and fills its owner and relay tables.
func newScheme(g *topo.Grid, l, root int) *HashScheme {
	h := &HashScheme{grid: g, l: l, root: root}
	c := g.Constellation()
	n := c.NumSlots()
	h.near = make([]orbit.SatID, n*l)
	h.relay = make([][2]orbit.SatID, n)
	for i := 0; i < n; i++ {
		first := orbit.SatID(i)
		h.fillOwners(first)
		plane, slot := c.PlaneSlot(first)
		h.relay[i] = [2]orbit.SatID{c.SatAt(plane-root, slot), c.SatAt(plane+root, slot)}
	}
	return h
}

// fillOwners fills near[first*L:] by walking outward from first in the order
// fewest total hops, then fewest plane hops, then east before west, then north
// before south, and keeping the first owner it meets of each bucket. Offsets
// go the shorter way round each ring, so the walk reaches every slot and stops
// once all L buckets have an owner: each is the nearest one in grid hops, ties
// broken by that order, seams included.
func (h *HashScheme) fillOwners(first orbit.SatID) {
	c := h.grid.Constellation()
	cfg := c.Config()
	plane, slot := c.PlaneSlot(first)
	near := h.near[int(first)*h.l:][:h.l]
	for b := range near {
		near[b] = -1
	}
	left := h.l
	for r := 0; left > 0; r++ {
		for dp := max(0, r-cfg.SatsPerPlane/2); dp <= min(r, cfg.Planes/2); dp++ {
			ds := r - dp
			for _, cand := range [4]orbit.SatID{
				c.SatAt(plane+dp, slot+ds), c.SatAt(plane+dp, slot-ds),
				c.SatAt(plane-dp, slot+ds), c.SatAt(plane-dp, slot-ds),
			} {
				if b := h.BucketAt(cand); near[b] < 0 {
					near[b] = cand
					left--
				}
			}
		}
	}
}

// OneBucket is the scheme at L = 1 — the paper's no-hashing ablation as a
// value rather than a code path. Every slot owns the one bucket, so the
// nearest owner is the first contact itself, routing costs no hops, and the
// relay neighbours are the adjacent planes; what is left of the scheme is the
// §3.4 liveness rule (ServingOwner, Remap), which the first contact now
// passes through like any other owner.
func OneBucket(g *topo.Grid) *HashScheme {
	return newScheme(g, 1, 1)
}

// Buckets returns L, the number of buckets.
func (h *HashScheme) Buckets() int { return h.l }

// Root returns √L, the tile edge length.
func (h *HashScheme) Root() int { return h.root }

// Grid returns the underlying ISL grid.
func (h *HashScheme) Grid() *topo.Grid { return h.grid }

// BucketOf hashes an object to its bucket with a splitmix64 mixer, giving a
// uniform, deterministic assignment.
func (h *HashScheme) BucketOf(obj cache.ObjectID) BucketID {
	x := uint64(obj) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return BucketID(x % uint64(h.l))
}

// BucketAt returns the bucket a satellite slot owns under the √L×√L tiling.
func (h *HashScheme) BucketAt(id orbit.SatID) BucketID {
	plane, slot := h.grid.Constellation().PlaneSlot(id)
	return BucketID((plane%h.root)*h.root + slot%h.root)
}

// NearestOwner returns the satellite slot that owns bucket b for requests
// arriving at the first-contact satellite, ignoring satellite health (see
// ServingOwner for the §3.4 remap). It is a table lookup; fillOwners filled
// the table.
func (h *HashScheme) NearestOwner(first orbit.SatID, b BucketID) orbit.SatID {
	return h.near[int(first)*h.l+int(b)]
}

// ServingOwner resolves the satellite that serves bucket b for a request
// arriving at the first-contact satellite, applying the paper's full §3.4
// degradation policy. An active nearest owner serves directly. A down owner
// splits on failure kind, as reported by transientDown: a transient outage
// (cache server rebooting for a software update) degrades the request to a
// ground miss-through — serve=false, no satellite contact, nothing cached —
// while a long-term failure (collision avoidance, hardware loss) remaps the
// bucket to the next active satellite, which inherits the duty. If even the
// remap finds no survivor the first-contact satellite serves as a last
// resort. transientDown may be nil when no transient failures are active,
// in which case every down owner is treated as a long-term loss.
//
// Outside tests it is called by sim.Ladder, for the simulator and the TCP
// replayer alike, and by internal/session's bucket anchor.
func (h *HashScheme) ServingOwner(first orbit.SatID, b BucketID, transientDown func(orbit.SatID) bool) (owner orbit.SatID, serve bool) {
	owner = h.NearestOwner(first, b)
	if h.grid.Constellation().Active(owner) {
		return owner, true
	}
	if transientDown != nil && transientDown(owner) {
		return owner, false
	}
	if heir, ok := h.Remap(owner); ok {
		return heir, true
	}
	return first, true
}

// Remap walks outward from a dead satellite in deterministic direction order
// (east, west, north, south, then growing grid radius) and returns the first
// active satellite, which inherits the dead satellite's bucket duty.
func (h *HashScheme) Remap(dead orbit.SatID) (orbit.SatID, bool) {
	c := h.grid.Constellation()
	plane, slot := c.PlaneSlot(dead)
	cfg := c.Config()
	maxR := cfg.Planes/2 + cfg.SatsPerPlane/2
	for r := 1; r <= maxR; r++ {
		// Visit the ring of radius r in a fixed order — starting due east
		// (dp=+r), sweeping to due west (dp=-r) — so the remap target is
		// deterministic for a given constellation state.
		for dp := r; dp >= -r; dp-- {
			dsAbs := r - abs(dp)
			for _, ds := range []int{dsAbs, -dsAbs} {
				cand := c.SatAt(plane+dp, slot+ds)
				if cand != dead && c.Active(cand) {
					return cand, true
				}
				if ds == 0 {
					break // ds = +0 and -0 are the same position
				}
			}
		}
	}
	return dead, false
}

// Duties returns, for every active satellite, the list of buckets it serves:
// its own tile bucket plus any buckets inherited from dead satellites whose
// remap lands on it. The map is keyed by satellite; Fig. 11 groups hit rates
// by len(duties).
func (h *HashScheme) Duties() map[orbit.SatID][]BucketID {
	c := h.grid.Constellation()
	duties := make(map[orbit.SatID][]BucketID)
	for i := 0; i < c.NumSlots(); i++ {
		id := orbit.SatID(i)
		b := h.BucketAt(id)
		if c.Active(id) {
			duties[id] = append(duties[id], b)
			continue
		}
		if heir, ok := h.Remap(id); ok {
			duties[heir] = appendUniqueBucket(duties[heir], b)
		}
	}
	return duties
}

func appendUniqueBucket(list []BucketID, b BucketID) []BucketID {
	for _, x := range list {
		if x == b {
			return list
		}
	}
	return append(list, b)
}

// RelayNeighbor returns the nearest same-bucket inter-orbit neighbour of sat
// in the given east/west direction: √L planes away at the same slot. ok is
// false if the direction is not East/West or the neighbour slot is dead.
func (h *HashScheme) RelayNeighbor(sat orbit.SatID, d topo.Direction) (orbit.SatID, bool) {
	var nb orbit.SatID
	switch d {
	case topo.West:
		nb = h.relay[sat][0]
	case topo.East:
		nb = h.relay[sat][1]
	default:
		return sat, false
	}
	if nb == sat || !h.grid.Constellation().Active(nb) {
		return nb, false
	}
	return nb, true
}

// RelayHops returns the number of inter-orbit hops to a relay neighbour (√L).
func (h *HashScheme) RelayHops() int { return h.root }

// RoutingHops returns the grid hops from the first-contact satellite to the
// bucket owner's slot (plane hops, slot hops).
func (h *HashScheme) RoutingHops(first, owner orbit.SatID) (planeHops, slotHops int) {
	return h.grid.HopDistance(first, owner)
}

// WorstCaseRoutingLatencyMs returns the round-trip worst-case consistent
// hashing routing latency for L buckets under the grid's link model:
// ⌊√L/2⌋ inter-orbit plus ⌊√L/2⌋ intra-orbit hops each way (Fig. 9).
func (h *HashScheme) WorstCaseRoutingLatencyMs() float64 {
	m := h.grid.Model()
	half := float64(h.root / 2)
	oneWay := half*m.InterOrbitISL.AvgMs + half*m.IntraOrbitISL.AvgMs
	return 2 * oneWay
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
