package core

import (
	"fmt"
	"sort"

	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

// The paper notes (§3.2) that mapping buckets to satellites "can be mapped
// to a graph coloring problem for an arbitrary constellation topology, with
// constraints imposed by the presence of ISLs and latency requirements".
// The √L×√L tiling is the closed-form solution for the Starlink grid; this
// file implements the general mechanism: a distance-constrained colouring
// that assigns one of L buckets to every satellite such that every bucket is
// reachable from every satellite within a hop budget. It generalises
// StarCDN's placement to irregular constellations (missing satellites,
// future non-grid shells) and is also used to verify the tiling's
// optimality on the healthy grid.

// ColoringOptions configures ComputeColoring.
type ColoringOptions struct {
	// Buckets is the number of colours L (need not be a perfect square).
	Buckets int
	// MaxHops is the reachability budget: from every active satellite, every
	// bucket must be owned by some active satellite within MaxHops grid
	// hops. Zero selects the paper's bound for the nearest perfect square.
	MaxHops int
}

// Coloring is a bucket assignment for every satellite slot.
type Coloring struct {
	buckets int
	assign  []BucketID // indexed by SatID
}

// ComputeColoring produces a distance-constrained colouring of the active
// satellites with a greedy farthest-first sweep: satellites are visited in a
// deterministic order and each takes the bucket whose nearest existing owner
// is farthest away, balancing owner density per bucket across the grid.
func ComputeColoring(g *topo.Grid, opts ColoringOptions) (*Coloring, error) {
	if opts.Buckets <= 0 {
		return nil, fmt.Errorf("core: coloring needs a positive bucket count")
	}
	c := g.Constellation()
	n := c.NumSlots()
	if opts.Buckets > c.NumActive() {
		return nil, fmt.Errorf("core: %d buckets exceed %d active satellites",
			opts.Buckets, c.NumActive())
	}
	col := &Coloring{buckets: opts.Buckets, assign: make([]BucketID, n)}
	for i := range col.assign {
		col.assign[i] = -1
	}
	// owners[b] lists satellites already owning bucket b.
	owners := make([][]orbit.SatID, opts.Buckets)

	// Deterministic sweep order: interleave planes and slots so early
	// assignments spread over the grid rather than filling plane 0 first.
	order := sweepOrder(c)
	for _, id := range order {
		if !c.Active(id) {
			continue
		}
		best := BucketID(0)
		bestDist := -1
		for b := 0; b < opts.Buckets; b++ {
			d := nearestOwnerDist(g, owners[b], id)
			if d > bestDist {
				bestDist = d
				best = BucketID(b)
			}
		}
		col.assign[id] = best
		owners[best] = append(owners[best], id)
	}
	return col, nil
}

// sweepOrder returns all slots ordered by a coprime stride over the flat
// index, which interleaves planes and slots deterministically.
func sweepOrder(c *orbit.Constellation) []orbit.SatID {
	n := c.NumSlots()
	stride := 0
	for _, cand := range []int{257, 263, 269, 271, 277} {
		if gcd(cand, n) == 1 {
			stride = cand
			break
		}
	}
	if stride == 0 {
		stride = 1
	}
	out := make([]orbit.SatID, 0, n)
	for i, pos := 0, 0; i < n; i, pos = i+1, (pos+stride)%n {
		out = append(out, orbit.SatID(pos))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// nearestOwnerDist returns the grid distance from id to the nearest owner,
// or a large sentinel when the bucket has no owner yet.
func nearestOwnerDist(g *topo.Grid, owners []orbit.SatID, id orbit.SatID) int {
	if len(owners) == 0 {
		return 1 << 20
	}
	best := 1 << 20
	for _, o := range owners {
		if d := g.TotalHops(id, o); d < best {
			best = d
		}
	}
	return best
}

// Verify checks the colouring's reachability property: from every active
// satellite, every bucket has an active owner within maxHops. It returns the
// worst observed distance and the list of (satellite, bucket) violations.
type ColoringViolation struct {
	From   orbit.SatID
	Bucket BucketID
	Dist   int
}

// Verify computes the worst-case bucket distance of the colouring and any
// violations of the maxHops budget.
func (col *Coloring) Verify(g *topo.Grid, maxHops int) (worst int, violations []ColoringViolation) {
	c := g.Constellation()
	n := c.NumSlots()
	// Collect owners per bucket.
	owners := make([][]orbit.SatID, col.buckets)
	for i := 0; i < n; i++ {
		id := orbit.SatID(i)
		if c.Active(id) && col.assign[i] >= 0 {
			owners[col.assign[i]] = append(owners[col.assign[i]], id)
		}
	}
	for i := 0; i < n; i++ {
		id := orbit.SatID(i)
		if !c.Active(id) {
			continue
		}
		for b := 0; b < col.buckets; b++ {
			d := nearestOwnerDist(g, owners[b], id)
			if d > worst {
				worst = d
			}
			if d > maxHops {
				violations = append(violations, ColoringViolation{From: id, Bucket: BucketID(b), Dist: d})
			}
		}
	}
	sort.Slice(violations, func(i, j int) bool { return violations[i].Dist > violations[j].Dist })
	return worst, violations
}

// TilingColoring returns the paper's closed-form √L×√L tiling as a Coloring,
// for comparison against computed colourings. L must be a perfect square.
func TilingColoring(h *HashScheme) *Coloring {
	c := h.Grid().Constellation()
	col := &Coloring{buckets: h.Buckets(), assign: make([]BucketID, c.NumSlots())}
	for i := range col.assign {
		col.assign[i] = h.BucketAt(orbit.SatID(i))
	}
	return col
}
