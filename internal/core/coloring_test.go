package core

import (
	"testing"

	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

func TestComputeColoringValidation(t *testing.T) {
	g := testGrid(t)
	if _, err := ComputeColoring(g, ColoringOptions{Buckets: 0}); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := ComputeColoring(g, ColoringOptions{Buckets: 1 << 20}); err == nil {
		t.Error("more buckets than satellites accepted")
	}
}

func TestTilingColoringMatchesPaperBound(t *testing.T) {
	// The closed-form tiling satisfies the paper's 2*floor(sqrt(L)/2) bound
	// on a healthy grid.
	for _, l := range []int{4, 9} {
		h := scheme(t, l)
		col := TilingColoring(h)
		bound := topo.WorstCaseBucketHops(l)
		worst, violations := col.Verify(h.Grid(), bound)
		if len(violations) != 0 {
			t.Errorf("L=%d: tiling violates its own bound: %d violations (worst %d)",
				l, len(violations), worst)
		}
		if worst > bound {
			t.Errorf("L=%d: tiling worst distance %d > bound %d", l, worst, bound)
		}
	}
}

func TestComputedColoringCoversHealthyGrid(t *testing.T) {
	// The general greedy colouring should achieve a worst-case distance
	// close to the tiling's on a healthy grid (within 2x of the bound).
	for _, l := range []int{4, 9} {
		g := testGrid(t)
		col, err := ComputeColoring(g, ColoringOptions{Buckets: l})
		if err != nil {
			t.Fatal(err)
		}
		bound := topo.WorstCaseBucketHops(l)
		worst, _ := col.Verify(g, 2*bound+1)
		if worst > 2*bound+1 {
			t.Errorf("L=%d: greedy colouring worst distance %d, tiling bound %d",
				l, worst, bound)
		}
		// Every active satellite is assigned a valid bucket.
		c := g.Constellation()
		counts := make([]int, l)
		for i := 0; i < c.NumSlots(); i++ {
			b := col.assign[i]
			if b < 0 || int(b) >= l {
				t.Fatalf("satellite %d has bucket %d", i, b)
			}
			counts[b]++
		}
		// Buckets are roughly balanced (within 3x of each other).
		minC, maxC := counts[0], counts[0]
		for _, ct := range counts {
			if ct < minC {
				minC = ct
			}
			if ct > maxC {
				maxC = ct
			}
		}
		if minC == 0 || maxC > 3*minC {
			t.Errorf("L=%d: unbalanced colouring: min=%d max=%d", l, minC, maxC)
		}
	}
}

func TestComputedColoringHandlesIrregularTopology(t *testing.T) {
	// The general mechanism's purpose: with 126 dead satellites the tiling
	// has holes, but the computed colouring still covers every bucket within
	// a modest budget (dead slots are skipped entirely).
	g := testGrid(t)
	c := g.Constellation()
	c.ApplyOutageMask(126, 11)
	defer c.ApplyOutageMask(0, 11)
	col, err := ComputeColoring(g, ColoringOptions{Buckets: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Dead satellites keep the -1 sentinel.
	for i := 0; i < c.NumSlots(); i++ {
		id := orbit.SatID(i)
		if !c.Active(id) && col.assign[id] != -1 {
			t.Fatalf("dead satellite %d was coloured", i)
		}
	}
	worst, violations := col.Verify(g, 6)
	if len(violations) > 0 {
		t.Errorf("irregular colouring has %d violations beyond 6 hops (worst %d)",
			len(violations), worst)
	}
	// Non-perfect-square bucket counts work too (no tiling equivalent).
	col5, err := ComputeColoring(g, ColoringOptions{Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := col5.Verify(g, 8); w > 8 {
		t.Errorf("L=5 colouring worst distance %d", w)
	}
}
