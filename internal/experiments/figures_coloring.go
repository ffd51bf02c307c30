package experiments

import (
	"fmt"

	"starcdn/internal/core"
	"starcdn/internal/topo"
)

// ExtraColoring compares the paper's closed-form √L×√L bucket tiling with
// the general distance-constrained graph colouring (§3.2: "this problem can
// be mapped to a graph coloring problem for an arbitrary constellation
// topology"). On the healthy grid the tiling is optimal; the colouring's
// value is covering irregular topologies — outage holes and bucket counts
// with no square tiling — within a modest hop budget.
func ExtraColoring(e *Env) (string, error) {
	b := report("Extra: bucket placement — closed-form tiling vs graph colouring (§3.2)",
		"the tiling achieves the 2*floor(sqrt(L)/2) bound on the grid; the "+
			"colouring generalises placement to arbitrary topologies")
	fmt.Fprintf(b, "%-26s %8s %14s %14s\n", "configuration", "L", "worst hops", "paper bound")

	type cfg struct {
		label  string
		l      int
		outage int
	}
	cases := []cfg{
		{"tiling, healthy grid", 4, 0},
		{"tiling, healthy grid", 9, 0},
		{"colouring, healthy grid", 4, 0},
		{"colouring, healthy grid", 9, 0},
		{"colouring, 126 dead", 9, 126},
		{"colouring, L=5 (no tiling)", 5, 0},
	}
	for _, cs := range cases {
		key := fmt.Sprintf("extra-coloring-%s-%d-%d", cs.label, cs.l, cs.outage)
		c := e.Constellation(key)
		if cs.outage > 0 {
			c.ApplyOutageMask(cs.outage, e.Scale.Seed)
		}
		g := topo.NewGrid(c, topo.StarlinkTable1())
		bound := topo.WorstCaseBucketHops(cs.l)
		var worst int
		switch {
		case cs.label == "tiling, healthy grid":
			h, err := core.NewHashScheme(g, cs.l)
			if err != nil {
				return "", err
			}
			worst = core.TilingColoring(h).Verify(g)
		default:
			col, err := core.ComputeColoring(g, cs.l)
			if err != nil {
				return "", err
			}
			worst = col.Verify(g)
		}
		boundStr := fmt.Sprintf("%d", bound)
		if cs.l == 5 {
			boundStr = "n/a"
		}
		fmt.Fprintf(b, "%-26s %8d %14d %14s\n", cs.label, cs.l, worst, boundStr)
	}
	return b.String(), nil
}
