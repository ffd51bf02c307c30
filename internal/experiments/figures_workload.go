package experiments

import (
	"fmt"
	"math"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/sim"
	"starcdn/internal/spacegen"
	"starcdn/internal/stats"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// Table1 prints the Starlink link parameters and verifies the samplers
// reproduce them.
func Table1() string {
	b := report("Table 1: propagation delay and bandwidth of Starlink links",
		"intra-orbit ISL 8.03ms/100Gbps, inter-orbit ISL 2.15ms/100Gbps, GSL 2.94ms/20Gbps")
	m := topo.StarlinkTable1()
	rows := []struct {
		name string
		s    topo.DelaySpec
	}{
		{"Intra-orbit ISL", m.IntraOrbitISL},
		{"Inter-orbit ISL", m.InterOrbitISL},
		{"GSL", m.GSL},
	}
	fmt.Fprintf(b, "%-16s %10s %10s %10s %12s\n", "link", "avg(ms)", "std(ms)", "min(ms)", "bw(Gbps)")
	for _, r := range rows {
		fmt.Fprintf(b, "%-16s %10.2f %10.3f %10.2f %12.0f\n",
			r.name, r.s.AvgMs, r.s.StdMs, r.s.MinMs, r.s.BandwidthGbps)
	}
	return b.String()
}

// Table2 reproduces the cross-country object/traffic overlap matrix for
// Britain, Germany, and Turkey.
func Table2(e *Env) (string, error) {
	tr, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	b := report("Table 2: object (traffic) overlap between European countries",
		"Britain->Germany 11% (49%), Britain->Turkey 2% (15%), Germany->Britain 16% (45%), "+
			"Germany->Turkey 4% (31%), Turkey->Britain 23% (37%), Turkey->Germany 34% (72%)")
	countries := map[string]string{
		"Britain": "London", "Germany": "Frankfurt", "Turkey": "Istanbul",
	}
	idx := func(city string) int {
		for i, n := range tr.Locations {
			if n == city {
				return i
			}
		}
		return -1
	}
	overlap := workload.MeasureOverlap(tr)
	order := []string{"Britain", "Germany", "Turkey"}
	fmt.Fprintf(b, "%-10s", "")
	for _, col := range order {
		fmt.Fprintf(b, "%18s", col)
	}
	fmt.Fprintln(b)
	for _, row := range order {
		fmt.Fprintf(b, "%-10s", row)
		for _, col := range order {
			o := overlap[idx(countries[row])][idx(countries[col])]
			fmt.Fprintf(b, "%9.0f%%(%4.0f%%)", 100*o.ObjectFrac, 100*o.TrafficFrac)
		}
		fmt.Fprintln(b)
	}
	return b.String(), nil
}

// Fig2 reproduces the overlap-vs-distance-from-New-York series.
func Fig2(e *Env) (string, error) {
	tr, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	rows, err := workload.MeasureOverlapFrom(tr, e.Cities, "New York")
	if err != nil {
		return "", err
	}
	b := report("Fig. 2: overlap with New York vs distance",
		"<3000km: ~55% objects / ~90% traffic; >3000km: low (London ~25% traffic)")
	fmt.Fprintf(b, "%-16s %12s %10s %10s\n", "location", "dist(km)", "objects", "traffic")
	for _, r := range rows {
		fmt.Fprintf(b, "%-16s %12.0f %9.0f%% %9.0f%%\n",
			r.Location, r.DistanceKm, 100*r.Overlap.ObjectFrac, 100*r.Overlap.TrafficFrac)
	}
	return b.String(), nil
}

// Fig3 reproduces the two-satellite ground-track figure: the trajectory of a
// satellite three planes west retraces this satellite's track with a lag of
// 3*raanStep/earthRate.
func Fig3(e *Env) string {
	c := e.Constellation("fig3")
	b := report("Fig. 3: trajectory of two satellites, three parallel orbits away",
		"the west neighbour's track retraces the reference satellite's recent track")
	ref := c.SatAt(10, 5)
	west3 := c.SatAt(7, 5)
	lag := 3 * 86164.0905 / 72 // 3 planes of Earth-rotation lag
	var worst, sum float64
	n := 0
	for t := 3600.0; t <= 3600+c.Config().PeriodSec(); t += 60 {
		p := c.SubSatellitePoint(ref, t)
		q := c.SubSatellitePoint(west3, t-lag)
		d := geo.DistanceKm(p, q)
		sum += d
		if d > worst {
			worst = d
		}
		n++
	}
	fmt.Fprintf(b, "ref=(plane 10, slot 5), west3=(plane 7, slot 5), lag=%.0fs\n", lag)
	fmt.Fprintf(b, "track distance over one period: mean=%.0fkm worst=%.0fkm (footprint radius ~%.0fkm)\n",
		sum/float64(n), worst, c.CoverageAngleRad()*geo.EarthRadiusKm)
	track := c.GroundTrack(ref, 0, 600, 120)
	fmt.Fprintf(b, "sample ground track of ref (first 10 min):")
	for _, p := range track {
		fmt.Fprintf(b, " %s", p)
	}
	fmt.Fprintln(b)
	return b.String()
}

// Fig5b summarises the constellation and its ISL grid.
func Fig5b(e *Env) string {
	c := e.Constellation("fig5b")
	g := topo.NewGrid(c, topo.StarlinkTable1())
	b := report("Fig. 5b: orbital motion and ISLs of Starlink satellites",
		"1,170 active satellites in 72 orbits inclined at 53 degrees")
	cfg := c.Config()
	fmt.Fprintf(b, "planes=%d slots/plane=%d total=%d altitude=%.0fkm inclination=%.0fdeg period=%.1fmin\n",
		cfg.Planes, cfg.SatsPerPlane, c.NumSlots(), cfg.AltitudeKm, cfg.InclinationDeg, cfg.PeriodSec()/60)
	c.ApplyOutageMask(126, e.Scale.Seed)
	fmt.Fprintf(b, "active=%d (126 out-of-slot, paper §5.4), broken ISLs=%d (paper: 438)\n",
		c.NumActive(), g.BrokenISLCount())
	c.ApplyOutageMask(0, e.Scale.Seed)
	fmt.Fprintf(b, "ISLs per satellite: 2 intra-orbit + 2 inter-orbit (grid torus)\n")
	// §3.1: "a Starlink client often has 10+ satellites in view" — histogram
	// the visible-satellite count across cities and an orbital period.
	hist := stats.MustNewHistogram(0, 24, 12)
	var buf []orbit.SatID
	snap := c.NewSnapshot()
	for t := 0.0; t < cfg.PeriodSec(); t += 300 {
		snap.Update(t)
		for _, city := range e.Cities {
			buf = snap.VisibleFrom(buf[:0], city.Point)
			hist.Add(float64(len(buf)))
		}
	}
	fmt.Fprintf(b, "satellites in view per user sample (bin of 2):")
	for i := 0; i < hist.NumBins(); i++ {
		fmt.Fprintf(b, " %d-%d:%.0f%%", i*2, i*2+1, 100*hist.Fraction(i))
	}
	fmt.Fprintln(b)
	return b.String()
}

// Fig6 validates SpaceGEN against the production trace: object/traffic
// spreads (6a/6b), stationary-CDN LRU hit rates (6c/6d), and orbiting
// satellite LRU hit rates (6e/6f).
func Fig6(e *Env) (string, error) {
	prod, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	models, err := spacegen.Fit(prod)
	if err != nil {
		return "", err
	}
	gen, err := spacegen.NewGenerator(models, e.Scale.Seed+1)
	if err != nil {
		return "", err
	}
	syn, err := gen.Generate(prod.Len())
	if err != nil {
		return "", err
	}
	b := report("Fig. 6: synthetic vs production traces",
		"spreads overlap; hit-rate gap ~0.4% stationary, ~2% on satellites")

	// 6a/6b: spreads.
	pObj, pTraf := workload.SpreadDistributions(prod)
	sObj, sTraf := workload.SpreadDistributions(syn)
	fmt.Fprintf(b, "-- 6a object spread / 6b traffic spread (fraction per location count) --\n")
	fmt.Fprintf(b, "%-10s %12s %12s %12s %12s\n", "locations", "obj(prod)", "obj(syn)", "traf(prod)", "traf(syn)")
	for k := 1; k < len(pObj); k++ {
		fmt.Fprintf(b, "%-10d %12.3f %12.3f %12.3f %12.3f\n", k, pObj[k], sObj[k], pTraf[k], sTraf[k])
	}

	// 6c/6d: stationary per-location LRU.
	fmt.Fprintf(b, "-- 6c/6d terrestrial LRU hit rates --\n")
	fmt.Fprintf(b, "%-10s %10s %10s %10s %10s\n", "cache", "RHR(prod)", "RHR(syn)", "BHR(prod)", "BHR(syn)")
	var rhrGap, bhrGap float64
	for _, size := range e.Scale.CacheSizes {
		pm, err := stationaryLRU(prod, size)
		if err != nil {
			return "", err
		}
		sm, err := stationaryLRU(syn, size)
		if err != nil {
			return "", err
		}
		rhrGap += math.Abs(pm.RequestHitRate() - sm.RequestHitRate())
		bhrGap += math.Abs(pm.ByteHitRate() - sm.ByteHitRate())
		fmt.Fprintf(b, "%-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", gb(size),
			100*pm.RequestHitRate(), 100*sm.RequestHitRate(),
			100*pm.ByteHitRate(), 100*sm.ByteHitRate())
	}
	n := float64(len(e.Scale.CacheSizes))
	fmt.Fprintf(b, "mean |gap|: RHR %.1fpp BHR %.1fpp (paper: 0.4pp / 0.3pp)\n",
		100*rhrGap/n, 100*bhrGap/n)

	// 6e/6f: orbiting satellites with naive LRU.
	fmt.Fprintf(b, "-- 6e/6f satellite LRU hit rates --\n")
	fmt.Fprintf(b, "%-10s %10s %10s %10s %10s\n", "cache", "RHR(prod)", "RHR(syn)", "BHR(prod)", "BHR(syn)")
	rhrGap, bhrGap = 0, 0
	for _, size := range e.Scale.CacheSizes {
		pm, err := e.runScheme("fig6", "lru", 0, size, prod, sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		sm, err := e.runScheme("fig6", "lru", 0, size, syn, sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		rhrGap += math.Abs(pm.Meter.RequestHitRate() - sm.Meter.RequestHitRate())
		bhrGap += math.Abs(pm.Meter.ByteHitRate() - sm.Meter.ByteHitRate())
		fmt.Fprintf(b, "%-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", gb(size),
			100*pm.Meter.RequestHitRate(), 100*sm.Meter.RequestHitRate(),
			100*pm.Meter.ByteHitRate(), 100*sm.Meter.ByteHitRate())
	}
	fmt.Fprintf(b, "mean |gap|: RHR %.1fpp BHR %.1fpp (paper: 2pp / 1pp)\n",
		100*rhrGap/n, 100*bhrGap/n)
	return b.String(), nil
}

// Fig13 repeats the Fig. 6 validation for the StarCDN-Fetch architecture
// (appendix A.2).
func Fig13(e *Env) (string, error) {
	prod, err := e.ProductionTrace("video")
	if err != nil {
		return "", err
	}
	models, err := spacegen.Fit(prod)
	if err != nil {
		return "", err
	}
	gen, err := spacegen.NewGenerator(models, e.Scale.Seed+2)
	if err != nil {
		return "", err
	}
	syn, err := gen.Generate(prod.Len())
	if err != nil {
		return "", err
	}
	b := report("Fig. 13: production vs synthetic under terrestrial and StarCDN-Fetch emulation",
		"hit-rate differences stay small in both emulations")
	fmt.Fprintf(b, "%-10s %12s %12s %12s %12s\n", "cache",
		"terr(prod)", "terr(syn)", "fetch(prod)", "fetch(syn)")
	for _, size := range e.Scale.CacheSizes {
		pm, err := stationaryLRU(prod, size)
		if err != nil {
			return "", err
		}
		sm, err := stationaryLRU(syn, size)
		if err != nil {
			return "", err
		}
		pf, err := e.runScheme("fig13", "starcdn-fetch", 4, size, prod, sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		sf, err := e.runScheme("fig13", "starcdn-fetch", 4, size, syn, sim.Config{Seed: e.Scale.Seed})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(b, "%-10s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", gb(size),
			100*pm.RequestHitRate(), 100*sm.RequestHitRate(),
			100*pf.Meter.RequestHitRate(), 100*sf.Meter.RequestHitRate())
	}
	return b.String(), nil
}

// stationaryLRU replays per-location LRU caches (a terrestrial CDN cluster)
// and returns the merged meter. An admission error other than ErrTooLarge
// means the trace carries a non-positive size and the figure is invalid.
func stationaryLRU(tr *trace.Trace, capacity int64) (cache.Meter, error) {
	caches := make([]cache.Policy, len(tr.Locations))
	for i := range caches {
		caches[i] = cache.MustNew(cache.LRU, capacity)
	}
	var m cache.Meter
	for i := range tr.Requests {
		r := &tr.Requests[i]
		c := caches[r.Location]
		hit := c.Get(r.Object)
		m.Record(r.Size, hit)
		if !hit {
			if err := c.Admit(r.Object, r.Size); err != nil && err != cache.ErrTooLarge {
				return m, fmt.Errorf("stationary LRU admit: %w", err)
			}
		}
	}
	return m, nil
}
