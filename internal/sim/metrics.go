package sim

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/stats"
)

// Source says where a request was ultimately served from.
type Source int

// Request service sources.
const (
	SourceLocal     Source = iota // first-contact satellite's own cache
	SourceBucket                  // the bucket owner's cache over ISLs
	SourceRelayWest               // relayed fetch from the west neighbour
	SourceRelayEast               // relayed fetch from the east neighbour
	SourceGround                  // fetched from the ground (cache miss)
	SourceNoCover                 // no satellite in view: served bent-pipe
	// SourceGroundEdge is a hit at a ground-station-colocated edge cache
	// (§7 intermediate design): a cache hit for latency purposes, but the
	// content still consumes the satellite uplink.
	SourceGroundEdge
	// SourceShed is a request rejected by overload control (shed.Action):
	// no content moved, no uplink or ISL capacity consumed. It counts as a
	// miss for hit-rate purposes but is excluded from uplink accounting.
	SourceShed
)

// numSources is the number of defined service sources; Sources() and the
// per-source metric vectors in Run are sized by it.
const numSources = int(SourceShed) + 1

// sourceNames maps each Source to its stable wire/metric-label name. Metric
// series and trace JSONL use these names, never the Source(%d) fallback.
var sourceNames = [numSources]string{
	SourceLocal:      "local",
	SourceBucket:     "bucket",
	SourceRelayWest:  "relay-west",
	SourceRelayEast:  "relay-east",
	SourceGround:     "ground",
	SourceNoCover:    "no-coverage",
	SourceGroundEdge: "ground-edge",
	SourceShed:       "shed",
}

// Sources enumerates every defined service source in declaration order —
// the canonical iteration for per-source metric vectors and report rows.
func Sources() []Source {
	out := make([]Source, numSources)
	for i := range out {
		out[i] = Source(i)
	}
	return out
}

// Valid reports whether s is one of the defined sources.
func (s Source) Valid() bool { return s >= 0 && int(s) < numSources }

// String implements fmt.Stringer.
func (s Source) String() string {
	if s.Valid() {
		return sourceNames[s]
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Hit reports whether the source counts as a satellite cache hit (§2.2's
// headline metric; ground-edge hits count as hits for latency but still
// climb the uplink — see Metrics.UplinkBytes).
func (s Source) Hit() bool {
	switch s {
	case SourceLocal, SourceBucket, SourceRelayWest, SourceRelayEast, SourceGroundEdge:
		return true
	}
	return false
}

// Uplink reports whether the source's bytes climb the satellite uplink: a
// ground fetch, a bent-pipe serve, and a ground-edge hit, which avoids the
// origin fetch but not the uplink — the §7 trade-off Metrics.UplinkBytes
// exists to expose. A shed request moved no bytes at all.
func (s Source) Uplink() bool {
	return s == SourceGround || s == SourceNoCover || s == SourceGroundEdge
}

// MarshalText implements encoding.TextMarshaler with the stable source
// names, so labels and trace JSONL never leak the numeric fallback.
func (s Source) MarshalText() ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("sim: cannot marshal unknown Source(%d)", int(s))
	}
	return []byte(sourceNames[s]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (the inverse of
// MarshalText), accepting exactly the stable names.
func (s *Source) UnmarshalText(text []byte) error {
	name := string(text)
	for i, n := range sourceNames {
		if n == name {
			*s = Source(i)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown source name %q", name)
}

// RelayAvailability tallies Table 3: when the bucket owner misses, where was
// the object available among its same-bucket inter-orbit neighbours?
type RelayAvailability struct {
	WestOnlyReq, EastOnlyReq, BothReq       int64
	WestOnlyBytes, EastOnlyBytes, BothBytes int64
}

// Record tallies one miss with the neighbour availability flags.
func (r *RelayAvailability) Record(size int64, west, east bool) {
	switch {
	case west && east:
		r.BothReq++
		r.BothBytes += size
	case west:
		r.WestOnlyReq++
		r.WestOnlyBytes += size
	case east:
		r.EastOnlyReq++
		r.EastOnlyBytes += size
	}
}

// Metrics aggregates a simulation run.
type Metrics struct {
	// Meter counts a request as a hit when it is served from any satellite
	// cache (request and byte hit rates, Fig. 7/12).
	Meter cache.Meter
	// UplinkBytes is the ground-to-satellite volume consumed by misses
	// (Fig. 8 normalises this by Meter.BytesTotal).
	UplinkBytes int64
	// ISLBytes is the total inter-satellite traffic in byte-hops; ISLs have
	// abundant bandwidth (100 Gbps, Table 1), so StarCDN deliberately trades
	// ISL traffic for uplink savings — this metric quantifies that trade.
	ISLBytes int64
	// BySource counts requests per service source, indexed by Source.
	BySource [numSources]int64
	// Latency is the per-request end-to-end round-trip CDF (Fig. 10);
	// only collected when enabled in the runner config.
	Latency *stats.CDF
	// PerSat meters each serving satellite's cache performance (Fig. 11);
	// only collected when enabled.
	PerSat map[orbit.SatID]*cache.Meter
	// UplinkWindows holds ground-to-satellite bytes per time window when
	// Config.UplinkWindowSec is set, for peak-utilisation analysis against
	// the 20 Gbps GSL budget of Table 1.
	UplinkWindows   []int64
	UplinkWindowSec float64
	// PerClass meters hit rates per traffic class when Config.ClassOf is
	// set (mixed-class workloads).
	PerClass map[int]*cache.Meter
}

// PeakUplinkGbps returns the highest per-window uplink demand in Gbit/s
// (0 when windows were not collected).
func (m *Metrics) PeakUplinkGbps() float64 {
	if m.UplinkWindowSec <= 0 {
		return 0
	}
	var peak int64
	for _, b := range m.UplinkWindows {
		if b > peak {
			peak = b
		}
	}
	return float64(peak) * 8 / m.UplinkWindowSec / 1e9
}

// NewMetrics returns Metrics with optional latency and per-satellite
// collection.
func NewMetrics(collectLatency, collectPerSat bool) *Metrics {
	m := &Metrics{}
	if collectLatency {
		m.Latency = &stats.CDF{}
	}
	if collectPerSat {
		m.PerSat = make(map[orbit.SatID]*cache.Meter)
	}
	return m
}

// record registers one served request; the fold samples its latency.
func (m *Metrics) record(sat orbit.SatID, size int64, src Source) {
	hit := src.Hit()
	m.Meter.Record(size, hit)
	if src.Uplink() {
		m.UplinkBytes += size
	}
	m.BySource[src]++
	if m.PerSat != nil && sat >= 0 {
		pm := m.PerSat[sat]
		if pm == nil {
			pm = &cache.Meter{}
			m.PerSat[sat] = pm
		}
		pm.Record(size, hit)
	}
}

// UplinkFraction returns UplinkBytes normalised by total bytes — the Fig. 8
// metric, where 1.0 is "fetch everything from the ground".
func (m *Metrics) UplinkFraction() float64 {
	return stats.Ratio(float64(m.UplinkBytes), float64(m.Meter.BytesTotal))
}

// String implements fmt.Stringer.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s uplink=%.1f%%", m.Meter.String(), 100*m.UplinkFraction())
}
