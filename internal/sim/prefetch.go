package sim

import (
	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/sched"
	"starcdn/internal/topo"
)

// PrefetchStats accounts the proactive-prefetch alternative of §3.3: how
// much content was pushed over ISLs ahead of demand, and how much of it was
// actually used before being displaced.
type PrefetchStats struct {
	Transferred      int64 // objects copied from the west neighbour
	TransferredBytes int64 // ISL bytes consumed by those copies
	Used             int64 // prefetched objects that later served a hit
}

// UsefulFraction returns Used/Transferred (0 when nothing was transferred).
func (p *PrefetchStats) UsefulFraction() float64 {
	if p.Transferred == 0 {
		return 0
	}
	return float64(p.Used) / float64(p.Transferred)
}

// prefetcher implements the paper's discussed-and-rejected alternative to
// relayed fetch: at every scheduler epoch (sched.DefaultEpochSec), a satellite proactively copies
// the hottest objects from its west same-bucket neighbour (the satellite
// whose ground track it is about to retrace). The paper argues (§3.3) that
// unused prefetches waste cache space, transmit power, and ISL bandwidth;
// the ablation experiment quantifies that trade-off.
type prefetcher struct {
	count     int // objects pulled per epoch
	lastEpoch map[orbit.SatID]int64
	pulled    map[orbit.SatID]map[cache.ObjectID]bool
	stats     PrefetchStats
}

func newPrefetcher(count int) *prefetcher {
	if count <= 0 {
		count = 32
	}
	return &prefetcher{
		count:     count,
		lastEpoch: make(map[orbit.SatID]int64),
		pulled:    make(map[orbit.SatID]map[cache.ObjectID]bool),
	}
}

// maybePrefetch runs once per (satellite, epoch): it copies up to count of
// the west neighbour's most recently used objects into home's cache.
func (pf *prefetcher) maybePrefetch(p *StarCDN, home orbit.SatID, timeSec float64) {
	epoch := int64(timeSec / sched.DefaultEpochSec)
	if pf.lastEpoch[home] == epoch {
		return
	}
	pf.lastEpoch[home] = epoch
	west, ok := p.hash.RelayNeighbor(home, topo.West)
	if !ok {
		return
	}
	src := p.caches.at(west)
	recents, ok := src.(cache.Recents)
	if !ok {
		return
	}
	dst := p.caches.at(home)
	marks := pf.pulled[home]
	if marks == nil {
		marks = make(map[cache.ObjectID]bool)
		pf.pulled[home] = marks
	}
	for _, obj := range recents.Recent(pf.count) {
		if dst.Contains(obj) {
			continue
		}
		size, ok := src.SizeOf(obj)
		if !ok {
			continue
		}
		admit(dst, obj, size)
		marks[obj] = true
		pf.stats.Transferred++
		pf.stats.TransferredBytes += size
	}
}

// recordHit marks a prefetched object as used on its first hit.
func (pf *prefetcher) recordHit(home orbit.SatID, obj cache.ObjectID) {
	if marks := pf.pulled[home]; marks != nil && marks[obj] {
		delete(marks, obj)
		pf.stats.Used++
	}
}
