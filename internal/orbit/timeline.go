package orbit

import (
	"math"
	"sync"

	"starcdn/internal/geo"
)

// Timeline remembers, for one set of ground points and one epoch length,
// which slots are geometrically in view of each point at each epoch start.
// That depends on the shell, the point and the instant only — not on the
// activity mask — so a row is computed once per constellation and holds every
// slot in view, working or not, and Row.VisibleFrom keeps the ones active when
// it is called (DESIGN.md §3.1). Rows are filled on first request and never
// change. Timeline and Row methods may be called from several goroutines at
// once; changing the activity mask meanwhile is, as everywhere, the caller's
// to serialise.
type Timeline struct {
	c        *Constellation
	users    []geo.Point
	epochSec float64

	mu   sync.Mutex
	snap *Snapshot     // every slot at the epoch being filled
	rows map[int64]int // epoch -> row number, in fill order
	// Row r keeps len(users)+1 offsets into ids starting at offs[r*len(users)];
	// rows are contiguous in ids, so one row's last offset is the next's first.
	offs   []uint32
	ids    []int32 // half a SatID: a run's worth of rows is kept per constellation
	inView []SatID // one user's sweep result on its way into ids
}

// Timeline returns the constellation's timeline for these points and this
// epoch length, creating it empty on first request. The constellation keeps
// one per distinct (users, epochSec) it was ever asked about.
func (c *Constellation) Timeline(users []geo.Point, epochSec float64) *Timeline {
	c.timelinesMu.Lock()
	defer c.timelinesMu.Unlock()
	for _, tl := range c.timelines {
		if tl.keyedBy(users, epochSec) {
			return tl
		}
	}
	snap := c.NewSnapshot()
	snap.inactiveToo = true
	tl := &Timeline{
		c:        c,
		users:    append([]geo.Point(nil), users...),
		epochSec: epochSec,
		snap:     snap,
		rows:     make(map[int64]int),
		offs:     []uint32{0},
	}
	c.timelines = append(c.timelines, tl)
	return tl
}

// keyedBy compares bit patterns, so a NaN coordinate or epoch length still
// finds its own timeline.
func (tl *Timeline) keyedBy(users []geo.Point, epochSec float64) bool {
	if math.Float64bits(epochSec) != math.Float64bits(tl.epochSec) || len(users) != len(tl.users) {
		return false
	}
	for i, p := range users {
		q := tl.users[i]
		if math.Float64bits(p.LatDeg) != math.Float64bits(q.LatDeg) || math.Float64bits(p.LonDeg) != math.Float64bits(q.LonDeg) {
			return false
		}
	}
	return true
}

// Row is one epoch of a Timeline. It stays valid and unchanged for as long as
// it is held.
type Row struct {
	c    *Constellation
	offs []uint32
	ids  []int32
}

// VisibleFrom appends to dst the satellites visible from user u at the row's
// epoch start under the activity mask in force at this call: the same
// satellites in the same order as Constellation.VisibleFrom there and now.
func (r Row) VisibleFrom(dst []SatID, u int) []SatID {
	for _, id := range r.ids[r.offs[u]:r.offs[u+1]] {
		if r.c.active[id] {
			dst = append(dst, SatID(id))
		}
	}
	return dst
}

// Epoch returns the row for the epoch that starts at epoch*epochSec,
// computing and storing it if this is the first request for it.
func (tl *Timeline) Epoch(epoch int64) Row {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	n := len(tl.users)
	r, ok := tl.rows[epoch]
	if !ok {
		r = len(tl.rows)
		tl.rows[epoch] = r
		tl.snap.Update(float64(epoch) * tl.epochSec)
		for _, p := range tl.users {
			tl.inView = tl.snap.VisibleFrom(tl.inView[:0], p)
			for _, id := range tl.inView {
				tl.ids = append(tl.ids, int32(id))
			}
			tl.offs = append(tl.offs, uint32(len(tl.ids)))
		}
	}
	// Appends write past these lengths or to a new array, never to what a
	// returned Row can reach.
	return Row{c: tl.c, offs: tl.offs[r*n : r*n+n+1], ids: tl.ids}
}
