package main

// Layer drivers: each replays the workload's own inputs through one layer's
// public API in isolation, so the layer's busy time is known from outside the
// program. Calls shorter than a microsecond are timed per pass (busy ÷
// calls), because two clock reads would outweigh them; longer calls are timed
// one by one and reported as percentiles.

import (
	"errors"
	"math/rand"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/replayer"
	"starcdn/internal/sched"
	"starcdn/internal/sim"
	"starcdn/internal/topo"
)

// sink keeps the compiler from discarding a driver's results.
var sink int

// epochOf is the scheduler epoch a request falls in. Every workload runs the
// default 15 s epoch.
func epochOf(tSec float64) int64 { return int64(tSec / sched.DefaultEpochSec) }

type orbitDrive struct {
	callSec []float64 // one per VisibleFrom call
	visible int       // satellites found in view, over all calls
	swept   int       // slots examined, over all calls
}

// driveOrbit runs the visibility sweep the scheduler runs: once per user for
// every epoch the trace enters.
func driveOrbit(in *inputs, t *tracer) orbitDrive {
	id := t.begin("driver.orbit")
	defer t.end(id)
	var d orbitDrive
	var buf []orbit.SatID
	last := int64(-1)
	for i := range in.tr.Requests {
		e := epochOf(in.tr.Requests[i].TimeSec)
		if e == last {
			continue
		}
		last = e
		at := float64(e) * sched.DefaultEpochSec
		for _, u := range in.users {
			start := time.Now()
			buf = in.c.VisibleFrom(buf[:0], u, at)
			d.callSec = append(d.callSec, time.Since(start).Seconds())
			d.visible += len(buf)
			d.swept += in.c.NumSlots()
		}
	}
	return d
}

type schedDrive struct {
	busy         float64   // the whole pass
	recomputeSec []float64 // the FirstContact calls that entered a new epoch
	noCover      int
	first        []orbit.SatID // per request; -1 where nothing is in view
}

// driveSched asks a fresh scheduler for every request's first contact, as
// sim.Run and both replays do.
func driveSched(in *inputs, t *tracer) (schedDrive, error) {
	id := t.begin("driver.sched")
	defer t.end(id)
	d := schedDrive{first: make([]orbit.SatID, in.requests())}
	start := time.Now()
	s, err := sched.New(in.c, in.users, 0, in.seed)
	if err != nil {
		return d, err
	}
	last := int64(-1)
	for i := range in.tr.Requests {
		r := &in.tr.Requests[i]
		var sat orbit.SatID
		var ok bool
		if e := epochOf(r.TimeSec); e != last {
			last = e
			callStart := time.Now()
			sat, ok = s.FirstContact(r.Location, r.TimeSec)
			d.recomputeSec = append(d.recomputeSec, time.Since(callStart).Seconds())
		} else {
			sat, ok = s.FirstContact(r.Location, r.TimeSec)
		}
		if !ok {
			sat = -1
			d.noCover++
		}
		d.first[i] = sat
	}
	d.busy = time.Since(start).Seconds()
	return d, nil
}

type coreDrive struct {
	busy   float64
	calls  int // requests with a first contact
	remote int // of those, owner is not the first contact
	topoNs float64
	owner  []orbit.SatID // per request; -1 where no satellite serves
	// planeHops and slotHops are the route from first contact to owner.
	planeHops, slotHops []uint8
}

// driveCore resolves every request's bucket, serving owner, route and relay
// neighbours, then times the topo hop arithmetic alone in a second pass.
func driveCore(in *inputs, sd schedDrive, t *tracer) coreDrive {
	id := t.begin("driver.core")
	defer t.end(id)
	n := in.requests()
	d := coreDrive{owner: make([]orbit.SatID, n), planeHops: make([]uint8, n), slotHops: make([]uint8, n)}
	grid := in.h.Grid()
	acc := 0
	start := time.Now()
	for i := range in.tr.Requests {
		first := sd.first[i]
		d.owner[i] = -1
		if first < 0 {
			continue
		}
		d.calls++
		owner, serve := in.h.ServingOwner(first, in.h.BucketOf(in.tr.Requests[i].Object), nil)
		if !serve {
			continue
		}
		d.owner[i] = owner
		if owner != first {
			d.remote++
		}
		ph, sh := in.h.RoutingHops(first, owner)
		d.planeHops[i], d.slotHops[i] = uint8(ph), uint8(sh)
		acc += grid.TotalHops(first, owner)
		west, _ := in.h.RelayNeighbor(owner, topo.West)
		east, _ := in.h.RelayNeighbor(owner, topo.East)
		acc += int(west) + int(east)
	}
	d.busy = time.Since(start).Seconds()

	start = time.Now()
	for i, owner := range d.owner {
		if owner >= 0 {
			ph, sh := grid.HopDistance(sd.first[i], owner)
			acc += ph + sh + grid.TotalHops(sd.first[i], owner)
		}
	}
	d.topoNs = time.Since(start).Seconds() * 1e9 / float64(max(d.calls, 1))
	sink += acc
	return d
}

type cacheDrive struct {
	busy      float64
	gets      int
	hits      int
	admits    int
	evictions int
	hit       []bool // per request
}

// driveCache gives every owner its own cache and drives it with Get, then
// Admit on a miss: the owner path of the program without the relay.
func driveCache(in *inputs, cd coreDrive, t *tracer) (cacheDrive, error) {
	id := t.begin("driver.cache")
	defer t.end(id)
	d := cacheDrive{hit: make([]bool, in.requests())}
	caches := make(map[orbit.SatID]cache.Policy)
	stored := 0
	start := time.Now()
	for i := range in.tr.Requests {
		owner := cd.owner[i]
		if owner < 0 {
			continue
		}
		c := caches[owner]
		if c == nil {
			var err error
			if c, err = cache.New(cache.LRU, in.spec.CacheBytes); err != nil {
				return d, err
			}
			caches[owner] = c
		}
		r := &in.tr.Requests[i]
		d.gets++
		if c.Get(r.Object) {
			d.hits++
			d.hit[i] = true
			continue
		}
		d.admits++
		switch err := c.Admit(r.Object, r.Size); {
		case err == nil:
			stored++
		case !errors.Is(err, cache.ErrTooLarge): // too large bypasses the cache, as in the program
			return d, err
		}
	}
	d.busy = time.Since(start).Seconds()
	// Every stored object is either still cached or was evicted.
	d.evictions = stored
	for _, c := range caches {
		d.evictions -= c.Len()
	}
	return d, nil
}

// driveLatency makes the latency-model draws sim.Run makes per request: the
// user link always, the ISL route to a remote owner, the ground fetch on a
// miss. It returns the pass's busy seconds.
func driveLatency(in *inputs, cd coreDrive, kd cacheDrive, t *tracer) float64 {
	id := t.begin("driver.sim.latency")
	defer t.end(id)
	lat := sim.DefaultLatencyModel()
	rng := rand.New(rand.NewSource(in.seed + 1))
	acc := 0.0
	start := time.Now()
	for i := range in.tr.Requests {
		acc += lat.UserLinkRTTMs(2, rng)
		if cd.owner[i] >= 0 {
			acc += lat.ISLPathRTTMs(int(cd.planeHops[i]), int(cd.slotHops[i]), rng)
		}
		if !kd.hit[i] {
			acc += lat.GroundFetchRTTMs(rng)
		}
	}
	busy := time.Since(start).Seconds()
	sink += int(acc)
	return busy
}

type replayerDrive struct {
	getSec, containsSec, admitSec []float64 // round trips against one server
	clusterStart                  float64
	dialSec                       []float64 // first contact with each address
	closeSec                      float64
}

// timeOp appends the seconds op took to dst.
func timeOp(dst *[]float64, op func() error) error {
	start := time.Now()
	err := op()
	*dst = append(*dst, time.Since(start).Seconds())
	return err
}

// driveReplayer times the wire alone: Admit, Get and Contains round trips for
// the trace's first requests against one server, then the start of a whole
// cluster, a client's first contact with every address, and the close.
func driveReplayer(in *inputs, t *tracer) (replayerDrive, error) {
	id := t.begin("driver.replayer")
	defer t.end(id)
	var d replayerDrive
	if err := d.roundTrips(in); err != nil {
		return d, err
	}
	return d, d.clusterLifecycle(in, t)
}

func (d *replayerDrive) roundTrips(in *inputs) error {
	srv, err := replayer.NewServer(0, cache.LRU, in.spec.CacheBytes)
	if err != nil {
		return err
	}
	// The server and the pooled connection are loopback resources of a
	// finished measurement; a round-trip error is the one worth reporting.
	defer func() { _ = srv.Close() }()
	client := replayer.NewClient()
	defer func() { _ = client.Close() }()
	addr := srv.Addr()
	reqs := in.tr.Requests[:min(replayPrefix, in.requests())]
	for i := range reqs {
		r := &reqs[i]
		if err := timeOp(&d.admitSec, func() error { return client.Admit(addr, r.Object, r.Size) }); err != nil {
			return err
		}
	}
	for i := range reqs {
		r := &reqs[i]
		if err := timeOp(&d.getSec, func() error { _, err := client.Get(addr, r.Object, r.Size); return err }); err != nil {
			return err
		}
	}
	for i := range reqs {
		r := &reqs[i]
		if err := timeOp(&d.containsSec, func() error { _, err := client.Contains(addr, r.Object); return err }); err != nil {
			return err
		}
	}
	return nil
}

func (d *replayerDrive) clusterLifecycle(in *inputs, t *tracer) error {
	start := time.Now()
	cl, err := in.startCluster(t)
	if err != nil {
		return err
	}
	d.clusterStart = time.Since(start).Seconds()
	client := replayer.NewClient()
	for i := 0; i < in.c.NumSlots() && err == nil; i++ {
		if sat := orbit.SatID(i); in.c.Active(sat) {
			var addr string
			if addr, err = cl.Addr(sat); err == nil {
				err = timeOp(&d.dialSec, func() error { _, err := client.Contains(addr, 0); return err })
			}
		}
	}
	_ = client.Close() // as in roundTrips
	start = time.Now()
	if cerr := closeCluster(cl, t); err == nil {
		err = cerr
	}
	d.closeSec = time.Since(start).Seconds()
	return err
}
