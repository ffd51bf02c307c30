package replayer

import (
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

// A request in the window is its own sim.Fabric over the wire: a satellite's
// cache is its cluster server, and each call is one frame sent with the
// window's next flush. It owns its hop chain and the error classes: with
// fault tolerance on, a transport failure is sim.ErrUnreachable (the ladder
// degrades per §3.4); without, it passes through and aborts the replay.

// send puts one frame to sat on the wire and reads its Get-shaped answer.
// later are the servers the request may still send to after this frame.
func (r *request) send(sat orbitSat, later []orbitSat, addr string, op Op, obj cache.ObjectID, size int64,
	sc *obs.SpanContext) (bool, error) {
	r.c.sat, r.c.later, r.c.addr, r.c.op, r.c.obj, r.c.size, r.c.sc = sat, later, addr, op, obj, size, sc
	r.w.do(&r.c)
	hit, err := hitAnswer(r.c.st, r.c.err)
	if err != nil && r.w.rp.opts.Fault != nil {
		err = sim.ErrUnreachable
	}
	return hit, err
}

// Fetch implements sim.Fabric: OpFetch. The owner's hop is recorded even when
// the frame errs.
func (r *request) Fetch(sat orbitSat, obj cache.ObjectID, size int64) (bool, error) {
	start := time.Now()
	sc, hopID := r.rt.nextHop()
	hit, err := r.send(sat, r.relay[:], r.addr, OpFetch, obj, size, sc)
	r.rt.addHop(obs.Hop{Kind: "owner", Sat: int(sat), WallMs: wallMs(start), SpanID: hopID})
	return hit, err
}

// Probe implements sim.Fabric: OpProbe, or OpContains when touch is off. The
// hop is recorded only if the neighbour serves; a probe that finds no copy
// leaves its server-side span for -assemble to adopt under the trace root.
// Failing to resolve the neighbour's address (a server that cannot start) is
// not a §3.4 outage and aborts.
func (r *request) Probe(sat orbitSat, obj cache.ObjectID, size int64, via sim.Source, touch bool) (bool, error) {
	addr, err := r.w.rp.cluster.Addr(sat)
	if err != nil {
		return false, err
	}
	op := OpContains
	if touch {
		op = OpProbe
	}
	start := time.Now()
	sc, hopID := r.rt.nextHop()
	has, err := r.send(sat, r.relay[1+via-sim.SourceRelayWest:], addr, op, obj, size, sc)
	if err == nil && has && touch {
		r.rt.addHop(obs.Hop{Kind: via.String(), Sat: int(sat), WallMs: wallMs(start), SpanID: hopID})
	}
	return has, err
}
