package replayer

import (
	"errors"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
)

// tcpFabric is sim.Fabric over the wire: a satellite's cache is its cluster
// server, a cache operation one frame round trip through the client. It owns
// the hop chain of a sampled request — the role on each call says which hop
// the exchange belongs to — and the error classes: with fault tolerance on, a
// transport failure is sim.ErrUnreachable (the ladder degrades per §3.4);
// without, it passes through and aborts the replay. A shed answer
// (shed.ErrShed) is a served refusal either way.
type tcpFabric struct {
	cluster *Cluster
	client  *Client
	faulty  bool

	// The request being served, set by replay.serve.
	rt   *reqTrace
	addr string // the owner's address, resolved in plan

	// The open relay probe. One hop span covers a neighbour's Contains and
	// its touching Get, and is recorded only if that neighbour serves; a
	// probe that finds no copy leaves its server-side span for -assemble to
	// adopt under the trace root.
	probeAddr  string
	probeStart time.Time
	probeSC    *obs.SpanContext
	probeHop   string
}

func (f *tcpFabric) classify(err error) error {
	if err != nil && f.faulty && !errors.Is(err, shed.ErrShed) {
		return sim.ErrUnreachable
	}
	return err
}

// Get implements sim.Fabric. The owner's hop is recorded even when the Get
// errs.
func (f *tcpFabric) Get(sat orbitSat, obj cache.ObjectID, size int64, role sim.Role) (bool, error) {
	if role != sim.RoleOwner {
		hit, err := f.client.GetCtx(f.probeAddr, obj, size, f.probeSC)
		if err == nil {
			f.rt.addHop(obs.Hop{Kind: role.String(), Sat: int(sat),
				WallMs: wallMs(f.probeStart), SpanID: f.probeHop})
		}
		return hit, f.classify(err)
	}
	start := time.Now()
	sc, hopID := f.rt.nextHop()
	hit, err := f.client.GetCtx(f.addr, obj, size, sc)
	f.rt.addHop(obs.Hop{Kind: role.String(), Sat: int(sat), WallMs: wallMs(start), SpanID: hopID})
	return hit, f.classify(err)
}

// Contains implements sim.Fabric: a relay probe. Failing to resolve the
// neighbour's address (a server that cannot start) is not a §3.4 outage and
// aborts.
func (f *tcpFabric) Contains(sat orbitSat, obj cache.ObjectID, _ int64, _ sim.Role) (bool, error) {
	addr, err := f.cluster.Addr(sat)
	if err != nil {
		return false, err
	}
	f.probeAddr, f.probeStart = addr, time.Now()
	f.probeSC, f.probeHop = f.rt.nextHop()
	has, err := f.client.ContainsCtx(addr, obj, f.probeSC)
	return has, f.classify(err)
}

// Admit implements sim.Fabric, always at the owner. The relay write-back
// rides under the serving neighbour's hop span (rt.cur), the step that
// produced the copy; the ground fetch gets a hop of its own.
func (f *tcpFabric) Admit(sat orbitSat, obj cache.ObjectID, size int64, role sim.Role) error {
	if role != sim.RoleGround {
		return f.classify(f.client.AdmitCtx(f.addr, obj, size, f.rt.cur()))
	}
	start := time.Now()
	sc, hopID := f.rt.nextHop()
	err := f.client.AdmitCtx(f.addr, obj, size, sc)
	f.rt.addHop(obs.Hop{Kind: role.String(), Sat: int(sat), WallMs: wallMs(start), SpanID: hopID})
	return f.classify(err)
}
