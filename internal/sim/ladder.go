package sim

import (
	"errors"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/obs"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
)

// Ladder is StarCDN's request decision ladder (§3.2–§3.4 plus the overload
// stages of internal/shed), written once: first contact → §3.4 serving owner
// → shed-stage gates → owner fetch → west/east relay probe → ground.
// sim.StarCDN runs it over in-memory caches and the TCP replayer over a
// cluster, so the two pipelines decide every request with the same code;
// they differ only in the Fabric underneath and in what they lay over the
// verdict (a latency model here, wall-clock hops there).
//
// The no-hashing ablation is not a branch here: its drivers hand the ladder
// core.OneBucket, the scheme in which the first contact owns every object.
type Ladder struct {
	Hash  *core.HashScheme
	Relay bool // probe the west/east neighbours on an owner miss
}

// Fabric is the cache plane under the ladder: *satCaches in memory, a
// replayed request over the wire. A call is all a request does to one cache,
// one frame over the wire: Fetch is the owner's Get plus, on a miss with admit
// set, the admit of the copy the request brings back; Probe is a relay
// neighbour's Contains plus, when it has the object and touch is set, the
// touch of serving it (via is SourceRelayWest or SourceRelayEast).
type Fabric interface {
	Fetch(owner orbit.SatID, obj cache.ObjectID, size int64, admit bool) (hit bool, err error)
	Probe(nb orbit.SatID, obj cache.ObjectID, size int64, via Source, touch bool) (has bool, err error)
}

// ErrUnreachable is the Fabric error for a satellite that did not answer
// (§3.4, seen from the client). It degrades the step it hit — owner fetch:
// ground miss-through; probe: skip that neighbour. Any other Fabric error
// aborts the request.
var ErrUnreachable = errors.New("sim: satellite unreachable")

// Fetched is the ladder's verdict on one request.
type Fetched struct {
	Source Source
	Action shed.Action // what overload control did to the request
	// Degraded marks the §3.4 miss-through (transient or unreachable owner),
	// the overload controller's burn signal.
	Degraded bool
	Relay    orbit.SatID // the neighbour that served, on a relay source only
}

// Signal is the overload-controller feedback for the verdict.
func (f Fetched) Signal() shed.Signal {
	return shed.Signal{Degraded: f.Degraded, Action: f.Action}
}

// Route is everything decided before a cache is contacted.
type Route struct {
	First orbit.SatID // first-contact satellite, -1 when none is visible
	// Home is the satellite to contact — or, without contact, the one charged
	// with the refusal; -1 when no satellite takes part.
	Home    orbit.SatID
	Contact bool
	Fetched // the final verdict when Contact is false
}

// Hop is the span hop a verdict reached without contact leaves: the refusal
// at the satellite charged with it (the first contact for a session turned
// away), or a ground fetch no satellite took part in.
func (r Route) Hop() obs.Hop {
	if r.Source != SourceShed {
		return obs.Hop{Kind: "ground", Sat: -1}
	}
	if r.Home < 0 {
		return obs.Hop{Kind: "shed", Sat: int(r.First)}
	}
	return obs.Hop{Kind: "shed", Sat: int(r.Home)}
}

// Route resolves where a request is served. transientDown may be nil (see
// core.HashScheme.ServingOwner).
func (l Ladder) Route(first orbit.SatID, obj cache.ObjectID, stage shed.Stage,
	transientDown func(orbit.SatID) bool) Route {
	if first < 0 {
		return Route{First: -1, Home: -1, Fetched: Fetched{Source: SourceNoCover}}
	}
	// §3.4: a transient outage is served as a plain miss from the ground; a
	// long-term failure is remapped to the next available satellite, which
	// inherits the bucket.
	owner, serve := l.Hash.ServingOwner(first, l.Hash.BucketOf(obj), transientDown)
	if !serve {
		return Route{First: first, Home: -1,
			Fetched: Fetched{Source: SourceGround, Degraded: true}}
	}
	if owner != first && stage >= shed.StageRelayOff {
		// Stage ≥ 1 sheds the ISL route to a remote owner and serves the
		// §3.4-shaped ground miss directly. Stage 3 (hits only) rejects the
		// request instead: it cannot be a hit without the route just shed,
		// and the ground fallback would keep the congested uplink saturated.
		if stage >= shed.StageHitsOnly {
			return Route{First: first, Home: owner,
				Fetched: Fetched{Source: SourceShed, Action: shed.ActionHitOnly}}
		}
		return Route{First: first, Home: -1,
			Fetched: Fetched{Source: SourceGround, Action: shed.ActionDirectGround}}
	}
	return Route{First: first, Home: owner, Contact: true}
}

// Fetch serves a Contact route over the fabric: the owner's fetch, on a miss
// the relayed fetch of §3.3 — west first (it retraces this satellite's recent
// footprint), then east — and last the ground. The owner keeps what the relay
// or the ground serves, so its fetch admits on a miss: relay neighbours are
// never the owner, so admitting before the probes changes no cache. Only with
// relayStats (Table 3 wants both answers) is east probed, untouched, after a
// west hit.
func (l Ladder) Fetch(fabric Fabric, rt Route, req *trace.Request, stage shed.Stage,
	relayStats *RelayAvailability) (Fetched, error) {
	obj, size, home := req.Object, req.Size, rt.Home
	// Stage 3 serves hits only: the fetch still refreshes recency but
	// admits nothing.
	hitsOnly := stage >= shed.StageHitsOnly
	hit, err := fabric.Fetch(home, obj, size, !hitsOnly)
	if err != nil {
		if errors.Is(err, ErrUnreachable) {
			return Fetched{Source: SourceGround, Degraded: true}, nil
		}
		return Fetched{}, err
	}
	if hit {
		if home == rt.First {
			return Fetched{Source: SourceLocal}, nil
		}
		return Fetched{Source: SourceBucket}, nil
	}
	if hitsOnly {
		return Fetched{Source: SourceShed, Action: shed.ActionHitOnly}, nil
	}
	action := shed.ActionNone
	switch {
	case !l.Relay:
	case stage >= shed.StageRelayOff:
		action = shed.ActionRelaySkip // stage ≥ 1: straight to the ground
	default:
		var has [2]bool
		served, relay := -1, orbit.SatID(-1)
		for i, d := range [2]topo.Direction{topo.West, topo.East} {
			if served >= 0 && relayStats == nil {
				break
			}
			nb, ok := l.Hash.RelayNeighbor(home, d)
			if !ok {
				continue
			}
			// An unreachable neighbour is skipped.
			via := SourceRelayWest + Source(i)
			if has[i], err = fabric.Probe(nb, obj, size, via, served < 0); err != nil {
				if !errors.Is(err, ErrUnreachable) {
					return Fetched{}, err
				}
				has[i] = false
			}
			if has[i] && served < 0 {
				served, relay = i, nb
			}
		}
		if relayStats != nil && (has[0] || has[1]) {
			relayStats.Record(size, has[0], has[1])
		}
		if served >= 0 {
			return Fetched{Source: SourceRelayWest + Source(served), Relay: relay}, nil
		}
	}
	return Fetched{Source: SourceGround, Action: action}, nil
}
