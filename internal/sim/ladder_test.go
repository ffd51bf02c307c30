package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/orbit"
	"starcdn/internal/shed"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
)

// fakeFabric answers from a script keyed by "Op(sat)" and logs every call as
// "Fetch(sat,admit)" or "Probe(sat,via,touch)" — the ladder's exact call
// sequence is part of its contract (one frame per call over the wire).
type fakeFabric struct {
	has   map[string]bool
	errs  map[string]error
	calls []string
}

func (f *fakeFabric) answer(op string, sat orbit.SatID) (bool, error) {
	key := fmt.Sprintf("%s(%d)", op, sat)
	return f.has[key], f.errs[key]
}

func (f *fakeFabric) Fetch(sat orbit.SatID, _ cache.ObjectID, _ int64, admit bool) (bool, error) {
	f.calls = append(f.calls, fmt.Sprintf("Fetch(%d,%v)", sat, admit))
	return f.answer("Fetch", sat)
}

func (f *fakeFabric) Probe(sat orbit.SatID, _ cache.ObjectID, _ int64, via Source, touch bool) (bool, error) {
	f.calls = append(f.calls, fmt.Sprintf("Probe(%d,%v,%v)", sat, via, touch))
	return f.answer("Probe", sat)
}

// ladderFixture is a hash scheme over the default shell plus one object owned
// by its first contact and one owned by a remote satellite.
type ladderFixture struct {
	h             *core.HashScheme
	first         orbit.SatID
	local, remote cache.ObjectID
	owner         orbit.SatID // remote's owner
}

func newLadderFixture(t *testing.T) ladderFixture {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		t.Fatal(err)
	}
	fx := ladderFixture{h: h, first: c.SatAt(10, 7)}
	for obj := cache.ObjectID(1); fx.local == 0 || fx.remote == 0; obj++ {
		if owner := h.NearestOwner(fx.first, h.BucketOf(obj)); owner == fx.first {
			fx.local = obj
		} else {
			fx.remote, fx.owner = obj, owner
		}
	}
	return fx
}

func TestLadderRoute(t *testing.T) {
	fx := newLadderFixture(t)
	c := fx.h.Grid().Constellation()
	l := Ladder{Hash: fx.h, Relay: true}
	down := func(id orbit.SatID) bool { return id == fx.owner }
	contact := func(home orbit.SatID) Route { return Route{First: fx.first, Home: home, Contact: true} }
	verdict := func(home orbit.SatID, f Fetched) Route { return Route{First: fx.first, Home: home, Fetched: f} }

	for _, tc := range []struct {
		name      string
		ladder    Ladder
		first     orbit.SatID
		obj       cache.ObjectID
		stage     shed.Stage
		ownerDown bool
		transient func(orbit.SatID) bool
		want      Route
		hop       string
	}{
		{name: "no cover", ladder: l, first: -1, obj: fx.remote,
			want: Route{First: -1, Home: -1, Fetched: Fetched{Source: SourceNoCover}}, hop: "ground -1"},
		{name: "local owner", ladder: l, first: fx.first, obj: fx.local, want: contact(fx.first)},
		{name: "remote owner", ladder: l, first: fx.first, obj: fx.remote, want: contact(fx.owner)},
		{name: "hashing off", ladder: Ladder{Hash: core.OneBucket(fx.h.Grid()), Relay: true}, first: fx.first, obj: fx.remote,
			stage: shed.StageHitsOnly, want: contact(fx.first)},
		{name: "transient owner", ladder: l, first: fx.first, obj: fx.remote, ownerDown: true, transient: down,
			want: verdict(-1, Fetched{Source: SourceGround, Degraded: true}), hop: "ground -1"},
		{name: "stage 1 remote owner", ladder: l, first: fx.first, obj: fx.remote, stage: shed.StageRelayOff,
			want: verdict(-1, Fetched{Source: SourceGround, Action: shed.ActionDirectGround}), hop: "ground -1"},
		{name: "stage 2 remote owner", ladder: l, first: fx.first, obj: fx.remote, stage: shed.StageAdmission,
			want: verdict(-1, Fetched{Source: SourceGround, Action: shed.ActionDirectGround}), hop: "ground -1"},
		{name: "stage 3 remote owner", ladder: l, first: fx.first, obj: fx.remote, stage: shed.StageHitsOnly,
			want: verdict(fx.owner, Fetched{Source: SourceShed, Action: shed.ActionHitOnly}),
			hop:  fmt.Sprintf("shed %d", fx.owner)},
		{name: "stage 3 local owner", ladder: l, first: fx.first, obj: fx.local, stage: shed.StageHitsOnly,
			want: contact(fx.first)},
		// The transient verdict outranks the stage gates: the §3.4 burn
		// signal persists at every stage.
		{name: "stage 3 transient owner", ladder: l, first: fx.first, obj: fx.remote, stage: shed.StageHitsOnly,
			ownerDown: true, transient: down,
			want: verdict(-1, Fetched{Source: SourceGround, Degraded: true}), hop: "ground -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ownerDown {
				c.SetActive(fx.owner, false)
				defer c.SetActive(fx.owner, true)
			}
			got := tc.ladder.Route(tc.first, tc.obj, tc.stage, tc.transient)
			if got != tc.want {
				t.Errorf("Route = %+v, want %+v", got, tc.want)
			}
			if !got.Contact {
				if hop := got.Hop(); fmt.Sprintf("%s %d", hop.Kind, hop.Sat) != tc.hop {
					t.Errorf("Hop = %+v, want %q", hop, tc.hop)
				}
			}
		})
	}

	t.Run("remapped owner", func(t *testing.T) {
		c.SetActive(fx.owner, false)
		defer c.SetActive(fx.owner, true)
		heir, ok := fx.h.Remap(fx.owner)
		if !ok {
			t.Fatal("no heir")
		}
		// A long-term loss: with or without a transient oracle that clears it.
		for _, transient := range []func(orbit.SatID) bool{nil, func(orbit.SatID) bool { return false }} {
			if got := l.Route(fx.first, fx.remote, shed.StageNormal, transient); got != contact(heir) {
				t.Errorf("Route = %+v, want contact with heir %d", got, heir)
			}
		}
	})

	// A session turned away is charged to the first contact.
	reject := Route{First: fx.first, Home: -1, Fetched: Fetched{Source: SourceShed, Action: shed.ActionRejectSession}}
	if hop := reject.Hop(); hop.Kind != "shed" || hop.Sat != int(fx.first) {
		t.Errorf("session-reject hop = %+v, want shed at first contact %d", hop, fx.first)
	}
}

func TestLadderFetch(t *testing.T) {
	fx := newLadderFixture(t)
	c := fx.h.Grid().Constellation()
	home := fx.owner
	w, wok := fx.h.RelayNeighbor(home, topo.West)
	e, eok := fx.h.RelayNeighbor(home, topo.East)
	if !wok || !eok || w == e {
		t.Fatalf("fixture needs two distinct live relay neighbours, got %d/%v %d/%v", w, wok, e, eok)
	}
	wNear, eNear := fx.h.Grid().Neighbor(home, topo.West), fx.h.Grid().Neighbor(home, topo.East)
	if wNear == w || eNear == e {
		t.Fatal("fixture needs √L > 1 so the ablation's neighbours differ")
	}
	full := Ladder{Hash: fx.h, Relay: true}
	off := Ladder{Hash: core.OneBucket(fx.h.Grid()), Relay: true}
	boom := errors.New("boom")
	gone := fmt.Errorf("wrapped: %w", ErrUnreachable)
	k := func(op string, sat orbit.SatID) string { return fmt.Sprintf("%s(%d)", op, sat) }
	probe := func(sat orbit.SatID, via Source, touch bool) string {
		return fmt.Sprintf("Probe(%d,%v,%v)", sat, via, touch)
	}
	fetch, peek := fmt.Sprintf("Fetch(%d,true)", home), fmt.Sprintf("Fetch(%d,false)", home)
	probeW, probeE := probe(w, SourceRelayWest, true), probe(e, SourceRelayEast, true)
	peekE := probe(e, SourceRelayEast, false)

	for _, tc := range []struct {
		name    string
		ladder  Ladder
		first   orbit.SatID // Route.First; home is always fx.owner
		stage   shed.Stage
		has     map[string]bool
		errs    map[string]error
		stats   bool
		downSat orbit.SatID // deactivated for the case when > 0
		want    Fetched
		wantErr error
		calls   []string
		tally   RelayAvailability
	}{
		{name: "bucket hit", ladder: full, first: fx.first, has: map[string]bool{k("Fetch", home): true},
			want: Fetched{Source: SourceBucket}, calls: []string{fetch}},
		{name: "local hit", ladder: full, first: home, has: map[string]bool{k("Fetch", home): true},
			want: Fetched{Source: SourceLocal}, calls: []string{fetch}},
		{name: "stage 3 hit is served", ladder: full, first: home, stage: shed.StageHitsOnly,
			has: map[string]bool{k("Fetch", home): true}, want: Fetched{Source: SourceLocal}, calls: []string{peek}},
		{name: "relay west", ladder: full, first: fx.first, has: map[string]bool{k("Probe", w): true, k("Probe", e): true},
			want: Fetched{Source: SourceRelayWest, Relay: w}, calls: []string{fetch, probeW}},
		{name: "relay east", ladder: full, first: fx.first, has: map[string]bool{k("Probe", e): true},
			want: Fetched{Source: SourceRelayEast, Relay: e}, calls: []string{fetch, probeW, probeE}},
		{name: "full miss", ladder: full, first: fx.first,
			want: Fetched{Source: SourceGround}, calls: []string{fetch, probeW, probeE}},
		{name: "stats: west hit still probes east", ladder: full, first: fx.first, stats: true,
			has:  map[string]bool{k("Probe", w): true, k("Probe", e): true},
			want: Fetched{Source: SourceRelayWest, Relay: w}, calls: []string{fetch, probeW, peekE},
			tally: RelayAvailability{BothReq: 1, BothBytes: 100}},
		{name: "stats: west only", ladder: full, first: fx.first, stats: true, has: map[string]bool{k("Probe", w): true},
			want: Fetched{Source: SourceRelayWest, Relay: w}, calls: []string{fetch, probeW, peekE},
			tally: RelayAvailability{WestOnlyReq: 1, WestOnlyBytes: 100}},
		{name: "stats: east only", ladder: full, first: fx.first, stats: true, has: map[string]bool{k("Probe", e): true},
			want: Fetched{Source: SourceRelayEast, Relay: e}, calls: []string{fetch, probeW, probeE},
			tally: RelayAvailability{EastOnlyReq: 1, EastOnlyBytes: 100}},
		{name: "stats: full miss tallies nothing", ladder: full, first: fx.first, stats: true,
			want: Fetched{Source: SourceGround}, calls: []string{fetch, probeW, probeE}},
		{name: "stage 1 skips probes", ladder: full, first: home, stage: shed.StageRelayOff,
			has:  map[string]bool{k("Probe", w): true},
			want: Fetched{Source: SourceGround, Action: shed.ActionRelaySkip}, calls: []string{fetch}},
		{name: "stage 1 without relay skips nothing", ladder: Ladder{Hash: fx.h}, first: home,
			stage: shed.StageRelayOff, want: Fetched{Source: SourceGround}, calls: []string{fetch}},
		{name: "relay off", ladder: Ladder{Hash: fx.h}, first: fx.first,
			has:  map[string]bool{k("Probe", w): true},
			want: Fetched{Source: SourceGround}, calls: []string{fetch}},
		// Stage 2 gates only new sessions: an owner miss still admits, and
		// the relay stays off as at stage 1.
		{name: "stage 2 still admits", ladder: full, first: home, stage: shed.StageAdmission,
			has:  map[string]bool{k("Probe", w): true},
			want: Fetched{Source: SourceGround, Action: shed.ActionRelaySkip}, calls: []string{fetch}},
		{name: "stage 3 admits nothing", ladder: full, first: home, stage: shed.StageHitsOnly,
			want: Fetched{Source: SourceShed, Action: shed.ActionHitOnly}, calls: []string{peek}},
		{name: "owner unreachable", ladder: full, first: fx.first, errs: map[string]error{k("Fetch", home): gone},
			want: Fetched{Source: SourceGround, Degraded: true}, calls: []string{fetch}},
		{name: "owner hard error", ladder: full, first: fx.first, errs: map[string]error{k("Fetch", home): boom},
			wantErr: boom, calls: []string{fetch}},
		// The west neighbour has a copy, but its touching probe never answers.
		{name: "west touch fails softly, east serves", ladder: full, first: fx.first,
			has:  map[string]bool{k("Probe", w): true, k("Probe", e): true},
			errs: map[string]error{k("Probe", w): gone},
			want: Fetched{Source: SourceRelayEast, Relay: e}, calls: []string{fetch, probeW, probeE}},
		{name: "both probes unreachable", ladder: full, first: fx.first,
			errs: map[string]error{k("Probe", w): gone, k("Probe", e): gone},
			want: Fetched{Source: SourceGround}, calls: []string{fetch, probeW, probeE}},
		{name: "probe hard error", ladder: full, first: fx.first, errs: map[string]error{k("Probe", w): boom},
			wantErr: boom, calls: []string{fetch, probeW}},
		// A hard error aborts even from a neighbour that has the copy.
		{name: "touch hard error", ladder: full, first: fx.first, has: map[string]bool{k("Probe", w): true},
			errs: map[string]error{k("Probe", w): boom}, wantErr: boom, calls: []string{fetch, probeW}},
		{name: "inactive west neighbour", ladder: full, first: fx.first, downSat: w,
			has:  map[string]bool{k("Probe", w): true},
			want: Fetched{Source: SourceGround}, calls: []string{fetch, probeE}},
		{name: "hashing off probes the immediate neighbours", ladder: off, first: home,
			has:   map[string]bool{k("Probe", eNear): true},
			want:  Fetched{Source: SourceRelayEast, Relay: eNear},
			calls: []string{fetch, probe(wNear, SourceRelayWest, true), probe(eNear, SourceRelayEast, true)}},
		{name: "hashing off, inactive immediate neighbour", ladder: off, first: home,
			downSat: eNear, has: map[string]bool{k("Probe", eNear): true},
			want: Fetched{Source: SourceGround}, calls: []string{fetch, probe(wNear, SourceRelayWest, true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.downSat > 0 {
				c.SetActive(tc.downSat, false)
				defer c.SetActive(tc.downSat, true)
			}
			f := &fakeFabric{has: tc.has, errs: tc.errs}
			var stats *RelayAvailability
			if tc.stats {
				stats = &RelayAvailability{}
			}
			rt := Route{First: tc.first, Home: home, Contact: true}
			got, err := tc.ladder.Fetch(f, rt, &trace.Request{Object: fx.remote, Size: 100}, tc.stage, stats)
			if !errors.Is(err, tc.wantErr) || (err != nil) != (tc.wantErr != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && got != tc.want {
				t.Errorf("Fetched = %+v, want %+v", got, tc.want)
			}
			if !reflect.DeepEqual(f.calls, tc.calls) {
				t.Errorf("calls = %v\n      want %v", f.calls, tc.calls)
			}
			if tc.stats && *stats != tc.tally {
				t.Errorf("relay tally = %+v, want %+v", *stats, tc.tally)
			}
		})
	}
}

// TestLadderSignal: the controller feedback is the verdict's two fields.
func TestLadderSignal(t *testing.T) {
	f := Fetched{Source: SourceGround, Degraded: true, Action: shed.ActionRelaySkip}
	if got := f.Signal(); got != (shed.Signal{Degraded: true, Action: shed.ActionRelaySkip}) {
		t.Errorf("Signal = %+v", got)
	}
}
