package replayer

import (
	"fmt"
	"math/rand"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
)

// TestDifferentialSimVsSequentialReplay is the one oracle behind every
// sim-versus-TCP parity claim: over random small configurations — trace and
// run seeds, a chaos schedule or none, a shed controller or none, wire-side
// shed enforcement on or off, fault tolerance on or off, every hashing ×
// relay ablation — sim.Run and sequential Replay must agree on the meter, on
// every per-source count and on the controller's trajectory. Both run
// sim.Ladder; what this guards is everything around it (failure and epoch
// ordering, the fabrics, error classes, accounting).
//
// A second seed block draws only hashing-off runs under chaos — transient and
// long-term kills, shedding on and off: a first contact killed mid-epoch must
// go through the §3.4 rule in both pipelines, which a ladder that skips the
// rule without hashing gets wrong in the sim alone (it keeps serving from the
// dead satellite's in-memory cache).
func TestDifferentialSimVsSequentialReplay(t *testing.T) {
	const cases, noHashingChaosCases = 20, 24
	const requests = 1500
	const capacity = 48 << 20
	rng := rand.New(rand.NewSource(20250930))
	for n := 0; n < cases+noHashingChaosCases; n++ {
		if n == cases {
			rng = rand.New(rand.NewSource(20251003))
		}
		traceSeed, runSeed, chaosSeed := rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000)
		// Early cases walk the four ablations; the rest draw them.
		hashing, relay := n&1 == 0, n&2 == 0
		if n >= 8 {
			hashing, relay = rng.Intn(4) > 0, rng.Intn(4) > 0
		}
		chaos := rng.Intn(3) > 0
		if n >= cases {
			hashing, chaos = false, true
		}
		chaosOpts := sim.ChaosOptions{
			StartSec: 100 + 300*rng.Float64(), KillFraction: 0.1 + 0.3*rng.Float64(),
			TransientFraction: float64(rng.Intn(3)) / 2, ReviveAfterSec: float64(rng.Intn(2)) * 200,
			Seed: chaosSeed,
		}
		chaosOpts.EndSec = chaosOpts.StartSec + 1 + 300*rng.Float64()
		shedding, serverShed := rng.Intn(3) > 0, rng.Intn(2) == 0
		quota, maxDegraded := 3+rng.Intn(6), 0.01+0.04*rng.Float64()
		// The coin is skipped only where it always was (chaos with hashing),
		// so the first block keeps its 20 cases.
		coin := chaos && hashing || rng.Intn(2) == 0
		faulty := chaos || coin
		name := fmt.Sprintf("case=%d/trace=%d/run=%d/hashing=%v/relay=%v/chaos=%v/shed=%v/server-shed=%v/fault=%v",
			n, traceSeed, runSeed, hashing, relay, chaos, shedding, serverShed, faulty)

		t.Run(name, func(t *testing.T) {
			hSim, usersSim, trSim := newReplayFixture(t, requests, traceSeed)
			hTCP, usersTCP, trTCP := newReplayFixture(t, requests, traceSeed)
			opts := Options{Hashing: hashing, Relay: relay, Seed: runSeed, Obs: obs.NewRegistry()}
			if faulty {
				opts.Fault = chaosFaultPolicy()
			}
			if chaos {
				opts.Failures = sim.GenerateChaos(contacted(t, hTCP, usersTCP, trTCP, opts), chaosOpts)
				t.Logf("chaos %+v: %d events", chaosOpts, len(opts.Failures))
			}
			regSim, regTCP := obs.NewRegistry(), obs.NewRegistry()
			var simCtrl, tcpCtrl *shed.Controller
			var sopts ServerOptions
			if shedding {
				newCtrl := func(reg *obs.Registry) *shed.Controller {
					cfg := shedChaosConfig(reg)
					cfg.SessionQuota, cfg.MaxDegraded = quota, maxDegraded
					ctrl, err := shed.NewController(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return ctrl
				}
				simCtrl, tcpCtrl = newCtrl(regSim), newCtrl(regTCP)
				opts.Shedder = tcpCtrl
				if serverShed {
					sopts.Shedder = tcpCtrl
				}
			}

			pol := sim.NewStarCDN(hSim, sim.CacheConfig{Kind: cache.LRU, Bytes: capacity},
				sim.StarCDNOptions{Hashing: hashing, Relay: relay})
			scfg := sim.Config{Seed: runSeed, Failures: opts.Failures}
			if simCtrl != nil {
				// Assigned only when set: a nil *Controller in the field must
				// stay a nil field.
				scfg.Shedder = simCtrl
			}
			m1, err := sim.Run(hSim.Grid().Constellation(), usersSim, trSim, pol, scfg)
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := NewClusterOpts(cache.LRU, capacity, sopts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = cluster.Close() }()
			m2, err := Replay(hTCP, cluster, usersTCP, trTCP, opts)
			if err != nil {
				t.Fatal(err)
			}

			if m1.Meter != m2 {
				t.Errorf("meters differ:\n sim %+v\n TCP %+v", m1.Meter, m2)
			}
			for _, s := range sim.Sources() {
				tcp := counterValue(opts.Obs, `starcdn_replay_requests_total{source="`+s.String()+`"}`)
				if float64(m1.BySource[s]) != tcp {
					t.Errorf("source %v: sim %d vs TCP %.0f", s, m1.BySource[s], tcp)
				}
			}
			if !shedding {
				return
			}
			for a := shed.ActionRelaySkip; a <= shed.ActionHitOnly; a++ {
				key := `starcdn_shed_actions_total{action="` + a.String() + `"}`
				if sv, tv := counterValue(regSim, key), counterValue(regTCP, key); sv != tv {
					t.Errorf("action %v: sim %.0f vs TCP %.0f", a, sv, tv)
				}
			}
			sUp, sDown := simCtrl.Transitions()
			tUp, tDown := tcpCtrl.Transitions()
			if sUp != tUp || sDown != tDown || simCtrl.Stage() != tcpCtrl.Stage() {
				t.Errorf("controller trajectories differ: sim %d up %d down at %v, TCP %d up %d down at %v",
					sUp, sDown, simCtrl.Stage(), tUp, tDown, tcpCtrl.Stage())
			}
			t.Logf("hits %d/%d, shed %d, transitions %d up %d down", m2.Hits, m2.Requests,
				m1.BySource[sim.SourceShed], sUp, sDown)
		})
	}
}
