package replayer

import (
	"fmt"
	"math/rand"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/shed"
	"starcdn/internal/sim"
	"starcdn/internal/trace"
)

// TestDifferentialSimVsSequentialReplay is the one oracle behind every
// sim-versus-TCP parity claim: over random small configurations — trace and
// run seeds, a chaos schedule or none, a shed controller or none, fault
// tolerance on or off, every hashing ×
// relay ablation — sim.Run and both TCP replays, the sequential Replay and
// the pipelined ReplayConcurrent, must agree on the meter, on every
// per-source count and on the controller's trajectory. All three run
// sim.Ladder; what this guards is everything around it (failure and epoch
// ordering, the window's admission and drain rules, the fabrics, error
// classes, accounting).
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
		shedding := rng.Intn(3) > 0
		// A retired coin (wire-side shedding), still drawn so that every
		// case keeps the inputs it always had.
		_ = rng.Intn(2)
		quota, maxDegraded := 3+rng.Intn(6), 0.01+0.04*rng.Float64()
		// The coin is skipped only where it always was (chaos with hashing),
		// so the first block keeps its 20 cases.
		coin := chaos && hashing || rng.Intn(2) == 0
		faulty := chaos || coin
		name := fmt.Sprintf("case=%d/trace=%d/run=%d/hashing=%v/relay=%v/chaos=%v/shed=%v/fault=%v",
			n, traceSeed, runSeed, hashing, relay, chaos, shedding, faulty)

		t.Run(name, func(t *testing.T) {
			newCtrl := func(reg *obs.Registry) *shed.Controller {
				if !shedding {
					return nil
				}
				cfg := shedChaosConfig(reg)
				cfg.SessionQuota, cfg.MaxDegraded = quota, maxDegraded
				ctrl, err := shed.NewController(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return ctrl
			}
			hSim, usersSim, trSim := newReplayFixture(t, requests, traceSeed)
			opts := Options{Hashing: hashing, Relay: relay, Seed: runSeed}
			if faulty {
				opts.Fault = chaosFaultPolicy()
			}
			if chaos {
				opts.Failures = sim.GenerateChaos(contacted(t, hSim, usersSim, trSim, opts), chaosOpts)
				t.Logf("chaos %+v: %d events", chaosOpts, len(opts.Failures))
			}
			regSim := obs.NewRegistry()
			simCtrl := newCtrl(regSim)
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
			if simCtrl != nil {
				sUp, sDown := simCtrl.Transitions()
				t.Logf("hits %d/%d, shed %d, transitions %d up %d down", m1.Meter.Hits, m1.Meter.Requests,
					m1.BySource[sim.SourceShed], sUp, sDown)
			}

			for _, pipeline := range []struct {
				name   string
				replay func(*core.HashScheme, *Cluster, []geo.Point, *trace.Trace, Options) (cache.Meter, error)
			}{{"Replay", Replay}, {"ReplayConcurrent", ReplayConcurrent}} {
				hTCP, usersTCP, trTCP := newReplayFixture(t, requests, traceSeed)
				regTCP := obs.NewRegistry()
				tcpCtrl := newCtrl(regTCP)
				opts := opts
				opts.Obs = obs.NewRegistry()
				if tcpCtrl != nil {
					opts.Shedder = tcpCtrl
				}
				cluster, err := NewCluster(cache.LRU, capacity)
				if err != nil {
					t.Fatal(err)
				}
				m2, err := pipeline.replay(hTCP, cluster, usersTCP, trTCP, opts)
				_ = cluster.Close()
				if err != nil {
					t.Fatalf("%s: %v", pipeline.name, err)
				}

				if m1.Meter != m2 {
					t.Errorf("%s: meters differ:\n sim %+v\n TCP %+v", pipeline.name, m1.Meter, m2)
				}
				for _, s := range sim.Sources() {
					tcp := counterValue(opts.Obs, `starcdn_replay_requests_total{source="`+s.String()+`"}`)
					if float64(m1.BySource[s]) != tcp {
						t.Errorf("%s: source %v: sim %d vs TCP %.0f", pipeline.name, s, m1.BySource[s], tcp)
					}
				}
				if tcpCtrl == nil {
					continue
				}
				for a := shed.ActionRelaySkip; a <= shed.ActionHitOnly; a++ {
					key := `starcdn_shed_actions_total{action="` + a.String() + `"}`
					if sv, tv := counterValue(regSim, key), counterValue(regTCP, key); sv != tv {
						t.Errorf("%s: action %v: sim %.0f vs TCP %.0f", pipeline.name, a, sv, tv)
					}
				}
				sUp, sDown := simCtrl.Transitions()
				tUp, tDown := tcpCtrl.Transitions()
				if sUp != tUp || sDown != tDown || simCtrl.Stage() != tcpCtrl.Stage() {
					t.Errorf("%s: controller trajectories differ: sim %d up %d down at %v, TCP %d up %d down at %v",
						pipeline.name, sUp, sDown, simCtrl.Stage(), tUp, tDown, tcpCtrl.Stage())
				}
			}
		})
	}
}
