package sim

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/obs"
	"starcdn/internal/workload"
)

// TestRecordFitsSixteenBytes: the decision loop appends one record per
// request, and a wider record costs it more than the pricing the fold takes
// off it.
func TestRecordFitsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 16 {
		t.Errorf("record is %d bytes, want at most 16", n)
	}
}

// TestFoldOwnsItsCacheLines: a full cache line pads each end of the fold,
// so nothing the decision loop writes can share a line with its fields.
func TestFoldOwnsItsCacheLines(t *testing.T) {
	var f fold
	first, end := unsafe.Offsetof(f.c), unsafe.Offsetof(f.propMs)+unsafe.Sizeof(f.propMs)
	if first < 64 || unsafe.Sizeof(f)-end < 64 {
		t.Errorf("fold fields span bytes %d-%d of %d, want 64 of padding at each end", first, end, unsafe.Sizeof(f))
	}
}

// TestRunFoldPlacementParity: the fold prices on the consumer goroutine
// without an obs fold and on the request goroutine with one (plus recorder
// barriers mid-batch). Either way it must draw every latency sample the
// same: for every policy, under transient and long-term failures and
// congestion, the rate-1 span streams are byte-identical and so are the
// Metrics.
func TestRunFoldPlacementParity(t *testing.T) {
	e := newEnv(t, 5*batchLen+batchLen/2, 1200)
	failures := GenerateChaos(contactedIDs(e.c), ChaosOptions{StartSec: 100, EndSec: 900,
		KillFraction: 0.2, TransientFraction: 0.5, ReviveAfterSec: 300, Seed: 4})
	var transient, longTerm bool
	for _, ev := range failures {
		transient = transient || ev.Down && ev.Transient
		longTerm = longTerm || ev.Down && !ev.Transient
	}
	if !transient || !longTerm {
		t.Fatalf("schedule lacks a transient (%v) or long-term (%v) outage", transient, longTerm)
	}
	// Full demand at half the 20 Gbps GSL, so uplink serves queue.
	scale := 0.5 * 20 / (float64(e.tr.TotalBytes()) * 8 / e.tr.DurationSec() / 1e9)
	cc := CacheConfig{Kind: cache.LRU, Bytes: 32 << 20}
	policies := map[string]func() Policy{
		"starcdn": func() Policy { return e.starcdn(t, 4, 32<<20, StarCDNOptions{Hashing: true, Relay: true}) },
		"starcdn-prefetch": func() Policy {
			return e.starcdn(t, 4, 32<<20, StarCDNOptions{Hashing: true, Relay: true, Prefetch: true})
		},
		"naive":       func() Policy { return NewNaiveLRU(cc) },
		"static":      func() Policy { return NewStaticCache(cc) },
		"no-cache":    func() Policy { return NoCacheBentPipe{} },
		"terrestrial": func() Policy { return TerrestrialCDN{} },
		"ground-edge": func() Policy {
			p, err := NewGroundEdgeCDN(cc, geo.DefaultGroundStations(), e.users)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	run := func(mk func() Policy, withObs bool) (*Metrics, []byte) {
		t.Helper()
		e.c.ApplyOutageMask(0, 0) // the previous run's long-term outages stay down
		var spans bytes.Buffer
		cfg := Config{Seed: 8, CollectLatency: true, CollectPerSat: true, UplinkWindowSec: 60,
			ClassOf: workload.ClassOf, TrafficScale: scale, Failures: failures,
			Tracer: obs.NewTracer(&spans, 1, TraceSeed)}
		if withObs {
			cfg.Metrics = obs.NewRegistry()
			cfg.Sketches = true
			cfg.Recorder = obs.NewRecorder(cfg.Metrics, obs.RecorderOptions{EpochSec: 15})
		}
		m, err := Run(e.c, e.users, e.tr, mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		return m, spans.Bytes()
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			consumer, consumerSpans := run(mk, false)
			inline, inlineSpans := run(mk, true)
			if got := bytes.Count(consumerSpans, []byte("\n")); got != len(e.tr.Requests) {
				t.Fatalf("%d spans for %d requests", got, len(e.tr.Requests))
			}
			if !bytes.Equal(consumerSpans, inlineSpans) {
				t.Error("span streams differ between the fold on the consumer and inline")
			}
			if !reflect.DeepEqual(consumer, inline) {
				t.Errorf("metrics differ:\n consumer %+v\n inline   %+v", consumer.Meter, inline.Meter)
			}
		})
	}
}
