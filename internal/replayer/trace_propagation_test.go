package replayer

import (
	"bytes"
	"sync"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

// syncBuffer serialises writes so one tracer buffer can back many servers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// TestTracePropagationRoundTrip runs a sequential replay with trace
// propagation and checks every server-side operation span joins the
// client's distributed trace: same trace ID, parented under one of the root
// span's hop span IDs (or under another span of the same trace, for spans
// like relay probes whose hop was never recorded).
func TestTracePropagationRoundTrip(t *testing.T) {
	h, users, tr := obsEnv(t, 3000, 19)

	var clientBuf bytes.Buffer
	clientTracer := obs.NewTracer(&clientBuf, 1, 5)
	var serverBuf syncBuffer
	serverTracer := obs.NewTracer(&serverBuf, 1, 5)

	cluster, err := NewClusterOpts(cache.LRU, 64<<20, ServerOptions{Tracer: serverTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m, err := Replay(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: 23,
		Tracer: clientTracer, Propagate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := clientTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := serverTracer.Flush(); err != nil {
		t.Fatal(err)
	}

	clientSpans, err := obs.ReadSpans(&clientBuf)
	if err != nil {
		t.Fatal(err)
	}
	serverSpans, err := obs.ReadSpans(&serverBuf.b)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(clientSpans)) != m.Requests {
		t.Fatalf("client emitted %d spans for %d requests", len(clientSpans), m.Requests)
	}
	if len(serverSpans) == 0 {
		t.Fatal("no server-side spans emitted")
	}

	// Index client roots: trace ID -> root span, and the hop span IDs the
	// root exposes as attachment points.
	roots := make(map[string]*obs.Span)
	hopIDs := make(map[string]map[string]bool) // trace -> hop span IDs
	for i := range clientSpans {
		s := &clientSpans[i]
		if s.TraceID == "" || s.SpanID == "" {
			t.Fatalf("client span req %d lacks trace identity: %+v", s.Req, s)
		}
		if s.Parent != "" {
			continue // retry spans are children, not roots
		}
		if s.Proc != "client" {
			t.Fatalf("root span req %d proc = %q", s.Req, s.Proc)
		}
		roots[s.TraceID] = s
		ids := make(map[string]bool)
		for _, hop := range s.Hops {
			if hop.SpanID != "" {
				ids[hop.SpanID] = true
			}
		}
		hopIDs[s.TraceID] = ids
	}
	if len(roots) != len(clientSpans) {
		t.Fatalf("%d roots for %d client spans (duplicate trace IDs?)", len(roots), len(clientSpans))
	}

	underHop, underTrace := 0, 0
	for i := range serverSpans {
		s := &serverSpans[i]
		root, ok := roots[s.TraceID]
		if !ok {
			t.Fatalf("server span (proc %s kind %s) has unknown trace %s", s.Proc, s.Kind, s.TraceID)
		}
		if s.Parent == "" || s.SpanID == "" {
			t.Fatalf("server span in trace %s lacks span identity: %+v", s.TraceID, s)
		}
		if s.Proc == "" || s.Proc == "client" {
			t.Fatalf("server span proc = %q", s.Proc)
		}
		switch s.Kind {
		case "fetch", "probe", "get", "contains":
		default:
			t.Fatalf("unexpected server span kind %q", s.Kind)
		}
		if hopIDs[s.TraceID][s.Parent] {
			underHop++
		} else {
			// Relay probes that found nothing parent under a hop ID the
			// client never recorded as a Hop; they still belong to the trace.
			underTrace++
		}
		_ = root
	}
	if underHop == 0 {
		t.Error("no server span attached under a recorded client hop")
	}
	t.Logf("server spans: %d under recorded hops, %d probe-only", underHop, underTrace)

	// Spot-check determinism: root span IDs follow the derived convention.
	for id, root := range roots {
		hi, lo := clientTracer.TraceID(root.Req)
		if want := (obs.SpanContext{TraceHi: hi, TraceLo: lo}).TraceString(); want != id {
			t.Fatalf("req %d trace ID %s, derived %s", root.Req, id, want)
		}
		if want := obs.SpanIDString(obs.DeriveSpanID(hi, lo, 0)); root.SpanID != want {
			t.Fatalf("req %d root span ID %s, derived %s", root.Req, root.SpanID, want)
		}
		break // one is enough; IDs are pure functions of (seed, req)
	}
}

// TestTraceContextFrameOnlyWhenSampled: sampled contexts ride ahead of
// request frames without breaking the stream and each yields exactly one
// server span under the propagated parent; unsampled and nil contexts send no
// context frame.
func TestTraceContextFrameOnlyWhenSampled(t *testing.T) {
	var buf syncBuffer
	serverTracer := obs.NewTracer(&buf, 1, 9)
	s, err := NewServerOpts(4, cache.LRU, 1<<20, ServerOptions{Tracer: serverTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cl := NewClient()
	defer cl.Close()
	sc := &obs.SpanContext{TraceHi: 7, TraceLo: 8, Parent: 9, Sampled: true}
	if st, err := cl.roundTrip(s.Addr(), OpAdmit, 1, 64, sc); err != nil || st != StatusOK {
		t.Fatalf("admit: status %d err %v", st, err)
	}
	if hit, err := hitAnswer(cl.roundTrip(s.Addr(), OpGet, 1, 64, sc)); err != nil || !hit {
		t.Fatalf("get: hit=%v err=%v", hit, err)
	}
	// Unsampled contexts and nil contexts send no context frame but still
	// round-trip.
	if _, err := cl.roundTrip(s.Addr(), OpGet, 1, 64, &obs.SpanContext{Sampled: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(s.Addr(), 1, 64); err != nil {
		t.Fatal(err)
	}
	if err := serverTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(&buf.b)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the two sampled exchanges produced server spans.
	if len(spans) != 2 {
		t.Fatalf("server emitted %d spans, want 2: %+v", len(spans), spans)
	}
	want := (obs.SpanContext{TraceHi: 7, TraceLo: 8}).TraceString()
	for _, sp := range spans {
		if sp.TraceID != want || sp.Parent != obs.SpanIDString(9) {
			t.Errorf("server span trace=%s parent=%s, want trace=%s parent=%s",
				sp.TraceID, sp.Parent, want, obs.SpanIDString(9))
		}
		if sp.Proc != "sat-4" {
			t.Errorf("server span proc = %q, want sat-4", sp.Proc)
		}
	}
}

// TestSimReplayHopChainParity replays one trace through both pipelines with
// rate-1 tracers and the same seed, then compares the per-request hop chains
// hop for hop: same source labels, same hop kinds, same satellites. The sim
// chain carries a final user-link hop (a modelled downlink the TCP replay has
// no analogue for), which is stripped before comparing.
func TestSimReplayHopChainParity(t *testing.T) {
	h, users, tr := obsEnv(t, 4000, 29)
	const capacity = 64 << 20
	const seed = 77

	var simBuf bytes.Buffer
	simTracer := obs.NewTracer(&simBuf, 1, 5)
	pol := sim.NewStarCDN(h, sim.CacheConfig{Kind: cache.LRU, Bytes: capacity},
		sim.StarCDNOptions{Hashing: true, Relay: true})
	m1, err := sim.Run(h.Grid().Constellation(), users, tr, pol, sim.Config{
		Seed: seed, Tracer: simTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := simTracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var repBuf bytes.Buffer
	repTracer := obs.NewTracer(&repBuf, 1, 5)
	cluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m2, err := Replay(h, cluster, users, tr, Options{
		Hashing: true, Relay: true, Seed: seed, Tracer: repTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if m1.Meter.Hits != m2.Hits {
		t.Fatalf("pipelines disagree before span comparison: %d vs %d hits",
			m1.Meter.Hits, m2.Hits)
	}

	simSpans, err := obs.ReadSpans(&simBuf)
	if err != nil {
		t.Fatal(err)
	}
	repSpans, err := obs.ReadSpans(&repBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(simSpans) != len(repSpans) || len(simSpans) != len(tr.Requests) {
		t.Fatalf("span counts: sim %d, replay %d, trace %d",
			len(simSpans), len(repSpans), len(tr.Requests))
	}

	for i := range simSpans {
		ss, rs := &simSpans[i], &repSpans[i]
		if ss.Req != rs.Req {
			t.Fatalf("span %d request index mismatch: %d vs %d", i, ss.Req, rs.Req)
		}
		if ss.Source != rs.Source {
			t.Fatalf("req %d source: sim %q, replay %q", ss.Req, ss.Source, rs.Source)
		}
		// Same seed, same derivation: the distributed-trace identities match,
		// making the two span files cross-referenceable by trace ID.
		if ss.TraceID != rs.TraceID || ss.SpanID != rs.SpanID {
			t.Fatalf("req %d identity: sim %s/%s, replay %s/%s",
				ss.Req, ss.TraceID, ss.SpanID, rs.TraceID, rs.SpanID)
		}
		simHops := ss.Hops
		if n := len(simHops); n > 0 && simHops[n-1].Kind == "user-link" {
			simHops = simHops[:n-1]
		}
		if len(simHops) != len(rs.Hops) {
			t.Fatalf("req %d hop counts: sim %v, replay %v", ss.Req, ss.Hops, rs.Hops)
		}
		for j := range simHops {
			if simHops[j].Kind != rs.Hops[j].Kind || simHops[j].Sat != rs.Hops[j].Sat {
				t.Fatalf("req %d hop %d: sim %s(sat %d), replay %s(sat %d)",
					ss.Req, j, simHops[j].Kind, simHops[j].Sat,
					rs.Hops[j].Kind, rs.Hops[j].Sat)
			}
		}
	}
}
