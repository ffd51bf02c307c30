package replayer

import (
	"io"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
)

// BenchmarkReplayFrame measures one client→server round trip over loopback
// TCP — the unit cost every distributed replay pays per request (recorded in
// BENCH_core.json). Three variants:
//
//	get/hit        — plain frame exchange, no tracing anywhere
//	get/propagate  — an unsampled context passed: no context frame is
//	                 written, so it must cost the same as plain
//	get/traced     — sampled request: OpTraceContext frame on the wire plus
//	                 a server span serialised to io.Discard (the worst case
//	                 per-request tracing cost)
func BenchmarkReplayFrame(b *testing.B) {
	srv, err := NewServerOpts(1, cache.LRU, 1<<30, ServerOptions{
		Tracer: obs.NewTracer(io.Discard, 1, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	const obj, size = cache.ObjectID(42), int64(1 << 10)

	run := func(b *testing.B, cl *Client, sc *obs.SpanContext) {
		b.Helper()
		defer cl.Close()
		if err := cl.Admit(addr, obj, size); err != nil {
			b.Fatal(err)
		}
		// Warm the connection outside the timed region.
		if hit, err := cl.GetCtx(addr, obj, size, sc); err != nil || !hit {
			b.Fatalf("warmup get: hit=%v err=%v", hit, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hit, err := cl.GetCtx(addr, obj, size, sc)
			if err != nil {
				b.Fatal(err)
			}
			if !hit {
				b.Fatal("admitted object missed")
			}
		}
	}

	b.Run("get/hit", func(b *testing.B) {
		run(b, NewClient(), nil)
	})
	b.Run("get/propagate", func(b *testing.B) {
		run(b, NewClient(), &obs.SpanContext{TraceHi: 7, TraceLo: 8, Parent: 9})
	})
	b.Run("get/traced", func(b *testing.B) {
		cl := NewClientOpts(ClientOptions{Tracer: obs.NewTracer(io.Discard, 1, 2)})
		run(b, cl, &obs.SpanContext{TraceHi: 7, TraceLo: 8, Parent: 9, Sampled: true})
	})
}
