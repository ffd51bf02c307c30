package replayer

import (
	"io"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
)

// BenchmarkReplayFrame measures one client→server round trip over loopback
// TCP — the unit cost every distributed replay pays per frame (recorded in
// BENCH_core.json). Five variants:
//
//	get/hit         — plain frame exchange, no tracing anywhere
//	get/propagate   — an unsampled context passed: no context frame is
//	                  written, so it must cost the same as plain
//	get/traced      — sampled request: OpTraceContext frame on the wire plus
//	                  a server span serialised to io.Discard (the worst case
//	                  per-request tracing cost)
//	fetch/hit       — the owner fetch a replayed request sends, on a hit
//	fetch/pipelined — the same frame, sixteen to a write as a window flush
//	                  sends them; ns/op is per frame
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

	// warm admits the object and opens the connection outside the timed
	// region.
	warm := func(b *testing.B, cl *Client, op Op, sc *obs.SpanContext) {
		b.Helper()
		if err := cl.Admit(addr, obj, size); err != nil {
			b.Fatal(err)
		}
		if hit, err := hitAnswer(cl.roundTrip(addr, op, obj, size, sc)); err != nil || !hit {
			b.Fatalf("warmup: hit=%v err=%v", hit, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
	}
	run := func(b *testing.B, cl *Client, op Op, sc *obs.SpanContext) {
		b.Helper()
		defer cl.Close()
		warm(b, cl, op, sc)
		for i := 0; i < b.N; i++ {
			hit, err := hitAnswer(cl.roundTrip(addr, op, obj, size, sc))
			if err != nil {
				b.Fatal(err)
			}
			if !hit {
				b.Fatal("admitted object missed")
			}
		}
	}

	b.Run("get/hit", func(b *testing.B) {
		run(b, NewClient(), OpGet, nil)
	})
	b.Run("get/propagate", func(b *testing.B) {
		run(b, NewClient(), OpGet, &obs.SpanContext{TraceHi: 7, TraceLo: 8, Parent: 9})
	})
	b.Run("get/traced", func(b *testing.B) {
		cl := newClientOpts(clientOptions{Tracer: obs.NewTracer(io.Discard, 1, 2)})
		run(b, cl, OpGet, &obs.SpanContext{TraceHi: 7, TraceLo: 8, Parent: 9, Sampled: true})
	})
	b.Run("fetch/hit", func(b *testing.B) {
		run(b, NewClient(), OpFetch, nil)
	})
	b.Run("fetch/pipelined", func(b *testing.B) {
		cl := NewClient()
		defer cl.Close()
		var calls [16]call
		var batch [16]*call
		for i := range calls {
			calls[i] = call{addr: addr, op: OpFetch, obj: obj, size: size}
			batch[i] = &calls[i]
		}
		var pipes [1]pipe
		warm(b, cl, OpFetch, nil)
		for done := 0; done < b.N; done += len(batch) {
			pipes[0] = pipe{addr: addr, calls: batch[:min(len(batch), b.N-done)]}
			cl.exchange(pipes[:])
			for _, c := range batch[:min(len(batch), b.N-done)] {
				if c.err != nil || c.st != StatusHit {
					b.Fatalf("pipelined fetch: status %d err %v", c.st, c.err)
				}
			}
		}
	})
}
