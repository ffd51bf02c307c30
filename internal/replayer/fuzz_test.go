package replayer

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
)

// requestFrames counts the response frames a handler owes for data: one per
// complete request frame, none for a context frame, stopping where the stream
// truncates a frame or a context tail.
func requestFrames(data []byte) int {
	n := 0
	for len(data) >= frameSize {
		if Op(data[0]) == OpTraceContext {
			if len(data) < frameSize+traceTailSize {
				break
			}
			data = data[frameSize+traceTailSize:]
			continue
		}
		n++
		data = data[frameSize:]
	}
	return n
}

// FuzzServerHandle feeds arbitrary bytes to a live server's handler: it must
// not panic, must finish within a deadline once the client half-closes, must
// answer exactly the request frames it was sent with valid statuses, and the
// server must still serve a fresh client afterwards.
func FuzzServerHandle(f *testing.F) {
	frame := func(op Op, a, b uint64) []byte { return appendFrame(nil, uint8(op), a, b) }
	ctx := appendTraceContext(nil, obs.SpanContext{TraceHi: 1, TraceLo: 2, Parent: 3, Sampled: true})
	get := frame(OpGet, 42, 100)
	for _, op := range []Op{OpGet, OpContains, OpAdmit, OpFetch, OpProbe} {
		f.Add(frame(op, 42, 100))
	}
	f.Add(append(ctx, get...))                // a context frame, its tail, then a request
	f.Add(ctx[:frameSize+4])                  // truncated tail
	f.Add(get[:5])                            // truncated frame
	f.Add(frame(OpAdmit, 7, 0))               // invalid size
	f.Add(frame(OpFetch, 7, 0))               // a miss whose admit fails
	f.Add(frame(Op(0xEE), 0xDEADBEEF, 1<<60)) // unknown op
	f.Add([]byte("garbage"))
	// One coalesced write, as a window flush sends it: fetch, probe and a
	// context-led fetch pipelined behind one another, the last one cut short.
	batch := append(frame(OpFetch, 42, 100), frame(OpProbe, 42, 100)...)
	batch = appendTraceContext(batch, obs.SpanContext{TraceHi: 4, TraceLo: 5, Parent: 6, Sampled: true})
	batch = append(batch, frame(OpFetch, 43, 100)...)
	f.Add(append(batch, frame(OpProbe, 43, 100)[:9]...))

	s, err := NewServer(1, cache.LRU, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.DialTimeout("tcp", s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// Write from a goroutine so a large input cannot deadlock against its
		// own unread responses; the half-close is the handler's EOF. Write
		// errors surface as a short response stream below.
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, _ = conn.Write(data)
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		resp, err := io.ReadAll(conn)
		<-written // the deadline bounds the writer too
		if err != nil {
			t.Fatalf("handler did not finish: %v", err)
		}
		if want := requestFrames(data) * frameSize; len(resp) != want {
			t.Fatalf("%d response bytes for %d input bytes, want %d", len(resp), len(data), want)
		}
		var buf [frameSize]byte
		for r := bytes.NewReader(resp); r.Len() > 0; {
			if _, err := readResponse(r, &buf); err != nil {
				t.Fatal(err)
			}
		}

		cl := newClientOpts(clientOptions{IOTimeout: time.Second})
		defer func() { _ = cl.Close() }()
		if err := cl.Admit(s.Addr(), 7, 1); err != nil {
			t.Fatal(err)
		}
		if hit, err := cl.Get(s.Addr(), 7, 1); err != nil || !hit {
			t.Fatalf("server unhealthy after fuzz input: hit=%v err=%v", hit, err)
		}
	})
}

// FuzzFrameRoundTrip: any frame followed by any trace context decodes back to
// exactly what was written, consuming exactly its bytes, and every truncation
// of the pair (cut bytes kept) is an error.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, op := range []Op{OpGet, OpContains, OpAdmit, OpTraceContext, OpFetch, OpProbe} {
		f.Add(uint8(op), uint64(42), uint64(100), uint64(7), true, uint8(255))
	}
	f.Add(uint8(OpGet), uint64(1), uint64(2), uint64(3), false, uint8(frameSize+4)) // cut mid-tail
	f.Add(uint8(OpGet), uint64(1), uint64(2), uint64(3), false, uint8(5))           // cut mid-frame
	f.Add(uint8(0xEE), ^uint64(0), uint64(1)<<63, ^uint64(0), false, uint8(0))      // garbage, cut to nothing

	f.Fuzz(func(t *testing.T, first uint8, a, b, parent uint64, sampled bool, cut uint8) {
		var scratch [frameSize]byte
		sc := obs.SpanContext{TraceHi: a, TraceLo: b, Parent: parent, Sampled: sampled}
		wire := appendTraceContext(appendFrame(nil, first, a, b), sc)
		n := min(int(cut), len(wire))

		r := bytes.NewReader(wire[:n])
		m, err1 := readFrameBuf(r, &scratch)
		ctx, err2 := readFrameBuf(r, &scratch)
		var got obs.SpanContext
		var err3 error
		if err2 == nil {
			got, err3 = readTraceTail(r, ctx.a, ctx.b)
		}
		err := errors.Join(err1, err2, err3)
		if n < len(wire) {
			if err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(wire))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if m != (message{op: Op(first), a: a, b: b}) || ctx.op != OpTraceContext || got != sc || r.Len() != 0 {
			t.Fatalf("round trip: frame %+v, context %+v, %d bytes left", m, got, r.Len())
		}
	})
}
