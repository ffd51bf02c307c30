package replayer

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
)

// TestReadFrameTruncated: every truncation of a valid frame must surface an
// error — never a zero-value message, never a hang.
func TestReadFrameTruncated(t *testing.T) {
	var scratch [frameSize]byte
	raw := appendFrame(nil, uint8(OpGet), 42, 100)
	if len(raw) != frameSize {
		t.Fatalf("frame size = %d, want %d", len(raw), frameSize)
	}
	for cut := 0; cut < frameSize; cut++ {
		_, err := readFrameBuf(bytes.NewReader(raw[:cut]), &scratch)
		if err == nil {
			t.Errorf("truncated frame of %d bytes was accepted", cut)
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut=%d: error %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameConsumesExactlyOneFrame: trailing bytes must be left for the
// next read — the protocol never over-reads or over-allocates.
func TestReadFrameConsumesExactlyOneFrame(t *testing.T) {
	var scratch [frameSize]byte
	buf := bytes.NewBuffer(appendFrame(nil, uint8(OpAdmit), 7, 64))
	buf.WriteString("trailing")
	m, err := readFrameBuf(buf, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if m.op != OpAdmit || m.a != 7 || m.b != 64 {
		t.Errorf("decoded %+v", m)
	}
	if buf.String() != "trailing" {
		t.Errorf("frame read consumed trailing bytes: %q left", buf.String())
	}
}

// TestReadResponseCorruptStatus: a status byte outside the defined range is
// a protocol violation, not a silently-propagated status.
func TestReadResponseCorruptStatus(t *testing.T) {
	var scratch [frameSize]byte
	// 4 is the retired overload-control status.
	for _, bad := range []uint8{4, 42, 255} {
		var buf bytes.Buffer
		if err := writeFrameBuf(&buf, &scratch, bad, 1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := readResponse(&buf, &scratch); err == nil {
			t.Errorf("status byte %d was accepted", bad)
		}
	}
	// All defined statuses round-trip.
	for _, st := range []Status{StatusMiss, StatusHit, StatusOK, StatusError} {
		var buf bytes.Buffer
		if err := writeResponse(&buf, &scratch, st); err != nil {
			t.Fatal(err)
		}
		if got, err := readResponse(&buf, &scratch); err != nil || got != st {
			t.Errorf("status %d: got (%d,%v)", st, got, err)
		}
	}
}

// errWriter fails after n bytes, modelling a connection severed mid-frame.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("severed")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteFramePropagatesShortWrite(t *testing.T) {
	var scratch [frameSize]byte
	if err := writeFrameBuf(&errWriter{n: 5}, &scratch, uint8(OpGet), 1, 2); err == nil {
		t.Error("short write was not reported")
	}
}

// TestServerSurvivesGarbageAndTruncatedInput: malformed client bytes must
// neither hang a handler nor take the server down for other clients.
func TestServerSurvivesGarbageAndTruncatedInput(t *testing.T) {
	capture := newCapture()
	s, err := NewServerOpts(1, cache.LRU, 1000, ServerOptions{
		Log: obs.NewLogger(capture),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	// A truncated frame followed by close: handler must exit cleanly.
	raw, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{byte(OpGet), 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	// A garbage full-size frame: the server answers StatusError and keeps
	// the connection usable.
	cl := newClientOpts(clientOptions{IOTimeout: 2 * time.Second})
	defer func() { _ = cl.Close() }()
	st, err := cl.roundTrip(s.Addr(), Op(0xEE), 0xDEADBEEF, 1<<60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusError {
		t.Errorf("garbage op status = %d, want StatusError", st)
	}
	// The server is still healthy for normal traffic.
	if err := cl.Admit(s.Addr(), 9, 10); err != nil {
		t.Fatal(err)
	}
	if hit, err := cl.Get(s.Addr(), 9, 10); err != nil || !hit {
		t.Fatalf("server unhealthy after garbage: hit=%v err=%v", hit, err)
	}
	for _, msg := range capture.Messages() {
		if strings.Contains(msg, "accept") {
			t.Errorf("malformed input reached the accept error log: %q", msg)
		}
	}
}

// TestServerLogInjectable: accept-loop errors flow as structured records to
// the injected slog handler instead of the global logger, carrying the
// satellite ID as an attribute rather than baked into a format string.
func TestServerLogInjectable(t *testing.T) {
	capture := newCapture()
	s, err := NewServerOpts(3, cache.LRU, 1000, ServerOptions{
		Log: obs.NewLogger(capture),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close the raw listener without signalling shutdown: the accept loop
	// must report through the injected log and exit.
	if err := s.ln.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if recs := capture.Records(); len(recs) > 0 {
			r := recs[0]
			if r.Level != slog.LevelError || !strings.Contains(r.Message, "accept") {
				t.Errorf("unexpected accept record: %+v", r)
			}
			if got := r.Attrs["sat"].Int64(); got != 3 {
				t.Errorf("sat attr = %d, want 3", got)
			}
			if r.Attrs["err"].String() == "" {
				t.Error("accept record carries no err attribute")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("accept error never reached the injected logger")
		}
		time.Sleep(time.Millisecond)
	}
	// Close is still safe; the listener close error is expected and benign.
	_ = s.Close()
}
