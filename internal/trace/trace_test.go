package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"starcdn/internal/cache"
)

func sampleTrace() *Trace {
	t := &Trace{Locations: []string{"New York", "London"}}
	t.Append(Request{TimeSec: 0, Object: 1, Size: 100, Location: 0})
	t.Append(Request{TimeSec: 0.5, Object: 2, Size: 200, Location: 1})
	t.Append(Request{TimeSec: 1.25, Object: 1, Size: 100, Location: 1})
	t.Append(Request{TimeSec: 3, Object: 3, Size: 50, Location: 0})
	return t
}

func TestBasicAccounting(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 4 {
		t.Errorf("len = %d", tr.Len())
	}
	if tr.TotalBytes() != 450 {
		t.Errorf("total bytes = %d", tr.TotalBytes())
	}
	n, b := tr.UniqueObjects()
	if n != 3 || b != 350 {
		t.Errorf("unique = %d objects %d bytes", n, b)
	}
	if d := tr.DurationSec(); d != 3 {
		t.Errorf("duration = %v", d)
	}
	var empty Trace
	if empty.DurationSec() != 0 || empty.TotalBytes() != 0 {
		t.Error("empty trace accounting")
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{Locations: []string{"X"}}
	tr.Append(Request{TimeSec: 2, Object: 1, Size: 1, Location: 0})
	tr.Append(Request{TimeSec: 1, Object: 2, Size: 1, Location: 0})
	tr.Append(Request{TimeSec: 1, Object: 3, Size: 1, Location: 0})
	tr.Sort()
	if tr.Requests[0].Object != 2 || tr.Requests[1].Object != 3 || tr.Requests[2].Object != 1 {
		t.Errorf("sort order wrong: %+v", tr.Requests)
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: -1, Object: 1, Size: 1}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: 1, Object: 1, Size: 1}, {TimeSec: 0, Object: 1, Size: 1}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: 0, Object: 1, Size: 0}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: 0, Object: 1, Size: 1, Location: 1}}},
		{Locations: nil, Requests: []Request{{TimeSec: 0, Object: 1, Size: 1, Location: 0}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: math.NaN(), Object: 1, Size: 1}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: 1, Object: 1, Size: 1}, {TimeSec: math.NaN(), Object: 1, Size: 1}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: 1, Object: 1, Size: 1}, {TimeSec: math.Inf(1), Object: 1, Size: 1}}},
		{Locations: []string{"a"}, Requests: []Request{{TimeSec: math.Inf(-1), Object: 1, Size: 1}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestSplitByLocation(t *testing.T) {
	tr := sampleTrace()
	parts := tr.SplitByLocation()
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[0].Len() != 2 || parts[1].Len() != 2 {
		t.Errorf("split sizes = %d/%d", parts[0].Len(), parts[1].Len())
	}
	for _, r := range parts[1].Requests {
		if r.Location != 1 {
			t.Errorf("wrong location in split: %+v", r)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Locations) != 2 || got.Locations[0] != "New York" {
		t.Errorf("locations = %v", got.Locations)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], got.Requests[i]
		if a.Object != b.Object || a.Size != b.Size || a.Location != b.Location {
			t.Errorf("record %d: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.TimeSec-b.TimeSec) > 1e-6 {
			t.Errorf("record %d time: %v vs %v", i, a.TimeSec, b.TimeSec)
		}
	}
}

func TestBinaryRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &Trace{Locations: []string{"a", "b", "c"}}
	tm := 0.0
	for i := 0; i < 20000; i++ {
		tm += rng.Float64()
		tr.Append(Request{
			TimeSec:  tm,
			Object:   cache.ObjectID(rng.Intn(5000)),
			Size:     int64(1 + rng.Intn(1<<20)),
			Location: rng.Intn(3),
		})
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Varint+delta encoding should be compact: well under 16 bytes/record.
	if perRec := float64(buf.Len()) / float64(tr.Len()); perRec > 16 {
		t.Errorf("encoding too large: %.1f bytes/record", perRec)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len mismatch")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded trace invalid: %v", err)
	}
}

func TestWriteRejectsNonMonotone(t *testing.T) {
	tr := &Trace{Locations: []string{"a"}}
	tr.Append(Request{TimeSec: 2, Object: 1, Size: 1})
	tr.Append(Request{TimeSec: 1, Object: 2, Size: 1})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Error("non-monotone trace should fail to encode")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	// Correct magic, bogus version.
	var buf bytes.Buffer
	buf.WriteString("SCTR")
	buf.WriteByte(99)
	if _, err := Read(&buf); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	// Truncated valid stream.
	var full bytes.Buffer
	if err := Write(&full, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	trunc := full.Bytes()[:full.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "London") || !strings.Contains(out, "New York") {
		t.Errorf("text output missing locations: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 records
		t.Errorf("lines = %d", len(lines))
	}
}
