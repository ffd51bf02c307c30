package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"starcdn/internal/cache"
)

// FuzzRead ensures the binary decoder never panics or hangs on arbitrary
// input, and that anything it accepts re-encodes to an equivalent trace.
func FuzzRead(f *testing.F) {
	// Seed with valid encodings of increasing complexity.
	seed := func(t *Trace) {
		var buf bytes.Buffer
		if err := Write(&buf, t); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(&Trace{})
	seed(&Trace{Locations: []string{"x"}})
	tr := &Trace{Locations: []string{"New York", "London"}}
	tr.Append(Request{TimeSec: 0.5, Object: 7, Size: 123, Location: 1})
	tr.Append(Request{TimeSec: 1.5, Object: 9, Size: 456, Location: 0})
	seed(tr)
	f.Add([]byte("SCTR"))
	f.Add([]byte("garbage"))
	f.Add([]byte{'S', 'C', 'T', 'R', 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted traces must round-trip.
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatalf("accepted trace fails to encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace fails to decode: %v", err)
		}
		if again.Len() != got.Len() || len(again.Locations) != len(got.Locations) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				again.Len(), len(again.Locations), got.Len(), len(got.Locations))
		}
	})
}

// FuzzSort reads the input as little-endian float64 times, one request
// each, and sorts them. The output must always be a permutation of the input,
// bit for bit; without NaNs it must equal the stable comparison sort's.
func FuzzSort(f *testing.F) {
	seed := func(times ...float64) {
		var b []byte
		for _, x := range times {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	seed()
	seed(1)
	seed(2, 1, 1, 0)
	seed(0, math.Copysign(0, -1), -1, 0, math.Copysign(0, -1))
	seed(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0, 1<<53, 1<<53+2, -(1 << 53))
	seed(math.NaN(), 1, math.Inf(1), math.Inf(-1), math.NaN(), 0)

	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]Request, len(data)/8)
		hasNaN := false
		for i := range in {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			hasNaN = hasNaN || math.IsNaN(x)
			in[i] = Request{TimeSec: x, Object: cache.ObjectID(i), Size: int64(i + 1)}
		}
		tr := &Trace{Requests: slices.Clone(in)}
		tr.Sort()
		seen := make([]bool, len(in))
		for k, r := range tr.Requests {
			i := int(r.Object)
			if i < 0 || i >= len(in) || seen[i] {
				t.Fatalf("position %d holds object %d twice or from nowhere", k, i)
			}
			seen[i] = true
			if math.Float64bits(r.TimeSec) != math.Float64bits(in[i].TimeSec) || r.Size != in[i].Size {
				t.Fatalf("position %d: %+v is not input %d (%+v)", k, r, i, in[i])
			}
		}
		if hasNaN {
			return // < orders no NaN, so the reference's order is its own
		}
		want := slices.Clone(in)
		referenceSort(want)
		for k := range want {
			if tr.Requests[k] != want[k] {
				t.Fatalf("position %d: got %+v, want %+v", k, tr.Requests[k], want[k])
			}
		}
	})
}
