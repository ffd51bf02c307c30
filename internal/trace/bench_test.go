package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"starcdn/internal/cache"
)

func benchTrace(n int) *Trace {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{Locations: []string{"a", "b", "c", "d"}}
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += rng.Float64() * 0.1
		tr.Append(Request{
			TimeSec:  tm,
			Object:   cache.ObjectID(rng.Intn(10000)),
			Size:     int64(1 + rng.Intn(1<<20)),
			Location: rng.Intn(4),
		})
	}
	return tr
}

func BenchmarkWrite(b *testing.B) {
	tr := benchTrace(100000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkRead(b *testing.B) {
	tr := benchTrace(100000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSort sorts a million requests in shuffled time order. An op
// allocates Sort's scratch buffer and its histogram, nothing else.
func BenchmarkSort(b *testing.B) {
	shuffled := benchTrace(1 << 20).Requests
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	tr := &Trace{Requests: make([]Request, len(shuffled))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(tr.Requests, shuffled)
		b.StartTimer()
		tr.Sort()
	}
}
