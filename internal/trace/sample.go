package trace

import "fmt"

// Sample returns a trace containing only the requests whose object falls in
// a pseudo-random rate-sized fraction of the object space. Sampling is by
// object, not by request — the method CDN providers use (and the paper's
// §3.1 "subsampled at 1% ... by objects"): every request of a sampled
// object is kept, so reuse distances and hit rates remain representative
// while cache sizes scale down with the rate.
//
//lint:ignore deadexport roadmap caller: ROADMAP item 10(c)'s Paper() scale samples its 5-day trace to 1 % with it
func Sample(tr *Trace, rate float64, seed int64) (*Trace, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("trace: sample rate must be in (0, 1], got %v", rate)
	}
	out := &Trace{Locations: append([]string(nil), tr.Locations...)}
	if rate == 1 {
		out.Requests = append(out.Requests, tr.Requests...)
		return out, nil
	}
	threshold := uint64(rate * float64(1<<63) * 2) // rate scaled to uint64 space
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if sampleHash(uint64(r.Object), uint64(seed)) < threshold {
			out.Append(*r)
		}
	}
	return out, nil
}

// sampleHash is a splitmix64-style mix of (object, seed).
func sampleHash(obj, seed uint64) uint64 {
	x := obj*0x9E3779B97F4A7C15 + seed*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
