package workload

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

// classIDSpace separates the object ID spaces of the classes in a mixed
// trace (class k's objects live in [k<<classIDShift, (k+1)<<classIDShift)).
const classIDShift = 40

// Mix is one component of a mixed-class workload.
type Mix struct {
	Class Class
	// Share is the fraction of total requests this class contributes.
	Share float64
}

// DefaultMix approximates a general-purpose CDN's request blend (§2.2:
// Akamai-style CDNs serve web, video, and download traffic side by side;
// video dominates bytes, web dominates request counts).
func DefaultMix() []Mix {
	return []Mix{
		{Class: Web(), Share: 0.55},
		{Class: Video(), Share: 0.40},
		{Class: Download(), Share: 0.05},
	}
}

// GenerateMixed produces one time-ordered trace combining several traffic
// classes over the same cities, with disjoint object ID spaces per class.
func GenerateMixed(mixes []Mix, cities []geo.City, seed int64, totalRequests int, durationSec float64) (*trace.Trace, error) {
	if len(mixes) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	if len(mixes) > 1<<(63-classIDShift) {
		return nil, fmt.Errorf("workload: too many classes")
	}
	var shareSum float64
	for _, m := range mixes {
		if m.Share <= 0 {
			return nil, fmt.Errorf("workload: class %q has non-positive share", m.Class.Name)
		}
		shareSum += m.Share
	}
	subs := make([]*trace.Trace, len(mixes))
	total := 0
	for k, m := range mixes {
		g, err := NewGenerator(m.Class, cities, seed+int64(k)*7919)
		if err != nil {
			return nil, fmt.Errorf("workload: class %q: %w", m.Class.Name, err)
		}
		n := int(float64(totalRequests) * m.Share / shareSum)
		if n == 0 {
			continue
		}
		if subs[k], err = g.Generate(n, durationSec); err != nil {
			return nil, fmt.Errorf("workload: class %q: %w", m.Class.Name, err)
		}
		total += subs[k].Len()
	}
	out := &trace.Trace{Requests: make([]trace.Request, 0, total)}
	for k, sub := range subs {
		if sub == nil {
			continue
		}
		if len(out.Locations) == 0 {
			out.Locations = sub.Locations
		}
		offset := cache.ObjectID(uint64(k) << classIDShift)
		for _, r := range sub.Requests {
			r.Object += offset
			out.Append(r)
		}
		subs[k] = nil // copied, so the collector may take it before the next class
	}
	out.Sort()
	return out, nil
}

// ClassOf recovers the mix index an object belongs to in a mixed trace.
func ClassOf(obj cache.ObjectID) int { return int(uint64(obj) >> classIDShift) }
