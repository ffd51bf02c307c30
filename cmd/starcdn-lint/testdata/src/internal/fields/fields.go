// Package fields is the deadfield fixture: a write-only field and an unset
// exported knob are caught; tagged, embedded, sync and mutated fields are not.
package fields

import "sync"

type Config struct {
	Size  int
	Scale float64 // want deadfield
	Name  string  `json:"name"` // tagged: encoding/json reads and sets it
	//lint:ignore deadfield fixture: set by a test of this package
	Trace bool
	//lint:ignore deadfield fixture: stale, a caller sets the field now
	Retries int
}

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

type Stats struct {
	sync.Mutex            // embedded: exempt
	mu         sync.Mutex // sync type: exempt
	Hits       int
	Peak       int      // want deadfield
	Ticks      counter  // set only through a pointer method
	Sink       *counter // want deadfield
	Bins       [4]int64 // set only by an element write
	Total      int64    // set only through &
	Log        []string // set only by x.f = append(x.f, …), read by report
}

func build(c Config) *Stats {
	s := &Stats{Hits: c.Size + c.Retries}
	s.Peak = int(c.Scale)
	if c.Trace {
		s.Ticks.inc()
		s.Sink.inc() // writes through the pointer, not to it
	}
	s.Bins[c.Size%4]++
	t := &s.Total; *t++
	s.Log = append(s.Log, "built")
	return s
}

type span struct{ Lo, Hi int64 } // a positional literal sets both

func report(s *Stats) int64 {
	s.Lock()
	defer s.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.Hits+s.Ticks.n+len(s.Log)) + s.Bins[0] + s.Total
}

func run() int64 { sp := span{1, 3}; return report(build(Config{Size: 3, Retries: 2})) + sp.Hi - sp.Lo }
