package orbit

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"starcdn/internal/geo"
)

// TestTimelineMatchesVisibleFrom is the timeline's contract: Row.VisibleFrom
// is the one-shot VisibleFrom at the epoch start under the mask of the moment,
// id for id in its order — for user sets drawn from the sweep test's generator
// (polar, date-line, off-sphere and NaN points included), negative and
// scattered epochs, warm repeats, and masks that change between two lookups of
// one epoch.
func TestTimelineMatchesVisibleFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	userSets, lookups := 4, 36
	if testing.Short() {
		userSets, lookups = 2, 15
	}
	for _, cfg := range []Config{DefaultStarlinkShell(), polarShell()} {
		c := MustNew(cfg)
		seen := 0
		for k := 0; k < userSets; k++ {
			sp := c.SubSatellitePoint(SatID(rng.Intn(c.NumSlots())), rng.Float64()*86400)
			users := sweepPoints(rng, c, sp, 12)
			epochSec := []float64{15, 7.5, 60, 0.1}[k%4]
			tl := c.Timeline(users, epochSec)
			if again := c.Timeline(slices.Clone(users), epochSec); again != tl {
				t.Fatalf("%v° shell: the same users and epoch length found a second timeline", cfg.InclinationDeg)
			}
			if other := c.Timeline(users, epochSec+1); other == tl {
				t.Fatalf("%v° shell: epoch lengths %v and %v share a timeline", cfg.InclinationDeg, epochSec, epochSec+1)
			}
			first := rng.Int63n(2000) - 1000
			held := tl.Epoch(first) // must read the same at the end, whatever is appended
			heldIDs := slices.Clone(held.ids[held.offs[0]:held.offs[len(users)]])
			epochs := []int64{first}
			var got, want []SatID
			for i := 0; i < lookups; i++ {
				var epoch int64
				switch i % 3 {
				case 0: // warm: an epoch already stored
					epoch = epochs[rng.Intn(len(epochs))]
				case 1: // the next one, as a run asks
					epoch = epochs[len(epochs)-1] + 1
				default: // anywhere, either sign
					epoch = rng.Int63n(40000) - 20000
				}
				epochs = append(epochs, epoch)
				if i%7 == 0 {
					c.ApplyOutageMask(rng.Intn(c.NumSlots()/3), rng.Int63())
				}
				for pass := 0; pass < 2; pass++ { // same epoch, mask changed in between
					row := tl.Epoch(epoch)
					for u, p := range users {
						got = row.VisibleFrom(got[:0], u)
						want = c.VisibleFrom(want[:0], p, float64(epoch)*epochSec)
						if !slices.Equal(got, want) {
							t.Fatalf("%v° shell, epoch %d × %v s, p=%v: row sees %v, one-shot VisibleFrom %v",
								cfg.InclinationDeg, epoch, epochSec, p, got, want)
						}
						seen += len(want)
					}
					for j := 0; j < 1+rng.Intn(40); j++ {
						c.SetActive(SatID(rng.Intn(c.NumSlots())), rng.Intn(3) == 0)
					}
				}
			}
			if now := held.ids[held.offs[0]:held.offs[len(users)]]; !slices.Equal(now, heldIDs) {
				t.Fatalf("%v° shell: a held row changed under later fills: %v -> %v", cfg.InclinationDeg, heldIDs, now)
			}
		}
		if seen == 0 {
			t.Errorf("%v° shell: no lookup saw a satellite; the test compares nothing", cfg.InclinationDeg)
		}
	}
}

// TestTimelineSharedAcrossGoroutines: two readers fill and read one timeline
// in opposite epoch orders; each row is what a private constellation gives.
// Run under -race.
func TestTimelineSharedAcrossGoroutines(t *testing.T) {
	users := []geo.Point{geo.NewPoint(40.713, -74.006), geo.NewPoint(51.507, -0.128), geo.NewPoint(-33.869, 151.209)}
	const epochs = 200
	ref := MustNew(testShell()).Timeline(users, 15)
	shared := MustNew(testShell())
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(backwards bool) {
			defer wg.Done()
			tl := shared.Timeline(users, 15)
			for i := int64(0); i < epochs; i++ {
				epoch := i
				if backwards {
					epoch = epochs - 1 - i
				}
				row, want := tl.Epoch(epoch), ref.Epoch(epoch)
				for u := range users {
					if got, want := row.VisibleFrom(nil, u), want.VisibleFrom(nil, u); !slices.Equal(got, want) {
						t.Errorf("epoch %d user %d: shared timeline %v, private %v", epoch, u, got, want)
						return
					}
				}
			}
		}(g == 1)
	}
	wg.Wait()
}
