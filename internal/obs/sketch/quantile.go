package sketch

import "math"

// defaultQuantileBuckets caps the occupied buckets of a Quantile sketch. With
// relative accuracy α=0.01 (γ≈1.0202) 1024 buckets span ~20 orders of
// magnitude before the collapse path ever runs, so in practice the cap is
// a memory guarantee, not an accuracy cost.
const defaultQuantileBuckets = 1024

// minIndexable is the smallest positive value given its own log-spaced
// bucket; smaller (and non-positive) observations land in the zero bucket.
const minIndexable = 1e-9

// QBucket is one log-spaced bucket of a Quantile sketch.
type QBucket struct {
	// Index is the bucket's log-γ index: the bucket covers (γ^(i-1), γ^i].
	Index int `json:"index"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
	// Ex is the bucket's trace exemplar (zero when never sampled).
	Ex Exemplar `json:"exemplar"`
}

// Quantile is a DDSketch-style quantile summary with relative-error
// guarantee: Quantile(q) is within a factor (1±α) of the true q-quantile,
// for any distribution, at any scale — which is what replaces fixed-bucket
// histograms where the value range is unknown. Observations map to
// log-spaced buckets (index ⌈log_γ x⌉ with γ=(1+α)/(1−α)); bucket counts
// are order-independent.
//
// Buckets live in one contiguous window over the log-γ indices seen so far
// (a bucket exists iff its Count > 0), so an observation is an index and
// every walk is in index order with no sort. At most maxBuckets buckets are
// occupied: past the cap the lowest occupied buckets collapse together
// (sacrificing resolution at the cheap low end first, the DDSketch
// convention). The window itself spans the occupied index range — a few
// hundred cells for latencies in milliseconds, and never more than the
// float64 exponent range divided by ln γ.
//
// Not synchronized: a Quantile has one owner, or sits behind its owner's
// lock (obs.Sketch).
type Quantile struct {
	gamma, lg  float64
	maxBuckets int

	n        int64
	sum      float64
	min, max float64
	zero     int64 // observations ≤ minIndexable (incl. non-positive)
	zeroEx   Exemplar
	// win[i] is the bucket of log-γ index base+i (win[i].Index says so);
	// occupied counts the cells with Count > 0.
	win      []QBucket
	base     int
	occupied int
	// lastX/lastIdx memoise the most recent index computation: replayed
	// latencies come from a small discrete set (hop geometry), so repeated
	// values skip the math.Log. lastX is 0 when empty — unreachable, since
	// only values > minIndexable are indexed.
	lastX   float64
	lastIdx int
}

// NewQuantile returns a sketch with relative accuracy alpha (values outside
// (0, 0.5) select 0.01) and at most maxBuckets buckets (≤ 0 selects 1024).
func NewQuantile(alpha float64, maxBuckets int) *Quantile {
	if !(alpha > 0 && alpha < 0.5) {
		alpha = 0.01
	}
	if maxBuckets <= 0 {
		maxBuckets = defaultQuantileBuckets
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Quantile{
		gamma:      gamma,
		lg:         math.Log(gamma),
		maxBuckets: maxBuckets,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
}

// Count returns the number of observations (0 on nil).
func (s *Quantile) Count() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// Sum returns the sum of observations (0 on nil).
func (s *Quantile) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Min returns the smallest observation (NaN when empty or nil).
func (s *Quantile) Min() float64 {
	if s == nil || s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty or nil).
func (s *Quantile) Max() float64 {
	if s == nil || s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// ObserveEx records one sample, carrying an exemplar for the contributing
// request.
// NaN observations are ignored (they have no quantile position).
func (s *Quantile) ObserveEx(x float64, ex Exemplar) {
	if s == nil || math.IsNaN(x) {
		return
	}
	s.n++
	s.sum += x
	s.min = math.Min(s.min, x)
	s.max = math.Max(s.max, x)
	if x <= minIndexable {
		s.zero++
		if ex.better(s.zeroEx) {
			s.zeroEx = ex
		}
		return
	}
	if x != s.lastX {
		s.lastX, s.lastIdx = x, s.index(x)
	}
	s.add(s.lastIdx, 1, ex)
	s.collapse()
}

// index maps a positive observation to its log-γ bucket. +Inf shares the
// bucket of the largest finite value, which keeps every index (and so the
// window) inside the float64 exponent range.
func (s *Quantile) index(x float64) int {
	if x > math.MaxFloat64 {
		x = math.MaxFloat64
	}
	return int(math.Ceil(math.Log(x) / s.lg))
}

// value returns the representative value of bucket idx: the midpoint
// 2γ^idx/(γ+1), which is within relative error α of every value the bucket
// covers.
func (s *Quantile) value(idx int) float64 {
	return 2 * math.Pow(s.gamma, float64(idx)) / (s.gamma + 1)
}

// add folds count observations and their exemplar into bucket idx, growing
// the window to cover it.
func (s *Quantile) add(idx int, count int64, ex Exemplar) {
	i := idx - s.base
	if uint(i) >= uint(len(s.win)) {
		s.grow(idx)
		i = idx - s.base
	}
	b := &s.win[i]
	if b.Count == 0 {
		s.occupied++
	}
	b.Count += count
	if ex.better(b.Ex) {
		b.Ex = ex
	}
}

// grow reallocates the window to cover idx, with slack on the side that grew
// so a drifting value range costs O(log) reallocations, not one per bucket.
func (s *Quantile) grow(idx int) {
	if len(s.win) == 0 {
		s.base = idx
	}
	lo, hi := min(idx, s.base), max(idx, s.base+len(s.win)-1)
	if pad := len(s.win)/2 + 8; idx == lo {
		lo -= pad
	} else {
		hi += pad
	}
	win := make([]QBucket, hi-lo+1)
	for i := range win {
		win[i].Index = lo + i
	}
	copy(win[s.base-lo:], s.win)
	s.win, s.base = win, lo
}

// collapse enforces maxBuckets by folding the lowest occupied bucket into
// the next occupied one until the cap holds; collapsing low buckets first
// preserves tail (p99) accuracy at the cost of resolution near zero.
func (s *Quantile) collapse() {
	lo := 0
	for s.occupied > s.maxBuckets {
		for s.win[lo].Count == 0 {
			lo++
		}
		next := lo + 1
		for s.win[next].Count == 0 {
			next++
		}
		s.win[next].Count += s.win[lo].Count
		if s.win[lo].Ex.better(s.win[next].Ex) {
			s.win[next].Ex = s.win[lo].Ex
		}
		s.win[lo].Count, s.win[lo].Ex = 0, Exemplar{}
		s.occupied--
		lo = next
	}
}

// rank is the 1-based position of the q-quantile (q clamped to [0,1]) among
// the n observations.
func (s *Quantile) rank(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return max(int64(math.Ceil(q*float64(s.n))), 1)
}

// At answers several quantiles in one ascending bucket walk: for each qs[i]
// it stores the estimate in vals[i] and the exemplar of the bucket holding
// it in exs[i]. Either destination may be nil; the walk allocates nothing.
// Ascending qs share one walk; a smaller q after a larger one restarts it.
// An empty or nil sketch answers NaN and the zero Exemplar.
func (s *Quantile) At(qs, vals []float64, exs []Exemplar) {
	empty := s == nil || s.n == 0
	i, cum, prev := -1, int64(0), int64(0) // i == -1 is the zero bucket
	for k, q := range qs {
		v, ex := math.NaN(), Exemplar{}
		if !empty {
			target := s.rank(q)
			if k == 0 || target < prev {
				i, cum = -1, s.zero // start the walk, or start it over
			}
			prev = target
			// zero plus the bucket counts sum to n ≥ target, so the walk
			// stops inside the window, on an occupied bucket.
			for cum < target {
				i++
				cum += s.win[i].Count
			}
			if i < 0 {
				// The zero bucket holds values ≤ minIndexable; report them as 0.
				v, ex = 0, s.zeroEx
			} else {
				v, ex = s.value(s.win[i].Index), s.win[i].Ex
			}
		}
		if vals != nil {
			vals[k] = v
		}
		if exs != nil {
			exs[k] = ex
		}
	}
}

// Quantile returns the q-quantile estimate (q clamped to [0,1]); NaN when
// empty. The estimate is within relative error α of the true quantile as
// long as the collapse path has not merged the target bucket.
func (s *Quantile) Quantile(q float64) float64 {
	qs, v := [1]float64{q}, [1]float64{}
	s.At(qs[:], v[:], nil)
	return v[0]
}
