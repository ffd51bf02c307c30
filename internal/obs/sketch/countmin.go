package sketch

// CountMin is a Cormode/Muthukrishnan counting sketch: a depth×width grid
// of counters where every update increments one counter per row (chosen by
// a per-row hash) and an estimate reads the minimum across rows. Estimates
// never undercount; with width w and depth d the overcount is bounded by
// e·N/w with probability 1−(1/2)^d for stream weight N.
//
// Updates are commutative, so Merge (element-wise addition) is *exact*:
// per-shard grids merged at epoch boundaries equal the single-stream grid,
// whatever the interleaving. The obs TopK instrument pairs one of these
// with a Space-Saving summary to refine per-entry estimates — min(SS
// count, CMS estimate) is a valid, usually tighter, upper bound.
type CountMin struct {
	width, depth int
	// mask is width-1 when width is a power of two (the default geometry),
	// letting the per-row slot selection mask instead of divide; 0 otherwise.
	// h & (w-1) == h % w for power-of-two w, so placements are unchanged.
	mask  uint64
	n     int64
	rows  [][]int64
	seeds []uint64
}

// NewCountMin returns a width×depth sketch (width < 8 selects 8, depth
// outside [1,8] clamps).
func NewCountMin(width, depth int) *CountMin {
	if width < 8 {
		width = 8
	}
	if depth < 1 {
		depth = 1
	}
	if depth > 8 {
		depth = 8
	}
	c := &CountMin{width: width, depth: depth,
		rows: make([][]int64, depth), seeds: make([]uint64, depth)}
	if width&(width-1) == 0 {
		c.mask = uint64(width - 1)
	}
	for i := range c.rows {
		c.rows[i] = make([]int64, width)
		// Fixed per-row seeds: the sketch is a pure function of its updates.
		c.seeds[i] = mix64(uint64(i) + 1)
	}
	return c
}

// Width returns the per-row counter count (0 on nil).
func (c *CountMin) Width() int {
	if c == nil {
		return 0
	}
	return c.width
}

// Depth returns the row count (0 on nil).
func (c *CountMin) Depth() int {
	if c == nil {
		return 0
	}
	return c.depth
}

// N returns the total stream weight observed (0 on nil).
func (c *CountMin) N() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Update adds weight inc to key. Non-positive increments are ignored.
func (c *CountMin) Update(key uint64, inc int64) {
	if c == nil || inc <= 0 {
		return
	}
	c.n += inc
	// slot, spelled out so that ranging over the rows and the equally long
	// seeds leaves one bounds check per row (the masked slot against the row)
	// where c.rows[i][c.slot(i, key)] pays three.
	seeds := c.seeds[:len(c.rows)]
	for i, row := range c.rows {
		h := mix64(key ^ seeds[i])
		if c.mask != 0 {
			row[h&c.mask] += inc
		} else {
			row[h%uint64(len(row))] += inc
		}
	}
}

// slot selects key's counter in row i.
func (c *CountMin) slot(i int, key uint64) uint64 {
	h := mix64(key ^ c.seeds[i])
	if c.mask != 0 {
		return h & c.mask
	}
	return h % uint64(c.width)
}

// Estimate returns the key's frequency estimate: the minimum counter across
// rows, which never undercounts the true frequency. 0 on nil.
func (c *CountMin) Estimate(key uint64) int64 {
	if c == nil {
		return 0
	}
	var est int64 = -1
	for i := range c.rows {
		v := c.rows[i][c.slot(i, key)]
		if est < 0 || v < est {
			est = v
		}
	}
	if est < 0 {
		est = 0
	}
	return est
}

// Merge adds o's counters into c element-wise — the exact union sketch.
// It reports false (and does nothing) when the dimensions differ.
func (c *CountMin) Merge(o *CountMin) bool {
	if c == nil || o == nil {
		return c != nil || o == nil
	}
	if c.width != o.width || c.depth != o.depth {
		return false
	}
	for i := range c.rows {
		row, orow := c.rows[i], o.rows[i]
		for j := range row {
			row[j] += orow[j]
		}
	}
	c.n += o.n
	return true
}

// Reset zeroes every counter for reuse (per-segment worker sketches).
func (c *CountMin) Reset() {
	if c == nil {
		return
	}
	c.n = 0
	for i := range c.rows {
		clear(c.rows[i])
	}
}
