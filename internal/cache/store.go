package cache

// nilIdx ends a list and marks an absent node or bucket.
const nilIdx = -1

// minTableBits sizes the smallest index table: 1<<4 slots hold four
// residents before the first doubling.
const minTableBits = 4

// golden64 is 2^64/φ, the multiplier of Fibonacci hashing.
const golden64 = 0x9E3779B97F4A7C15

// store is the one implementation behind all four policies. Residents live
// in an arena of nodes linked, by int32 index, into one list in policy order:
// the head is what Recent lists first and the tail is the next victim of LRU,
// LFU and FIFO. An open-addressed table maps an ObjectID to its node. Nothing
// in a store holds a pointer, and once the arena, the table and LFU's bucket
// records have grown to the cache's working size, no operation allocates.
//
// The policies differ only in where a touch (a Get hit, or a re-admission)
// moves a node and which node eviction takes:
//
//   - LRU moves a touched node to the head and evicts the tail.
//   - FIFO never moves a node and evicts the tail.
//   - LFU keeps the list in runs of equal frequency, hottest run first. A
//     touch moves the node to the front of the next higher frequency's run
//     (the classic O(1) LFU), so the tail is the least frequently and, among
//     those, least recently promoted node.
//   - SIEVE (Zhang et al., NSDI 2024) never moves a node: a touch sets its
//     visited bit, and eviction sweeps a hand from the tail towards the head,
//     wrapping, clearing visited bits until it meets an unvisited node. It
//     evicts before inserting, so a new object is never its own victim.
//
// Not synchronized: callers that share a cache hold their own lock.
type store struct {
	kind     Kind
	capacity int64
	used     int64
	len      int
	nodes    []node
	free     int32 // recycled nodes, chained on next
	head     int32
	tail     int32
	// tab is the index: linear probing over a power-of-two table from an
	// ID's home slot, holding node index + 1 (0 is empty). Deletion shifts
	// the rest of the probe run back, so there are no tombstones, and the
	// table doubles before it is a quarter full, so a probe is short.
	tab   []int32
	mask  uint64
	shift uint // 64 - log2(len(tab))
	// hand is the SIEVE node the next eviction sweep examines first; nilIdx
	// starts the sweep at the tail.
	hand int32
	// buckets are LFU's frequency records, one per run; freeBucket chains
	// the recycled ones on head.
	buckets    []bucket
	freeBucket int32
}

// node is one resident object.
type node struct {
	id         ObjectID
	size       int64
	prev, next int32 // prev is towards the head
	// aux is the node's LFU bucket, or its SIEVE visited bit (0 or 1).
	aux int32
}

// bucket is one LFU frequency and the first node of its run. The run ends
// where the next node belongs to another bucket, and the bucket before and
// after it in frequency order are those of the nodes either side of the run.
type bucket struct {
	freq int64
	head int32
}

func newStore(kind Kind, capacity int64) *store {
	return &store{kind: kind, capacity: capacity, free: nilIdx, head: nilIdx, tail: nilIdx,
		tab: make([]int32, 1<<minTableBits), mask: 1<<minTableBits - 1, shift: 64 - minTableBits,
		hand: nilIdx, freeBucket: nilIdx}
}

func (c *store) Name() string { return string(c.kind) }
func (c *store) Len() int     { return c.len }

func (c *store) Contains(id ObjectID) bool { return c.find(id) != nilIdx }

func (c *store) SizeOf(id ObjectID) (int64, bool) {
	i := c.find(id)
	if i == nilIdx {
		return 0, false
	}
	return c.nodes[i].size, true
}

func (c *store) Get(id ObjectID) bool {
	i := c.find(id)
	if i == nilIdx {
		return false
	}
	c.touch(i)
	return true
}

func (c *store) Admit(id ObjectID, size int64) error {
	if size <= 0 {
		return errInvalidSize
	}
	if size > c.capacity {
		return ErrTooLarge
	}
	if i := c.find(id); i != nilIdx {
		c.used += size - c.nodes[i].size
		c.nodes[i].size = size
		c.touch(i)
		c.evictUntil(0)
		return nil
	}
	if c.kind == SIEVE {
		c.evictUntil(size)
	}
	i := c.alloc(id, size)
	c.index(id, i)
	if c.kind == LFU {
		c.enterFirstRun(i)
	} else {
		c.linkBefore(i, c.head)
	}
	c.used += size
	c.len++
	c.evictUntil(0)
	return nil
}

// Recents is an optional interface for caches that can enumerate their most
// recently touched objects; the proactive-prefetch baseline (§3.3 of the
// paper) uses it to pull a neighbour's hot set.
type Recents interface {
	// Recent appends up to n object IDs in most-recently-used-first order.
	Recent(n int) []ObjectID
}

// Recent implements Recents by listing the head of the policy order: LRU's
// most recently used, LFU's hottest and, for FIFO and SIEVE (whose visited
// bits define no total order), the newest insertions.
func (c *store) Recent(n int) []ObjectID {
	out := make([]ObjectID, 0, min(n, c.len))
	for i := c.head; i != nilIdx && len(out) < n; i = c.nodes[i].next {
		out = append(out, c.nodes[i].id)
	}
	return out
}

// touch applies a hit to node i.
func (c *store) touch(i int32) {
	switch c.kind {
	case LRU:
		if c.head != i {
			c.unlink(i)
			c.linkBefore(i, c.head)
		}
	case LFU:
		c.bump(i)
	case SIEVE:
		c.nodes[i].aux = 1
	}
}

// evictUntil evicts victims until extra more bytes fit.
func (c *store) evictUntil(extra int64) {
	for c.used+extra > c.capacity && c.len > 0 {
		v := c.tail
		if c.kind == SIEVE {
			v = c.sweep()
		}
		c.drop(v)
	}
}

// sweep moves the SIEVE hand to the first unvisited node, clearing the
// visited bits it passes, and leaves the hand on that node's newer neighbour.
// Nothing sets a bit during the sweep, so it ends within two passes.
func (c *store) sweep() int32 {
	h := c.hand
	for {
		if h == nilIdx {
			h = c.tail
		}
		n := &c.nodes[h]
		if n.aux == 0 {
			c.hand = n.prev
			return h
		}
		n.aux = 0
		h = n.prev
	}
}

// drop removes resident i from the index, the list and the byte count, and
// recycles its node.
func (c *store) drop(i int32) {
	n := &c.nodes[i]
	c.unindex(n.id, i)
	if c.kind == LFU {
		c.leaveRun(i)
	}
	c.unlink(i)
	c.used -= n.size
	c.len--
	n.next = c.free
	c.free = i
}

// alloc takes a node from the free list, or grows the arena while the cache
// is still filling.
func (c *store) alloc(id ObjectID, size int64) int32 {
	i := c.free
	if i == nilIdx {
		c.nodes = append(c.nodes, node{})
		i = int32(len(c.nodes) - 1)
	} else {
		c.free = c.nodes[i].next
	}
	c.nodes[i] = node{id: id, size: size}
	return i
}

// linkBefore links detached node i into the list in front of at, or at the
// tail when at is nilIdx.
func (c *store) linkBefore(i, at int32) {
	n := &c.nodes[i]
	n.next = at
	if at == nilIdx {
		n.prev = c.tail
		c.tail = i
	} else {
		n.prev = c.nodes[at].prev
		c.nodes[at].prev = i
	}
	if n.prev == nilIdx {
		c.head = i
	} else {
		c.nodes[n.prev].next = i
	}
}

// unlink detaches node i from the list. The SIEVE hand is never on i: the
// only SIEVE node unlinked is sweep's victim, and sweep moved the hand off it.
func (c *store) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev == nilIdx {
		c.head = n.next
	} else {
		c.nodes[n.prev].next = n.next
	}
	if n.next == nilIdx {
		c.tail = n.prev
	} else {
		c.nodes[n.next].prev = n.prev
	}
}

// enterFirstRun links a new LFU node at the front of the frequency-1 run,
// which is the coldest and so ends at the tail.
func (c *store) enterFirstRun(i int32) {
	var b int32
	if c.tail != nilIdx && c.buckets[c.nodes[c.tail].aux].freq == 1 {
		b = c.nodes[c.tail].aux
		c.linkBefore(i, c.buckets[b].head)
	} else {
		b = c.newBucket(1)
		c.linkBefore(i, nilIdx)
	}
	c.buckets[b].head = i
	c.nodes[i].aux = b
}

// bump moves LFU node i to the front of the next higher frequency's run.
// That run, when there is one, ends just before the head of i's own run.
func (c *store) bump(i int32) {
	n := &c.nodes[i]
	b := n.aux
	freq := c.buckets[b].freq + 1
	h := c.buckets[b].head
	if p := c.nodes[h].prev; p != nilIdx && c.buckets[c.nodes[p].aux].freq == freq {
		up := c.nodes[p].aux
		c.leaveRun(i)
		c.unlink(i)
		c.linkBefore(i, c.buckets[up].head)
		c.buckets[up].head = i
		n.aux = up
		return
	}
	if h == i && (n.next == nilIdx || c.nodes[n.next].aux != b) {
		c.buckets[b].freq = freq // i is its run: the run just changes frequency
		return
	}
	// i starts a new run between its old run and the next hotter one.
	c.leaveRun(i)
	c.unlink(i)
	c.linkBefore(i, c.buckets[b].head)
	up := c.newBucket(freq)
	c.buckets[up].head = i
	n.aux = up
}

// leaveRun takes LFU node i, still linked, out of its run, recycling the
// bucket if the run empties.
func (c *store) leaveRun(i int32) {
	n := &c.nodes[i]
	b := n.aux
	if c.buckets[b].head != i {
		return
	}
	if n.next != nilIdx && c.nodes[n.next].aux == b {
		c.buckets[b].head = n.next
		return
	}
	c.buckets[b].head = c.freeBucket
	c.freeBucket = b
}

// newBucket takes a recycled bucket record, or grows the records, for a new
// run of frequency freq.
func (c *store) newBucket(freq int64) int32 {
	b := c.freeBucket
	if b == nilIdx {
		c.buckets = append(c.buckets, bucket{})
		b = int32(len(c.buckets) - 1)
	} else {
		c.freeBucket = c.buckets[b].head
	}
	c.buckets[b] = bucket{freq: freq, head: nilIdx}
	return b
}

// find returns the node holding id, or nilIdx.
func (c *store) find(id ObjectID) int32 {
	for s := c.home(id); ; s = (s + 1) & c.mask {
		e := c.tab[s]
		if e == 0 {
			return nilIdx
		}
		if c.nodes[e-1].id == id {
			return e - 1
		}
	}
}

// index enters id, held in the new node i, doubling the table first if it
// would reach a quarter full.
func (c *store) index(id ObjectID, i int32) {
	if 4*(c.len+1) > len(c.tab) {
		c.tab = make([]int32, 2*len(c.tab))
		c.mask = uint64(len(c.tab) - 1)
		c.shift--
		for j := c.head; j != nilIdx; j = c.nodes[j].next {
			c.place(c.nodes[j].id, j)
		}
	}
	c.place(id, i)
}

// place puts node i in the first empty slot of id's probe run.
func (c *store) place(id ObjectID, i int32) {
	s := c.home(id)
	for c.tab[s] != 0 {
		s = (s + 1) & c.mask
	}
	c.tab[s] = i + 1
}

// unindex removes id, held in node i, by backward shift: every later member
// of the probe run that the hole would cut off from its home slot moves into
// the hole, which moves on to the slot it left.
func (c *store) unindex(id ObjectID, i int32) {
	s := c.home(id)
	for c.tab[s] != i+1 {
		s = (s + 1) & c.mask
	}
	for j := s; ; {
		j = (j + 1) & c.mask
		e := c.tab[j]
		if e == 0 {
			c.tab[s] = 0
			return
		}
		// The entry at j stays put iff its home lies cyclically in (s, j].
		home := c.home(c.nodes[e-1].id)
		if (j-home)&c.mask < (j-s)&c.mask {
			continue
		}
		c.tab[s] = e
		s = j
	}
}

// home is id's first probe slot: Fibonacci hashing, the top bits of
// id × 2^64/φ, which spreads runs of consecutive or strided IDs evenly.
func (c *store) home(id ObjectID) uint64 { return uint64(id) * golden64 >> c.shift }
