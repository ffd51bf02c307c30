package cache

// sieveCache implements the SIEVE eviction algorithm (Zhang et al.,
// NSDI 2024): a FIFO queue with a "visited" bit per entry and a hand pointer
// that sweeps from tail (oldest) towards head. On eviction, the hand skips
// visited entries (clearing their bit) and evicts the first unvisited entry.
// Unlike LRU, hits never move entries, so hot objects survive in place.
type sieveCache struct {
	capacity int64
	used     int64
	items    map[ObjectID]*sieveNode
	head     *sieveNode // newest
	tail     *sieveNode // oldest
	hand     *sieveNode // eviction scan position; nil means start at tail
}

type sieveNode struct {
	id         ObjectID
	size       int64
	visited    bool
	prev, next *sieveNode // prev = newer, next = older
}

func newSieve(capacity int64) *sieveCache {
	return &sieveCache{capacity: capacity, items: make(map[ObjectID]*sieveNode)}
}

func (c *sieveCache) Name() string     { return string(SIEVE) }
func (c *sieveCache) Len() int         { return len(c.items) }
func (c *sieveCache) UsedBytes() int64 { return c.used }
func (c *sieveCache) Capacity() int64  { return c.capacity }

func (c *sieveCache) Contains(id ObjectID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *sieveCache) SizeOf(id ObjectID) (int64, bool) {
	n, ok := c.items[id]
	if !ok {
		return 0, false
	}
	return n.size, true
}

func (c *sieveCache) Get(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	n.visited = true
	return true
}

func (c *sieveCache) Admit(id ObjectID, size int64) error {
	if err := checkSize(size, c.capacity); err != nil {
		return err
	}
	if n, ok := c.items[id]; ok {
		c.used += size - n.size
		n.size = size
		n.visited = true
		c.evictUntilFits()
		return nil
	}
	// Canonical SIEVE evicts before inserting so the fresh (unvisited)
	// object cannot be its own victim.
	for c.used+size > c.capacity && len(c.items) > 0 {
		v := c.findVictim()
		if v == nil {
			break
		}
		c.unlink(v)
		delete(c.items, v.id)
		c.used -= v.size
	}
	n := &sieveNode{id: id, size: size}
	c.items[id] = n
	// Insert at head (newest).
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
	c.used += size
	return nil
}

func (c *sieveCache) Remove(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.items, id)
	c.used -= n.size
	return true
}

func (c *sieveCache) evictUntilFits() {
	for c.used > c.capacity && len(c.items) > 0 {
		v := c.findVictim()
		if v == nil {
			return
		}
		c.unlink(v)
		delete(c.items, v.id)
		c.used -= v.size
	}
}

// findVictim advances the hand from its current position (or the tail) toward
// the head, clearing visited bits, until it finds an unvisited entry. After a
// full sweep every bit has been cleared, so a second pass always succeeds.
func (c *sieveCache) findVictim() *sieveNode {
	h := c.hand
	if h == nil {
		h = c.tail
	}
	// Each step either returns or clears one visited bit, and nothing sets
	// bits during the scan, so at most 2*len(items) steps are needed.
	for steps := 2*len(c.items) + 2; steps > 0; steps-- {
		if h == nil {
			h = c.tail // wrapped past head: restart from the oldest entry
			continue
		}
		if !h.visited {
			c.hand = h.prev // continue scan from the next-newer entry
			return h
		}
		h.visited = false
		h = h.prev
	}
	return nil
}

// unlink removes n from the queue, fixing the hand if it pointed at n.
func (c *sieveCache) unlink(n *sieveNode) {
	if c.hand == n {
		c.hand = n.prev
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
