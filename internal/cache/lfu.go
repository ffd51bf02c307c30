package cache

import "errors"

var errInvalidSize = errors.New("cache: object size must be positive")

// lfuCache is an O(1) least-frequently-used cache using frequency buckets;
// ties within a frequency bucket break by recency (LRU within the bucket),
// the standard "LFU with dynamic aging by recency" variant.
type lfuCache struct {
	capacity int64
	used     int64
	items    map[ObjectID]*lfuNode
	buckets  map[int64]*lfuBucket // frequency -> bucket list
	minFreq  int64
}

type lfuNode struct {
	id         ObjectID
	size       int64
	freq       int64
	prev, next *lfuNode
	bucket     *lfuBucket
}

// lfuBucket is a doubly linked list of nodes sharing a frequency. head is
// most recently touched within the bucket; evictions pop the tail.
type lfuBucket struct {
	freq       int64
	head, tail *lfuNode
	count      int
}

func newLFU(capacity int64) *lfuCache {
	return &lfuCache{
		capacity: capacity,
		items:    make(map[ObjectID]*lfuNode),
		buckets:  make(map[int64]*lfuBucket),
	}
}

func (c *lfuCache) Name() string     { return string(LFU) }
func (c *lfuCache) Len() int         { return len(c.items) }
func (c *lfuCache) UsedBytes() int64 { return c.used }
func (c *lfuCache) Capacity() int64  { return c.capacity }

func (c *lfuCache) Contains(id ObjectID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *lfuCache) SizeOf(id ObjectID) (int64, bool) {
	n, ok := c.items[id]
	if !ok {
		return 0, false
	}
	return n.size, true
}

func (c *lfuCache) Get(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.bump(n)
	return true
}

func (c *lfuCache) Admit(id ObjectID, size int64) error {
	if err := checkSize(size, c.capacity); err != nil {
		return err
	}
	if n, ok := c.items[id]; ok {
		c.used += size - n.size
		n.size = size
		c.bump(n)
		c.evictUntilFits()
		return nil
	}
	n := &lfuNode{id: id, size: size, freq: 1}
	c.items[id] = n
	c.bucketFor(1).pushFront(n)
	c.minFreq = 1
	c.used += size
	c.evictUntilFits()
	return nil
}

func (c *lfuCache) Remove(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.detach(n)
	delete(c.items, id)
	c.used -= n.size
	return true
}

// evictUntilFits evicts least-frequently (then least-recently) used victims
// until the cache fits. A freshly admitted object starts at frequency 1 and
// may itself be the victim if everything else is hotter.
func (c *lfuCache) evictUntilFits() {
	for c.used > c.capacity && len(c.items) > 0 {
		victim := c.victim()
		if victim == nil {
			return
		}
		c.detach(victim)
		delete(c.items, victim.id)
		c.used -= victim.size
	}
}

// victim returns the least-frequently, least-recently used node.
func (c *lfuCache) victim() *lfuNode {
	b := c.buckets[c.minFreq]
	for b == nil || b.count == 0 {
		c.minFreq++
		if c.minFreq > 1<<40 { // defensive: no entries at any frequency
			return nil
		}
		b = c.buckets[c.minFreq]
	}
	return b.tail
}

// bump moves n to the next frequency bucket.
func (c *lfuCache) bump(n *lfuNode) {
	old := n.bucket
	old.remove(n)
	if old.count == 0 && c.minFreq == old.freq {
		c.minFreq = old.freq + 1
	}
	if old.count == 0 {
		delete(c.buckets, old.freq)
	}
	n.freq++
	c.bucketFor(n.freq).pushFront(n)
}

func (c *lfuCache) detach(n *lfuNode) {
	b := n.bucket
	b.remove(n)
	if b.count == 0 {
		delete(c.buckets, b.freq)
		// minFreq will self-heal lazily in victim().
	}
}

func (c *lfuCache) bucketFor(freq int64) *lfuBucket {
	b, ok := c.buckets[freq]
	if !ok {
		b = &lfuBucket{freq: freq}
		c.buckets[freq] = b
	}
	return b
}

func (b *lfuBucket) pushFront(n *lfuNode) {
	n.bucket = b
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
	b.count++
}

func (b *lfuBucket) remove(n *lfuNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next, n.bucket = nil, nil, nil
	b.count--
}
