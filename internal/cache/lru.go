package cache

// lruCache is a classic byte-capacity LRU built on an intrusive doubly linked
// list. The list head is the most recently used entry; eviction pops the
// tail.
type lruCache struct {
	capacity int64
	used     int64
	items    map[ObjectID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	free     *lruNode // recycled nodes, chained on next
}

type lruNode struct {
	id         ObjectID
	size       int64
	prev, next *lruNode
}

func newLRU(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, items: make(map[ObjectID]*lruNode)}
}

func (c *lruCache) Name() string     { return string(LRU) }
func (c *lruCache) Len() int         { return len(c.items) }
func (c *lruCache) UsedBytes() int64 { return c.used }
func (c *lruCache) Capacity() int64  { return c.capacity }

func (c *lruCache) Contains(id ObjectID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *lruCache) SizeOf(id ObjectID) (int64, bool) {
	n, ok := c.items[id]
	if !ok {
		return 0, false
	}
	return n.size, true
}

func (c *lruCache) Get(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

func (c *lruCache) Admit(id ObjectID, size int64) error {
	if err := checkSize(size, c.capacity); err != nil {
		return err
	}
	if n, ok := c.items[id]; ok {
		c.used += size - n.size
		n.size = size
		c.moveToFront(n)
		c.evictUntilFits()
		return nil
	}
	n := c.newNode(id, size)
	c.items[id] = n
	c.pushFront(n)
	c.used += size
	c.evictUntilFits()
	return nil
}

func (c *lruCache) Remove(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.items, id)
	c.used -= n.size
	c.recycle(n)
	return true
}

func (c *lruCache) evictUntilFits() {
	for c.used > c.capacity && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.items, victim.id)
		c.used -= victim.size
		c.recycle(victim)
	}
}

// newNode takes a recycled node from the free list when one is available, so
// steady-state churn (admit+evict at capacity) allocates nothing. The cold
// &lruNode path only runs while the cache is still filling.
func (c *lruCache) newNode(id ObjectID, size int64) *lruNode {
	if n := c.free; n != nil {
		c.free = n.next
		*n = lruNode{id: id, size: size}
		return n
	}
	return &lruNode{id: id, size: size}
}

// recycle chains a detached node onto the free list for the next Admit.
func (c *lruCache) recycle(n *lruNode) {
	*n = lruNode{next: c.free}
	c.free = n
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
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

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func checkSize(size, capacity int64) error {
	if size <= 0 {
		return errInvalidSize
	}
	if size > capacity {
		return ErrTooLarge
	}
	return nil
}
