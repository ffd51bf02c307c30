package cache

// fifoCache evicts in strict insertion order; hits do not change position.
type fifoCache struct {
	capacity int64
	used     int64
	items    map[ObjectID]*fifoNode
	head     *fifoNode // newest
	tail     *fifoNode // oldest
}

type fifoNode struct {
	id         ObjectID
	size       int64
	prev, next *fifoNode
}

func newFIFO(capacity int64) *fifoCache {
	return &fifoCache{capacity: capacity, items: make(map[ObjectID]*fifoNode)}
}

func (c *fifoCache) Name() string     { return string(FIFO) }
func (c *fifoCache) Len() int         { return len(c.items) }
func (c *fifoCache) UsedBytes() int64 { return c.used }
func (c *fifoCache) Capacity() int64  { return c.capacity }

func (c *fifoCache) Contains(id ObjectID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *fifoCache) SizeOf(id ObjectID) (int64, bool) {
	n, ok := c.items[id]
	if !ok {
		return 0, false
	}
	return n.size, true
}

func (c *fifoCache) Get(id ObjectID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *fifoCache) Admit(id ObjectID, size int64) error {
	if err := checkSize(size, c.capacity); err != nil {
		return err
	}
	if n, ok := c.items[id]; ok {
		c.used += size - n.size
		n.size = size
		c.evict()
		return nil
	}
	n := &fifoNode{id: id, size: size}
	c.items[id] = n
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
	c.used += size
	c.evict()
	return nil
}

func (c *fifoCache) Remove(id ObjectID) bool {
	n, ok := c.items[id]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.items, id)
	c.used -= n.size
	return true
}

func (c *fifoCache) evict() {
	for c.used > c.capacity && c.tail != nil {
		v := c.tail
		c.unlink(v)
		delete(c.items, v.id)
		c.used -= v.size
	}
}

func (c *fifoCache) unlink(n *fifoNode) {
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
