package spacegen

import "starcdn/internal/cache"

// Entry is one object inside an Algorithm-1 generation cache.
type Entry struct {
	Obj  cache.ObjectID
	Size int64
	Pop  int64 // remaining popularity (requests still owed) at this location
}

// byteList is an ordered list of entries supporting O(log n) insertion at a
// byte offset and O(log n) pop from the front, implemented as a treap with
// subtree byte sums. It realises the "cache C_i" of Algorithm 1: the object
// at the top is the next to be requested, and after a request the object is
// reinserted at its sampled stack distance d, i.e. after roughly d bytes of
// other objects.
type byteList struct {
	root *blNode
	rng  splitmix
}

type blNode struct {
	entry       Entry
	pri         uint64
	left, right *blNode
	bytes       int64 // subtree byte sum
	count       int   // subtree node count
}

// splitmix is a tiny deterministic PRNG for treap priorities.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newByteList(seed uint64) *byteList { return &byteList{rng: splitmix(seed)} }

func (n *blNode) update() {
	n.bytes = n.entry.Size
	n.count = 1
	if n.left != nil {
		n.bytes += n.left.bytes
		n.count += n.left.count
	}
	if n.right != nil {
		n.bytes += n.right.bytes
		n.count += n.right.count
	}
}

// TotalBytes returns the sum of entry sizes.
func (l *byteList) TotalBytes() int64 {
	if l.root == nil {
		return 0
	}
	return l.root.bytes
}

// Len returns the number of entries.
func (l *byteList) Len() int {
	if l.root == nil {
		return 0
	}
	return l.root.count
}

// splitBytes splits t into (a, b) where a holds the maximal prefix whose
// total byte size is <= limit.
func splitBytes(t *blNode, limit int64) (a, b *blNode) {
	if t == nil {
		return nil, nil
	}
	leftBytes := int64(0)
	if t.left != nil {
		leftBytes = t.left.bytes
	}
	if leftBytes+t.entry.Size <= limit {
		// t and its whole left subtree go to a.
		a = t
		aRight, bb := splitBytes(t.right, limit-leftBytes-t.entry.Size)
		t.right = aRight
		t.update()
		return a, bb
	}
	// t goes to b.
	aa, bLeft := splitBytes(t.left, limit)
	t.left = bLeft
	t.update()
	return aa, t
}

func merge(a, b *blNode) *blNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri >= b.pri:
		a.right = merge(a.right, b)
		a.update()
		return a
	default:
		b.left = merge(a, b.left)
		b.update()
		return b
	}
}

// PushBack appends an entry at the end of the list.
func (l *byteList) PushBack(e Entry) {
	n := &blNode{entry: e, pri: l.rng.next()}
	n.update()
	l.root = merge(l.root, n)
}

// PopFront removes and returns the first entry.
func (l *byteList) PopFront() (Entry, bool) {
	if l.root == nil {
		return Entry{}, false
	}
	var popped Entry
	var pop func(t *blNode) *blNode
	pop = func(t *blNode) *blNode {
		if t.left == nil {
			popped = t.entry
			return t.right
		}
		t.left = pop(t.left)
		t.update()
		return t
	}
	l.root = pop(l.root)
	return popped, true
}

// InsertAtBytes inserts e so that the total size of entries preceding it is
// at most d bytes (Algorithm 1, line 28). d past the end appends.
func (l *byteList) InsertAtBytes(e Entry, d int64) {
	n := &blNode{entry: e, pri: l.rng.next()}
	n.update()
	a, b := splitBytes(l.root, d)
	l.root = merge(merge(a, n), b)
}
