package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCache is a naive reference model of one eviction policy: a slice in
// policy order (index 0 is what Recent lists first, the last index is the
// next victim of LRU, LFU and FIFO), linear scans, and no free lists, maps or
// intrusive pointers. It is written to be obviously right rather than fast,
// so a disagreement with the real policy is a bug in the policy.
type refCache struct {
	kind     Kind
	capacity int64
	used     int64
	order    []refEntry
	tick     int64 // LFU: stamps an entry each time it enters a frequency
	// SIEVE's hand names the entry the next scan starts from; with handSet
	// false it starts at the tail, the oldest entry.
	hand    ObjectID
	handSet bool
}

type refEntry struct {
	id      ObjectID
	size    int64
	freq    int64 // LFU
	entered int64 // LFU: tick at which the entry reached freq
	visited bool  // SIEVE
}

func (m *refCache) find(id ObjectID) int {
	for i, e := range m.order {
		if e.id == id {
			return i
		}
	}
	return -1
}

// touch is what a hit does: LRU moves the entry to the front, LFU raises its
// frequency (it then ranks first among its new peers), SIEVE marks it
// visited, and FIFO leaves it where it is.
func (m *refCache) touch(i int) {
	switch m.kind {
	case LRU:
		e := m.order[i]
		m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, e)
	case LFU:
		m.tick++
		m.order[i].freq++
		m.order[i].entered = m.tick
		m.sortLFU()
	case SIEVE:
		m.order[i].visited = true
	}
}

// sortLFU orders by frequency, hottest first, and within a frequency by
// most recent entry into it, so the tail is the least frequently and, among
// those, least recently promoted entry.
func (m *refCache) sortLFU() {
	sort.Slice(m.order, func(a, b int) bool {
		if m.order[a].freq != m.order[b].freq {
			return m.order[a].freq > m.order[b].freq
		}
		return m.order[a].entered > m.order[b].entered
	})
}

// drop removes the entry at i. A SIEVE hand on it moves to the next newer
// entry, or back to "start at the tail" when i was the newest.
func (m *refCache) drop(i int) {
	if m.kind == SIEVE && m.handSet && m.hand == m.order[i].id {
		if i == 0 {
			m.handSet = false
		} else {
			m.hand = m.order[i-1].id
		}
	}
	m.used -= m.order[i].size
	m.order = slices.Delete(m.order, i, i+1)
}

// victim returns the index of the next entry to evict. SIEVE walks from the
// hand (or the tail) towards the head, wrapping to the tail, clearing visited
// bits until it meets an unvisited entry; the hand stops on that entry's
// newer neighbour.
func (m *refCache) victim() int {
	if m.kind != SIEVE {
		return len(m.order) - 1
	}
	i := len(m.order) - 1
	if m.handSet {
		i = m.find(m.hand)
	}
	for {
		if i < 0 {
			i = len(m.order) - 1
		}
		if !m.order[i].visited {
			m.handSet = i > 0
			if i > 0 {
				m.hand = m.order[i-1].id
			}
			return i
		}
		m.order[i].visited = false
		i--
	}
}

// evictUntil evicts until extra more bytes fit.
func (m *refCache) evictUntil(extra int64) {
	for m.used+extra > m.capacity && len(m.order) > 0 {
		m.drop(m.victim())
	}
}

func (m *refCache) Get(id ObjectID) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.touch(i)
	return true
}

// Admit re-sizes and touches a present object (FIFO keeps its position), or
// inserts a new one at the front. SIEVE evicts before inserting, so a new
// object is never its own victim; the others evict after, from the tail.
func (m *refCache) Admit(id ObjectID, size int64) error {
	if size <= 0 {
		return errInvalidSize
	}
	if size > m.capacity {
		return ErrTooLarge
	}
	if i := m.find(id); i >= 0 {
		m.used += size - m.order[i].size
		m.order[i].size = size
		m.touch(i)
		m.evictUntil(0)
		return nil
	}
	if m.kind == SIEVE {
		m.evictUntil(size)
	}
	m.tick++
	m.order = slices.Insert(m.order, 0, refEntry{id: id, size: size, freq: 1, entered: m.tick})
	m.used += size
	if m.kind == LFU {
		m.sortLFU()
	}
	m.evictUntil(0)
	return nil
}

func (m *refCache) Contains(id ObjectID) bool { return m.find(id) >= 0 }

func (m *refCache) SizeOf(id ObjectID) (int64, bool) {
	if i := m.find(id); i >= 0 {
		return m.order[i].size, true
	}
	return 0, false
}

func (m *refCache) recent() []ObjectID {
	out := make([]ObjectID, len(m.order))
	for i, e := range m.order {
		out[i] = e.id
	}
	return out
}

// opResult is everything one cache call returns.
type opResult struct {
	ok   bool
	size int64
	err  error
}

// drawSize picks an Admit size: mostly small enough that several objects are
// resident at once, sometimes up to the whole capacity, and now and then too
// large or not positive.
func drawSize(rng *rand.Rand, capacity int64) int64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return -rng.Int63n(2) // 0 or -1
	case r == 1:
		return capacity + 1 + rng.Int63n(capacity)
	case r < 5:
		return 1 + rng.Int63n(capacity)
	default:
		return 1 + rng.Int63n(max(1, capacity/4))
	}
}

// drawSmallSize keeps hundreds of objects resident: mostly 1 to 16 bytes,
// and rarely up to the whole capacity (evicting much of the cache at once),
// too large, or not positive.
func drawSmallSize(rng *rand.Rand, capacity int64) int64 {
	switch r := rng.Intn(400); {
	case r == 0:
		return -rng.Int63n(2)
	case r == 1:
		return capacity + 1 + rng.Int63n(capacity)
	case r == 2:
		return 1 + rng.Int63n(capacity)
	default:
		return 1 + rng.Int63n(16)
	}
}

// modelSpace is one ID space of the model check and the caches it drives.
type modelSpace struct {
	ids        []ObjectID
	ops        int
	seeds      int64
	capacities []int64
	size       func(*rand.Rand, int64) int64
}

// modelSpaces are the ID spaces the model check draws from. Over 12 IDs
// objects are re-admitted, resized and evicted often. Over 2,048
// IDs, caches holding hundreds of objects make the index double several
// times from its 16 slots, and bulk evictions delete from long probe runs.
func modelSpaces() []modelSpace {
	return []modelSpace{
		{ids: seqIDs(12), ops: 2000, seeds: 8, capacities: []int64{1, 10, 64, 257}, size: drawSize},
		{ids: append(seqIDs(2048-16), wrapIDs(16)...), ops: 6000, seeds: 2,
			capacities: []int64{1500, 6000}, size: drawSmallSize},
	}
}

func seqIDs(n int) []ObjectID {
	ids := make([]ObjectID, n)
	for i := range ids {
		ids[i] = ObjectID(i)
	}
	return ids
}

// wrapIDs returns n IDs, above any seqIDs, whose home is the last slot of
// every index table up to 4,096 slots: their probe runs wrap around the
// table's end, so deleting one shifts another back across it.
func wrapIDs(n int) []ObjectID {
	var ids []ObjectID
	for id := uint64(1 << 32); len(ids) < n; id++ {
		if id*golden64>>(64-12) == 1<<12-1 {
			ids = append(ids, ObjectID(id))
		}
	}
	return ids
}

// TestPolicyModelCheck drives every policy and its reference model with the
// same seeded random Get/Admit/Contains/SizeOf sequence over each of
// modelSpaces, and after every op requires identical return values, Len,
// used bytes and full policy order (Recent(Len())). Eviction order is thereby
// checked exactly, including SIEVE's hand and visited bits, which show up in
// which object goes next. UsedBytes must also equal the sum of the resident
// sizes and never exceed the capacity. Only eviction deletes, so every
// delete, and every SIEVE hand move, is one a cache in use makes.
func TestPolicyModelCheck(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			for _, space := range modelSpaces() {
				for _, capacity := range space.capacities {
					for seed := int64(1); seed <= space.seeds; seed++ {
						modelCheck(t, kind, space, capacity, seed)
					}
				}
			}
		})
	}
}

// modelCheck runs one seeded sequence of TestPolicyModelCheck.
func modelCheck(t *testing.T, kind Kind, space modelSpace, capacity, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, m := MustNew(kind, capacity), &refCache{kind: kind, capacity: capacity}
	for op := 0; op < space.ops; op++ {
		id := space.ids[rng.Intn(len(space.ids))]
		var call string
		var got, want opResult
		switch r := rng.Intn(10); {
		case r < 3:
			call = fmt.Sprintf("Get(%d)", id)
			got.ok, want.ok = p.Get(id), m.Get(id)
		case r < 8:
			size := space.size(rng, capacity)
			call = fmt.Sprintf("Admit(%d, %d)", id, size)
			got.err, want.err = p.Admit(id, size), m.Admit(id, size)
		case r < 9:
			call = fmt.Sprintf("Contains(%d)", id)
			got.ok, want.ok = p.Contains(id), m.Contains(id)
		default:
			call = fmt.Sprintf("SizeOf(%d)", id)
			got.size, got.ok = p.SizeOf(id)
			want.size, want.ok = m.SizeOf(id)
		}
		where := fmt.Sprintf("%d ids capacity %d seed %d op %d %s", len(space.ids), capacity, seed, op, call)
		if got != want {
			t.Fatalf("%s: returned %+v, model %+v", where, got, want)
		}
		used := storeOf(p).used
		if p.Len() != len(m.order) || used != m.used {
			t.Fatalf("%s: len %d used %d, model len %d used %d",
				where, p.Len(), used, len(m.order), m.used)
		}
		order := p.(Recents).Recent(p.Len())
		if !slices.Equal(order, m.recent()) {
			t.Fatalf("%s: order %v, model %v", where, order, m.recent())
		}
		var sum int64
		for _, resident := range order {
			size, _ := p.SizeOf(resident)
			sum += size
		}
		if sum != used || used > capacity {
			t.Fatalf("%s: used %d, resident sizes sum to %d, capacity %d",
				where, used, sum, capacity)
		}
	}
}
