package spacegen

import (
	"math/rand"
	"testing"

	"starcdn/internal/cache"
)

// entries returns the list's entries in list order.
func entries(l *byteList) []Entry {
	var out []Entry
	var rec func(t *blNode)
	rec = func(t *blNode) {
		if t != nil {
			rec(t.left)
			out = append(out, t.entry)
			rec(t.right)
		}
	}
	rec(l.root)
	return out
}

func TestByteListPushPop(t *testing.T) {
	l := newByteList(1)
	if _, ok := l.PopFront(); ok {
		t.Error("pop from empty list should fail")
	}
	for i := 1; i <= 5; i++ {
		l.PushBack(Entry{Obj: 10, Size: int64(i * 10), Pop: int64(i)})
	}
	if l.Len() != 5 {
		t.Errorf("len = %d", l.Len())
	}
	if l.TotalBytes() != 150 {
		t.Errorf("bytes = %d", l.TotalBytes())
	}
	if e := entries(l)[0]; e.Size != 10 {
		t.Errorf("head = %+v", e)
	}
	for i := 1; i <= 5; i++ {
		e, ok := l.PopFront()
		if !ok || e.Size != int64(i*10) {
			t.Fatalf("pop %d = %+v, ok=%v", i, e, ok)
		}
	}
	if l.Len() != 0 || l.TotalBytes() != 0 {
		t.Errorf("list not empty after drain")
	}
}

func TestInsertAtBytes(t *testing.T) {
	l := newByteList(3)
	for i := 0; i < 4; i++ {
		l.PushBack(Entry{Obj: 100, Size: 100})
	}
	// Insert after 250 bytes: entries sum 100,200,300 — the maximal prefix
	// <= 250 is two entries, so the new entry lands at index 2.
	l.InsertAtBytes(Entry{Obj: 999, Size: 1}, 250)
	es := entries(l)
	if len(es) != 5 {
		t.Fatalf("len = %d", len(es))
	}
	if es[2].Obj != 999 {
		for i, e := range es {
			t.Logf("%d: %+v", i, e)
		}
		t.Fatalf("inserted entry at wrong position")
	}
	// Insert at 0 goes to the front.
	l.InsertAtBytes(Entry{Obj: 888, Size: 1}, 0)
	if e := entries(l)[0]; e.Obj != 888 {
		t.Error("insert at 0 should be the head")
	}
	// Insert beyond the end appends.
	l.InsertAtBytes(Entry{Obj: 777, Size: 1}, 1<<40)
	es = entries(l)
	if es[len(es)-1].Obj != 777 {
		t.Error("insert past end should append")
	}
}

func TestByteListRandomizedAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := newByteList(4)
	var ref []Entry // reference implementation
	insertRef := func(e Entry, d int64) {
		var acc int64
		pos := len(ref)
		for i := range ref {
			if acc+ref[i].Size > d {
				pos = i
				break
			}
			acc += ref[i].Size
		}
		ref = append(ref, Entry{})
		copy(ref[pos+1:], ref[pos:])
		ref[pos] = e
	}
	for op := 0; op < 3000; op++ {
		switch rng.Intn(3) {
		case 0:
			e := Entry{Obj: cache.ObjectID(rng.Intn(50)), Size: int64(1 + rng.Intn(100))}
			l.PushBack(e)
			ref = append(ref, e)
		case 1:
			e := Entry{Obj: cache.ObjectID(rng.Intn(50)), Size: int64(1 + rng.Intn(100))}
			d := int64(rng.Intn(4000))
			l.InsertAtBytes(e, d)
			insertRef(e, d)
		case 2:
			got, ok := l.PopFront()
			if len(ref) == 0 {
				if ok {
					t.Fatal("pop from empty should fail")
				}
				continue
			}
			want := ref[0]
			ref = ref[1:]
			if !ok || got != want {
				t.Fatalf("op %d: pop = %+v, want %+v", op, got, want)
			}
		}
		if l.Len() != len(ref) {
			t.Fatalf("op %d: len %d vs %d", op, l.Len(), len(ref))
		}
		var bytes int64
		for _, e := range ref {
			bytes += e.Size
		}
		if l.TotalBytes() != bytes {
			t.Fatalf("op %d: bytes %d vs %d", op, l.TotalBytes(), bytes)
		}
	}
	// Final order must match exactly.
	es := entries(l)
	for i := range ref {
		if es[i] != ref[i] {
			t.Fatalf("final order differs at %d: %+v vs %+v", i, es[i], ref[i])
		}
	}
}
