package replayer

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

// concurrentWindow is how many requests ReplayConcurrent keeps in flight. On
// replay_conc_churn (2 vCPU) throughput climbs to 256 and is flat past it.
const concurrentWindow = 256

// window is the replay loop (DESIGN.md §9, "The replay window"). It plans
// requests in order, serves up to len(slots) at once — each running
// sim.Ladder.Fetch with itself as the fabric — and commits them in order.
// When every request in flight waits on an answer, the last to block flushes
// their frames: one write per address, in request order. Two rules give every
// server the sequential replay's frames in the sequential order:
//
//   - Hold: a request sends to owner, then west, then east. A frame waits for
//     a later flush while an earlier request in flight may still send to its
//     server after its own frame in this flush. The earliest frame always goes.
//   - Drain: everything in flight commits before a failure event, the only
//     point where planning reads earlier outcomes.
type window struct {
	rp         *replay
	slots      []request // request i lives in slots[i%len(slots)]
	head, next int       // requests [head, next) are in flight or waiting to commit
	meter      cache.Meter
	err        error // the first error; after it the window only drains

	mu      sync.Mutex
	running int     // requests in flight not waiting on an answer
	queue   []*call // frames for the next flush
	spare   []*call // the last flush's queue, reused by the next

	// The flusher's own; flushes never overlap.
	sent  []*call  // the flush's frames that go, by address, then request
	pipes []pipe   // sent, one pipe per address
	later []uint32 // by satellite: the flush that holds its frames back
	flush uint32
}

// drive replays the trace through a window width requests wide.
func drive(h *core.HashScheme, cluster *Cluster, users []geo.Point, tr *trace.Trace, opts Options, width int) (cache.Meter, error) {
	rp, err := newReplay(h, cluster, users, tr, opts)
	if err != nil {
		return cache.Meter{}, err
	}
	defer rp.close()
	w := &window{rp: rp, slots: make([]request, width),
		later: make([]uint32, h.Grid().Constellation().NumSlots())}
	var workers sync.WaitGroup
	defer workers.Wait()
	for i := range w.slots {
		r := &w.slots[i]
		r.start, r.done = make(chan struct{}, 1), make(chan struct{}, 1)
		r.w, r.c.ready = w, make(chan struct{}, 1)
		if width > 1 {
			workers.Add(1)
			go w.work(r, &workers)
			defer close(r.start)
		}
	}
	for i := 0; i < len(rp.tr.Requests) && w.err == nil; i++ {
		w.admit(i)
	}
	w.retire(w.next)
	if w.err != nil {
		return w.meter, w.err
	}
	return w.meter, checkMeter(w.meter, len(rp.tr.Requests))
}

// admit plans request i and starts it once the window has room.
func (w *window) admit(i int) {
	rp := w.rp
	t := rp.tr.Requests[i].TimeSec
	if rp.orderPoint(t) {
		w.retire(w.next)
	}
	if w.err == nil {
		w.err = rp.fs.Advance(t)
	}
	if w.err != nil {
		return
	}
	p, err := rp.plan(i)
	if err != nil {
		w.err = err
		return
	}
	if w.retire(i + 1 - len(w.slots)); w.err != nil {
		return
	}
	r := &w.slots[i%len(w.slots)]
	r.planned = p
	w.next++
	w.mu.Lock()
	w.running++
	w.mu.Unlock()
	if len(w.slots) == 1 || !p.route.Contact {
		w.serve(r) // nothing to overlap: one wide, or no frame to send
	} else {
		r.start <- struct{}{}
	}
}

// work is a slot's goroutine: it serves each request started in the slot
// until drive closes r.start.
func (w *window) work(r *request, workers *sync.WaitGroup) {
	defer workers.Done()
	for range r.start {
		w.serve(r)
	}
}

// serve runs a started request.
func (w *window) serve(r *request) {
	w.rp.serve(r)
	w.finish()
	r.done <- struct{}{}
}

// retire commits requests in order up to upTo, waiting for each to finish.
// After an error it only waits.
func (w *window) retire(upTo int) {
	for ; w.head < upTo; w.head++ {
		r := &w.slots[w.head%len(w.slots)]
		<-r.done
		if w.err == nil {
			w.err = w.rp.commit(r, &w.meter)
		}
	}
}

// do queues c's frame for the next flush and returns once it is answered.
// The last request in flight to wait flushes.
func (w *window) do(c *call) {
	w.mu.Lock()
	w.queue = append(w.queue, c)
	if w.running == 1 && w.flushLocked(c) {
		w.mu.Unlock()
		return
	}
	w.running--
	w.mu.Unlock()
	<-c.ready
}

// finish takes a finished request out of the running count, flushing first
// if every other request in flight is waiting.
func (w *window) finish() {
	w.mu.Lock()
	for w.running == 1 && len(w.queue) > 0 {
		w.flushLocked(nil)
	}
	w.running--
	w.mu.Unlock()
}

// flushLocked sends the queued frames the hold rule lets go, one write per
// address, and reports whether self's went. The caller holds w.mu and is the
// only request in flight still running; w.mu is released for the I/O, and
// every other request the flush answers is running again when it returns.
func (w *window) flushLocked(self *call) (answered bool) {
	batch := w.queue
	w.queue = w.spare[:0]
	w.mu.Unlock()
	slices.SortFunc(batch, func(a, b *call) int { return cmp.Compare(a.req, b.req) })
	w.flush++
	w.sent = w.sent[:0]
	for _, c := range batch {
		if c.held = w.later[c.sat] == w.flush; !c.held {
			w.sent = append(w.sent, c)
		}
		for _, sat := range c.later {
			if sat >= 0 {
				w.later[sat] = w.flush
			}
		}
	}
	slices.SortStableFunc(w.sent, func(a, b *call) int { return strings.Compare(a.addr, b.addr) })
	w.pipes = w.pipes[:0]
	for rest := w.sent; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].addr == rest[0].addr {
			n++
		}
		w.pipes = append(w.pipes, pipe{addr: rest[0].addr, calls: rest[:n]})
		rest = rest[n:]
	}
	w.rp.client.exchange(w.pipes)
	w.mu.Lock()
	for _, c := range batch {
		switch {
		case c.held:
			w.queue = append(w.queue, c)
		case c == self:
			answered = true
		default:
			w.running++
			c.ready <- struct{}{}
		}
	}
	w.spare = batch
	return answered
}
