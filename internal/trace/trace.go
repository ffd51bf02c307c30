// Package trace defines the request-trace model shared by the workload
// generator, SpaceGEN, and the simulator: a time-ordered sequence of content
// requests, each tagged with the geographic location it originates from.
// It also provides a compact binary encoding and a human-readable text
// encoding for persisting traces.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"starcdn/internal/cache"
)

// Request is one content access.
type Request struct {
	TimeSec  float64        // seconds since trace start
	Object   cache.ObjectID // globally unique object identifier
	Size     int64          // object size in bytes
	Location int            // index into the trace's location table
}

// Trace is a set of requests plus its location table. Requests are kept in
// time order.
type Trace struct {
	Locations []string
	Requests  []Request
}

// Append adds a request; callers should keep time monotone or call Sort.
func (t *Trace) Append(r Request) { t.Requests = append(t.Requests, r) }

// Sort orders requests by time, stably, so same-time requests keep their
// generation order. It is an LSD radix sort on timeKey, 16 bits a pass, in
// O(n) time with one n-request scratch buffer; a pass whose digit is the
// same for every request is skipped. The result is in t.Requests' own
// backing array, so callers holding the slice see it sorted.
func (t *Trace) Sort() {
	src := t.Requests
	if len(src) < 2 {
		return
	}
	// One histogram per digit, all from one read of the keys. At 2 MiB it
	// is over the compiler's stack limit, so it is the second allocation.
	count := new([64 / radixBits][1 << radixBits]int)
	for i := range src {
		k := timeKey(src[i].TimeSec)
		for p := range count {
			count[p][uint16(k>>(p*radixBits))]++
		}
	}
	var dst []Request
	for p := range count {
		c, shift := &count[p], p*radixBits
		if c[uint16(timeKey(src[0].TimeSec)>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		if dst == nil {
			dst = make([]Request, len(src))
		}
		for i := range src {
			d := uint16(timeKey(src[i].TimeSec) >> shift)
			dst[c[d]] = src[i]
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &t.Requests[0] {
		copy(t.Requests, src)
	}
}

// radixBits is the digit width of Sort's passes.
const radixBits = 16

// timeKey maps a time to a uint64 whose unsigned order is the order of <:
// a non-negative value gets its sign bit set, a negative one all its bits
// flipped. −0 shares +0's key, since < holds between neither.
func timeKey(x float64) uint64 {
	b := math.Float64bits(x)
	if x == 0 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// DurationSec returns the span between the first and last request.
func (t *Trace) DurationSec() float64 {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].TimeSec - t.Requests[0].TimeSec
}

// TotalBytes returns the sum of all request sizes (traffic volume).
func (t *Trace) TotalBytes() int64 {
	var n int64
	for i := range t.Requests {
		n += t.Requests[i].Size
	}
	return n
}

// UniqueObjects returns the number of distinct objects and their total size
// (the content footprint).
func (t *Trace) UniqueObjects() (count int, bytes int64) {
	seen := make(map[cache.ObjectID]int64, len(t.Requests)/4+1)
	for i := range t.Requests {
		seen[t.Requests[i].Object] = t.Requests[i].Size
	}
	for _, s := range seen {
		bytes += s
	}
	return len(seen), bytes
}

// SplitByLocation partitions the trace into per-location sub-traces that
// share the location table.
func (t *Trace) SplitByLocation() []*Trace {
	out := make([]*Trace, len(t.Locations))
	for i := range out {
		out[i] = &Trace{Locations: t.Locations}
	}
	for _, r := range t.Requests {
		if r.Location >= 0 && r.Location < len(out) {
			out[r.Location].Append(r)
		}
	}
	return out
}

// Validate checks structural invariants: finite, non-negative, monotone
// time, positive sizes, and in-range location indices.
func (t *Trace) Validate() error {
	last := -1.0
	for i, r := range t.Requests {
		if math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 0) {
			return fmt.Errorf("trace: request %d has non-finite time %v", i, r.TimeSec)
		}
		if r.TimeSec < 0 {
			return fmt.Errorf("trace: request %d has negative time %v", i, r.TimeSec)
		}
		if r.TimeSec < last {
			return fmt.Errorf("trace: request %d out of order (%v < %v)", i, r.TimeSec, last)
		}
		last = r.TimeSec
		if r.Size <= 0 {
			return fmt.Errorf("trace: request %d has non-positive size %d", i, r.Size)
		}
		if r.Location < 0 || r.Location >= len(t.Locations) {
			return fmt.Errorf("trace: request %d has location %d outside table of %d",
				i, r.Location, len(t.Locations))
		}
	}
	return nil
}

// Binary format: magic, version, location table, varint-packed records with
// delta-encoded timestamps (microsecond resolution).

var magic = [4]byte{'S', 'C', 'T', 'R'}

const formatVersion = 1

var (
	// ErrBadMagic indicates the stream is not a StarCDN trace.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrBadVersion indicates an unsupported format version.
	ErrBadVersion = errors.New("trace: unsupported format version")
)

// Write encodes the trace to w in the binary format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(formatVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Locations))); err != nil {
		return err
	}
	for _, loc := range t.Locations {
		if err := putUvarint(uint64(len(loc))); err != nil {
			return err
		}
		if _, err := bw.WriteString(loc); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(t.Requests))); err != nil {
		return err
	}
	lastUs := uint64(0)
	for i := range t.Requests {
		r := &t.Requests[i]
		us := uint64(r.TimeSec * 1e6)
		if us < lastUs {
			return fmt.Errorf("trace: request %d time not monotone", i)
		}
		if err := putUvarint(us - lastUs); err != nil {
			return err
		}
		lastUs = us
		if err := putUvarint(uint64(r.Object)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Size)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Location)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a binary trace from r.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != formatVersion {
		return nil, ErrBadVersion
	}
	nloc, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxLocations = 1 << 20
	if nloc > maxLocations {
		return nil, fmt.Errorf("trace: implausible location count %d", nloc)
	}
	t := &Trace{Locations: make([]string, nloc)}
	for i := range t.Locations {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("trace: implausible location name length %d", nameLen)
		}
		b := make([]byte, nameLen)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		t.Locations[i] = string(b)
	}
	nreq, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	t.Requests = make([]Request, 0, min64(nreq, 1<<20))
	lastUs := uint64(0)
	for i := uint64(0); i < nreq; i++ {
		dt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		lastUs += dt
		obj, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		loc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		if loc >= nloc {
			return nil, fmt.Errorf("trace: record %d: location %d out of range", i, loc)
		}
		t.Requests = append(t.Requests, Request{
			TimeSec:  float64(lastUs) / 1e6,
			Object:   cache.ObjectID(obj),
			Size:     int64(size),
			Location: int(loc),
		})
	}
	return t, nil
}

// WriteText writes the trace as tab-separated text with a header, one line
// per request: time_sec, object, size, location_name.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# time_sec\tobject\tsize\tlocation"); err != nil {
		return err
	}
	for i := range t.Requests {
		r := &t.Requests[i]
		name := ""
		if r.Location >= 0 && r.Location < len(t.Locations) {
			name = t.Locations[r.Location]
		}
		if _, err := fmt.Fprintf(bw, "%.6f\t%d\t%d\t%s\n", r.TimeSec, r.Object, r.Size, name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
