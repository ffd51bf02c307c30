// Package replayer is the distributed counterpart of the in-process
// simulator: each satellite's cache runs behind its own TCP endpoint on the
// loopback interface and ISL fetches become real network round trips,
// mirroring the paper's multi-process cache replayer ("spawns a process for
// each satellite that uses TCP to mimic ISLs", §5.1).
//
// The wire protocol is a fixed-size binary frame per request:
//
//	request:  op(1) | object(8, big endian) | size(8, big endian)
//	response: status(1) | reserved(8) | reserved(8)
//
// Ops: OpGet (lookup + touch), OpContains (peek), OpAdmit (insert), the
// replayed request's OpFetch (owner: Get, then admit on a miss) and OpProbe
// (relay neighbour: Contains, then touch on a hit), and OpTraceContext, which
// carries a sampled request's distributed-trace context: the 128-bit trace ID
// in its two operand fields, then a fixed 9-byte tail — parent span ID (8, big
// endian) | flags (1, bit 0 = sampled). It elicits no response; the server
// attaches the context to the next request frame on the connection. Every
// request frame gets one response, in order, so frames pipeline: both ends
// buffer, and the server flushes when it has no complete frame left to read.
//
// There is one protocol and nothing to negotiate: every server is started by
// NewServerOpts in the process, and from the build, of the client that dials
// it.
package replayer

import (
	"encoding/binary"
	"fmt"
	"io"

	"starcdn/internal/obs"
)

// Op identifies a cache operation on the wire.
type Op uint8

// Wire operations. The byte values are fixed; the gaps are retired ops.
const (
	OpGet          Op = 1
	OpContains     Op = 2
	OpAdmit        Op = 3
	OpTraceContext Op = 6 // trace context for the next request frame, plus a 9-byte tail
	OpFetch        Op = 7 // OpGet, then OpAdmit on a miss
	OpProbe        Op = 8 // OpContains, then OpGet on a hit
)

// Status is a response code.
type Status uint8

// Wire statuses. The byte values are fixed; 4 is a retired status.
const (
	StatusMiss Status = iota
	StatusHit
	StatusOK
	StatusError
)

const frameSize = 17

// message is the decoded form of both requests and responses.
type message struct {
	op Op // request op, or Status re-encoded for responses
	a  uint64
	b  uint64
}

// appendFrame marshals one frame onto buf.
func appendFrame(buf []byte, first uint8, a, b uint64) []byte {
	buf = append(buf, first)
	buf = binary.BigEndian.AppendUint64(buf, a)
	return binary.BigEndian.AppendUint64(buf, b)
}

// writeFrameBuf marshals one frame into the caller-owned scratch buffer and
// writes it. Threading the buffer from the caller keeps the per-frame hot
// paths allocation-free: a stack array declared here would escape through the
// io.Writer interface and cost one heap allocation per frame, whereas the
// server's per-handler scratch is allocated once and reused for every frame on
// the connection.
func writeFrameBuf(w io.Writer, buf *[frameSize]byte, first uint8, a, b uint64) error {
	_, err := w.Write(appendFrame(buf[:0], first, a, b))
	return err
}

// readFrameBuf reads one frame through the caller-owned scratch buffer.
func readFrameBuf(r io.Reader, buf *[frameSize]byte) (message, error) {
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return message{}, err
	}
	return message{
		op: Op(buf[0]),
		a:  binary.BigEndian.Uint64(buf[1:9]),
		b:  binary.BigEndian.Uint64(buf[9:17]),
	}, nil
}

// writeResponse sends a response frame, reserved fields zero, through the
// caller's scratch buffer.
func writeResponse(w io.Writer, buf *[frameSize]byte, st Status) error {
	return writeFrameBuf(w, buf, uint8(st), 0, 0)
}

// readResponse reads and validates a response frame through the caller's
// scratch buffer.
func readResponse(r io.Reader, buf *[frameSize]byte) (Status, error) {
	m, err := readFrameBuf(r, buf)
	if err != nil {
		return StatusError, err
	}
	st := Status(m.op)
	if st > StatusError {
		return StatusError, fmt.Errorf("replayer: bad status byte %d", m.op)
	}
	return st, nil
}

// traceTailSize is the fixed tail following an OpTraceContext
// frame: parent span ID (8) plus a flags byte.
const traceTailSize = 9

// traceSampledFlag marks a propagated context as sampled.
const traceSampledFlag = 0x01

// appendTraceContext marshals an OpTraceContext frame onto buf: one standard
// frame carrying the 128-bit trace ID, then the 9-byte parent/flags tail.
func appendTraceContext(buf []byte, sc obs.SpanContext) []byte {
	buf = appendFrame(buf, uint8(OpTraceContext), sc.TraceHi, sc.TraceLo)
	buf = binary.BigEndian.AppendUint64(buf, sc.Parent)
	var flags byte
	if sc.Sampled {
		flags = traceSampledFlag
	}
	return append(buf, flags)
}

// readTraceTail completes an OpTraceContext frame (whose leading 17 bytes the
// caller already decoded into the trace ID) by reading the parent/flags tail.
func readTraceTail(r io.Reader, traceHi, traceLo uint64) (obs.SpanContext, error) {
	var tail [traceTailSize]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return obs.SpanContext{}, err
	}
	return obs.SpanContext{
		TraceHi: traceHi,
		TraceLo: traceLo,
		Parent:  binary.BigEndian.Uint64(tail[0:8]),
		Sampled: tail[8]&traceSampledFlag != 0,
	}, nil
}
