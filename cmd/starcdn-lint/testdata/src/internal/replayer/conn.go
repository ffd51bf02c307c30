// Package replayer is an errdrop- and deadline-rule fixture for the
// multi-process replayer package, plus a malformed-directive case. The
// deadline cases cover direct Read/Write on a bare conn, the reader/writer
// handoff (passing a conn to a helper that only sees io.Reader), the
// arm-then-use shape that passes, the conn-wrapper exemption, and a waived
// deliberate block.
package replayer

import (
	"io"
	"net"
	"time"
)

type pool struct{ conns map[string]net.Conn }

func (p *pool) drop(addr string) {
	if conn, ok := p.conns[addr]; ok {
		conn.Close() // want errdrop
		delete(p.conns, addr)
	}
}

func (p *pool) closeAll() error {
	var first error
	for addr, conn := range p.conns {
		if err := conn.Close(); err != nil && first == nil { // ok: checked
			first = err
		}
		delete(p.conns, addr)
	}
	return first
}

func (p *pool) handle(conn net.Conn) {
	defer conn.Close() // want errdrop
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil { // want deadline
			return
		}
	}
}

func (p *pool) handleArmed(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	buf := make([]byte, 8)
	_, err := conn.Read(buf) // ok: deadline armed above
	return err
}

func drain(r io.Reader) error {
	_, err := io.Copy(io.Discard, r)
	return err
}

func (p *pool) handoff(conn net.Conn) error {
	return drain(conn) // want deadline
}

func (p *pool) handoffArmed(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return drain(conn) // ok: the arm above covers the handoff
}

func (p *pool) blockForPeer(conn net.Conn) (byte, error) {
	buf := make([]byte, 1)
	//lint:ignore deadline fixture: deliberately blocks until the peer closes the conn
	if _, err := conn.Read(buf); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// loggedConn wraps a net.Conn and itself implements net.Conn; delegating
// methods are exempt from the deadline rule — the obligation sits with
// whoever holds the wrapper.
type loggedConn struct {
	net.Conn
	reads int // want deadfield
}

func (l *loggedConn) Read(p []byte) (int, error) {
	l.reads++
	return l.Conn.Read(p) // ok: conn-wrapper method
}

func (p *pool) fireAndForget(conn net.Conn) {
	go conn.Close() // want errdrop
}

func malformedDirective(conn net.Conn) {
	//lint:ignore errdrop
	_ = conn // the directive above is missing its reason -> want directive
}
