// Package statefile is an errdrop-rule fixture: silently discarded error
// results in internal/ must be flagged, whether the call is a bare
// statement, deferred, or launched as a goroutine. Checked errors, explicit
// `_ =` discards, the fmt print family, never-failing in-memory writers
// (bytes.Buffer, hash.Hash), and waived sites pass. Close is an ordinary
// error-returning call to this rule (cmd/tool and internal/replayer hold
// the Close/Flush-specific sites).
package statefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
)

func badSave(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	enc := json.NewEncoder(f)
	enc.Encode(v)   // want errdrop
	defer f.Sync()  // want errdrop
	go remove(path) // want errdrop
	f.Close()       // want errdrop
}

func remove(path string) error { return os.Remove(path) }

func okHandled(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		_ = f.Close() // ok: explicit discard on the error path is a visible decision
		return err
	}
	return f.Close() // ok: propagated
}

func okExemptions(buf *bytes.Buffer, body []byte) [sha256.Size]byte {
	fmt.Fprintf(buf, "%d bytes\n", len(body)) // ok: fmt print family is exempt by policy
	buf.WriteString("trailer")                // ok: bytes.Buffer documents no errors
	h := sha256.New()
	h.Write(body) // ok: hash.Hash documents Write never returns an error
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func waivedRemove(path string) {
	//lint:ignore errdrop fixture demonstrating the escape hatch
	os.Remove(path)
}
