// Command tool is an errdrop-rule fixture: unchecked Close/Flush in cmd/
// must be flagged; checked or explicitly discarded errors pass. panic() is
// allowed in cmd/ binaries.
package main

import (
	"bufio"
	"log"
	"os"
)

func main() {
	f, err := os.Create("out.bin")
	if err != nil {
		panic(err) // ok: cmd/ is exempt from panicfree
	}
	w := bufio.NewWriter(f)

	w.Flush() // want errdrop
	f.Close() // want errdrop

	defer f.Close() // want errdrop

	if err := w.Flush(); err != nil { // ok: checked
		log.Fatal(err)
	}
	_ = f.Close() // ok: explicit discard

	defer func() {
		_ = f.Close() // ok: explicit discard inside deferred closure
	}()

	g, err := os.Open("in.bin")
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore errdrop fixture demonstrating the escape hatch
	defer g.Close()
}
