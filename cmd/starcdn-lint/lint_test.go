package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostics file")

// TestGoldenDiagnostics runs the whole rule suite over the fixture tree
// under testdata/src and compares every finding against the golden file.
// The fixtures exercise each rule firing, each rule's clean counterpart,
// the //lint:ignore escape hatch (waived sites must NOT appear below), and
// the malformed-directive diagnostic.
func TestGoldenDiagnostics(t *testing.T) {
	root := filepath.Join("testdata", "src")
	diags, err := lintTree(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "diagnostics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch (run `go test ./cmd/starcdn-lint -update` after auditing)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEachRuleFires guards against a rule silently going dead: every rule,
// and the malformed-directive check, must fire at least once on fixtures.
func TestEachRuleFires(t *testing.T) {
	root := filepath.Join("testdata", "src")
	diags, err := lintTree(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, d := range diags {
		seen[d.Rule]++
	}
	for _, rule := range []string{
		"simtime", "globalrand", "maporder", "panicfree", "errdrop",
		"atomicmix", "deadline", "printf", "metricname", "deadexport", "deadfield", "directive",
	} {
		if seen[rule] == 0 {
			t.Errorf("rule %s produced no findings on fixtures", rule)
		}
	}
}

// TestInterproceduralTaint pins the taint analysis behaviour the goldens
// alone cannot express: findings outside the simulation packages must carry
// the call chain from an entry point, and the same wall-clock call in an
// unreachable function must draw no finding.
func TestInterproceduralTaint(t *testing.T) {
	root := filepath.Join("testdata", "src")
	diags, err := lintTree(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var simutilTime, simutilRand, statsTime bool
	for _, d := range diags {
		switch {
		case d.Pos.Filename == "simutil/simutil.go" && d.Rule == "simtime":
			simutilTime = true
			if !strings.Contains(d.Message, "sim.Run") || !strings.Contains(d.Message, "simutil.StepCost") {
				t.Errorf("simutil simtime finding lacks the call chain: %s", d.Message)
			}
		case d.Pos.Filename == "simutil/simutil.go" && d.Rule == "globalrand":
			simutilRand = true
			if !strings.Contains(d.Message, "simutil.jitter") {
				t.Errorf("simutil globalrand finding lacks the call chain: %s", d.Message)
			}
		case d.Pos.Filename == "internal/stats/lib.go" && d.Rule == "simtime":
			statsTime = true
			if !strings.Contains(d.Message, "sim.Profile") || !strings.Contains(d.Message, "stats.TimedMean") {
				t.Errorf("stats simtime finding lacks the call chain: %s", d.Message)
			}
		}
		// Unreached() holds the same time.Now call but is dead from the
		// simulation packages; any finding on it is a false positive.
		if d.Pos.Filename == "simutil/simutil.go" && d.Pos.Line >= 28 {
			t.Errorf("unreachable function flagged by taint: %s", d)
		}
	}
	if !simutilTime || !simutilRand || !statsTime {
		t.Errorf("missing interprocedural findings: simutil simtime=%v simutil globalrand=%v stats simtime=%v",
			simutilTime, simutilRand, statsTime)
	}
}

// TestWaiverAudit runs the -waivers audit over the fixture tree: every
// directive must be listed with its rule(s) and reason, the misattached
// directive in internal/directives and the deadexport waiver on an export
// that has gained a caller must be reported stale, and the two
// inert/malformed directives must count as problems.
func TestWaiverAudit(t *testing.T) {
	root := filepath.Join("testdata", "src")
	res, err := runLint(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	problems := auditWaivers(res, &buf)
	out := buf.String()

	// 5 problems: three stale waivers (the misattached globalrand directive
	// in internal/directives, the deadexport waiver on exports.Revived, the
	// deadfield waiver on fields.Config.Retries), one missing-reason
	// directive (internal/replayer/conn.go), one block-comment directive
	// (internal/directives/directives.go).
	if problems != 5 {
		t.Errorf("auditWaivers problems = %d, want 5\n%s", problems, out)
	}
	for _, want := range []string{
		"internal/directives/directives.go:23: STALE waiver for globalrand",
		"internal/exports/exports.go:51: STALE waiver for deadexport",
		"internal/fields/fields.go:13: STALE waiver for deadfield",
		// the comma-rule directive lists both rules, sorted, and is live
		// for both (no stale line may name it).
		"internal/directives/directives.go:14: errdrop,globalrand: fixture: one directive waiving two rules on one line",
		"malformed //lint:ignore",
		"lint:ignore inside a block comment has no effect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q\n%s", want, out)
		}
	}
	// Live waivers must not be reported stale.
	for _, live := range []string{"deadline", "atomicmix", "errdrop", "simtime", "panicfree", "printf", "maporder"} {
		if strings.Contains(out, "STALE waiver for "+live) {
			t.Errorf("live %s waiver reported stale\n%s", live, out)
		}
	}
	if strings.Contains(out, "exports.go:45: STALE") {
		t.Errorf("live deadexport waiver on exports.Legacy reported stale\n%s", out)
	}
	if strings.Contains(out, "fields.go:11: STALE") {
		t.Errorf("live deadfield waiver on fields.Config.Trace reported stale\n%s", out)
	}
}

// TestWantMarkersMatch cross-checks the golden approach with the in-fixture
// `// want <rule>` markers: every marker line must have a finding of that
// rule on the same line, and every finding must sit on a marked line. This
// keeps fixtures self-documenting.
func TestWantMarkersMatch(t *testing.T) {
	root := filepath.Join("testdata", "src")
	diags, err := lintTree(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		file string
		line int
		rule string
	}
	found := make(map[key]bool)
	for _, d := range diags {
		if d.Rule == "directive" {
			continue // malformed directives are not marked inline
		}
		found[key{d.Pos.Filename, d.Pos.Line, d.Rule}] = true
	}
	wanted := make(map[key]bool)
	err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			// A marker names one or more space-separated rules; a line can
			// legitimately draw findings from several rules at once.
			for _, rule := range strings.Fields(line[idx+len("// want "):]) {
				wanted[key{rel, i + 1, rule}] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range wanted {
		if !found[k] {
			t.Errorf("%s:%d: marked `// want %s` but no finding", k.file, k.line, k.rule)
		}
	}
	for k := range found {
		if !wanted[k] {
			t.Errorf("%s:%d: unmarked %s finding (add `// want %s` or fix the fixture)", k.file, k.line, k.rule, k.rule)
		}
	}
}

// TestDirectiveEdgeCases pins parseIgnores behaviour on a synthetic file:
// line binding (the directive's own line and the one below, nothing else),
// comma-separated rule lists, the missing-reason report position, and the
// inert block-comment report position.
func TestDirectiveEdgeCases(t *testing.T) {
	src := `package p

//lint:ignore alpha,beta shared reason
var a int

//lint:ignore gamma
var b int

/*
lint:ignore delta buried
*/
var c int

var d int //lint:ignore epsilon same-line reason
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	byLine, all, malformed := parseIgnores(fset, file)

	if len(all) != 2 {
		t.Fatalf("parsed %d well-formed directives, want 2", len(all))
	}
	multi := byLine[3]
	if multi == nil || !multi.rules["alpha"] || !multi.rules["beta"] || multi.reason != "shared reason" {
		t.Errorf("comma-rule directive misparsed: %+v", multi)
	}
	if byLine[4] != multi {
		t.Error("directive does not bind to the line below it")
	}
	if byLine[5] != nil {
		t.Error("directive binds two lines below; it must only cover its own line and the next")
	}
	same := byLine[14]
	if same == nil || !same.rules["epsilon"] || same.reason != "same-line reason" {
		t.Errorf("same-line directive misparsed: %+v", same)
	}

	if len(malformed) != 2 {
		t.Fatalf("got %d malformed/inert reports, want 2: %v", len(malformed), malformed)
	}
	byMsg := make(map[int]string)
	for _, d := range malformed {
		byMsg[d.Pos.Line] = d.Message
	}
	if msg, ok := byMsg[6]; !ok || !strings.Contains(msg, "malformed //lint:ignore") {
		t.Errorf("missing-reason directive not reported at its own line 6: %v", byMsg)
	}
	if msg, ok := byMsg[10]; !ok || !strings.Contains(msg, "block comment") {
		t.Errorf("block-comment directive not reported at the lint:ignore line 10: %v", byMsg)
	}
}

// TestSelfClean runs the linter over its own module tree and requires zero
// findings: the repo must stay lint-clean, and the ignore directives in
// real code must parse.
func TestSelfClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	diags, err := lintTree(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// injectedDefects reintroduces, as added files in a copy of the real module,
// one defect per rule (DESIGN.md §7's "injection test" column). Each file
// carries `// want <rule>` markers in the fixture style; the rule named is
// the only one that reports that line, so dropping any rule from
// allRules()/allTreeRules() leaves a marker unmatched.
var injectedDefects = map[string]string{
	"internal/sim/zz_injected.go": `package sim

import (
	"time"

	"starcdn/internal/core"
)

func injectedNow() time.Time { return time.Now() } // want simtime

// injectedStep is the taint entry: core.InjectedDraw is reachable from it.
func injectedStep() int { return core.InjectedDraw() }
`,
	// globalrand polices all of internal/ directly, so taint's own catch is
	// the wall-clock read: internal/core is outside simtime's packages.
	"internal/core/zz_injected.go": `package core

import (
	"math/rand"
	"time"
)

func InjectedDraw() int {
	if time.Now().IsZero() { // want taint
		panic("injected") // want panicfree
	}
	return rand.Intn(10) // want globalrand
}
`,
	"internal/experiments/zz_injected.go": `package experiments

func injectedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want maporder
	}
	return keys
}
`,
	"internal/replayer/zz_injected.go": `package replayer

import (
	"bufio"
	"encoding/json"
	"net"
)

func injectedSave(w *bufio.Writer, x any) {
	enc := json.NewEncoder(w)
	enc.Encode(x) // want errdrop
	w.Flush()     // want errdrop
}

func injectedRead(conn net.Conn) (int, error) {
	buf := make([]byte, 1)
	return conn.Read(buf) // want deadline
}
`,
	"internal/obs/zz_injected.go": `package obs

import "sync/atomic"

func injectedMetric(r *Registry) *Counter {
	return r.Counter("starcdn_warp_events_total") // want metricname
}

type injectedCounter struct{ n int64 }

func (c *injectedCounter) inc() { atomic.AddInt64(&c.n, 1) }

func (c *injectedCounter) get() int64 { return c.n } // want atomicmix
`,
	"internal/sched/zz_injected.go": `package sched

import "fmt"

func injectedTrace() { fmt.Println("epoch") } // want printf
`,
	"internal/geo/zz_injected.go": `package geo

func InjectedBearing(a, b Point) float64 { return b.LonDeg - a.LonDeg } // want deadexport
`,
	"internal/cache/zz_injected.go": `package cache

type injectedTally struct{ hits int } // want deadfield

func injectedCount(t *injectedTally) { t.hits++ }
`,
}

// copyModule copies what the loader reads of the module at root into dst:
// go.mod, the root package, internal/, cmd/ and benchmark/ (non-test Go files
// only, no testdata). benchmark/ is its own module, but the loader reads it
// as a package of this one, and deadexport counts its references.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			top := strings.Split(filepath.ToSlash(rel), "/")[0]
			if d.Name() == "testdata" || (rel != "." && top != "internal" && top != "cmd" && top != "benchmark") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInjectedDefectsCaught is the rule-for-rules gate: a rule stays in the
// suite only while a reintroduced defect makes it fire. One lint run over a
// copy of the real module plus injectedDefects must report exactly the
// marked lines — every finding sits in an injected file, so the copy itself
// is clean — and every rule in allRules()/allTreeRules() must own a marker.
func TestInjectedDefectsCaught(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	copyModule(t, root, dst)

	var want []string
	owned := make(map[string]bool)
	for rel, src := range injectedDefects {
		if err := os.WriteFile(filepath.Join(dst, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(src, "\n") {
			_, rule, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			owned[rule] = true
			if rule == "taint" {
				rule = "simtime" // taint reports under the determinism rule it extends
			}
			want = append(want, fmt.Sprintf("%s:%d: %s", rel, i+1, rule))
		}
	}
	var rules []string
	for _, r := range allRules() {
		rules = append(rules, r.Name())
	}
	for _, r := range allTreeRules() {
		rules = append(rules, r.Name())
	}
	for _, name := range rules {
		if !owned[name] {
			t.Errorf("rule %s has no injected defect; cite one in injectedDefects or delete the rule", name)
		}
	}

	diags, err := lintTree(dst, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Rule))
		if d.Pos.Filename == "internal/core/zz_injected.go" && d.Rule == "simtime" &&
			!strings.Contains(d.Message, "sim.injectedStep → core.InjectedDraw") {
			t.Errorf("taint finding lacks the injected call chain: %s", d.Message)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("injected defects and findings differ\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRunWaivers runs the command as check.sh does, from inside the module:
// -waivers prints the waiver ledger and passes on a tree without stale
// waivers, and without it a clean package prints nothing.
func TestRunWaivers(t *testing.T) {
	var ledger strings.Builder
	if err := run([]string{"-waivers", "./internal/replayer/..."}, &ledger); err != nil {
		t.Fatalf("-waivers: %v\n%s", err, ledger.String())
	}
	for _, want := range []string{
		"internal/replayer/server.go:184: deadline: ",
		" waiver(s), 0 problem(s)\n",
	} {
		if !strings.Contains(ledger.String(), want) {
			t.Errorf("-waivers ledger lacks %q:\n%s", want, ledger.String())
		}
	}
	var plain strings.Builder
	if err := run([]string{"./internal/replayer/..."}, &plain); err != nil || plain.Len() != 0 {
		t.Errorf("lint of a clean package: %v\n%s", err, plain.String())
	}
}
