package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ruleMetricName enforces the registry series naming convention wherever an
// obs.Registry instrument is created. The flight recorder, the SLO engine
// and the obs smoke all address series by name, so a drifting name silently
// orphans every consumer. The contract:
//
//   - every name matches `starcdn_[a-z0-9_]+` (lowercase, namespaced, no
//     trailing underscore)
//   - the component after the prefix names a known subsystem family
//     (starcdn_sim_*, starcdn_slo_*, ...), so new series land in an
//     existing group instead of inventing a private namespace
//   - counters end in `_total` (the Prometheus cumulative convention)
//   - gauges do NOT end in `_total` — a gauge named like a counter lies to
//     rate() queries
//   - histograms and quantile sketches end in a unit suffix (`_ms`, `_us`,
//     `_ns`, `_seconds`, `_bytes`) so quantiles are interpretable, and no
//     series of any kind may end in `_bucket`, `_sum`, or `_count` (reserved
//     for the recorder's histogram fan-out) or `_topk`, `_q`, or `_samples`
//     (reserved for its top-K/sketch fan-out)
//   - top-K summaries must not end in `_total` — they are not counters and
//     lie to rate() queries just like a mis-suffixed gauge
//   - literal label keys passed to L() come from a known bounded-cardinality
//     vocabulary: every key names a value set bounded by design (sources,
//     stages, satellites), never per-object identity. High-cardinality keys
//     belong in the top-K/sketch instruments, whose exposition is bounded by
//     construction; a new bounded key earns its metricLabelKeys entry in the
//     PR that introduces it.
//
// Only string-literal names are checked: a computed name is a deliberate
// choice the reviewer can see at the call site. Receivers are matched by
// type (a pointer to a named type `Registry`), so the rule follows the
// registry through struct fields and function results without caring which
// package it is imported from.
type ruleMetricName struct{}

func (ruleMetricName) Name() string { return "metricname" }

func (ruleMetricName) Applies(relPath string) bool { return true }

// metricFamilies is the subsystem vocabulary: the first component after the
// starcdn_ prefix must be one of these, so every series lands in a known
// group a ?match= query can select. A new subsystem earns its entry here in
// the same PR that introduces its first metric, and leaves with its last.
var metricFamilies = []string{
	"cache", "client", "cluster", "fixture", "go", "phase", "popularity",
	"replay", "server", "sim", "sketch", "slo", "test",
}

// metricGoUnitless are the suffixes the runtime-bridge family may carry
// without a unit: inherently countable quantities sampled from
// runtime/metrics. Everything else under starcdn_go_* needs a unit suffix so
// a reader of the exposition can interpret it.
var metricGoUnitless = []string{"_goroutines", "_cycles"}

// metricFamily extracts the component after the starcdn_ prefix, up to the
// next underscore. Call only on well-formed names.
func metricFamily(name string) string {
	rest := strings.TrimPrefix(name, "starcdn_")
	if i := strings.IndexByte(rest, '_'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// metricUnitSuffixes are the suffixes accepted on histogram names.
var metricUnitSuffixes = []string{"_ms", "_us", "_ns", "_seconds", "_bytes"}

// metricReservedSuffixes collide with the recorder's fan-out series:
// histograms fan into `<name>_bucket{le=...}`, `<name>_sum`, `<name>_count`;
// top-Ks into `<name>_topk{rank=...}` and `<name>_samples`; sketches into
// `<name>_q{q=...}` and `<name>_samples`.
var metricReservedSuffixes = []string{
	"_bucket", "_sum", "_count", "_topk", "_q", "_samples",
}

// metricLabelKeys is the bounded-cardinality label vocabulary: every literal
// key passed to L() must name a value set bounded by design. "sat" is bounded
// by the constellation, "le"/"rank"/"q" by the recorder's fan-out geometry,
// the rest are small enums. Object/bucket identity is deliberately absent —
// per-key series belong in top-K/sketch instruments.
var metricLabelKeys = []string{
	"class", "kind", "le", "path", "pipeline", "q", "rank", "reason", "sat",
	"scheme", "slo", "source", "stage",
}

// wellFormedMetricName reports whether name matches starcdn_[a-z0-9_]+ with
// no trailing underscore.
func wellFormedMetricName(name string) bool {
	const prefix = "starcdn_"
	if !strings.HasPrefix(name, prefix) || len(name) == len(prefix) {
		return false
	}
	if name[len(name)-1] == '_' {
		return false
	}
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}

// registryMethod returns the instrument kind ("Counter", "Gauge",
// "Histogram", "TopK", "Sketch") when call is a method of that name on a
// *Registry (or Registry) receiver.
func registryMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram", "TopK", "Sketch":
	default:
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return "", false
	}
	return sel.Sel.Name, true
}

func (r ruleMetricName) Check(tree *Tree, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, msg string) {
		diags = append(diags, Diagnostic{
			Pos:     pkg.Fset.Position(call.Pos()),
			Rule:    r.Name(),
			Message: msg,
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryMethod(pkg.Info, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := stringLiteral(call.Args[0])
			if !ok {
				return true // computed names are a visible, reviewable choice
			}
			name := lit
			if !wellFormedMetricName(name) {
				flag(call, fmt.Sprintf("metric name %q must match starcdn_[a-z0-9_]+ with no trailing underscore", name))
				return true
			}
			fam := metricFamily(name)
			known := false
			for _, f := range metricFamilies {
				if fam == f {
					known = true
					break
				}
			}
			if !known {
				flag(call, fmt.Sprintf("metric name %q uses unknown family %q; known families are %s (add new subsystems to metricFamilies)",
					name, fam, strings.Join(metricFamilies, ", ")))
				return true
			}
			for _, s := range metricReservedSuffixes {
				if strings.HasSuffix(name, s) {
					flag(call, fmt.Sprintf("metric name %q ends in %s, reserved for the recorder's histogram fan-out", name, s))
					return true
				}
			}
			// Family-specific unit discipline. Phase timers are always
			// seconds-histograms (the profiler's exposition contract);
			// runtime-bridge series carry a unit suffix unless they count an
			// inherently unitless runtime quantity.
			switch fam {
			case "phase":
				if !strings.HasSuffix(name, "_seconds") {
					flag(call, fmt.Sprintf("phase-family series %q must end in _seconds (phase timers are seconds-histograms)", name))
					return true
				}
			case "go":
				unitless := false
				for _, s := range metricGoUnitless {
					if strings.HasSuffix(name, s) {
						unitless = true
						break
					}
				}
				unit := false
				for _, s := range metricUnitSuffixes {
					if strings.HasSuffix(name, s) {
						unit = true
						break
					}
				}
				if !unitless && !unit {
					flag(call, fmt.Sprintf("go-family series %q must end in a unit suffix (%s) or a unitless runtime count (%s)",
						name, strings.Join(metricUnitSuffixes, ", "), strings.Join(metricGoUnitless, ", ")))
					return true
				}
			}
			switch kind {
			case "Counter":
				if !strings.HasSuffix(name, "_total") {
					flag(call, fmt.Sprintf("counter %q must end in _total", name))
				}
			case "Gauge":
				if strings.HasSuffix(name, "_total") {
					flag(call, fmt.Sprintf("gauge %q must not end in _total (reserved for counters)", name))
				}
			case "Histogram", "Sketch":
				unit := false
				for _, s := range metricUnitSuffixes {
					if strings.HasSuffix(name, s) {
						unit = true
						break
					}
				}
				low := strings.ToLower(kind)
				if strings.HasSuffix(name, "_total") {
					flag(call, fmt.Sprintf("%s %q must not end in _total (reserved for counters)", low, name))
				} else if !unit {
					flag(call, fmt.Sprintf("%s %q must end in a unit suffix (%s)", low, name, strings.Join(metricUnitSuffixes, ", ")))
				}
			case "TopK":
				if strings.HasSuffix(name, "_total") {
					flag(call, fmt.Sprintf("top-K %q must not end in _total (reserved for counters)", name))
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 || !isLabelCtor(pkg.Info, call) {
				return true
			}
			key, ok := stringLiteral(call.Args[0])
			if !ok {
				return true // computed keys are a visible call-site decision
			}
			for _, k := range metricLabelKeys {
				if key == k {
					return true
				}
			}
			flag(call, fmt.Sprintf("label key %q is not in the bounded-cardinality vocabulary (%s); high-cardinality dimensions belong in top-K/sketch instruments (add bounded keys to metricLabelKeys)",
				key, strings.Join(metricLabelKeys, ", ")))
			return true
		})
	}
	return diags
}

// isLabelCtor reports whether call is the label constructor: a function
// named L returning a value whose type is named Label. Matching by name and
// result type (not import path) follows the same stub-friendly convention as
// registryMethod.
func isLabelCtor(info *types.Info, call *ast.CallExpr) bool {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	if name != "L" {
		return false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "Label"
}

// stringLiteral unwraps a string literal (possibly parenthesised or a
// concatenation of literals), returning its value.
func stringLiteral(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return stringLiteral(v.X)
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok := stringLiteral(v.X)
		if !ok {
			return "", false
		}
		r, ok := stringLiteral(v.Y)
		if !ok {
			return "", false
		}
		return l + r, true
	}
	return "", false
}
