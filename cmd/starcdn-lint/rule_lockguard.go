package main

// ruleLockGuard is RacerD-style mutex-guard inference over the dataflow
// layer (dataflow.go): nobody annotates which mutex protects which field —
// the code votes. For every struct field the rule collects all access sites
// in the module together with the set of mutexes definitely held at each
// (must-hold lockset, interprocedural entry contexts included). If one
// mutex is held at a strict majority of a field's access sites (and at two
// or more of them), the field is inferred guarded by that mutex, and every
// access outside the lock in internal/ is flagged with its access chain.
//
// Exemptions, in the name of precision:
//   - fields touched through sync/atomic anywhere in the module belong to
//     the atomic discipline; atomicmix polices mixing, lockguard stays out;
//   - fields whose type lives in sync or sync/atomic are synchronization
//     primitives, not guarded data;
//   - accesses through values freshly constructed in the same function
//     (composite literal, new) happen before sharing is possible and do not
//     vote (the constructor exemption);
//   - accesses through by-value receivers, parameters, and struct locals
//     touch private copies and do not vote (the copy exemption);
//   - a field with no write site anywhere in the module is never reported:
//     a race needs a write, and the locks at its guarded read sites are
//     protecting other fields (RacerD's read-read policy);
//   - a helper only ever called with the lock held inherits the guard
//     through its entry context — guarded-in-caller does not flag in the
//     callee.
//   - a mutex declared in another package than the field is never inferred
//     as its guard: it can only be an owner's lock, held through entry
//     contexts, over a type that leaves synchronization to whoever holds it
//     (obs.Sketch.mu over sketch.Quantile) — and such a type is also used
//     single-owner with no lock at all (per-worker shards). A type-based
//     vote cannot tell those instances apart (the owner exemption).
//
// A lock-free access that is genuinely safe (single-threaded phase,
// happens-before established elsewhere) is waived with the rationale:
// //lint:ignore lockguard <why the race cannot happen>.

import (
	"fmt"
	"go/types"
	"strings"
)

type ruleLockGuard struct{}

func (ruleLockGuard) Name() string { return "lockguard" }

func (r ruleLockGuard) CheckTree(tree *Tree) []Diagnostic {
	la := tree.lockAnalysis()

	byField := make(map[*types.Var][]*fieldAccess)
	var fieldOrder []*types.Var
	for _, a := range la.accesses {
		if la.atomicFields[a.field] {
			continue
		}
		if _, seen := byField[a.field]; !seen {
			fieldOrder = append(fieldOrder, a.field)
		}
		byField[a.field] = append(byField[a.field], a)
	}

	var diags []Diagnostic
	for _, field := range fieldOrder {
		accs := byField[field]
		total := len(accs)
		if total < 3 {
			continue // one guarded + one raw site is no majority signal
		}
		// RacerD's report policy: a race needs a write. A field the module
		// never writes (outside constructors and value copies) cannot race no
		// matter how asymmetric the locking looks — the locks at the guarded
		// sites protect *other* fields.
		hasWrite := false
		for _, a := range accs {
			if a.write {
				hasWrite = true
				break
			}
		}
		if !hasWrite {
			continue
		}
		var bestMu *types.Var
		bestCount := 0
		for _, m := range la.guardCandidates(accs) {
			count := 0
			for _, a := range accs {
				if la.guardedBy(a, m) {
					count++
				}
			}
			if count > bestCount {
				bestCount = count
				bestMu = m
			}
		}
		// Strict majority with at least two locked sites infers the guard.
		if bestMu == nil || bestCount < 2 || bestCount*2 <= total {
			continue
		}
		if bestMu.Pkg() != field.Pkg() {
			continue // the owner exemption
		}
		for _, a := range accs {
			if la.guardedBy(a, bestMu) {
				continue
			}
			if !inInternal(a.pkg.RelPath) {
				continue
			}
			verb := "read"
			if a.write {
				verb = "written"
			}
			diags = append(diags, Diagnostic{
				Pos:  a.pkg.Fset.Position(a.sel.Pos()),
				Rule: r.Name(),
				Message: fmt.Sprintf("field (%s).%s is %s-guarded at %d of %d access sites but %s lock-free here (%s in %s); hold %s or waive with the happens-before rationale",
					a.owner, field.Name(), bestMu.Name(), bestCount, total, verb, a.expr, a.fnName, bestMu.Name()),
			})
		}
	}
	return diags
}

// inInternal reports whether a package RelPath is under internal/.
func inInternal(relPath string) bool {
	return relPath == "internal" || strings.HasPrefix(relPath, "internal/")
}
