// Package sketch implements deterministic streaming summaries: Space-Saving
// top-K and a DDSketch-style relative-error quantile sketch — the
// constant-memory telemetry needed to answer "which objects are hot on which
// satellites" at 10⁸-request scale without materialising per-object state.
//
// Two properties are the package contract, and every structure here is
// designed around them:
//
//   - Deterministic: the same update stream produces byte-identical
//     summaries. Ties (eviction victims, exemplar replacement) break on
//     total orders — (count, key) for top-K entries, (request index, trace
//     ID) for exemplars — never on map iteration order or wall-clock state.
//
//   - Bounded: memory is fixed by construction (k entries, a capped number
//     of occupied buckets in one window over the value range), independent
//     of stream length or key cardinality.
//
// Sketches carry optional trace exemplars: the sampled trace ID of a
// request that contributed to a top-K entry or quantile bucket, linking a
// hot object or a slow p99 straight to its assembled distributed trace.
// Exemplar replacement keeps the largest request index (freshest sample).
//
// The structures are NOT internally synchronized — none of them holds a
// mutex. Their one caller keeps each behind its own lock (the obs registry
// instruments: obs.TopK.mu, obs.Sketch.mu), so an update costs at most one
// lock.
package sketch

// Exemplar links a summary cell (a top-K entry, a quantile bucket) to one
// sampled request's distributed trace. The zero value means "no exemplar".
type Exemplar struct {
	// TraceID is the sampled request's 128-bit trace ID in hex, as minted
	// by obs.Tracer — the key `starcdn-trace -assemble` stitches on.
	TraceID string `json:"trace"`
	// Req is the global request index the exemplar was sampled at.
	Req int64 `json:"req"`
	// Value is the observation that carried the exemplar (latency in ms
	// for quantile sketches, the increment for top-K updates).
	Value float64 `json:"value"`
}

// Valid reports whether the exemplar carries a trace.
func (e Exemplar) Valid() bool { return e.TraceID != "" }

// better reports whether e should replace old. The rule — largest request
// index wins, trace ID breaking ties — is a total order over valid
// exemplars, so the exemplar a cell keeps does not depend on update order.
func (e Exemplar) better(old Exemplar) bool {
	if !e.Valid() {
		return false
	}
	if !old.Valid() {
		return true
	}
	if e.Req != old.Req {
		return e.Req > old.Req
	}
	return e.TraceID > old.TraceID
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// that places Space-Saving keys in its index table. The same mixer derives
// trace IDs in the obs package, but the two uses never feed each other.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
