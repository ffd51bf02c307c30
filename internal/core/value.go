package core

// ValueClass ranks the kinds of work a satellite performs for one request by
// their value to the end user, from cheapest-to-lose to dearest. Overload
// control (internal/shed) drops classes in this order: speculative relay
// probes go first, then the ISL routing + fetch for remote-owner requests,
// then admission of new sessions, and only under the deepest overload the
// ground fetch behind a cache miss. Cache hits are never shed — serving a hit
// costs less than rejecting it.
//
// The mapping from shed stage to dropped classes lives with the controller
// (shed.Stage.Sheds); this package only defines the value ordering so that
// the simulator, the TCP replayer, and the wire protocol agree on what each
// stage means.
type ValueClass int

// Request value classes, cheapest-to-lose first.
const (
	// ValueRelayProbe is a speculative Contains probe at a same-bucket
	// inter-orbit neighbour (§3.3 relayed fetch). Losing it costs one
	// possible relay hit; the request still gets served from the ground.
	ValueRelayProbe ValueClass = iota
	// ValueRemoteFetch is the ISL routing and serving work for a request
	// whose bucket owner is not its first-contact satellite. Shedding it
	// degrades to the §3.4 direct ground miss — the content still arrives,
	// without consuming ISL capacity or the owner's cache bandwidth.
	ValueRemoteFetch
	// ValueSessionNew is the admission of a session (trace location) not
	// currently being served. Rejecting it turns away new users so the
	// in-flight ones keep their experience.
	ValueSessionNew
	// ValueMissFetch is the ground fetch + cache admission behind a miss at
	// the owner. Shedding it means only cache hits are served.
	ValueMissFetch
	// ValueHit is a cache hit. It is never shed.
	ValueHit
)

// numValueClasses bounds the defined classes for Valid.
const numValueClasses = int(ValueHit) + 1

// valueClassNames are the stable metric-label names.
var valueClassNames = [numValueClasses]string{
	ValueRelayProbe:  "relay-probe",
	ValueRemoteFetch: "remote-fetch",
	ValueSessionNew:  "session-new",
	ValueMissFetch:   "miss-fetch",
	ValueHit:         "hit",
}

// Valid reports whether v is a defined value class.
func (v ValueClass) Valid() bool { return v >= 0 && int(v) < numValueClasses }

// String implements fmt.Stringer with the stable names.
func (v ValueClass) String() string {
	if v.Valid() {
		return valueClassNames[v]
	}
	return "ValueClass(?)"
}
