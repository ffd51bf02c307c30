package main

// report is the deadfield fixture in cmd/: the rule scans commands as well
// as internal/, so a field only ever written is flagged here too.
type report struct {
	path    string
	written int // want deadfield
}

func (r *report) name() string {
	r.written++
	return r.path
}
