// Package wirecluster is a hwgc-lint fixture: a miniature protocol package
// with sentinel, flight-kind, span-name, and outcome contract violations.
// The harness points WireConfig at it (and at wirereport for the span
// classifier).
package wirecluster

import "errors"

var (
	ErrAlpha = errors.New("alpha")
	ErrBeta  = errors.New("beta")  // want `ErrBeta is not mapped in sentinelOf`
	ErrGamma = errors.New("gamma") // want `ErrGamma is not mapped in codeOf`
)

type code string

// codeOf maps an error to its wire code.
func codeOf(err error) code {
	switch {
	case errors.Is(err, ErrAlpha):
		return "alpha"
	case errors.Is(err, ErrBeta):
		return "beta"
	}
	return "internal"
}

// sentinelOf maps a wire code back to its sentinel.
func sentinelOf(c code) error {
	switch c {
	case "alpha":
		return ErrAlpha
	case "gamma":
		return ErrGamma
	}
	return nil
}

// FlightEvent is one control-plane trace record.
type FlightEvent struct {
	// Kind names the step: "submit", "commit", "grant", "ghost", or "retired".
	Kind string // want `flight event kind "ghost" is documented` `flight event kind "retired" is documented`
}

func emit(rec func(FlightEvent)) {
	rec(FlightEvent{Kind: "submit"})
	rec(FlightEvent{Kind: "commit"})
	rec(FlightEvent{Kind: "rogue"}) // want `flight event kind "rogue" is emitted but missing`
}

// transition records one lifecycle state change; its kind argument is the
// emitted kind.
func transition(job *int, kind, detail string) { _, _, _ = job, kind, detail }

// note has transition's shape but records nothing, so its kinds are not
// emitted.
func note(job *int, kind string) { _, _ = job, kind }

func lifecycle() {
	transition(nil, "grant", "")
	transition(nil, "stray", "") // want `flight event kind "stray" is emitted but missing`
	note(nil, "retired")
}

// workerSpan mints a worker-side wall span with the given name.
func workerSpan(name string) { _ = name }

// deriveSpans derives a job's spans; an attempt closes as "commit" or
// "expired".
func deriveSpans() {
	span := func(role, name string) { _, _ = role, name }
	attempt := func(outcome string) { _ = outcome }
	span("q", "queue.wait")
	span("m", "mystery") // want `span name "mystery" has no case`
	attempt("commit")
	attempt("vanished") // want `attempt outcome "vanished" is not in deriveSpans's documented catalogue`
}

// elsewhere binds closures with the producers' names outside deriveSpans:
// they are not anchors.
func elsewhere() {
	span := func(role, name string) { _, _ = role, name }
	attempt := func(outcome string) { _ = outcome }
	span("x", "unrelated")
	attempt("unlisted")
}

func drive() {
	workerSpan("attempt")
	workerSpan("phantom") // want `span name "phantom" has no case`
}
