// Package trace is the shared tracer for the cross-package spanpair fixture.
package trace

// Kind mirrors the internal/obs span vocabulary.
type Kind string

const (
	KindFailure  Kind = "failure"
	KindRecovery Kind = "recovery"
	KindStage    Kind = "stage"
)

// Tracer mirrors the internal/obs tracer surface.
type Tracer struct{}

// Event records one span.
func (Tracer) Event(kind Kind, name string) {}

// Recorder mirrors an execution recorder one package away from its callers.
type Recorder struct{ Tr Tracer }

// Failure opens a failure episode on the caller's behalf.
func (r Recorder) Failure(name string) { r.Tr.Event(KindFailure, name) }

// Recovery closes one.
func (r Recorder) Recovery(name string) { r.Tr.Event(KindRecovery, name) }
