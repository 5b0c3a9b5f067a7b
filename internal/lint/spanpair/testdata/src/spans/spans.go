// Package spans is the spanpair fixture: a miniature tracer with the same
// Kind vocabulary as internal/obs, exercising paired, unpaired, delegated,
// and literal-kind emissions.
package spans

// Kind mirrors the internal/obs span vocabulary.
type Kind string

const (
	KindFailure  Kind = "failure"
	KindRecovery Kind = "recovery"
	KindRestart  Kind = "restart"
	KindStage    Kind = "stage"
)

type Tracer struct{}

func (Tracer) Event(kind Kind, name string) {}

func pairedSameFunc(tr Tracer) {
	tr.Event(KindFailure, "worker died")
	tr.Event(KindRecovery, "respawned")
}

func pairedViaRestart(tr Tracer) {
	tr.Event(KindFailure, "stage lost")
	tr.Event(KindRestart, "from scratch")
}

func pairedViaCallee(tr Tracer) {
	tr.Event(KindFailure, "partition failed")
	recover1(tr)
}

func recover1(tr Tracer) {
	tr.Event(KindRecovery, "partition rebuilt")
}

// pairedViaDirective reports failures that a dedicated handler resolves.
func pairedViaDirective(tr Tracer) {
	//lint:spanpair recover1
	tr.Event(KindFailure, "handled elsewhere")
}

func unpaired(tr Tracer) {
	tr.Event(KindFailure, "nobody recovers") // want `failure span in unpaired is never resolved`
}

func badDirectiveUnknown(tr Tracer) {
	//lint:spanpair noSuchHandler // want `not a function in this package`
	tr.Event(KindFailure, "ghost handler")
}

func badDirectiveNoResolve(tr Tracer) {
	//lint:spanpair onlyStage // want `never emits a recovery or restart span`
	tr.Event(KindFailure, "handler emits nothing useful")
}

func onlyStage(tr Tracer) {
	tr.Event(KindStage, "scan")
}

func literalKind(tr Tracer) {
	tr.Event("stage", "scan")       // want `span kind is a string literal`
	tr.Event(Kind("stage"), "scan") // want `span kind is a string literal`
}

func suppressedLiteral(tr Tracer) {
	//lint:ignore spanpair fixture exercises suppression
	tr.Event("stage", "scan")
}

// Recorder mirrors an execution recorder: Failure opens a failure episode
// on its caller's behalf, Recovery and Restart close one.
type Recorder struct{ tr Tracer }

// Failure is not reported itself: each call to it is checked instead.
func (r *Recorder) Failure(name string) { r.tr.Event(KindFailure, name) }

func (r *Recorder) Recovery(name string) (end func()) {
	return func() { r.tr.Event(KindRecovery, name) }
}

func (r *Recorder) Restart(name string) { r.tr.Event(KindRestart, name) }

func recorderPairedByRecovery(r *Recorder) {
	r.Failure("worker died")
	end := r.Recovery("partition")
	end()
}

func recorderPairedByRestart(r *Recorder) {
	r.Failure("stage lost")
	r.Restart("query")
}

func recorderUnpaired(r *Recorder) {
	r.Failure("nobody recovers") // want `failure span in recorderUnpaired is never resolved`
}

// Tracker is not a recorder: its failure method must resolve its own
// emission, and calls to it open nothing.
type Tracker struct{ tr Tracer }

func (k Tracker) Failure(name string) {
	k.tr.Event(KindFailure, name) // want `failure span in Failure is never resolved`
}

func trackerCall(k Tracker) { k.Failure("not an episode here") }
