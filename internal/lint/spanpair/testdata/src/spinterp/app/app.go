// Package app exercises spanpair across a package boundary: the resolving
// emission lives in package handler and reaches here via function summaries.
package app

import (
	"ftpde/internal/lint/spanpair/testdata/src/spinterp/handler"
	"ftpde/internal/lint/spanpair/testdata/src/spinterp/trace"
)

// pairedCrossPackage would be a false positive without summaries: the
// recovery span is emitted in another package.
func pairedCrossPackage(tr trace.Tracer) {
	tr.Event(trace.KindFailure, "worker died")
	handler.Resolve(tr)
}

// pairedCrossPackageDeep resolves through two cross-package call levels.
func pairedCrossPackageDeep(tr trace.Tracer) {
	tr.Event(trace.KindFailure, "stage lost")
	handler.ResolveDeep(tr)
}

// unpairedCrossPackage calls a helper that never resolves.
func unpairedCrossPackage(tr trace.Tracer) {
	tr.Event(trace.KindFailure, "nobody recovers") // want `failure span in unpairedCrossPackage is never resolved`
	handler.Nothing(tr)
}

// pairedRecorderCrossPackage opens and closes an episode through a recorder
// declared in another package.
func pairedRecorderCrossPackage(r trace.Recorder) {
	r.Failure("worker died")
	r.Recovery("partition")
}

// unpairedRecorderCrossPackage opens an episode nobody closes.
func unpairedRecorderCrossPackage(r trace.Recorder) {
	r.Failure("nobody recovers") // want `failure span in unpairedRecorderCrossPackage is never resolved`
}
