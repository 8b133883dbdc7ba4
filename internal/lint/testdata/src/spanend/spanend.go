// Package spanfixture exercises the spanend analyzer: every
// obs.StartSpan needs a deferred End in the same function, outside any
// loop.
package spanfixture

import (
	"context"

	"repro/internal/obs"
)

// Leaky opens a span and never ends it.
func Leaky(ctx context.Context) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMSolve) // want spanend "has no matching deferred End"
	_ = span
}

// Discarded drops the span entirely.
func Discarded(ctx context.Context) {
	obs.StartSpan(ctx, obs.SpanFEMSolve) // want spanend "is discarded and can never be ended"
}

// Clean defers its End directly.
func Clean(ctx context.Context) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMSolve)
	defer span.End(nil)
}

// CleanClosure defers End inside a closure so the final error flows in.
func CleanClosure(ctx context.Context) (err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMAssemble)
	defer func() { span.End(err) }()
	return nil
}

// LoopDefer registers the End inside the loop body, so it only runs at
// function exit.
func LoopDefer(ctx context.Context, n int) {
	_, span := obs.StartSpan(ctx, obs.SpanGMRESCycle) // want spanend "sits inside a loop"
	for i := 0; i < n; i++ {
		defer span.End(nil)
	}
}

// LoopClosure wraps each iteration in a closure: the accepted shape for
// per-iteration spans.
func LoopClosure(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		func() {
			_, span := obs.StartSpan(ctx, obs.SpanGMRESCycle)
			defer span.End(nil)
		}()
	}
}

// Suppressed leaks a span under an explicit waiver.
func Suppressed(ctx context.Context) {
	//lint:ignore spanend fixture demonstrates an accepted suppression
	_, span := obs.StartSpan(ctx, obs.SpanKNNBatch)
	_ = span
}
