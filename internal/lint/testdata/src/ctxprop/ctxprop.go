// Package ctxfixture exercises the ctxprop analyzer. The test loads it
// under the import path repro/internal/fem/ctxfixture, which places it
// inside the analyzer's pipeline-package scope.
package ctxfixture

import (
	"context"
	"time"
)

// Refit mints a fresh root context mid-stack.
func Refit(n int) error {
	ctx := context.Background() // want ctxprop "forbidden here: accept and propagate"
	return solveContext(ctx, n)
}

// Evolve defaults a nil context — the accepted guard idiom.
func Evolve(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return solveContext(ctx, n)
}

// Window derives a bounded context from its parameter: the chain of
// custody stays intact through the With* call, so nothing fires.
func Window(ctx context.Context, n int) error {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return solveContext(tctx, n)
}

// Relabel swaps the caller's context for a fresh root under a new
// name: the shadowing assignment is the finding, and the poisoned
// variable does not re-fire at the use below.
func Relabel(ctx context.Context, n int) error {
	bg := context.Background() // want ctxprop "ctx shadowing"
	return solveContext(bg, n)
}

// Blend forwards the wrong context: old is context-typed but has no
// derivation from ctx, so the caller's cancellation stops here.
func Blend(ctx, old context.Context, n int) error {
	return solveContext(old, n) // want ctxprop "dropped ctx"
}

// Reseed passes a fresh root straight into the callee.
func Reseed(ctx context.Context, n int) error {
	return solveContext(context.Background(), n) // want ctxprop "dropped ctx"
}

// Fallback demonstrates an accepted suppression of the mint ban.
func Fallback(n int) error {
	//lint:ignore ctxprop fixture demonstrates an accepted suppression
	ctx := context.Background()
	return solveContext(ctx, n)
}

// Relay hands its context to a callback: the literal's own ctx
// parameter is a fresh chain root inside the literal, so passing it on
// is clean.
func Relay(ctx context.Context, n int) error {
	run := func(ctx context.Context) error {
		return solveContext(ctx, n)
	}
	return run(ctx)
}

func solveContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}
