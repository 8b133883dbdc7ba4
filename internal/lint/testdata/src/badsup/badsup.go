// Package badsup exercises the lint pseudo-analyzer: malformed
// suppression directives are findings themselves, and a directive that
// fails to parse suppresses nothing.
package badsup

import "errors"

func fail() error { return errors.New("x") }

// Reasonless ignores are rejected.
func Reasonless() {
	//lint:ignore errwrap
	_ = fail()
}

// Unknown analyzer names are rejected.
func Unknown() {
	//lint:ignore nosuchanalyzer the name is a typo
	_ = fail()
}

// Typoed directive verbs are rejected.
func Typo() {
	//lint:ignroe errwrap the verb is a typo
	_ = fail()
}

// Retired directive verbs are rejected too: the stage contract moved
// into Go function signatures, the phase, aliasing and shape contracts
// are stated by error returns, tests and runtime validators, the
// precision contract by the float32-path parity tests and the frame
// contract by the geom.Voxel/VoxelPoint types, so a leftover comment
// must not pass as if something still checked it.
//
//lint:stage name=leftover inputs=a outputs=b pure
//lint:phase requires=assembled provides=bc-applied
//lint:noalias x,y
//lint:shape len(x)==len(y)
//lint:precision storage=x accum=y
//lint:coordspace conversion
func Retired(x, y []float64) {}
