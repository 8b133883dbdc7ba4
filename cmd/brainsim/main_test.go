package main

import (
	"strings"
	"testing"
)

// phantomRun is the command line `brainsim -size 20 -cell 2 -ranks 2`
// on the default synthetic case.
func phantomRun() cliOptions {
	return cliOptions{size: 20, shift: 6, seed: 1, cellSize: 2, ranks: 2, logFormat: "text"}
}

// TestRunPhantom drives the whole command on a small synthetic case:
// the default run and the -bcc and -hetero variants succeed.
func TestRunPhantom(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*cliOptions)
	}{
		{"default", func(*cliOptions) {}},
		{"bcc", func(o *cliOptions) { o.useBCC = true }},
		{"hetero", func(o *cliOptions) { o.hetero = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := phantomRun()
			c.set(&o)
			if err := run(o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRejectsInvalidConfig: -cell 0 -ranks 0 fails with the config
// error, naming both fields.
func TestRunRejectsInvalidConfig(t *testing.T) {
	o := phantomRun()
	o.cellSize, o.ranks = 0, 0
	err := run(o)
	if err == nil {
		t.Fatal("ran with -cell 0 -ranks 0")
	}
	for _, want := range []string{"core: invalid config", "MeshCellSize", "Ranks"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
