package figures

import (
	"bytes"
	"testing"
)

// TestCSVRoundTrip: WriteCSV's text, which cmd/benchfig -csv writes, is
// a header and one line per row in the order given.
func TestCSVRoundTrip(t *testing.T) {
	rows := []ScalingRow{
		{CPUs: 1, AssembleSec: 31.65, SolveSec: 6.7, TotalSec: 39.85, Iterations: 41, Converged: true},
		{CPUs: 16, AssembleSec: 2.15, SolveSec: 2.1, TotalSec: 5.74, Iterations: 72, Converged: false},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	want := "cpus,assemble_s,solve_s,total_s,iterations,converged\n" +
		"1,31.650000,6.700000,39.850000,41,true\n" +
		"16,2.150000,2.100000,5.740000,72,false\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}
