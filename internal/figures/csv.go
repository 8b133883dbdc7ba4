package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes scaling rows in a plotting-friendly layout:
// cpus, assemble_s, solve_s, total_s, iterations, converged.
func WriteCSV(w io.Writer, rows []ScalingRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cpus", "assemble_s", "solve_s", "total_s", "iterations", "converged"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.CPUs),
			fmt.Sprintf("%.6f", r.AssembleSec),
			fmt.Sprintf("%.6f", r.SolveSec),
			fmt.Sprintf("%.6f", r.TotalSec),
			strconv.Itoa(r.Iterations),
			strconv.FormatBool(r.Converged),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
