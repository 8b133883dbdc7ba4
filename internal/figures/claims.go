package figures

import (
	"fmt"

	"repro/internal/cluster"
)

// The paper's two system sizes: the head model of Figures 7 and 8, and
// the 2.5 times larger system of Figure 9.
const (
	Equations77k  = 77511
	Equations253k = 253308
)

// Budget is a wall-clock claim on assemble+solve at a sweep's last CPU
// count. The zero Budget claims nothing.
type Budget struct {
	Sec float64
	// Strict makes the claim "less than Sec"; otherwise it is "at most
	// Sec".
	Strict bool
}

func (b Budget) holds(sec float64) bool {
	if b.Strict {
		return sec < b.Sec
	}
	return sec <= b.Sec
}

func (b Budget) String() string {
	if b.Strict {
		return fmt.Sprintf("< %g s", b.Sec)
	}
	return fmt.Sprintf("≤ %g s", b.Sec)
}

// ScalingFigure is one scaling figure of the paper's evaluation: the
// machine model, the paper's system size, the CPU counts swept and the
// wall-clock claim at the last of them.
type ScalingFigure struct {
	// Name is the figure's number, the value cmd/benchfig's -fig takes.
	Name      string
	Title     string
	Machine   cluster.Machine
	Equations int
	CPUs      []int
	Budget    Budget
}

// ScalingFigures is the paper's scaling study, Figures 7 to 9, in print
// order. Figure 7 carries the headline claim, 77,511 equations assembled
// and solved in under ten seconds on the 16-CPU cluster; Figure 9 the
// larger system's "clinically compatible time frame", read as a minute.
func ScalingFigures() []ScalingFigure {
	return []ScalingFigure{
		{Name: "7", Title: "Figure 7: Deep Flow cluster", Machine: cluster.DeepFlow(),
			Equations: Equations77k, CPUs: []int{1, 2, 4, 6, 8, 10, 12, 14, 16},
			Budget: Budget{Sec: 10, Strict: true}},
		{Name: "8a", Title: "Figure 8a: Sun Ultra HPC 6000 SMP", Machine: cluster.UltraHPC6000(),
			Equations: Equations77k, CPUs: []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}},
		{Name: "8b", Title: "Figure 8b: 2x Sun Ultra 80 + Fast Ethernet", Machine: cluster.Ultra80Pair(),
			Equations: Equations77k, CPUs: []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "9", Title: "Figure 9: 253,308 equations on Ultra 6000", Machine: cluster.UltraHPC6000(),
			Equations: Equations253k, CPUs: []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
			Budget: Budget{Sec: 60}},
	}
}

// Claim is one of the paper's claims, stated with the numbers it was
// checked on.
type Claim struct {
	Text  string
	Holds bool
}

// Claims states the paper's claims on a figure's rows, in sweep order:
// every solve converged, the total time falls from the first CPU count
// to the last, and assemble+solve at the last count keeps the figure's
// Budget. The claims are the paper's at its system size; rows of a
// shrunk system need not meet them.
func (f ScalingFigure) Claims(rows []ScalingRow) []Claim {
	if len(rows) == 0 {
		return []Claim{{Text: "the sweep has rows"}}
	}
	converged := 0
	for _, r := range rows {
		if r.Converged {
			converged++
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	claims := []Claim{
		{fmt.Sprintf("every solve converged (%d of %d)", converged, len(rows)), converged == len(rows)},
		{fmt.Sprintf("total falls from %.2f s to %.2f s, %d to %d CPUs", first.TotalSec, last.TotalSec, first.CPUs, last.CPUs),
			last.TotalSec < first.TotalSec},
	}
	if f.Budget.Sec > 0 {
		as := last.AssembleSec + last.SolveSec
		claims = append(claims, Claim{fmt.Sprintf("assemble+solve at %d CPUs is %.2f s, want %v", last.CPUs, as, f.Budget),
			f.Budget.holds(as)})
	}
	return claims
}
