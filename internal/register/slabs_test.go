package register

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/transform"
)

// TestMIAnyCoreCount: the metric counts its strided z-planes in one
// slab per core and adds the slabs' counts in order, so MI and NMI are
// the bits of one core at any core count — with more cores than slabs
// (three strided planes) and with uneven slabs.
func TestMIAnyCoreCount(t *testing.T) {
	fixed, moving := testVolume(12, 1), testVolume(12, 2)
	r := transform.Rigid{RX: 0.04, RZ: -0.06, TX: 0.8, TY: -0.5, Center: fixed.Grid.Center()}
	inv := r.Inverse()
	for _, stride := range []int{1, 4} {
		run := func(procs int) (mi, nmi float64) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := NewMIMetric(fixed, moving)
			m.Stride = stride
			m.Threshold = 10
			return m.Evaluate(inv.Apply), m.EvaluateNMI(inv.Apply)
		}
		wantMI, wantNMI := run(1)
		if wantMI == 0 {
			t.Fatal("zero MI: the case does not exercise the histogram")
		}
		for _, procs := range []int{2, 5, 7} {
			mi, nmi := run(procs)
			if math.Float64bits(mi) != math.Float64bits(wantMI) || math.Float64bits(nmi) != math.Float64bits(wantNMI) {
				t.Errorf("stride %d at GOMAXPROCS %d: MI %v NMI %v, want %v %v",
					stride, procs, mi, nmi, wantMI, wantNMI)
			}
		}
	}
}
