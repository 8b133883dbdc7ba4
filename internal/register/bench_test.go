package register

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/transform"
)

func BenchmarkMIEvaluate(b *testing.B) {
	fixed := testVolume(48, 101)
	moving := testVolume(48, 101)
	m := NewMIMetric(fixed, moving)
	m.Threshold = 10
	identity := func(p geom.Vec3) geom.Vec3 { return p }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(identity)
	}
}

func BenchmarkAlignSmall(b *testing.B) {
	fixed := testVolume(32, 102)
	truth := transform.Rigid{TX: 2, TY: -1, Center: fixed.Grid.Center()}
	moving := testVolume(32, 102)
	_ = truth
	opts := DefaultOptions()
	opts.Levels = []int{2}
	opts.MaxIter = 3
	init := transform.Identity(fixed.Grid.Center())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AlignContext(context.Background(), fixed, moving, init, opts); err != nil {
			b.Fatal(err)
		}
	}
}
