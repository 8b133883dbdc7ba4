// Package edt implements exact Euclidean distance transforms of 3D
// binary masks and label volumes.
//
// The paper converts each preoperative tissue-class segmentation into an
// explicit spatially varying localization model by computing a
// *saturated distance transform* (Ragnemalm 1993): voxels inside the
// structure carry distance 0 (or negative interior distance), voxels
// outside carry their Euclidean distance to the structure, clamped at a
// saturation radius so that far-away anatomy does not dominate the
// feature space used for k-NN classification.
//
// We compute exact Euclidean distances with the separable lower-envelope
// algorithm of Felzenszwalb & Huttenlocher (2012), which matches
// Ragnemalm's exact-EDT output while being simpler to implement in
// arbitrary dimension, and then apply the saturation.
package edt

import (
	"math"

	"repro/internal/par"
	"repro/internal/volume"
)

// inf is a large sentinel for "no feature found yet". Using a finite
// value keeps the parabola arithmetic well-defined.
const inf = 1e20

// distanceTransform1D computes the 1D squared-distance transform of
// f (sampled at integer positions with the given spacing) using the
// lower envelope of parabolas. The result is written into d, which must
// have the same length as f and may not alias it (d is written while
// the envelope still reads f). v and z are scratch slices of length n
// and n+1 respectively.
//
//lint:hotpath
//lint:noescape
func distanceTransform1D(f, d []float64, v []int, z []float64, spacing float64) {
	n := len(f)
	if n == 0 {
		return
	}
	sp2 := spacing * spacing
	// The parabola-intersection division below divides by sp2; a zero or
	// non-finite spacing would make every envelope boundary NaN and the
	// `s > z[k]` walk misbehave silently (NaN compares false). The
	// callers panic on bad spacing before the sweep loops; this kernel
	// only bails (a panic's message string would escape, breaking the
	// //lint:noescape contract).
	if !(sp2 > 0) || math.IsInf(sp2, 0) {
		return
	}
	k := 0
	v[0] = 0
	// The envelope boundaries need true infinities: with the finite inf
	// sentinel, a no-feature row (f ~ 1e20) under sub-millimeter spacing
	// can push an intersection below -1e20 and walk k off the left end
	// (found by FuzzDistanceTransform).
	z[0] = math.Inf(-1)
	z[1] = math.Inf(1)
	for q := 1; q < n; q++ {
		var s float64
		for {
			p := v[k]
			// Intersection of parabolas rooted at p and q (in grid
			// units, scaled by spacing^2).
			s = (f[q] + sp2*float64(q*q) - f[p] - sp2*float64(p*p)) /
				(2 * sp2 * float64(q-p))
			if s > z[k] {
				break
			}
			k--
		}
		k++
		v[k] = q
		z[k] = s
		z[k+1] = math.Inf(1)
	}
	k = 0
	for q := 0; q < n; q++ {
		for z[k+1] < float64(q) {
			k++
		}
		dq := float64(q - v[k])
		d[q] = sp2*dq*dq + f[v[k]]
	}
}

// SquaredFromMask returns the exact squared Euclidean distance (in world
// units, respecting anisotropic spacing) from every voxel to the nearest
// voxel where mask is true. Voxels inside the mask get 0. When the mask
// is empty every voxel gets +inf (represented as a value >= 1e19).
func SquaredFromMask(g volume.Grid, mask []bool) []float64 {
	// distanceTransform1D divides by spacing² along each axis; validate
	// once per volume here so the pinned kernel stays panic-free.
	for _, sp := range [3]float64{g.Spacing.X, g.Spacing.Y, g.Spacing.Z} {
		if !(sp > 0) || math.IsInf(sp, 0) {
			panic("edt: voxel spacing must be positive and finite")
		}
	}
	d := make([]float64, g.Len())
	for i := range d {
		if mask[i] {
			d[i] = 0
		} else {
			d[i] = inf
		}
	}
	// The x and y passes run over z-planes and the z pass over y-rows,
	// split into slabs, one per core: each line of n samples (stride
	// apart, from slab s and line l) lies in one slab, and each slab has
	// scratch of its own.
	sweep := func(slabs, slabStride, lines, lineStride, n, stride int, spacing float64) {
		pt := par.Slabs(slabs)
		pt.ForEachRank(func(r int) {
			f := make([]float64, n)
			out := make([]float64, n)
			v := make([]int, n)
			z := make([]float64, n+1)
			lo, hi := pt.Range(r)
			for s := lo; s < hi; s++ {
				for l := 0; l < lines; l++ {
					base := s*slabStride + l*lineStride
					for q := range f {
						f[q] = d[base+q*stride]
					}
					distanceTransform1D(f, out, v, z, spacing)
					for q, o := range out {
						d[base+q*stride] = o
					}
				}
			}
		})
	}
	nx, nxy := g.NX, g.NX*g.NY
	sweep(g.NZ, nxy, g.NY, nx, g.NX, 1, g.Spacing.X)
	sweep(g.NZ, nxy, g.NX, 1, g.NY, nx, g.Spacing.Y)
	sweep(g.NY, nx, g.NX, 1, g.NZ, nxy, g.Spacing.Z)
	return d
}

// FromMask returns the exact Euclidean distance (mm) from every voxel to
// the nearest mask voxel, as a scalar volume.
func FromMask(g volume.Grid, mask []bool) *volume.Scalar {
	sq := SquaredFromMask(g, mask)
	s := volume.NewScalar(g)
	for i, v := range sq {
		s.Data[i] = float32(math.Sqrt(v))
	}
	return s
}

// Saturated returns the saturated distance transform of the given tissue
// class: distance to the nearest voxel of that class, clamped to
// saturation (mm). This is the paper's spatially varying tissue
// localization model used as a k-NN feature channel.
func Saturated(l *volume.Labels, class volume.Label, saturation float64) *volume.Scalar {
	s := FromMask(l.Grid, l.Mask(class))
	sat := float32(saturation)
	for i, v := range s.Data {
		if v > sat {
			s.Data[i] = sat
		}
	}
	return s
}

// Signed returns the signed Euclidean distance to the boundary of the
// given class: negative inside the structure, positive outside, clamped
// to +/- saturation when saturation > 0. Structures can then be compared
// by level sets of this function.
func Signed(l *volume.Labels, class volume.Label, saturation float64) *volume.Scalar {
	return SignedOfSet(l, func(lab volume.Label) bool { return lab == class }, saturation)
}

// SignedOfSet is Signed generalized to a set of labels: the structure
// is the union of all classes for which inSet returns true (e.g. the
// whole intracranial compartment).
func SignedOfSet(l *volume.Labels, inSet func(volume.Label) bool, saturation float64) *volume.Scalar {
	mask := make([]bool, len(l.Data))
	for i, lab := range l.Data {
		mask[i] = inSet(lab)
	}
	outside := SquaredFromMask(l.Grid, mask)
	inv := make([]bool, len(mask))
	for i, m := range mask {
		inv[i] = !m
	}
	inside := SquaredFromMask(l.Grid, inv)
	s := volume.NewScalar(l.Grid)
	for i := range s.Data {
		sq := outside[i]
		if mask[i] {
			sq = inside[i]
		}
		if sq < 0 {
			// Squared distances are non-negative by construction; clamp
			// envelope round-off so Sqrt can never emit NaN into the
			// saturation comparisons below.
			sq = 0
		}
		d := math.Sqrt(sq)
		if mask[i] {
			d = -d
		}
		if saturation > 0 {
			if d > saturation {
				d = saturation
			}
			if d < -saturation {
				d = -saturation
			}
		}
		s.Data[i] = float32(d)
	}
	return s
}
