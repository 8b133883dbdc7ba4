// Package classify implements the paper's intraoperative tissue
// classification: k-nearest-neighbor classification of each voxel in a
// multichannel feature space combining intraoperative MR intensity with
// the spatially varying anatomical localization model (saturated
// distance transforms of the preoperative segmentation).
//
// The statistical model is encoded implicitly by prototype voxels of
// known tissue class (selected once with a few minutes of interaction
// in the paper; sampled from the warped preoperative segmentation
// here). The spatial locations of the prototypes are recorded so the
// model can be refreshed automatically when later intraoperative scans
// arrive, exactly as the paper describes.
package classify

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/volume"
)

// ctxCheckMask gates the worker-loop context polls: each worker checks
// ctx.Err() once every ctxCheckMask+1 voxels, keeping the abort latency
// far below a millisecond without measurable per-voxel overhead.
const ctxCheckMask = 0x3FF

// Prototype is a labeled sample point in feature space.
type Prototype struct {
	Features []float64
	Label    volume.Label
	// VoxelIndex is the linear index of the voxel the prototype was
	// taken from, recorded so features can be re-read from new scans.
	VoxelIndex int
}

// Classifier is a k-NN classifier over multichannel voxel features.
type Classifier struct {
	K          int
	Prototypes []Prototype
	// Weights scales each feature channel before distance computation;
	// nil means all channels weigh 1. Distance-transform channels are
	// typically down-weighted relative to intensity.
	Weights []float64
	// Workers is the parallelism degree; 0 means GOMAXPROCS. The paper
	// runs classification in parallel alongside the FEM solver on the
	// same hardware (its SC'98 companion paper).
	Workers int
}

// Clone returns a deep copy (nil for a nil receiver): refreshing the
// copy's prototypes, or rejecting some of them, leaves the original
// untouched.
func (c *Classifier) Clone() *Classifier {
	if c == nil {
		return nil
	}
	cp := *c
	protos := append([]Prototype(nil), c.Prototypes...)
	for i := range protos {
		protos[i].Features = append([]float64(nil), protos[i].Features...)
	}
	cp.Prototypes = protos
	cp.Weights = append([]float64(nil), c.Weights...)
	return &cp
}

// channelsToFeatures reads the feature vector of voxel idx from the
// channel volumes.
func channelsToFeatures(channels []*volume.Scalar, idx int, out []float64) {
	for c, ch := range channels {
		out[c] = float64(ch.Data[idx])
	}
}

// validateChannels checks all channels share one grid shape and hold
// one value per voxel of it.
func validateChannels(channels []*volume.Scalar) error {
	if len(channels) == 0 {
		return fmt.Errorf("classify: no feature channels")
	}
	g := channels[0].Grid
	for i, ch := range channels {
		if !ch.Grid.SameShape(g) {
			return fmt.Errorf("classify: channel %d shape %v != channel 0 shape %v", i, ch.Grid, g)
		}
		if len(ch.Data) != g.Len() {
			return fmt.Errorf("classify: channel %d holds %d values on a %v grid", i, len(ch.Data), g)
		}
	}
	return nil
}

// SamplePrototypesContext draws up to perClass prototype voxels for
// every label present in labels (excluding classes in skip), reading
// their feature vectors from channels. Sampling is deterministic for a
// given seed. The per-voxel class census polls the context; a cancelled
// context aborts the sampling and returns ctx.Err().
func SamplePrototypesContext(ctx context.Context, labels *volume.Labels, channels []*volume.Scalar,
	perClass int, seed int64, skip ...volume.Label) ([]Prototype, error) {
	if err := validateChannels(channels); err != nil {
		return nil, err
	}
	if !labels.Grid.SameShape(channels[0].Grid) {
		return nil, fmt.Errorf("classify: labels shape %v != channels shape %v",
			labels.Grid, channels[0].Grid)
	}
	skipSet := map[volume.Label]bool{}
	for _, s := range skip {
		skipSet[s] = true
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[volume.Label][]int{}
	for idx, lab := range labels.Data {
		if idx&ctxCheckMask == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if skipSet[lab] {
			continue
		}
		byClass[lab] = append(byClass[lab], idx)
	}
	// Deterministic class order.
	classes := make([]volume.Label, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })

	var protos []Prototype
	nc := len(channels)
	for _, c := range classes {
		idxs := byClass[c]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		n := perClass
		if n > len(idxs) {
			n = len(idxs)
		}
		for _, idx := range idxs[:n] {
			p := Prototype{
				Features:   make([]float64, nc),
				Label:      c,
				VoxelIndex: idx,
			}
			channelsToFeatures(channels, idx, p.Features)
			protos = append(protos, p)
		}
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("classify: no prototypes could be sampled")
	}
	return protos, nil
}

// RefreshFeaturesContext re-reads every prototype's feature vector from
// a new set of channel volumes at the recorded voxel locations — the
// paper's automatic statistical model update for subsequent
// intraoperative scans. A cancelled context aborts the refresh and
// returns ctx.Err().
func (c *Classifier) RefreshFeaturesContext(ctx context.Context, channels []*volume.Scalar) error {
	if err := validateChannels(channels); err != nil {
		return err
	}
	n := channels[0].Grid.Len()
	for i := range c.Prototypes {
		if i&ctxCheckMask == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		p := &c.Prototypes[i]
		if p.VoxelIndex < 0 || p.VoxelIndex >= n {
			return fmt.Errorf("classify: prototype %d voxel index %d out of range", i, p.VoxelIndex)
		}
		if len(p.Features) != len(channels) {
			p.Features = make([]float64, len(channels))
		}
		channelsToFeatures(channels, p.VoxelIndex, p.Features)
	}
	return nil
}

// RefreshFeaturesRobustContext refreshes the prototype features from
// new channel volumes like RefreshFeaturesContext, then discards
// prototypes whose refreshed intensity (channel 0) is an outlier within
// their class — deviating from the class median by more than maxDev
// median absolute deviations. Such prototypes sit where the tissue
// itself changed between scans (resection cavity, brain-shift gap) and
// would poison the statistical model; a human expert would simply not
// pick them. At least minKeep prototypes per class are always retained
// (the nearest to the median), so a class can never vanish from the
// model. Cancellation aborts during the underlying refresh and between
// per-class outlier passes, returning ctx.Err().
func (c *Classifier) RefreshFeaturesRobustContext(ctx context.Context, channels []*volume.Scalar, maxDev float64, minKeep int) error {
	if err := c.RefreshFeaturesContext(ctx, channels); err != nil {
		return err
	}
	if maxDev <= 0 {
		maxDev = 4
	}
	if minKeep < 1 {
		minKeep = 1
	}
	byClass := map[volume.Label][]int{}
	for i, p := range c.Prototypes {
		byClass[p.Label] = append(byClass[p.Label], i)
	}
	drop := make([]bool, len(c.Prototypes))
	for _, idxs := range byClass {
		if err := ctx.Err(); err != nil {
			return err
		}
		vals := make([]float64, len(idxs))
		for k, i := range idxs {
			vals[k] = c.Prototypes[i].Features[0]
		}
		med := median(vals)
		devs := make([]float64, len(vals))
		for k, v := range vals {
			devs[k] = abs64(v - med)
		}
		mad := median(devs)
		if mad < 1e-9 {
			mad = 1e-9
		}
		// Candidates to drop, most deviant first; stop before dropping
		// below minKeep.
		type cand struct {
			idx int
			dev float64
		}
		var cands []cand
		for k, i := range idxs {
			if devs[k] > maxDev*mad {
				cands = append(cands, cand{i, devs[k]})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].dev > cands[b].dev })
		allowed := len(idxs) - minKeep
		if allowed < 0 {
			allowed = 0
		}
		if len(cands) > allowed {
			cands = cands[:allowed]
		}
		for _, cd := range cands {
			drop[cd.idx] = true
		}
	}
	kept := c.Prototypes[:0]
	for i, p := range c.Prototypes {
		if !drop[i] {
			kept = append(kept, p)
		}
	}
	c.Prototypes = kept
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ClassifyContext labels every voxel of the channel volumes by majority
// vote among the K nearest prototypes in (weighted) Euclidean feature
// space. Ties break toward the nearer prototype set (first encountered
// in ascending distance order). Worker goroutines poll the context
// periodically; a cancelled or deadline-expired context aborts the
// classification and returns ctx.Err().
func (c *Classifier) ClassifyContext(ctx context.Context, channels []*volume.Scalar) (*volume.Labels, error) {
	return c.classify(ctx, channels, false, nil, nil)
}

// classify is the one validate → partition → worker loop behind
// ClassifyContext, ClassifyKDContext and ClassifyBandKDContext. The
// first two differ only in the neighbour search each worker queries — a
// linear scan of the prototypes, or a k-d tree built over them once.
// The loop runs over an index set: every voxel when prev is nil, else
// the voxels of band, the rest keeping their label in prev. A voxel's
// label depends on that voxel alone, so a voxel of the band gets the
// label a full-grid call gives it, bit for bit.
func (c *Classifier) classify(ctx context.Context, channels []*volume.Scalar, kdtree bool,
	prev *volume.Labels, band []int32) (*volume.Labels, error) {
	if err := validateChannels(channels); err != nil {
		return nil, err
	}
	if len(c.Prototypes) == 0 {
		return nil, fmt.Errorf("classify: classifier has no prototypes")
	}
	k := c.K
	if k <= 0 {
		k = 1
	}
	if k > len(c.Prototypes) {
		k = len(c.Prototypes)
	}
	nc := len(channels)
	for i, p := range c.Prototypes {
		if len(p.Features) != nc {
			return nil, fmt.Errorf("classify: prototype %d has %d features, want %d",
				i, len(p.Features), nc)
		}
	}
	weights := c.Weights
	if weights == nil {
		weights = make([]float64, nc)
		for i := range weights {
			weights[i] = 1
		}
	} else if len(weights) != nc {
		return nil, fmt.Errorf("classify: %d weights for %d channels", len(weights), nc)
	}

	g := channels[0].Grid
	out := volume.NewLabels(g)
	positions := g.Len()
	if prev != nil {
		if !prev.Grid.SameShape(g) || len(prev.Data) != g.Len() {
			return nil, fmt.Errorf("classify: previous labels %v (%d values) do not fit channel grid %v",
				prev.Grid, len(prev.Data), g)
		}
		for p, idx := range band {
			if idx < 0 || int(idx) >= g.Len() {
				return nil, fmt.Errorf("classify: band position %d holds voxel %d, outside the %d-voxel grid", p, idx, g.Len())
			}
		}
		copy(out.Data, prev.Data)
		positions = len(band)
	}
	var tree *KDTree
	if kdtree {
		tree = NewKDTree(c.Prototypes, weights)
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Partition the positions of the index set into contiguous ranges,
	// one rank per range; the split cannot change a label.
	pt := par.Even(positions, workers)
	pt.ForEachRank(func(w int) {
		lo, hi := pt.Range(w)
		if lo == hi {
			return
		}
		// One span per worker batch: the k-NN sweep is the pipeline's
		// per-voxel hot loop, so batch spans expose straggler workers.
		// The deferred End records ctx.Err() — nil on a completed
		// batch, the cancellation cause on an aborted one.
		_, span := obs.StartSpan(ctx, obs.SpanKNNBatch)
		defer func() { span.End(ctx.Err()) }()
		span.SetAttr("worker", w)
		span.SetAttr("voxels", hi-lo)
		if tree != nil {
			span.SetAttr("kdtree", true)
		}
		feat := make([]float64, nc)
		bestD := make([]float64, k)
		bestL := make([]volume.Label, k)
		var q []float64
		if tree != nil {
			q = make([]float64, tree.stride)
		}
		for p := lo; p < hi; p++ {
			// The poll counts positions, so a band polls as often per
			// voxel classified as the full grid does.
			if p&ctxCheckMask == 0 && ctx.Err() != nil {
				return
			}
			idx := p
			if prev != nil {
				idx = int(band[p])
			}
			channelsToFeatures(channels, idx, feat)
			// Fill bestD/bestL with the k nearest prototypes to feat in
			// ascending distance order.
			if tree != nil {
				tree.nearest(feat, q, bestD, bestL)
			} else {
				c.nearest(feat, weights, k, bestD, bestL)
			}
			out.Data[idx] = vote(bestL, bestD)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// nearest fills bestD/bestL with the k nearest prototypes to feat, in
// ascending distance order, using insertion into a fixed-size sorted
// buffer (k is small).
func (c *Classifier) nearest(feat, weights []float64, k int, bestD []float64, bestL []volume.Label) {
	for i := range bestD {
		bestD[i] = 1e300
		bestL[i] = 0
	}
	for pi := range c.Prototypes {
		p := &c.Prototypes[pi]
		d := 0.0
		for f := range feat {
			diff := (feat[f] - p.Features[f]) * weights[f]
			d += diff * diff
			if d >= bestD[k-1] {
				break
			}
		}
		if d >= bestD[k-1] {
			continue
		}
		// Insert into sorted position.
		pos := k - 1
		for pos > 0 && bestD[pos-1] > d {
			bestD[pos] = bestD[pos-1]
			bestL[pos] = bestL[pos-1]
			pos--
		}
		bestD[pos] = d
		bestL[pos] = p.Label
	}
}

// vote returns the majority label among the neighbors whose distance is
// below the 1e300 "no neighbor" sentinel; ties go to the label whose
// nearest representative is closest, then to the lower label, and no
// neighbor at all gives label 0. Each label is tallied once, at its
// first occurrence, over the k entries — k is a handful.
func vote(labels []volume.Label, dists []float64) volume.Label {
	best, bestCount, bestDist := volume.Label(0), 0, 1e300
tally:
	for i, l := range labels {
		if dists[i] >= 1e300 {
			continue
		}
		count, nearest := 0, 1e300
		for j, lj := range labels {
			if lj != l || dists[j] >= 1e300 {
				continue
			}
			if j < i {
				continue tally // counted at j
			}
			count++
			if dists[j] < nearest {
				nearest = dists[j]
			}
		}
		if count > bestCount || count == bestCount &&
			(nearest < bestDist || nearest == bestDist && l < best) {
			best, bestCount, bestDist = l, count, nearest
		}
	}
	return best
}
