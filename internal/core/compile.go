package core

import (
	"context"
	"fmt"
	"runtime"

	"twosmart/internal/ml"
	"twosmart/internal/parallel"
	"twosmart/internal/workload"
)

// compiledStage2 is one malware class's lowered specialized detector.
type compiledStage2 struct {
	kind     Kind
	model    ml.Compiled
	features []int
}

// CompiledDetector is the allocation-free lowering of a trained Detector
// for the run-time hot path: stage 1 and every stage-2 specialized
// classifier are compiled (see ml.Compile), the per-class dispatch table is
// a dense array instead of a map, and all projection/score buffers are a
// preallocated scratch arena. The steady-state Detect, MalwareScore and
// DetectScoredBatch perform zero heap allocations per sample.
//
// A CompiledDetector owns scratch space and is therefore NOT safe for
// concurrent use: compile one per goroutine (Detector.Compile is a cheap
// flattening pass). monitor.Tracker compiles one per tracked application;
// a shard compiles one per connection worker and detector, shared by the
// connection's streams. No state outlives a call, so callers on one
// goroutine may share an instance. Input feature slices are only read
// during a call and never retained, so callers may reuse their buffers.
type CompiledDetector struct {
	numFeatures int
	stage1      ml.Compiled
	stage1Feats []int
	stage2      [workload.NumClasses]compiledStage2
	malware     []workload.Class // routing targets, precomputed

	s1In     []float64 // stage-1 projected features
	s1Scores []float64 // stage-1 class probabilities
	s2In     []float64 // stage-2 projected features (max width)
	s2Scores []float64 // stage-2 binary scores
}

// Compile lowers the detector into its allocation-free run-time form. The
// compiled detector is prediction-equivalent to the interpreted one (the
// randomized property test in this package verifies Detect and
// MalwareScore against their interpreted counterparts).
func (det *Detector) Compile() *CompiledDetector {
	cd := &CompiledDetector{
		numFeatures: len(det.featureNames),
		stage1:      ml.Compile(det.stage1),
		stage1Feats: append([]int(nil), det.stage1Feats...),
		malware:     workload.MalwareClasses(),
	}
	maxS2 := 0
	for class, s2 := range det.stage2 {
		cd.stage2[class] = compiledStage2{
			kind:     s2.kind,
			model:    ml.Compile(s2.model),
			features: append([]int(nil), s2.features...),
		}
		if len(s2.features) > maxS2 {
			maxS2 = len(s2.features)
		}
	}
	cd.s1In = make([]float64, len(cd.stage1Feats))
	cd.s1Scores = make([]float64, cd.stage1.NumClasses())
	cd.s2In = make([]float64, maxS2)
	cd.s2Scores = make([]float64, 2)
	return cd
}

// NumFeatures returns the input feature space width the detector expects.
func (cd *CompiledDetector) NumFeatures() int { return cd.numFeatures }

func projectInto(dst, features []float64, idx []int) {
	for i, j := range idx {
		dst[i] = features[j]
	}
}

// score runs stage 1 and the routed class's compiled stage-2 detector on
// the sample and derives both outputs from the stage-2 scores: it writes
// into v the verdict Detector.Detect gives, and returns the ranking score
// Detector.MalwareScore gives (the normalized positive-class score, 0.5
// when the scores sum to zero). The verdict is written in place because
// returning the five-field struct by value copies it through the stack on
// every sample.
func (cd *CompiledDetector) score(v *Verdict, features []float64) float64 {
	projectInto(cd.s1In, features, cd.stage1Feats)
	cd.stage1.ScoresInto(cd.s1Scores, cd.s1In)
	routed := cd.malware[0]
	for _, c := range cd.malware {
		if cd.s1Scores[c] > cd.s1Scores[routed] {
			routed = c
		}
	}
	s2 := &cd.stage2[routed]
	in := cd.s2In[:len(s2.features)]
	projectInto(in, features, s2.features)
	s2.model.ScoresInto(cd.s2Scores, in)

	best := ml.Argmax(cd.s2Scores)
	malware := best == ml.PositiveClass
	predicted := workload.Benign
	if malware {
		predicted = routed
	}
	*v = Verdict{
		PredictedClass: predicted,
		Malware:        malware,
		Stage2Kind:     s2.kind,
		Confidence:     cd.s2Scores[best],
	}
	if total := cd.s2Scores[0] + cd.s2Scores[1]; total > 0 {
		return cd.s2Scores[1] / total
	}
	return 0.5
}

// Detect classifies one sample exactly as Detector.Detect does, with zero
// heap allocations on the happy path.
func (cd *CompiledDetector) Detect(features []float64) (Verdict, error) {
	if len(features) != cd.numFeatures {
		return Verdict{}, fmt.Errorf("core: sample has %d features, want %d", len(features), cd.numFeatures)
	}
	var v Verdict
	cd.score(&v, features)
	return v, nil
}

// MalwareScore returns the same ranking score as Detector.MalwareScore with
// zero heap allocations on the happy path.
func (cd *CompiledDetector) MalwareScore(features []float64) (float64, error) {
	if len(features) != cd.numFeatures {
		return 0, fmt.Errorf("core: sample has %d features, want %d", len(features), cd.numFeatures)
	}
	var v Verdict
	return cd.score(&v, features), nil
}

// DetectScoredBatch classifies samples[i] into dst[i] and writes the
// normalized malware ranking score (the MalwareScore value) of samples[i]
// into scores[i], for every sample. dst, scores and samples must have
// equal length. Both outputs derive from a single stage-1 + stage-2
// evaluation per sample — the serving layer uses this to produce a full
// verdict and feed the monitor's smoothing state machine without scoring
// twice. The call performs no heap allocations.
func (cd *CompiledDetector) DetectScoredBatch(dst []Verdict, scores []float64, samples [][]float64) error {
	if len(dst) != len(samples) || len(scores) != len(samples) {
		return fmt.Errorf("core: DetectScoredBatch dst/scores have %d/%d slots, want %d", len(dst), len(scores), len(samples))
	}
	for i, fv := range samples {
		if len(fv) != cd.numFeatures {
			return fmt.Errorf("core: sample %d has %d features, want %d", i, len(fv), cd.numFeatures)
		}
		scores[i] = cd.score(&dst[i], fv)
	}
	return nil
}

// DetectAll scores every sample offline: verdicts[i] and scores[i] are
// the compiled detector's Detect and MalwareScore values for samples[i],
// from one stage-1 + stage-2 evaluation per sample. The samples are split
// into one contiguous chunk per worker; each worker compiles its own
// detector and scores its chunk with DetectScoredBatch. opts.Workers <= 0
// means runtime.NumCPU(), and never more workers than samples; opts.Hook
// and opts.OnProgress observe the chunks. A sample of the wrong width is
// an error.
func (det *Detector) DetectAll(ctx context.Context, samples [][]float64, opts parallel.Options) ([]Verdict, []float64, error) {
	width := det.NumFeatures()
	for i, fv := range samples {
		if len(fv) != width {
			return nil, nil, fmt.Errorf("core: sample %d has %d features, want %d", i, len(fv), width)
		}
	}
	verdicts := make([]Verdict, len(samples))
	scores := make([]float64, len(samples))
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	opts.Workers = min(opts.Workers, len(samples))
	err := parallel.ForEach(ctx, opts.Workers, opts, func(_ context.Context, w int) error {
		lo, hi := w*len(samples)/opts.Workers, (w+1)*len(samples)/opts.Workers
		return det.Compile().DetectScoredBatch(verdicts[lo:hi], scores[lo:hi], samples[lo:hi])
	})
	if err != nil {
		return nil, nil, err
	}
	return verdicts, scores, nil
}

// Stage2Kind reports the compiled specialized detector's algorithm for a
// malware class (mirrors Detector.Stage2Info for the run-time form).
func (cd *CompiledDetector) Stage2Kind(class workload.Class) (Kind, error) {
	if !class.IsMalware() {
		return 0, fmt.Errorf("core: no stage-2 detector for class %v", class)
	}
	return cd.stage2[class].kind, nil
}
