package core

import (
	"testing"

	"twosmart/internal/workload"
)

// FuzzUnmarshalDetector pins that a detector blob which loads can score:
// whatever the bytes, UnmarshalDetector either errors, or its detector
// compiles and scores a zero vector of its feature width through
// DetectScoredBatch with no error and no panic. The registry and the
// shards load blobs only through UnmarshalDetector, so this is what
// keeps a published model from panicking a shard on its first sample.
func FuzzUnmarshalDetector(f *testing.F) {
	det, err := Train(testData(f), TrainConfig{
		Stage2Kinds: map[workload.Class]Kind{
			workload.Virus: J48, workload.Trojan: OneR,
			workload.Backdoor: JRip, workload.Rootkit: MLP,
		},
		Seed: 21,
	})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := det.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := UnmarshalDetector(data)
		if err != nil {
			return
		}
		verdicts := make([]Verdict, 1)
		scores := make([]float64, 1)
		x := make([]float64, det.NumFeatures())
		if err := det.Compile().DetectScoredBatch(verdicts, scores, [][]float64{x}); err != nil {
			t.Fatalf("loaded detector does not score: %v", err)
		}
	})
}
