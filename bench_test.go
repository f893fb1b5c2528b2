// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Each benchmark regenerates its artifact and reports the key
// measured quantities via b.ReportMetric; run with -v (or read the bench
// log) to see the rendered tables.
//
// The corpus scale is controlled by TWOSMART_BENCH_SCALE (fraction of the
// paper's 3621-application corpus; default 0.15). EXPERIMENTS.md records a
// full run next to the paper's numbers.
package twosmart_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"twosmart"
	"twosmart/internal/baseline"
	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/experiments"
	"twosmart/internal/hpc"
	"twosmart/internal/microarch"
	"twosmart/internal/ml"
	"twosmart/internal/ml/bayes"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/linear"
	"twosmart/internal/ml/mltest"
	"twosmart/internal/ml/nn"
	"twosmart/internal/ml/rules"
	"twosmart/internal/ml/tree"
	"twosmart/internal/monitor"
	"twosmart/internal/sandbox"
	"twosmart/internal/workload"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func benchScale() float64 {
	if s := os.Getenv("TWOSMART_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.15
}

// benchContext collects the shared benchmark corpus once per process.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = experiments.NewContext(experiments.Options{
			Corpus: corpus.Config{
				Scale:      benchScale(),
				Seed:       42,
				Omniscient: true,
			},
			Seed: 42,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// BenchmarkFig1Traces regenerates Fig 1: branch-instruction and branch-miss
// traces of a benign versus a malware application.
func BenchmarkFig1Traces(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MalwareMeanBranch/res.BenignMeanBranch, "branch_ratio")
	b.ReportMetric(res.MalwareMeanMiss/res.BenignMeanMiss, "miss_ratio")
	b.Logf("\n%s", res)
}

// BenchmarkTable1BestClassifier regenerates Table I: the best classifier
// per malware class at 16, 8 and 4 HPCs.
func BenchmarkTable1BestClassifier(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DistinctWinners()), "distinct_winners")
	b.Logf("\n%s", res)
}

// BenchmarkTable2FeatureReduction regenerates Table II: the correlation +
// PCA feature-reduction pipeline output.
func BenchmarkTable2FeatureReduction(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	// How many of the paper's Common-4 events our data-driven pipeline
	// also keeps in its correlation top-16.
	kept := 0
	for _, want := range res.PaperCommon {
		for _, got := range res.CorrelationTop16 {
			if want == got {
				kept++
				break
			}
		}
	}
	b.ReportMetric(float64(kept), "paper_common_in_top16")
	b.Logf("\n%s", res)
}

// BenchmarkFig2Pipeline regenerates Fig 2: the 11-batch multiplexed
// data-collection pipeline statistics.
func BenchmarkFig2Pipeline(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Batches), "batches")
	b.ReportMetric(float64(res.ContainersCreated), "containers")
	b.Logf("\n%s", res)
}

// BenchmarkFig3TwoStage regenerates the end-to-end two-stage pipeline
// evaluation (Fig 3).
func BenchmarkFig3TwoStage(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Stage1Accuracy4, "stage1_acc4_pct")
	b.ReportMetric(100*res.Stage1Accuracy16, "stage1_acc16_pct")
	b.ReportMetric(100*res.EndToEndF, "end_to_end_F_pct")
	b.Logf("\n%s", res)
}

// BenchmarkTable3FMeasure regenerates Table III: F-measure of every
// specialized detector with and without boosting.
func BenchmarkTable3FMeasure(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, byKind := range res.F {
		for _, byConfig := range byKind {
			sum += byConfig["4-Boosted"]
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "mean_F_4boosted_pct")
	b.Logf("\n%s", res)
}

// BenchmarkFig4Performance regenerates Fig 4: detection performance
// (F x AUC) across classifiers, classes and HPC configurations.
func BenchmarkFig4Performance(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, config := range experiments.SweepConfigs {
		b.ReportMetric(res.Average(config), "avg_perf_"+config+"_pct")
	}
	b.Logf("\n%s", res)
}

// BenchmarkTable4Improvement regenerates Table IV: the boosted-4HPC
// improvement over the 8- and 4-HPC unboosted detectors.
func BenchmarkTable4Improvement(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	best := res.ImprovementOver8[core.J48]
	for _, k := range core.Kinds() {
		if res.ImprovementOver8[k] > best {
			best = res.ImprovementOver8[k]
		}
	}
	b.ReportMetric(best, "best_improvement_over8_pct")
	b.Logf("\n%s", res)
}

// BenchmarkFig5aStage1VsTwoStage regenerates Fig 5a: stage-1 MLR alone
// versus the two-stage detector, per class.
func BenchmarkFig5aStage1VsTwoStage(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig5aResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AverageImprovement(), "avg_improvement_points")
	b.Logf("\n%s", res)
}

// BenchmarkFig5bVsSingleStage regenerates Fig 5b: 2SMaRT against the
// single-stage state-of-the-art HMD with 4 and 8 HPCs.
func BenchmarkFig5bVsSingleStage(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Fig5bResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Fig5b()
		if err != nil {
			b.Fatal(err)
		}
	}
	u4, b4 := res.AverageGainOverSingleStage(4)
	u8, b8 := res.AverageGainOverSingleStage(8)
	b.ReportMetric(u4, "gain_over_ss4_points")
	b.ReportMetric(b4, "gain_over_ss4_boosted_points")
	b.ReportMetric(u8, "gain_over_ss8_points")
	b.ReportMetric(b8, "gain_over_ss8_boosted_points")
	b.Logf("\n%s", res)
}

// BenchmarkTable5Hardware regenerates Table V: hardware cost of every
// classifier at 8, 4 and boosted-4 HPC configurations.
func BenchmarkTable5Hardware(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Latency[core.MLP]["4-Boosted"], "mlp_boosted_latency_cycles")
	b.ReportMetric(res.Area[core.J48]["4-Boosted"], "j48_boosted_area_pct")
	b.Logf("\n%s", res)
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationMultiplexing measures the run-time cost of the paper's
// methodological constraint: collecting all 44 events takes 11 multiplexed
// runs, whereas a run-time detector needs a single 4-event run.
func BenchmarkAblationMultiplexing(b *testing.B) {
	arch := microarch.DefaultConfig()
	prog := workload.Generate(workload.Virus, 0, workload.Options{Budget: 60000, Seed: 1})
	opts := sandbox.ProfileOptions{FreqHz: corpus.DefaultFreqHz, Period: 10 * time.Millisecond}

	b.Run("single-run-4HPC", func(b *testing.B) {
		mgr := sandbox.NewManager(arch)
		events := make([]hpc.Event, 0, 4)
		for _, name := range twosmart.CommonFeatures() {
			e, _ := hpc.EventByName(name)
			events = append(events, e)
		}
		for i := 0; i < b.N; i++ {
			if _, err := mgr.RunIsolated(prog.MustStream(), events, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multiplexed-44-events", func(b *testing.B) {
		mgr := sandbox.NewManager(arch)
		groups := hpc.MultiplexSchedule(hpc.AllEvents())
		for i := 0; i < b.N; i++ {
			for _, g := range groups {
				if _, err := mgr.RunIsolated(prog.MustStream(), []hpc.Event(g), opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationBoostRounds sweeps the AdaBoost round count for the
// 4-HPC J48 Virus detector, reporting held-out F per setting.
func BenchmarkAblationBoostRounds(b *testing.B) {
	ctx := benchContext(b)
	trainBin := mustBinary(b, ctx.Train, workload.Virus)
	testBin := mustBinary(b, ctx.Test, workload.Virus)
	for _, rounds := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("rounds-%d", rounds), func(b *testing.B) {
			var ev ml.BinaryEval
			for i := 0; i < b.N; i++ {
				tr := &ensemble.AdaBoostTrainer{Base: core.NewTrainer(core.J48, 1), Rounds: rounds, Seed: 1}
				model, err := tr.Train(trainBin)
				if err != nil {
					b.Fatal(err)
				}
				ev, err = ml.EvaluateBinary(model, testBin)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*ev.F1, "F_pct")
			b.ReportMetric(100*ev.Performance, "perf_pct")
		})
	}
}

// BenchmarkAblationNoise injects multiplicative Gaussian measurement noise
// into the test features, quantifying the detector's sensitivity to counter
// non-determinism (a known HPC measurement hazard).
func BenchmarkAblationNoise(b *testing.B) {
	ctx := benchContext(b)
	trainBin := mustBinary(b, ctx.Train, workload.Trojan)
	model, err := core.NewTrainer(core.J48, 1).Train(trainBin)
	if err != nil {
		b.Fatal(err)
	}
	for _, sigma := range []float64{0, 0.05, 0.15, 0.30} {
		b.Run(fmt.Sprintf("sigma-%.2f", sigma), func(b *testing.B) {
			var ev ml.BinaryEval
			for i := 0; i < b.N; i++ {
				noisy := perturb(mustBinary(b, ctx.Test, workload.Trojan), sigma, 7)
				ev, err = ml.EvaluateBinary(model, noisy)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*ev.F1, "F_pct")
		})
	}
}

// BenchmarkAblationDropout tests the paper's overfitting remark: MLP with
// 16 HPC features overfits, and "techniques such as dropout can be
// employed". Compares plain and dropout MLPs on the 16-feature virus task.
func BenchmarkAblationDropout(b *testing.B) {
	ctx := benchContext(b)
	red, err := ctx.Table2()
	if err != nil {
		b.Fatal(err)
	}
	feats, err := red.ClassFeatureSet(workload.Virus, 16)
	if err != nil {
		b.Fatal(err)
	}
	prep := func(d *dataset.Dataset) *dataset.Dataset {
		bin, err := core.BinaryTask(d, workload.Virus)
		if err != nil {
			b.Fatal(err)
		}
		bin, err = bin.SelectByName(feats)
		if err != nil {
			b.Fatal(err)
		}
		return bin
	}
	trainBin, testBin := prep(ctx.Train), prep(ctx.Test)
	for _, cfg := range []struct {
		name    string
		dropout float64
	}{
		{"plain", 0},
		{"dropout-0.2", 0.2},
		{"dropout-0.5", 0.5},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var ev ml.BinaryEval
			for i := 0; i < b.N; i++ {
				model, err := (&nn.MLPTrainer{Dropout: cfg.dropout, Seed: 1}).Train(trainBin)
				if err != nil {
					b.Fatal(err)
				}
				ev, err = ml.EvaluateBinary(model, testBin)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*ev.F1, "F_pct")
			b.ReportMetric(100*ev.Performance, "perf_pct")
		})
	}
}

// BenchmarkAblationReplacement quantifies how sensitive the HPC signatures
// are to the modelled cache replacement policy: the same application is
// profiled under LRU and random replacement and the resulting cache-miss
// rates are reported. Detection features must not hinge on a policy detail.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, pol := range []struct {
		name   string
		policy microarch.Policy
	}{
		{"LRU", microarch.PolicyLRU},
		{"random", microarch.PolicyRandom},
	} {
		b.Run(pol.name, func(b *testing.B) {
			cfg := microarch.DefaultConfig()
			cfg.CachePolicy = pol.policy
			var missRate float64
			for i := 0; i < b.N; i++ {
				var misses, refs uint64
				core, err := microarch.NewCore(cfg, hpc.SinkFunc(func(e hpc.Event, n uint64) {
					switch e {
					case hpc.EvCacheMiss:
						misses += n
					case hpc.EvCacheRef:
						refs += n
					}
				}))
				if err != nil {
					b.Fatal(err)
				}
				prog := workload.Generate(workload.Rootkit, 0, workload.Options{Budget: 60000, Seed: 5})
				core.Bind(prog.MustStream())
				for core.Run(4096) > 0 {
				}
				missRate = float64(misses) / float64(refs)
			}
			b.ReportMetric(100*missRate, "llc_miss_rate_pct")
		})
	}
}

// BenchmarkExtendedModelZoo extends the paper's four stage-2 algorithms
// with the wider family the authors' companion studies evaluate (Naive
// Bayes, multinomial logistic regression), all on the pooled 4-HPC task.
func BenchmarkExtendedModelZoo(b *testing.B) {
	ctx := benchContext(b)
	pool := func(d *dataset.Dataset) *dataset.Dataset {
		bin, err := baseline.PoolMalware(d)
		if err != nil {
			b.Fatal(err)
		}
		bin, err = bin.SelectByName(twosmart.CommonFeatures())
		if err != nil {
			b.Fatal(err)
		}
		return bin
	}
	trainBin, testBin := pool(ctx.Train), pool(ctx.Test)
	zoo := map[string]ml.Trainer{
		"J48":        core.NewTrainer(core.J48, 1),
		"JRip":       core.NewTrainer(core.JRip, 1),
		"MLP":        core.NewTrainer(core.MLP, 1),
		"OneR":       core.NewTrainer(core.OneR, 1),
		"NaiveBayes": &bayes.NBTrainer{},
		"MLR":        &linear.MLRTrainer{Seed: 1},
	}
	for _, name := range []string{"J48", "JRip", "MLP", "OneR", "NaiveBayes", "MLR"} {
		b.Run(name, func(b *testing.B) {
			var ev ml.BinaryEval
			for i := 0; i < b.N; i++ {
				model, err := zoo[name].Train(trainBin)
				if err != nil {
					b.Fatal(err)
				}
				ev, err = ml.EvaluateBinary(model, testBin)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*ev.F1, "F_pct")
			b.ReportMetric(100*ev.AUC, "AUC_pct")
		})
	}
}

// BenchmarkAblationCorpusScale measures detection quality as a function of
// corpus size (a learning-curve ablation beyond the paper): the pooled
// 4-HPC J48 detector trained on increasingly large corpora.
func BenchmarkAblationCorpusScale(b *testing.B) {
	for _, scale := range []float64{0.02, 0.05, 0.1} {
		b.Run(fmt.Sprintf("scale-%.2f", scale), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				data, err := corpus.Collect(corpus.Config{Scale: scale, Seed: 42, Omniscient: true})
				if err != nil {
					b.Fatal(err)
				}
				bin, err := baseline.PoolMalware(data)
				if err != nil {
					b.Fatal(err)
				}
				bin, err = bin.SelectByName(twosmart.CommonFeatures())
				if err != nil {
					b.Fatal(err)
				}
				ev, err := ml.TrainAndEvaluate(core.NewTrainer(core.J48, 1), bin, 0.6, 1)
				if err != nil {
					b.Fatal(err)
				}
				f = ev.F1
			}
			b.ReportMetric(100*f, "F_pct")
		})
	}
}

func mustBinary(b *testing.B, d *dataset.Dataset, class workload.Class) *dataset.Dataset {
	b.Helper()
	bin, err := core.BinaryTask(d, class)
	if err != nil {
		b.Fatal(err)
	}
	bin, err = bin.SelectByName(twosmart.CommonFeatures())
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

func perturb(d *dataset.Dataset, sigma float64, seed int64) *dataset.Dataset {
	if sigma == 0 {
		return d
	}
	rng := rand.New(rand.NewSource(seed))
	out := d.Clone()
	for i := range out.Instances {
		for j := range out.Instances[i].Features {
			out.Instances[i].Features[j] *= 1 + sigma*rng.NormFloat64()
		}
	}
	return out
}

// BenchmarkExtGranularity runs the decision-granularity extension: F at
// per-sample versus per-application (majority vote) level.
func BenchmarkExtGranularity(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.ExtGranularityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.ExtGranularity()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.SampleF, "sample_F_pct")
	b.ReportMetric(100*res.AppF, "app_F_pct")
	b.Logf("\n%s", res)
}

// BenchmarkExtLatency runs the detection-latency extension: time to first
// monitor alarm for freshly started malware.
func BenchmarkExtLatency(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.ExtLatencyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.ExtLatency()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanSamples*10, "mean_ms_to_alarm")
	b.ReportMetric(float64(res.Detected)/float64(res.Total), "detect_fraction")
	b.Logf("\n%s", res)
}

// BenchmarkExtInterference runs the co-scheduling interference extension:
// recall as the malware timeslice share shrinks.
func BenchmarkExtInterference(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.ExtInterferenceResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ctx.ExtInterference()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, share := range res.Shares {
		b.ReportMetric(100*res.Recall[i], fmt.Sprintf("recall_at_%.0f_pct", 100*share))
	}
	b.Logf("\n%s", res)
}

// ---------------------------------------------------------------------------
// Compiled inference path. The BenchmarkScore* benchmarks (together with
// BenchmarkObserve* in internal/telemetry and internal/trace) are what the
// CI benchmark gate runs with -count=6 on base and head; they therefore use
// small self-contained synthetic datasets, not the shared corpus.

// benchDetectorData builds a small 5-class dataset over the Common-4
// feature space — the shape core.Train expects — cheap enough to retrain
// on every gate run.
func benchDetectorData() *dataset.Dataset {
	rng := rand.New(rand.NewSource(17))
	classes := make([]string, workload.NumClasses)
	for i := range classes {
		classes[i] = workload.Class(i).String()
	}
	d := dataset.New(append([]string(nil), core.CommonFeatures...), classes)
	for i := 0; i < 600; i++ {
		label := i % workload.NumClasses
		fv := make([]float64, len(core.CommonFeatures))
		for j := range fv {
			fv[j] = rng.NormFloat64() + float64(label)*1.8
		}
		d.Add(dataset.Instance{Features: fv, Label: label})
	}
	return d
}

// benchRuntimeDetector trains the detector the Score benchmarks evaluate,
// pinning one stage-2 kind per class so every compiled evaluator family is
// on the measured path.
func benchRuntimeDetector(b *testing.B) (*core.Detector, *dataset.Dataset) {
	b.Helper()
	data := benchDetectorData()
	det, err := core.Train(data, core.TrainConfig{
		Stage2Kinds: map[workload.Class]core.Kind{
			workload.Backdoor: core.J48,
			workload.Rootkit:  core.JRip,
			workload.Virus:    core.MLP,
			workload.Trojan:   core.OneR,
		},
		Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return det, data
}

// BenchmarkScoreModels compares each classifier family's interpreted
// Scores against its compiled ScoresInto on one sample.
func BenchmarkScoreModels(b *testing.B) {
	binary := mltest.Gaussian2Class(400, 6, 1.5, 11)
	multi := mltest.MultiClass(500, 5, 6, 2.0, 12)
	cases := []struct {
		name    string
		trainer ml.Trainer
		data    *dataset.Dataset
	}{
		{"J48", &tree.J48Trainer{}, binary},
		{"JRip", &rules.JRipTrainer{Seed: 3}, binary},
		{"OneR", &rules.OneRTrainer{}, binary},
		{"MLP", &nn.MLPTrainer{Seed: 3, Epochs: 40}, binary},
		{"MLR", &linear.MLRTrainer{Seed: 3, Epochs: 60}, multi},
		{"AdaBoostJ48", &ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{}, Rounds: 5, Seed: 3}, binary},
	}
	for _, tc := range cases {
		model, err := tc.trainer.Train(tc.data)
		if err != nil {
			b.Fatal(err)
		}
		fv := append([]float64(nil), tc.data.Instances[1].Features...)
		b.Run(tc.name+"/interpreted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.Scores(fv)
			}
		})
		compiled := ml.Compile(model)
		dst := make([]float64, compiled.NumClasses())
		b.Run(tc.name+"/compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compiled.ScoresInto(dst, fv)
			}
		})
	}
}

// BenchmarkScoreDetector compares the full two-stage detector's interpreted
// Detect against the compiled Detect and DetectScoredBatch, the serving
// path's batch call. The compiled cases must report 0 allocs/op — the CI
// gate fails the build if that regresses — and compiled single-sample
// ns/op should stay at least 2x below interpreted.
func BenchmarkScoreDetector(b *testing.B) {
	det, data := benchRuntimeDetector(b)
	fv := append([]float64(nil), data.Instances[3].Features...)
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(fv); err != nil {
				b.Fatal(err)
			}
		}
	})
	cd := det.Compile()
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cd.Detect(fv); err != nil {
				b.Fatal(err)
			}
		}
	})
	const batch = 64
	samples := make([][]float64, batch)
	for i := range samples {
		samples[i] = data.Instances[i%data.Len()].Features
	}
	verdicts := make([]core.Verdict, batch)
	scores := make([]float64, batch)
	b.Run("compiled-scoredbatch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cd.DetectScoredBatch(verdicts, scores, samples); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScoreMonitor measures monitor.Observe over the compiled versus
// interpreted detector — the end-to-end per-sample hot path a deployment
// actually runs.
func BenchmarkScoreMonitor(b *testing.B) {
	det, data := benchRuntimeDetector(b)
	fv := append([]float64(nil), data.Instances[3].Features...)
	run := func(b *testing.B, s monitor.Scorer) {
		m, err := monitor.New(s, monitor.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Observe(fv); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("interpreted", func(b *testing.B) { run(b, det) })
	b.Run("compiled", func(b *testing.B) { run(b, det.Compile()) })
}
