// Package twosmart is a from-scratch reproduction of 2SMaRT (Sayadi et al.,
// DATE 2019): a two-stage machine-learning-based run-time specialized
// hardware-assisted malware detector driven by hardware performance
// counters (HPCs).
//
// The package is a facade over the repository's subsystems:
//
//   - a behavioural microarchitecture simulator with a perf-style
//     44-event counter subsystem constrained to four programmable
//     registers (internal/microarch, internal/hpc);
//   - disposable sandbox containers and a synthetic benign/malware
//     application corpus (internal/sandbox, internal/workload,
//     internal/corpus);
//   - from-scratch WEKA-equivalent learners — J48, JRip, OneR, MLP, MLR
//     and AdaBoost.M1 (internal/ml/...), plus correlation and PCA feature
//     reduction (internal/features);
//   - the 2SMaRT two-stage detector itself (internal/core), the
//     single-stage comparison baseline (internal/baseline), an HLS-style
//     hardware cost model (internal/hls), and drivers reproducing every
//     table and figure of the paper (internal/experiments).
//
// A minimal end-to-end use:
//
//	data, err := twosmart.Collect(twosmart.CollectConfig{Scale: 0.05})
//	train, test, _ := data.Split(0.6, 1)
//	det, err := twosmart.Train(train, twosmart.TrainConfig{})
//	verdict, err := det.Detect(test.Instances[0].Features)
package twosmart

import (
	"context"

	"twosmart/internal/baseline"
	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/experiments"
	"twosmart/internal/hls"
	"twosmart/internal/ml"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
	"twosmart/internal/workload"
)

// Class labels an application: benign or one of the paper's four malware
// classes.
type Class = workload.Class

// The five application classes.
const (
	Benign   = workload.Benign
	Backdoor = workload.Backdoor
	Rootkit  = workload.Rootkit
	Virus    = workload.Virus
	Trojan   = workload.Trojan
)

// MalwareClasses returns the four malware classes in canonical order.
func MalwareClasses() []Class { return workload.MalwareClasses() }

// Kind enumerates the stage-2 classifier algorithms (J48, JRip, MLP, OneR).
type Kind = core.Kind

// The four stage-2 algorithm families.
const (
	J48  = core.J48
	JRip = core.JRip
	MLP  = core.MLP
	OneR = core.OneR
)

// Dataset is a labelled feature-vector collection; see the Split, Select
// and WriteCSV methods for the standard protocol operations.
type Dataset = dataset.Dataset

// Instance is one labelled observation.
type Instance = dataset.Instance

// CollectConfig configures corpus collection; the zero value profiles the
// full paper-sized corpus (1000 benign plus 452/350/650/1169 malware
// applications) through the faithful 11-batch multiplexed schedule.
type CollectConfig = corpus.Config

// Collect generates the benign/malware application corpus, profiles every
// application in disposable sandbox containers under the four-counter
// constraint, and returns the labelled 44-feature dataset (one instance per
// 10 ms sample, events normalised per thousand retired instructions).
func Collect(cfg CollectConfig) (*Dataset, error) { return corpus.Collect(cfg) }

// CollectContext is Collect with cancellation: profiling fans out over a
// bounded worker pool (CollectConfig.Workers) and aborts promptly with
// ctx's error when ctx is cancelled. For a given Seed the dataset is
// byte-identical at any worker count.
func CollectContext(ctx context.Context, cfg CollectConfig) (*Dataset, error) {
	return corpus.CollectContext(ctx, cfg)
}

// TrainConfig configures 2SMaRT training; the zero value trains the
// run-time configuration: stage-1 MLR and per-class specialized detectors
// (winner selected by validation) on the four Common HPC features.
type TrainConfig = core.TrainConfig

// Detector is a trained 2SMaRT two-stage detector.
type Detector = core.Detector

// Verdict is a detection decision.
type Verdict = core.Verdict

// Train fits a 2SMaRT detector on a 5-class dataset produced by Collect.
func Train(d *Dataset, cfg TrainConfig) (*Detector, error) { return core.Train(d, cfg) }

// TrainContext is Train with cancellation: the four specialized stage-2
// detectors train concurrently, and cancelling ctx aborts training with
// ctx's error. The trained detector is identical to a serial run for the
// same seed.
func TrainContext(ctx context.Context, d *Dataset, cfg TrainConfig) (*Detector, error) {
	return core.TrainContext(ctx, d, cfg)
}

// CompiledDetector is a trained detector lowered into flat allocation-free
// evaluators for the run-time hot path (see Detector.Compile). It is
// prediction-equivalent to the Detector it was compiled from and performs
// zero heap allocations per sample — but owns scratch space, so compile
// one per goroutine.
type CompiledDetector = core.CompiledDetector

// LoadDetector reconstructs a detector serialised with Detector.Marshal,
// enabling a train-once / deploy-many flow (cmd/smartrain -model writes the
// file; cmd/smartdetect -model loads it).
func LoadDetector(data []byte) (*Detector, error) { return core.UnmarshalDetector(data) }

// CommonFeatures are the paper's four Common HPC events — the features a
// four-register machine can collect in a single run.
func CommonFeatures() []string { return append([]string(nil), core.CommonFeatures...) }

// CustomFeatures returns the paper's per-class 8-event feature set
// (Common 4 plus the class's Custom 4).
func CustomFeatures(class Class) ([]string, error) { return core.CustomFeatures(class) }

// BaselineConfig configures the single-stage general HMD used as the
// state-of-the-art comparison ([2], Patel et al. DAC'17).
type BaselineConfig = baseline.Config

// BaselineDetector is a trained single-stage general detector.
type BaselineDetector = baseline.Detector

// TrainBaseline fits a single-stage general detector on a 5-class dataset.
func TrainBaseline(d *Dataset, cfg BaselineConfig) (*BaselineDetector, error) {
	return baseline.Train(d, cfg)
}

// Classifier is a trained model (scores per class plus argmax prediction,
// and the width of the input it reads).
type Classifier = ml.Classifier

// HardwareCost is the estimated FPGA implementation cost of a trained
// classifier (latency in cycles at a 10 ns clock; LUT/FF/DSP usage).
type HardwareCost = hls.Cost

// EstimateHardware computes the implementation cost of a trained classifier
// with the repository's HLS-style cost model.
func EstimateHardware(c Classifier) (HardwareCost, error) { return hls.Estimate(c) }

// EstimateDetectorHardware computes the implementation cost of a complete
// 2SMaRT deployment: the stage-1 MLR plus all four specialized stage-2
// detectors instantiated side by side (sum of areas; latency of stage 1
// plus the slowest stage-2 detector).
func EstimateDetectorHardware(det *Detector) (HardwareCost, error) {
	stage2 := make([]ml.Classifier, 0, len(MalwareClasses()))
	for _, class := range MalwareClasses() {
		m, err := det.Stage2Model(class)
		if err != nil {
			return HardwareCost{}, err
		}
		stage2 = append(stage2, m)
	}
	return hls.TwoStage(det.Stage1Model(), stage2)
}

// GenerateVerilog emits a synthesizable combinational Verilog module
// implementing a trained J48, JRip or OneR classifier over Q16.16
// fixed-point inputs (see cmd/hwgen).
func GenerateVerilog(c Classifier, moduleName string, featureNames []string) (string, error) {
	return hls.GenerateVerilog(c, moduleName, featureNames)
}

// MonitorConfig tunes the run-time monitor's smoothing and alarm
// hysteresis.
type MonitorConfig = monitor.Config

// MonitorEvent is the monitor's per-sample output.
type MonitorEvent = monitor.Event

// Monitor smooths one application's malware-score stream into stable
// alarms.
type Monitor = monitor.Monitor

// Tracker monitors many applications concurrently.
type Tracker = monitor.Tracker

// NewMonitor wraps a trained detector in a run-time monitor. Scoring goes
// through the detector's compiled form, so with telemetry disabled each
// Observe performs zero heap allocations.
func NewMonitor(det *Detector, cfg MonitorConfig) (*Monitor, error) {
	return monitor.New(det.Compile(), cfg)
}

// NewTracker wraps a trained detector in a multi-application run-time
// tracker. Each tracked application gets its own compiled detector
// instance (compiled detectors own scratch space and are not
// concurrent-safe), so observing different applications from different
// goroutines stays safe and allocation-free.
func NewTracker(det *Detector, cfg MonitorConfig) (*Tracker, error) {
	return monitor.NewTrackerFactory(func() monitor.Scorer { return det.Compile() }, cfg)
}

// ExperimentOptions configures the paper-reproduction experiment drivers.
type ExperimentOptions = experiments.Options

// Experiments is a handle for regenerating the paper's tables and figures;
// see the Table1..Table5 and Fig1..Fig5b methods.
type Experiments = experiments.Context

// NewExperiments collects a corpus and prepares the shared 60/40 split used
// by every experiment driver.
func NewExperiments(opts ExperimentOptions) (*Experiments, error) {
	return experiments.NewContext(opts)
}

// NewExperimentsContext is NewExperiments with cancellation of the corpus
// collection; the returned handle's SweepContext method extends the same
// cancellation to the classifier sweep.
func NewExperimentsContext(ctx context.Context, opts ExperimentOptions) (*Experiments, error) {
	return experiments.NewContextCtx(ctx, opts)
}

// NewExperimentsFromDataset prepares experiment drivers over an existing
// dataset (e.g. one loaded from CSV).
func NewExperimentsFromDataset(d *Dataset, opts ExperimentOptions) (*Experiments, error) {
	return experiments.NewContextFromDataset(d, opts)
}

// Telemetry is the runtime observability registry: atomic counters, gauges
// and latency histograms plus pipeline-stage spans. Pass one through
// CollectConfig, TrainConfig, MonitorConfig or ExperimentOptions to
// instrument that layer; a nil registry disables instrumentation at
// negligible cost. See internal/telemetry and the README's
// "Observability" section for the metric inventory.
type Telemetry = telemetry.Registry

// NewTelemetry builds an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// RunReport is the machine-readable per-run artifact (stage timings,
// metric values, dataset stats, result figures) written by the cmd tools'
// -report flag.
type RunReport = telemetry.RunReport

// DatasetStats summarises a dataset inside a RunReport.
type DatasetStats = telemetry.DatasetStats
