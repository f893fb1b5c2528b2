// Package rollout is the staged canary rollout controller: it drives a
// registry candidate version through pin → bake → gate → widen /
// rollback, with every decision backed by scraped fleet evidence.
//
// The mechanism under it is the registry pin table (registry.Pin): the
// controller pins the candidate to one canary shard, whose
// smartserve -shard-id watch picks it up through the ordinary hot-swap
// path, while the rest of the fleet keeps serving the active version.
// During the bake window the controller repeatedly scrapes the canary
// and the baseline shards (internal/fleet) and evaluates explicit
// gates — shadow divergence, p99 latency regression ratio, the drift
// monitor's retrain-or-rollback verdict, and a minimum canary sample
// count so an idle canary can never pass vacuously. Any gate failure
// rolls the pin back immediately and records why; surviving the full
// bake widens the candidate fleet-wide (Promote + Unpin) through the
// same watch path.
//
// State is durable: rollout.json in the registry root is written
// atomically after every transition and every gate evaluation, so
// `smartctl rollout status` (and a post-mortem) can always see the full
// evidence trail. Aborting is cooperative — `smartctl rollout abort`
// drops a flag file the controller polls — because the registry allows
// only one manifest writer at a time and the controller is it.
package rollout

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"twosmart/internal/fleet"
	"twosmart/internal/registry"
	"twosmart/internal/telemetry"
)

// Phase is a rollout state-machine state.
type Phase string

const (
	// PhasePinning: the candidate is pinned; waiting for the canary
	// shard to report it is actually serving the candidate version.
	PhasePinning Phase = "pinning"
	// PhaseBaking: the canary serves the candidate; evidence is being
	// collected and gated.
	PhaseBaking Phase = "baking"
	// PhaseWidened: every gate held for the whole bake window; the
	// candidate was promoted fleet-wide and the pin removed.
	PhaseWidened Phase = "widened"
	// PhaseRolledBack: a gate failed (or the canary never converged);
	// the pin was removed and the fleet stayed on the baseline.
	PhaseRolledBack Phase = "rolled_back"
	// PhaseAborted: an operator abort unpinned the canary mid-bake.
	PhaseAborted Phase = "aborted"
)

// phaseOrd maps phases onto the rollout_state gauge: the numeric
// encoding is part of the telemetry contract.
var phaseOrd = map[Phase]float64{
	PhasePinning:    1,
	PhaseBaking:     2,
	PhaseWidened:    3,
	PhaseRolledBack: 4,
	PhaseAborted:    5,
}

const (
	// StateFile is the durable controller state, in the registry root.
	StateFile = "rollout.json"
	// abortFile is the cooperative abort flag, in the registry root.
	abortFile = "rollout.abort"
	// stateSchema guards the state document against skew the same way
	// the manifest version does.
	stateSchema = 1
)

// Gates are the explicit promotion thresholds. The drift gate has no
// knob: a retrain-or-rollback verdict on the canary always fails it.
type Gates struct {
	// MaxDivergence fails the gate when the canary's shadow divergence
	// over the window exceeds it. <= 0 disables the gate; a canary that
	// compared nothing in the window (no shadow scorer, or no traffic)
	// skips it either way (recorded as divergence -1).
	MaxDivergence float64 `json:"max_divergence"`
	// MaxP99Ratio fails the gate when canary p99 / worst baseline p99
	// exceeds it. <= 0 disables the gate.
	MaxP99Ratio float64 `json:"max_p99_ratio"`
	// MinSamples fails the gate when the canary scored fewer verdicts
	// than this over the evaluation window — an idle canary is not
	// evidence. <= 0 disables the gate.
	MinSamples float64 `json:"min_samples"`
}

// Side is one side of the canary-vs-baseline comparison over an
// evaluation window.
type Side struct {
	Addrs       []string `json:"addrs"`
	Verdicts    float64  `json:"verdicts"`     // verdicts scored in the window
	VerdictRate float64  `json:"verdict_rate"` // verdicts/s
	ShedRate    float64  `json:"shed_rate"`    // shed samples/s
	P99         float64  `json:"p99_seconds"`  // worst per-shard window p99
}

// Evaluation is one gate pass: the evidence both sides produced and the
// verdict the gates reached on it.
type Evaluation struct {
	At       time.Time `json:"at"`
	Canary   Side      `json:"canary"`
	Baseline Side      `json:"baseline"`
	// P99Ratio is canary p99 / baseline p99 (0 when either side saw no
	// traffic — the min-samples gate owns that case).
	P99Ratio float64 `json:"p99_ratio"`
	// Divergence is the canary's shadow divergence over the window
	// (fleet.ShardStatus.Divergence), -1 when it compared nothing.
	Divergence float64 `json:"divergence"`
	// DriftRetrain is true when the canary's drift monitor recommends
	// retrain-or-rollback.
	DriftRetrain bool `json:"drift_retrain"`
	// Pass is the combined gate verdict; Failures lists every gate that
	// tripped, in evaluation order.
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// State is the durable rollout document (rollout.json).
type State struct {
	SchemaVersion int    `json:"schema_version"`
	Phase         Phase  `json:"phase"`
	Candidate     int    `json:"candidate_version"`
	Baseline      int    `json:"baseline_version"`
	CanaryShard   string `json:"canary_shard"`
	CanaryAddr    string `json:"canary_addr"`
	// BaselineAddrs are the telemetry addresses of the shards still on
	// the baseline version — the comparison population.
	BaselineAddrs []string  `json:"baseline_addrs"`
	Gates         Gates     `json:"gates"`
	StartedAt     time.Time `json:"started_at"`
	UpdatedAt     time.Time `json:"updated_at"`
	BakeSeconds   float64   `json:"bake_seconds"`
	// Evaluations is the full evidence trail, oldest first.
	Evaluations []Evaluation `json:"evaluations,omitempty"`
	// Reason records why a terminal phase was reached ("every gate held
	// for the bake window", "gate failed: ...", "operator abort").
	Reason string `json:"reason,omitempty"`
}

// Config parameterizes a Controller.
type Config struct {
	Registry  *registry.Registry
	Candidate int // candidate version to roll out
	// CanaryShard is the registry pin key — the canary's -shard-id.
	CanaryShard string
	// CanaryAddr is the canary shard's telemetry address (host:port of
	// its -telemetry-addr), scraped for canary-side evidence.
	CanaryAddr string
	// BaselineAddrs are the baseline shards' telemetry addresses.
	BaselineAddrs []string
	// Bake is the total bake window. Defaults to 2 minutes.
	Bake time.Duration
	// Every is the gate evaluation cadence; each evaluation scrapes
	// both sides twice, Every apart, and gates the deltas. Defaults to
	// Bake/4 (at least a second).
	Every time.Duration
	// ConvergeTimeout bounds how long the canary may take to report the
	// candidate version after the pin lands. Defaults to 30s.
	ConvergeTimeout time.Duration
	Gates           Gates
	Telemetry       *telemetry.Registry
	Log             *slog.Logger
	// Client fetches every scrape; nil gets internal/fleet's default.
	Client *http.Client
}

// Controller drives one rollout. Build with New, run with Run.
type Controller struct {
	cfg   Config
	state *State

	stateGauge  telemetry.Gauge
	evals       telemetry.Counter
	gateFails   telemetry.Counter
	widens      telemetry.Counter
	rollbacks   telemetry.Counter
	nonFiniteCt telemetry.Counter
}

// New validates the configuration and builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Registry == nil {
		return nil, errors.New("rollout: registry required")
	}
	if cfg.Candidate <= 0 {
		return nil, errors.New("rollout: candidate version required")
	}
	if cfg.CanaryShard == "" {
		return nil, errors.New("rollout: canary shard id required")
	}
	if cfg.CanaryAddr == "" {
		return nil, errors.New("rollout: canary telemetry address required")
	}
	if len(cfg.BaselineAddrs) == 0 {
		return nil, errors.New("rollout: at least one baseline telemetry address required")
	}
	if cfg.Bake <= 0 {
		cfg.Bake = 2 * time.Minute
	}
	if cfg.Every <= 0 {
		cfg.Every = cfg.Bake / 4
		if cfg.Every < time.Second {
			cfg.Every = time.Second
		}
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	reg := cfg.Telemetry
	return &Controller{
		cfg:         cfg,
		stateGauge:  reg.Gauge("rollout_state"),
		evals:       reg.Counter("rollout_gate_evaluations_total"),
		gateFails:   reg.Counter("rollout_gate_failures_total"),
		widens:      reg.Counter("rollout_widens_total"),
		rollbacks:   reg.Counter("rollout_rollbacks_total"),
		nonFiniteCt: reg.Counter("rollout_nonfinite_samples_total"),
	}, nil
}

// statePath returns the durable state document's location for a registry.
func statePath(r *registry.Registry) string { return filepath.Join(r.Root(), StateFile) }

func abortPath(r *registry.Registry) string { return filepath.Join(r.Root(), abortFile) }

// ReadState loads a registry's rollout state, or (nil, nil) when no
// rollout was ever run against it.
func ReadState(r *registry.Registry) (*State, error) {
	data, err := os.ReadFile(statePath(r))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("rollout: reading %s: %w", StateFile, err)
	}
	if st.SchemaVersion != stateSchema {
		return nil, fmt.Errorf("rollout: unsupported state schema %d (this build reads v%d)",
			st.SchemaVersion, stateSchema)
	}
	return &st, nil
}

// RequestAbort drops the cooperative abort flag. The running controller
// — the registry's single manifest writer — observes it at its next
// poll, unpins the canary and records the abort; this call never
// touches the manifest itself.
func RequestAbort(r *registry.Registry) error {
	st, err := ReadState(r)
	if err != nil {
		return err
	}
	if st == nil || (st.Phase != PhaseBaking && st.Phase != PhasePinning) {
		return errors.New("rollout: no rollout in progress")
	}
	return r.WriteFile(abortFile, []byte(time.Now().UTC().Format(time.RFC3339)+"\n"))
}

// save persists the state document atomically and mirrors the phase
// onto the rollout_state gauge.
func (c *Controller) save() error {
	c.state.UpdatedAt = time.Now().UTC()
	data, err := json.MarshalIndent(c.state, "", "  ")
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	c.stateGauge.Set(phaseOrd[c.state.Phase])
	return c.cfg.Registry.WriteFile(StateFile, append(data, '\n'))
}

// Run executes the rollout to a terminal phase and returns the final
// state. A gate failure or failed canary convergence is not an error —
// it is a successful rollback, reported in the state; the error return
// covers registry and persistence failures only.
func (c *Controller) Run(ctx context.Context) (*State, error) {
	reg := c.cfg.Registry
	if prev, err := ReadState(reg); err != nil {
		return nil, err
	} else if prev != nil && (prev.Phase == PhaseBaking || prev.Phase == PhasePinning) {
		return nil, fmt.Errorf("rollout: a rollout is already %s (candidate v%d); abort it first", prev.Phase, prev.Candidate)
	}
	os.Remove(abortPath(reg)) // a stale flag must not kill the new run

	active, err := reg.ActiveEntry()
	if err != nil {
		return nil, err
	}
	if active.Version == c.cfg.Candidate {
		return nil, fmt.Errorf("rollout: candidate v%d is already the active version", c.cfg.Candidate)
	}
	if _, err := reg.Pin(c.cfg.CanaryShard, c.cfg.Candidate); err != nil {
		return nil, err
	}
	now := time.Now().UTC()
	c.state = &State{
		SchemaVersion: stateSchema,
		Phase:         PhasePinning,
		Candidate:     c.cfg.Candidate,
		Baseline:      active.Version,
		CanaryShard:   c.cfg.CanaryShard,
		CanaryAddr:    c.cfg.CanaryAddr,
		BaselineAddrs: c.cfg.BaselineAddrs,
		Gates:         c.cfg.Gates,
		StartedAt:     now,
		BakeSeconds:   c.cfg.Bake.Seconds(),
	}
	if err := c.save(); err != nil {
		return nil, err
	}
	c.cfg.Log.Info("rollout started: candidate pinned to canary",
		"candidate", c.cfg.Candidate, "baseline", active.Version,
		"canary_shard", c.cfg.CanaryShard, "bake", c.cfg.Bake)

	if reason, err := c.awaitConvergence(ctx); err != nil {
		return nil, err
	} else if reason != "" {
		return c.state, c.rollback(reason)
	}

	c.state.Phase = PhaseBaking
	if err := c.save(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.cfg.Bake)
	for {
		if aborted, err := c.checkAbort(); err != nil || aborted {
			return c.state, err
		}
		ev, err := c.evaluate(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return c.state, ctx.Err()
			}
			// A torn scrape is not a gate verdict; log and retry on the
			// next pass. The bake clock keeps running.
			c.cfg.Log.Warn("evidence scrape failed", "err", err)
		} else {
			c.state.Evaluations = append(c.state.Evaluations, *ev)
			c.evals.Inc()
			if err := c.save(); err != nil {
				return nil, err
			}
			c.cfg.Log.Info("gate evaluated",
				"pass", ev.Pass, "failures", ev.Failures,
				"canary_verdicts", ev.Canary.Verdicts, "p99_ratio", ev.P99Ratio,
				"divergence", ev.Divergence, "drift_retrain", ev.DriftRetrain)
			if !ev.Pass {
				c.gateFails.Inc()
				return c.state, c.rollback("gate failed: " + strings.Join(ev.Failures, "; "))
			}
		}
		if time.Now().After(deadline) {
			break
		}
		if aborted, err := c.checkAbort(); err != nil || aborted {
			return c.state, err
		}
	}

	if len(c.state.Evaluations) == 0 {
		// The whole bake produced no evidence (every scrape failed);
		// widening on none would be a vacuous pass.
		return c.state, c.rollback("no gate evaluation succeeded during the bake window")
	}
	return c.state, c.widen()
}

// awaitConvergence polls the canary's /metrics until serve_model_info
// reports the candidate as the active generation. Returns a rollback
// reason ("" on success); the error return is for context cancellation.
func (c *Controller) awaitConvergence(ctx context.Context) (string, error) {
	deadline := time.Now().Add(c.cfg.ConvergeTimeout)
	for {
		m, err := fleet.FetchMetrics(ctx, c.cfg.Client, c.cfg.CanaryAddr)
		if err == nil {
			if info, ok := m.ActiveModel(); ok && info.Label("version") == fmt.Sprint(c.cfg.Candidate) {
				c.cfg.Log.Info("canary converged on candidate", "version", c.cfg.Candidate)
				return "", nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("canary %s never reported candidate v%d within %s (is it running -watch with -shard-id %s?)",
				c.cfg.CanaryAddr, c.cfg.Candidate, c.cfg.ConvergeTimeout, c.cfg.CanaryShard), nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// evaluate collects one evidence window — every shard's fleet view over
// two scrapes, Every apart — and runs the gates over it.
func (c *Controller) evaluate(ctx context.Context) (*Evaluation, error) {
	addrs := append([]string{c.cfg.CanaryAddr}, c.cfg.BaselineAddrs...)
	st, err := fleet.CollectStatus(ctx, addrs, fleet.CollectConfig{Window: c.cfg.Every, Client: c.cfg.Client})
	if st == nil {
		return nil, err
	}
	// Every address must yield a shard window: a half-blind comparison
	// is worse than none.
	if len(st.Errors) > 0 {
		return nil, fmt.Errorf("scrape %s: %s", st.Errors[0].Addr, st.Errors[0].Err)
	}
	if len(st.Gateways) > 0 {
		return nil, fmt.Errorf("scrape %s: a gateway, not a shard", st.Gateways[0].Addr)
	}

	ev := &Evaluation{
		At:       time.Now().UTC(),
		Canary:   Side{Addrs: []string{c.cfg.CanaryAddr}},
		Baseline: Side{Addrs: c.cfg.BaselineAddrs},
	}
	for _, sh := range st.Shards {
		c.nonFiniteCt.Add(uint64(sh.NonFinite))
		side := &ev.Baseline
		if sh.Addr == c.cfg.CanaryAddr {
			side = &ev.Canary
			ev.Divergence, ev.DriftRetrain = sh.Divergence, sh.DriftAlert
		}
		// Counts and rates sum; p99 takes the worst shard, so a single
		// slow canary cannot hide behind a fast fleet mean.
		side.Verdicts += sh.Verdicts
		side.VerdictRate += sh.VerdictRate
		side.ShedRate += sh.ShedRate
		side.P99 = max(side.P99, sh.P99)
	}
	if ev.Canary.P99 > 0 && ev.Baseline.P99 > 0 {
		ev.P99Ratio = ev.Canary.P99 / ev.Baseline.P99
	}
	ev.Pass, ev.Failures = c.cfg.Gates.check(ev)
	return ev, nil
}

// check runs every gate over one evaluation, returning the combined
// verdict and the failures in evaluation order.
func (g Gates) check(ev *Evaluation) (bool, []string) {
	var failures []string
	if g.MinSamples > 0 && ev.Canary.Verdicts < g.MinSamples {
		failures = append(failures, fmt.Sprintf("min-samples: canary scored %.0f verdicts in the window, need %.0f (an idle canary is not evidence)",
			ev.Canary.Verdicts, g.MinSamples))
	}
	if ev.DriftRetrain {
		failures = append(failures, "drift: canary drift monitor recommends retrain-or-rollback")
	}
	if g.MaxDivergence > 0 && ev.Divergence >= 0 && ev.Divergence > g.MaxDivergence {
		failures = append(failures, fmt.Sprintf("divergence: canary shadow divergence %.4f exceeds max %.4f",
			ev.Divergence, g.MaxDivergence))
	}
	if g.MaxP99Ratio > 0 && ev.P99Ratio > g.MaxP99Ratio {
		failures = append(failures, fmt.Sprintf("p99: canary/baseline latency ratio %.2f exceeds max %.2f",
			ev.P99Ratio, g.MaxP99Ratio))
	}
	return len(failures) == 0, failures
}

// checkAbort polls the cooperative abort flag; when set it unpins the
// canary, records the abort and reports true.
func (c *Controller) checkAbort() (bool, error) {
	if _, err := os.Stat(abortPath(c.cfg.Registry)); err != nil {
		return false, nil
	}
	os.Remove(abortPath(c.cfg.Registry))
	if err := c.cfg.Registry.Unpin(c.cfg.CanaryShard); err != nil {
		return true, err
	}
	c.state.Phase = PhaseAborted
	c.state.Reason = "operator abort"
	c.cfg.Log.Warn("rollout aborted by operator; canary unpinned",
		"candidate", c.state.Candidate, "baseline", c.state.Baseline)
	return true, c.save()
}

// rollback unpins the canary — its watch swaps it back to the baseline
// — and records why. Not an error: a rollback is the controller doing
// its job.
func (c *Controller) rollback(reason string) error {
	if err := c.cfg.Registry.Unpin(c.cfg.CanaryShard); err != nil {
		return err
	}
	c.rollbacks.Inc()
	c.state.Phase = PhaseRolledBack
	c.state.Reason = reason
	c.cfg.Log.Warn("rollout rolled back; canary unpinned",
		"candidate", c.state.Candidate, "baseline", c.state.Baseline, "reason", reason)
	return c.save()
}

// widen promotes the candidate fleet-wide and removes the pin. Promote
// lands first so the canary's effective version never moves: after the
// promote, pin and active agree, and the unpin is a no-op for it while
// every baseline shard's watch picks the candidate up.
func (c *Controller) widen() error {
	if _, err := c.cfg.Registry.Promote(c.cfg.Candidate); err != nil {
		return err
	}
	if err := c.cfg.Registry.Unpin(c.cfg.CanaryShard); err != nil {
		return err
	}
	c.widens.Inc()
	c.state.Phase = PhaseWidened
	c.state.Reason = fmt.Sprintf("every gate held across %d evaluation(s) for the %s bake window",
		len(c.state.Evaluations), time.Duration(c.state.BakeSeconds*float64(time.Second)))
	c.cfg.Log.Info("rollout widened: candidate promoted fleet-wide",
		"candidate", c.state.Candidate, "evaluations", len(c.state.Evaluations))
	return c.save()
}
