#!/usr/bin/env bash
# Runs one end-to-end smoke the same way in CI and locally:
#
#   bash .github/scripts/smoke.sh bench|serve|lifecycle|replay|cluster|rollout
#
# The smoke builds what it needs from this checkout and runs inside a
# fresh work directory, ${TMPDIR:-/tmp}/twosmart-e2e-NAME: every path
# below is relative to it, and what CI keeps goes under its artifacts/.
# On failure the script prints the smoke's logs and kills its daemons
# (e2e-lib.sh). cluster and rollout bind the fixed telemetry ports
# 18770-18772 and 18780-18782.
set -eo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)

# build_tools builds the five service-tier tools into bin/.
build_tools() {
  go -C "$root" build -o "$PWD/bin/" \
    ./cmd/smartrain ./cmd/smartserve ./cmd/smartgw ./cmd/smartload ./cmd/smartctl
}

# train_one builds the tools and trains det.json (seed 1) with the
# stage-0 envelope env.json for the cascade pass.
train_one() {
  build_tools
  bin/smartrain -scale 0.002 -runtime -model det.json -envelope env.json -quiet
}

# train_two builds the tools and trains det1.json and det2.json (seeds 5
# and 17).
train_two() {
  build_tools
  bin/smartrain -scale 0.002 -runtime -model det1.json -seed 5 -quiet
  bin/smartrain -scale 0.002 -runtime -model det2.json -seed 17 -quiet
}

# The serving benchmark (bench/, its own module) compiles against the
# internal session and monitor APIs and spawns the daemons built from
# this checkout: vet and unit-test it, then run every workload at a
# tenth of its rate so an API or daemon change cannot break it unseen.
smoke_bench() {
  go -C "$root/bench" vet ./...
  go -C "$root/bench" test ./...
  (cd "$root" && bash bench/run.sh -smoke)
}

# End-to-end smoke of the streaming detection service: train a tiny
# runtime model, serve it, drive it with the load harness, then check
# the server drains cleanly on SIGTERM with the documented exit 130.
smoke_serve() {
  train_one
  start serve bin/smartserve -model det.json -addr 127.0.0.1:0
  bin/smartload -addr "$(addr serve)" -conns 4 -streams 2 -samples 2000 \
    | tee load.out
  # The harness must have gotten real verdicts back, and every
  # sample it sent ended as a verdict or a shed.
  has_verdicts load.out
  no_loss load.out
  grep -q '^latency' load.out || { echo "FAIL: no latency report"; exit 1; }
  # Graceful drain: SIGTERM must exit with the documented 130.
  stop serve
  grep -q 'drained cleanly after signal' serve.err
  # Cascade pass: the same server with the stage-0 anomaly envelope in
  # front, driven with benign-heavy traffic. Asserts the cascade
  # short-circuits a non-zero fraction, that every sample resolved
  # through exactly one cascade arm (verdict accounting reconciles),
  # and that the run report records the cascade configuration.
  start serve-cascade bin/smartserve -model det.json -envelope env.json \
    -report cascade-report.json -addr 127.0.0.1:0
  bin/smartload -addr "$(addr serve-cascade)" -conns 2 -streams 2 -samples 2000 -benign \
    | tee load-cascade.out
  has_verdicts load-cascade.out
  no_loss load-cascade.out
  stop serve-cascade
  python3 - <<'PYEOF'
import json
rep = json.load(open("cascade-report.json"))
res = rep["results"]
short, passed = res["cascade_short_circuited"], res["cascade_passed_on"]
frac = res["cascade_short_fraction"]
assert frac > 0, f"cascade never short-circuited on benign-heavy load: {res}"
want = 2 * 2 * 2000  # conns * streams * samples
assert short + passed == want, f"cascade accounting {short}+{passed} != {want}"
note = rep.get("notes", {}).get("cascade")
assert note, f"run report lacks the cascade config note: {rep.get('notes')}"
print(f"cascade: {short:.0f} short-circuited ({100*frac:.1f}%), "
      f"{passed:.0f} passed on; note: {note}")
PYEOF
}

# End-to-end smoke of the model lifecycle: publish two tiny models into
# a registry, serve v1 with the watch loop on, drive load across a
# `smartctl promote` to v2, and require that the swap cost zero
# connection errors and zero lost verdicts, that both versions show
# up in stream summaries, and that a same-version SIGHUP is skipped.
smoke_lifecycle() {
  train_two
  # Publish v1 (active) and v2 with drift references.
  bin/smartctl publish -registry models -model det1.json \
    -reference -scale 0.002 -promote -note "baseline" -quiet
  bin/smartctl publish -registry models -model det2.json \
    -reference -scale 0.002 -note "retrain" -quiet
  bin/smartctl list -registry models
  start serve bin/smartserve -registry models -watch -watch-interval 200ms \
    -addr 127.0.0.1:0 -report serve-report.json
  ADDR=$(addr serve)
  # Load that spans the promotion: the swap must not cost this run
  # a single connection error (smartload exits non-zero on any).
  bin/smartload -addr "$ADDR" -conns 2 -streams 2 -samples 2500 \
    -interval 2ms >load1.out 2>load1.err &
  LOAD_PID=$!
  sleep 1
  bin/smartctl promote -registry models -version 2
  wait "$LOAD_PID"
  cat load1.out
  # A swap never loses a verdict.
  no_loss load1.out
  grep -q 'models   v1=4' load1.out \
    || { echo "FAIL: pre-swap load did not report v1 summaries"; exit 1; }
  # The watch loop must have landed the swap by now.
  grep -q 'hot swap complete' serve.err \
    || { echo "FAIL: no hot swap in server log"; exit 1; }
  # Streams opened after the promotion score on (and report) v2.
  bin/smartload -addr "$ADDR" -conns 1 -streams 2 -samples 500 \
    | tee load2.out
  grep -q 'models   v2=2' load2.out \
    || { echo "FAIL: post-swap load did not report v2 summaries"; exit 1; }
  no_loss load2.out
  # SIGHUP wakes the same registry loop as -watch: v2 is already
  # serving, so it must log a skipped swap, not swap again.
  kill -HUP "$(pid serve)"
  for i in $(seq 1 25); do
    grep -q 'hot swap skipped: version unchanged.*trigger=SIGHUP' serve.err && break
    sleep 0.2
  done
  grep -q 'hot swap skipped: version unchanged.*trigger=SIGHUP' serve.err \
    || { echo "FAIL: same-version SIGHUP not logged as a skipped swap"; exit 1; }
  # Graceful exit still holds, and the run report carries the
  # lifecycle results: active version 2 plus a drift verdict.
  stop serve
  grep -q '"model_version": 2' serve-report.json
  grep -q '"drift_recommendation"' serve-report.json
}

# End-to-end smoke of the durable sample log and the replay harness on
# top of it: serve v1 with -samplelog under load and require the log to
# have captured every verdict (zero writer drops, logverify count ==
# verdicts the harness received), backtest the log through v2 at full
# speed and require a populated divergence report (with a
# divergence-free self-backtest through v1 as the control), then
# SIGKILL a recording server mid-load, shear the newest segment
# mid-record, and require reopening to truncate the torn tail at the
# last valid checksum with zero corrupted records and zero valid
# records lost. An amplified wire-path replay of the recorded log
# through the promoted v2 closes the loop. Both sample logs stay under
# artifacts/.
smoke_replay() {
  train_two
  # Publish v1 (active) and v2.
  bin/smartctl publish -registry models -model det1.json \
    -promote -note "baseline" -quiet
  bin/smartctl publish -registry models -model det2.json \
    -note "retrain" -quiet
  # Diff v1 against itself and against v2 on the corpus. The self-diff
  # is the control: one model scored twice through the same path cannot
  # disagree with itself.
  bin/smartctl diff -registry models -baseline 1 -candidate 1 -scale 0.002 \
    | tee diff-self.out
  grep -q 'verdict divergence: 0.0000 (0 disagreements)' diff-self.out \
    || { echo "FAIL: v1 diffed against itself diverged"; exit 1; }
  bin/smartctl diff -registry models -baseline 1 -candidate 2 -scale 0.002 \
    | tee diff.out
  grep -Eq '^diff v1 -> v2 over [1-9][0-9]* samples$' diff.out \
    || { echo "FAIL: no 'diff v1 -> v2 over N samples' line with N > 0"; exit 1; }
  # Record under load, verify the log, backtest v2.
  start serve bin/smartserve -registry models -addr 127.0.0.1:0 \
    -samplelog artifacts/samples -report serve-report.json
  bin/smartload -addr "$(addr serve)" -conns 2 -streams 2 -samples 2000 \
    | tee load.out
  no_loss load.out
  stop serve
  # Every verdict the harness received must be on disk: the writer
  # reported zero drops, and the verifier's record count matches.
  VERDICTS=$(awk '/^verdicts/{print $2; exit}' load.out)
  grep -q '"samplelog_dropped": 0' serve-report.json \
    || { echo "FAIL: sample log dropped records under load"; exit 1; }
  bin/smartctl logverify -log artifacts/samples | tee verify.out
  bin/smartctl logverify -log artifacts/samples -json > verify.json
  python3 - "$VERDICTS" <<'PYEOF'
import json, sys
want = int(sys.argv[1])
rep = json.load(open("verify.json"))
assert rep["records"] == want, f'log has {rep["records"]} records, harness saw {want} verdicts'
assert rep["scored_records"] == want, rep
assert rep["torn_bytes"] == 0 and rep["corrupted"] == 0, rep
print(f'log: {rep["records"]} records, all scored, clean')
PYEOF
  # Backtest through the unpromoted v2: the divergence report must
  # cover every recorded verdict, and the v1 self-backtest control
  # must be divergence-free (the log carries exact verdict bits).
  bin/smartctl backtest -registry models -log artifacts/samples -version 2 \
    | tee backtest.out
  grep -q 'verdict divergence: ' backtest.out \
    || { echo "FAIL: no divergence line in backtest output"; exit 1; }
  bin/smartctl backtest -registry models -log artifacts/samples -version 2 -json \
    > backtest.json
  python3 - "$VERDICTS" <<'PYEOF'
import json, sys
bt = json.load(open("backtest.json"))
assert bt["replayed"] == int(sys.argv[1]), bt["replayed"]
rep = bt["report"]
assert rep["scored"] == bt["replayed"] and rep["errors"] == 0, rep
assert rep["per_class"], "divergence report has no per-class stats"
print(f'backtest v2: divergence {rep["verdict_divergence"]:.4f} over {rep["scored"]} verdicts')
PYEOF
  bin/smartctl backtest -registry models -log artifacts/samples -version 1 -json \
    > backtest1.json
  python3 - <<'PYEOF'
import json
rep = json.load(open("backtest1.json"))["report"]
assert rep["disagreements"] == 0, f'self-backtest diverged: {rep}'
print(f'backtest v1 (control): {rep["scored"]} verdicts, zero divergence')
PYEOF
  # Crash recovery (SIGKILL mid-load + torn tail).
  start crash bin/smartserve -registry models -addr 127.0.0.1:0 \
    -samplelog artifacts/samples-crash
  bin/smartload -addr "$(addr crash)" -conns 2 -streams 2 -samples 4000 \
    -interval 1ms >crash-load.out 2>crash-load.err &
  LOAD_PID=$!
  sleep 2
  kill -KILL "$(pid crash)"
  wait "$(pid crash)" || true
  # The harness dies with the server; that's the point here.
  wait "$LOAD_PID" || true
  # The kill can land between batch writes, so force the torn-tail
  # case deterministically too: shear the newest segment mid-record
  # (every framed record is at least 38 bytes, the header is 16).
  python3 - <<'PYEOF'
import glob, os
seg = sorted(glob.glob("artifacts/samples-crash/seg-*.slog"))[-1]
size = os.path.getsize(seg)
if size > 23:
    os.truncate(seg, size - 7)
print(f"sheared {seg}: {size} -> {os.path.getsize(seg)} bytes")
PYEOF
  bin/smartctl logverify -log artifacts/samples-crash -json > crash-verify.json
  python3 - <<'PYEOF'
import json
rep = json.load(open("crash-verify.json"))
assert rep["corrupted"] == 0, f'corrupted records after SIGKILL: {rep}'
assert rep["records"] > 0, "crash window captured no records"
print(f'post-crash: {rep["records"]} records, torn tail {rep["torn_bytes"]} bytes')
PYEOF
  BEFORE=$(python3 -c 'import json; print(json.load(open("crash-verify.json"))["records"])')
  # Reopening must truncate the torn tail at the last valid
  # checksum and lose nothing else: same valid record count, zero
  # torn bytes, still zero corrupted.
  start reopen bin/smartserve -registry models -addr 127.0.0.1:0 \
    -samplelog artifacts/samples-crash
  stop reopen
  bin/smartctl logverify -log artifacts/samples-crash -json > recovered.json
  python3 - "$BEFORE" <<'PYEOF'
import json, sys
rep = json.load(open("recovered.json"))
assert rep["torn_bytes"] == 0, f'torn tail survived recovery: {rep}'
assert rep["corrupted"] == 0, rep
assert rep["records"] == int(sys.argv[1]), \
    f'recovery changed the valid record count: {rep["records"]} != {sys.argv[1]}'
print(f'recovered: {rep["records"]} records intact, torn tail truncated')
PYEOF
  # Amplified wire-path replay through v2.
  bin/smartctl promote -registry models -version 2
  start replay-serve bin/smartserve -registry models -addr 127.0.0.1:0
  bin/smartload -addr "$(addr replay-serve)" -replay artifacts/samples -amplify 10 \
    | tee replay.out
  grep -q '^replayed ' replay.out \
    || { echo "FAIL: no replay summary"; exit 1; }
  has_verdicts replay.out
  no_loss replay.out
  stop replay-serve
}

# End-to-end smoke of the sharded gateway tier: two smartserve shards
# behind a smartgw, load through the gateway with the gateway's own
# per-shard forward counters showing traffic on both shards, a smartctl
# status run mid-load asserting the merged fleet view (both shards
# reporting verdict rates, at least one end-to-end trace with every hop
# attributed), then a shard SIGTERM mid-run — its streams must reroute
# onto the survivor with zero client-visible connection errors, and the
# gateway must still drain cleanly with exit 130. The fleet status and
# every node's traces stay under artifacts/.
smoke_cluster() {
  train_one
  T1=127.0.0.1:18771; T2=127.0.0.1:18772; TGW=127.0.0.1:18770
  start sh1 bin/smartserve -model det.json -shard -addr 127.0.0.1:0 \
    -telemetry-addr "$T1" -trace-sample 64
  start sh2 bin/smartserve -model det.json -shard -addr 127.0.0.1:0 \
    -telemetry-addr "$T2" -trace-sample 64
  A1=$(addr sh1); A2=$(addr sh2)
  start gw bin/smartgw -addr 127.0.0.1:0 -shards "$A1,$A2" \
    -check-interval 200ms -report gw-report.json \
    -telemetry-addr "$TGW" -trace-sample 64
  GA=$(addr gw)
  # Drain-aware readiness: every node's /healthz answers 200
  # before traffic starts.
  wait_healthz "$T1" "$T2" "$TGW"
  # Full-fleet pass: verdicts flow, and the gateway's own per-shard
  # forward counters show both shards carrying traffic.
  bin/smartload -addr "$GA" -conns 3 -streams 4 -samples 1500 | tee load1.out
  has_verdicts load1.out
  no_loss load1.out
  curl -fsS "http://$TGW/metrics" > gw-metrics.txt
  python3 - "$A1" "$A2" <<'PYEOF'
import re, sys
shards = sys.argv[1:]
fwd = {}
for line in open("gw-metrics.txt"):
    m = re.fullmatch(r'cluster_samples_forwarded_total\{shard="([^"]+)"\} (\S+)', line.strip())
    if m:
        fwd[m.group(1)] = float(m.group(2))
for shard in shards:
    assert fwd.get(shard, 0) > 0, \
        f"shard {shard} carried no traffic; consistent-hash spread broken: {fwd}"
total = sum(fwd[s] for s in shards)
for shard in shards:
    print(f"shard {shard}: forwarded {fwd[shard]:.0f} samples ({100*fwd[shard]/total:.1f}%)")
print(f"skew max/mean = {max(fwd[s] for s in shards) / (total / len(shards)):.2f}")
PYEOF
  # Observability pass: paced load in the background while
  # smartctl status scrapes the whole fleet. The merged view must
  # show both shards producing verdicts and at least one
  # end-to-end trace with every hop attributed.
  bin/smartload -addr "$GA" -conns 2 -streams 4 -samples 4000 \
    -interval 2ms >load-status.out 2>load-status.err &
  STATUS_LOAD_PID=$!
  sleep 1
  bin/smartctl status -fleet "$TGW,$T1,$T2" -window 1500ms -top 5 \
    | tee status.out
  bin/smartctl status -fleet "$TGW,$T1,$T2" -window 1500ms -top 10 -json \
    > status.json
  mkdir -p artifacts
  cp status.out status.json artifacts/
  for t in "$T1" "$T2" "$TGW"; do
    curl -fsS "http://$t/debug/traces" > "artifacts/traces-${t##*:}.json"
  done
  python3 - <<'PYEOF'
import json
st = json.load(open("status.json"))
assert len(st["gateways"]) == 1, f'want 1 gateway, got {st["gateways"]}'
assert len(st["shards"]) == 2, f'want 2 shards, got {st["shards"]}'
for sh in st["shards"]:
    assert sh["verdict_rate"] > 0, f'shard {sh["addr"]} reports no verdict rate: {sh}'
    assert sh["p99_seconds"] > 0, f'shard {sh["addr"]} reports no p99: {sh}'
    print(f'shard {sh["addr"]}: {sh["verdict_rate"]:.0f} verdicts/s, '
          f'p99 {sh["p99_seconds"]*1e3:.2f}ms, model {sh["model"]}')
STAGE0 = 3  # hop index; zero on a shard running no stage-0 cascade
full = [t for t in st["slowest_traces"]
        if t["tier"] == "shard"
        and all(h > 0 for i, h in enumerate(t["hops"]) if i != STAGE0)
        and sum(t["hops"]) == t["total_nanos"]]
assert full, f'no end-to-end trace with all hops attributed: {st["slowest_traces"]}'
t = full[0]
print("end-to-end trace:", t["trace_id"], t["hops"], "=", t["total_nanos"], "ns")
PYEOF
  rc=0; wait "$STATUS_LOAD_PID" || rc=$?
  test "$rc" -eq 0 || { echo "FAIL: status-window load exit $rc"; cat load-status.err; exit 1; }
  # Failover pass: paced load spanning a shard SIGTERM. smartload
  # exits non-zero on any connection error, so exit 0 here IS the
  # zero-client-visible-errors assertion.
  bin/smartload -addr "$GA" -conns 2 -streams 4 -samples 1200 \
    -interval 2ms >load2.out 2>load2.err &
  LOAD_PID=$!
  sleep 1
  kill -TERM "$(pid sh2)"
  # Drain-aware readiness flips during the graceful drain (the
  # shard may finish draining before the probe lands, so 503 and
  # connection-refused are both acceptable here; 200 is not).
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$T2/healthz" || true)
  echo "shard2 /healthz during drain: $code"
  test "$code" != "200" || { echo "FAIL: /healthz still ready during drain"; exit 1; }
  rc=0; wait "$LOAD_PID" || rc=$?
  echo "smartload exit code across shard death: $rc"
  test "$rc" -eq 0
  cat load2.out
  await sh2
  # Gateway drains with the documented 130 and its report counts
  # the reroute plus traffic relayed from both shards.
  stop gw
  python3 - "$A1" "$A2" <<'PYEOF'
import json, sys
a1, a2 = sys.argv[1], sys.argv[2]
counters = json.load(open("gw-report.json"))["counters"]
for shard in (a1, a2):
    relayed = counters.get(f'cluster_verdicts_relayed_total{{shard="{shard}"}}', 0)
    assert relayed > 0, f"no verdicts relayed from shard {shard}"
    print(f"shard {shard}: relayed {relayed}")
assert counters["cluster_streams_rerouted_total"] > 0, "no stream rerouted after shard death"
print("rerouted:", counters["cluster_streams_rerouted_total"])
PYEOF
  stop sh1
}

# End-to-end smoke of the staged canary rollout: a two-shard fleet
# behind a gateway, the canary shard shadow-scoring v1. A good
# candidate (byte-identical to the baseline, zero divergence) must
# pin, converge, bake under live load, pass every gate and widen
# fleet-wide; a divergent candidate must trip the divergence gate and
# auto-rollback. Both rollouts run under paced smartload traffic, and
# smartload exits non-zero on any connection error — its exit 0 IS
# the zero-client-visible-errors assertion across pin, widen and
# rollback swaps. Gate evidence is asserted from `smartctl rollout
# status -json`, and the mid-bake fleet view must show the pinned shard
# as canary and a gateway upstream serving the candidate.
smoke_rollout() {
  train_two
  # v1: the baseline, active. v2: a genuinely different model
  # (different training seed) — the divergent candidate. v3: the
  # same bytes as v1 republished — the good candidate, whose
  # shadow divergence against v1 is exactly zero.
  bin/smartctl publish -registry models -model det1.json \
    -promote -note "baseline" -quiet
  bin/smartctl publish -registry models -model det2.json \
    -note "divergent retrain" -quiet
  bin/smartctl publish -registry models -model det1.json \
    -note "good retrain" -quiet
  bin/smartctl list -registry models
  T1=127.0.0.1:18781; T2=127.0.0.1:18782; TGW=127.0.0.1:18780
  # The canary shard has a stable identity (the registry pin key)
  # and shadow-scores v1, so the rollout can gate on divergence.
  start sh-canary bin/smartserve -registry models -watch -watch-interval 200ms \
    -shard-id canary -shadow 1 -addr 127.0.0.1:0 -telemetry-addr "$T1"
  start sh-base bin/smartserve -registry models -watch -watch-interval 200ms \
    -shard-id base -addr 127.0.0.1:0 -telemetry-addr "$T2"
  A1=$(addr sh-canary); A2=$(addr sh-base)
  start gw bin/smartgw -addr 127.0.0.1:0 -shards "$A1,$A2" \
    -check-interval 200ms -telemetry-addr "$TGW"
  GA=$(addr gw)
  wait_healthz "$T1" "$T2" "$TGW"

  # --- Good rollout: candidate v3 must widen. Load spans the
  # whole pin/converge/bake/widen sequence.
  bin/smartload -addr "$GA" -conns 2 -streams 4 -samples 6000 \
    -interval 2ms >load-good.out 2>load-good.err &
  LOAD_PID=$!
  sleep 1
  bin/smartctl rollout start -registry models -candidate 3 \
    -canary-shard canary -canary-addr "$T1" -baseline-addrs "$T2" \
    -bake 6s -every 2s -converge-timeout 20s \
    -min-samples 100 -max-divergence 0.01 \
    >rollout-good.out 2>rollout-good.err &
  ROLLOUT_PID=$!
  # Mid-bake fleet view: the pinned shard must show as canary in
  # the shards' ROLLOUT column (the registry pin, which the shard
  # exports as serve_rollout_pinned), and the GATEWAY block must
  # list an upstream on the candidate's version.
  sleep 4
  bin/smartctl status -fleet "$TGW,$T1,$T2" -window 1500ms \
    | tee status-midbake.out
  grep -q ' canary' status-midbake.out \
    || { echo "FAIL: mid-bake fleet status does not label the canary"; exit 1; }
  grep -Eq '^  [0-9.:]+ +up +v3 ' status-midbake.out \
    || { echo "FAIL: gateway view lists no upstream on candidate v3"; exit 1; }
  rc=0; wait "$ROLLOUT_PID" || rc=$?
  cat rollout-good.out
  test "$rc" -eq 0 || { echo "FAIL: good rollout exit $rc, want 0 (widened)"; cat rollout-good.err; exit 1; }
  bin/smartctl rollout status -registry models -json > rollout-good.json
  python3 - <<'PYEOF'
import json
st = json.load(open("rollout-good.json"))
assert st["phase"] == "widened", st["phase"]
assert st["candidate_version"] == 3 and st["baseline_version"] == 1, st
evs = st["evaluations"]
assert evs, "widened with no recorded gate evidence"
for ev in evs:
    assert ev["pass"], f"widened despite a failed evaluation: {ev}"
    assert ev["canary"]["verdicts"] >= 100, f"canary under min-samples yet passed: {ev}"
    assert ev["divergence"] == 0, f"good candidate diverged: {ev}"
    assert ev["baseline"]["verdicts"] > 0, f"baseline side saw no traffic: {ev}"
print(f'good rollout: widened after {len(evs)} evaluation(s); '
      f'last window canary {evs[-1]["canary"]["verdict_rate"]:.0f} v/s, '
      f'baseline {evs[-1]["baseline"]["verdict_rate"]:.0f} v/s')
PYEOF
  # The widen must reach the baseline shard through its watch.
  for i in $(seq 1 25); do
    grep -q 'hot swap complete' sh-base.err && break
    sleep 0.2
  done
  grep -q 'hot swap complete' sh-base.err \
    || { echo "FAIL: baseline shard never picked up the widened version"; exit 1; }
  # Zero client-visible errors across pin + widen: smartload exits
  # non-zero on any connection error.
  rc=0; wait "$LOAD_PID" || rc=$?
  test "$rc" -eq 0 || { echo "FAIL: load across good rollout exit $rc"; cat load-good.err; exit 1; }

  # --- Divergent rollout: candidate v2 must trip the divergence
  # gate and auto-rollback, again under load. Streams in flight
  # keep the generation they opened with, so a second load is
  # started only after the canary reports the candidate live —
  # those fresh streams bind v2 and feed the shadow scorer the
  # divergent verdicts.
  bin/smartload -addr "$GA" -conns 2 -streams 4 -samples 6000 \
    -interval 2ms >load-bad.out 2>load-bad.err &
  LOAD_PID=$!
  sleep 1
  bin/smartctl rollout start -registry models -candidate 2 \
    -canary-shard canary -canary-addr "$T1" -baseline-addrs "$T2" \
    -bake 6s -every 2s -converge-timeout 20s \
    -min-samples 100 -max-divergence 0.005 \
    >rollout-bad.out 2>rollout-bad.err &
  ROLLOUT_PID=$!
  # Capture the scrape into a variable before grepping: grep -q on a
  # pipe exits at first match and can SIGPIPE curl, which under
  # pipefail reports the whole pipeline as failed despite the match.
  live=0
  for i in $(seq 1 50); do
    m="$(curl -s "http://$T1/metrics" || true)"
    case "$m" in *'version="2"} 1'*) live=1; break;; esac
    sleep 0.2
  done
  [ "$live" = 1 ] \
    || { echo "FAIL: canary never reported v2 live"; exit 1; }
  bin/smartload -addr "$GA" -conns 3 -streams 4 -samples 1500 \
    -interval 4ms >load-bad2.out 2>load-bad2.err &
  LOAD2_PID=$!
  rc=0; wait "$ROLLOUT_PID" || rc=$?
  cat rollout-bad.out
  test "$rc" -eq 1 || { echo "FAIL: divergent rollout exit $rc, want 1 (rolled back)"; cat rollout-bad.err; exit 1; }
  bin/smartctl rollout status -registry models -json > rollout-bad.json
  python3 - <<'PYEOF'
import json
st = json.load(open("rollout-bad.json"))
assert st["phase"] == "rolled_back", st["phase"]
assert st["candidate_version"] == 2 and st["baseline_version"] == 3, st
assert "divergence" in st["reason"], f'rollback reason is not the divergence gate: {st["reason"]}'
last = st["evaluations"][-1]
assert not last["pass"] and last["divergence"] > 0.005, last
assert last["canary"]["verdicts"] > 0, f"gate tripped without canary evidence: {last}"
print(f'divergent rollout: rolled back, divergence {last["divergence"]:.4f} '
      f'over {last["canary"]["verdicts"]:.0f} canary verdicts; reason: {st["reason"]}')
PYEOF
  # The fleet must still be on the good version: v3 active, no pins.
  bin/smartctl list -registry models | tee list-final.out
  grep -q '^\*3' list-final.out \
    || { echo "FAIL: active version is not v3 after the rollback"; exit 1; }
  rc=0; wait "$LOAD_PID" || rc=$?
  test "$rc" -eq 0 || { echo "FAIL: load across rollback exit $rc"; cat load-bad.err; exit 1; }
  rc=0; wait "$LOAD2_PID" || rc=$?
  test "$rc" -eq 0 || { echo "FAIL: candidate-bound load exit $rc"; cat load-bad2.err; exit 1; }

  # Everything drains with the documented 130.
  for name in gw sh-canary sh-base; do stop "$name"; done
}

declare -F "smoke_${1:-}" >/dev/null \
  || { echo "usage: smoke.sh bench|serve|lifecycle|replay|cluster|rollout" >&2; exit 2; }
work="${TMPDIR:-/tmp}/twosmart-e2e-$1"
rm -rf "$work"
mkdir -p "$work/tmp"
cd "$work"
# Go's build and test temporaries stay in the work directory too.
export TMPDIR="$work/tmp"
. "$root/.github/scripts/e2e-lib.sh"
"smoke_$1"
