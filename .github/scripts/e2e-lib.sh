# Daemon helpers for the end-to-end smokes, sourced once by smoke.sh
# from the smoke's work directory. A daemon NAME writes stdout to
# NAME.out and stderr to NAME.err there. Daemons must be started and
# waited on from the same shell, so every helper runs in the caller's
# shell, never a subshell.

declare -A E2E_PID

# e2e_exit runs when the smoke exits, an interrupt included. A failed
# smoke prints every log in the work directory. Every background process
# still running, the daemons start launched included, is killed and
# reaped, so none holds a fixed telemetry port against the next run.
e2e_exit() {
  local rc=$? f
  set +e
  if [ "$rc" -ne 0 ]; then
    for f in *.out *.err; do [ -f "$f" ] && { echo "--- $f"; cat "$f"; }; done
  fi
  kill -KILL $(jobs -p) 2>/dev/null
  wait
  exit "$rc"
}
trap e2e_exit EXIT
trap 'exit 130' INT TERM

# start NAME CMD [ARGS...] runs CMD in the background and waits up to
# 10s for its "listening ADDR" line.
start() {
  local name=$1
  shift
  "$@" >"$name.out" 2>"$name.err" &
  E2E_PID[$name]=$!
  for _ in $(seq 1 50); do
    grep -q '^listening ' "$name.out" && { echo "$name at $(addr "$name")"; return 0; }
    sleep 0.2
  done
  echo "FAIL: $name never printed its listening address"
  return 1
}

# addr NAME prints the address daemon NAME is listening on.
addr() {
  awk '/^listening /{print $2; exit}' "$1.out"
}

# pid NAME prints daemon NAME's process id.
pid() {
  echo "${E2E_PID[$1]}"
}

# await NAME waits for daemon NAME and requires the drain exit code 130.
await() {
  local rc=0
  wait "${E2E_PID[$1]}" || rc=$?
  echo "$1 exit code: $rc"
  test "$rc" -eq 130 || { echo "FAIL: $1 exited $rc, want 130"; return 1; }
}

# stop NAME sends daemon NAME one SIGTERM (a second would skip the
# graceful drain) and awaits its exit 130.
stop() {
  kill -TERM "${E2E_PID[$1]}"
  await "$1"
}

# has_verdicts FILE requires the smartload summary in FILE to report a
# nonzero verdict count.
has_verdicts() {
  awk -v f="$1" '/^verdicts/ { n = $2 }
    END { if (n + 0 == 0) { print "FAIL: no verdicts in " f; exit 1 } }' "$1"
}

# no_loss FILE requires the smartload summary in FILE to account for
# every sample it sent: its fates line reports lost 0.
no_loss() {
  awk -v f="$1" '/^fates/ { line = $0; lost = $NF }
    END { if (line == "") { print "FAIL: no fates line in " f; exit 1 }
          if (lost != 0) { print "FAIL: " f " does not account for every sample: " line; exit 1 } }' "$1"
}

# wait_healthz HOST:PORT... requires every telemetry endpoint's /healthz
# to answer 200 within 10s.
wait_healthz() {
  local t
  for t in "$@"; do
    for _ in $(seq 1 50); do
      curl -fsS "http://$t/healthz" >/dev/null 2>&1 && break
      sleep 0.2
    done
    curl -fsS "http://$t/healthz" || { echo "FAIL: $t/healthz not ready"; return 1; }
  done
}
