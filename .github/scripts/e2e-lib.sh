# Daemon helpers for the end-to-end smoke steps. Source it, don't run it:
#
#   . .github/scripts/e2e-lib.sh
#   start serve /tmp/smartserve -model /tmp/det.json -addr 127.0.0.1:0
#   /tmp/smartload -addr "$(addr serve)" ...
#   stop serve                    # SIGTERM, expect the documented exit 130
#
# A daemon NAME writes stdout to /tmp/NAME.out and stderr to
# /tmp/NAME.err. Daemons must be started and waited on from the same
# shell, so every helper runs in the caller's shell, never a subshell.

declare -A E2E_PID

# start NAME CMD [ARGS...] runs CMD in the background and waits for its
# "listening ADDR" line.
start() {
  local name=$1
  shift
  "$@" >"/tmp/$name.out" 2>"/tmp/$name.err" &
  E2E_PID[$name]=$!
  wait_listening "$name"
}

# wait_listening NAME polls /tmp/NAME.out for the bound address (10s).
wait_listening() {
  for _ in $(seq 1 50); do
    grep -q '^listening ' "/tmp/$1.out" && { echo "$1 at $(addr "$1")"; return 0; }
    sleep 0.2
  done
  echo "FAIL: $1 never printed its listening address"
  cat "/tmp/$1.err"
  return 1
}

# addr NAME prints the address daemon NAME is listening on.
addr() {
  awk '/^listening /{print $2; exit}' "/tmp/$1.out"
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
