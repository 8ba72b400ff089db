#!/usr/bin/env bash
# CLI contract test, registered with ctest as cli_test:
#
#   tests/cli_test.sh path/to/cocco
#
# 1. The flag modes and run-spec documents are one path: `coexplore`
#    prints the same --json as `run --spec` on the equivalent
#    document (a number flag reads as its key does), and
#    `partition --algo sa` writes the same metrics as a
#    "mode": "partition" document (name and wall time masked).
# 2. The run flags work on the flag modes: a --time-limit stop leaves
#    a --checkpoint that resumes to the uninterrupted result (another
#    run's checkpoint is refused before the run, and kept),
#    --progress streams NDJSON, and SIGINT exits 130 with the metrics
#    and the cache file written.
# 3. `run` / `coschedule` refuse a positional model and every flag
#    they do not read, and the flag modes refuse --spec and a
#    malformed number (exit 2, naming the argument); `timeline`
#    honours the deployment flags; the workload flags obey the spec
#    rule (--model-file with --model-seed exits 1 with its reason),
#    and a document that repeats a key exits 1 naming it.
# 4. `validate-metrics` accepts what every run mode writes and exits 1
#    with `fatal: <file>: <reason>` on a document no writer produces.
set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 COCCO_BIN" >&2
  exit 2
fi
cocco=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# same_json NAME FLAGS... -- DOCUMENT: `cocco FLAGS --json` must print
# what `cocco run` prints for DOCUMENT.
same_json() {
  local name=$1
  shift
  local flags=()
  while [ "$1" != -- ]; do
    flags+=("$1")
    shift
  done
  echo "$2" > "$name.spec.json"
  "$cocco" "${flags[@]}" --json > "$name.flags.out" 2> /dev/null ||
    fail "$name: flag run exited $?"
  "$cocco" run --spec "$name.spec.json" --json > "$name.spec.out" \
    2> /dev/null || fail "$name: spec run exited $?"
  cmp -s "$name.flags.out" "$name.spec.out" ||
    fail "$name: flags and document print different results"
}

# --- 1. flags match specs ---------------------------------------------
same_json ga coexplore GoogleNet --algo ga --samples 600 -- \
  '{"model": "GoogleNet", "algo": "ga", "samples": 600}'
same_json sa coexplore GoogleNet --algo sa --samples 600 --seed 2 -- \
  '{"model": "GoogleNet", "algo": "sa", "samples": 600, "seed": 2}'
same_json ts-grid coexplore GoogleNet --algo ts-grid --samples 10000 \
  --style separate -- \
  '{"model": "GoogleNet", "algo": "ts-grid", "samples": 10000,
    "style": "separate"}'
same_json cores2 coexplore GoogleNet --samples 500 --cores 2 -- \
  '{"model": "GoogleNet", "samples": 500, "deployment": {"cores": 2}}'
# A flag reads its value as the document reads the key.
same_json exponent coexplore GoogleNet --samples 2e2 -- \
  '{"model": "GoogleNet", "samples": 2e2}'

mask() { sed -E 's/"(name|wall_seconds)":[^,}]*/"\1":0/g' "$1"; }
echo '{"model": "GoogleNet", "algo": "sa", "mode": "partition",
       "samples": 600}' > partition.spec.json
"$cocco" partition GoogleNet --algo sa --samples 600 \
  --metrics-out partition.flags.metrics > /dev/null 2>&1 ||
  fail "partition --algo sa exited $?"
"$cocco" run --spec partition.spec.json \
  --metrics-out partition.spec.metrics > /dev/null 2>&1 ||
  fail "partition document exited $?"
[ "$(mask partition.flags.metrics)" = "$(mask partition.spec.metrics)" ] ||
  fail "partition: flags and document write different metrics"

# --- 2. run flags on the flag modes -----------------------------------
# A --time-limit stop leaves the checkpoint; the same command without
# the limit resumes from it to the uninterrupted result and removes it.
checkpoint_resume() {
  local name=$1 limit
  shift
  "$cocco" "$@" --json > "$name.ref" 2> /dev/null
  # The stop must fall after the first batch boundary (there is no
  # search state to save before it; a two-step sweep saves its
  # position from the start, so wait for a finished candidate) and
  # before the budget runs out. Sanitized builds are slower, so double
  # the limit until it does.
  for limit in 0.01 0.02 0.04 0.08 0.16 0.32 0.64 1.28; do
    rm -f "$name.ck"
    "$cocco" "$@" --time-limit "$limit" --checkpoint "$name.ck" --json \
      > /dev/null 2> "$name.stop.log"
    [ -e "$name.ck" ] && grep -q 'checkpoint: saved .* at [1-9]' \
      "$name.stop.log" && break
  done
  grep -q 'checkpoint: saved' "$name.stop.log" && [ -s "$name.ck" ] ||
    fail "$name: a --time-limit stop left no checkpoint"
  "$cocco" "$@" --checkpoint "$name.ck" --json > "$name.resumed" \
    2> "$name.resume.log"
  grep -q 'checkpoint: resuming' "$name.resume.log" ||
    fail "$name: the re-run did not resume"
  cmp -s "$name.ref" "$name.resumed" ||
    fail "$name: the resumed run differs from the uninterrupted one"
  [ ! -e "$name.ck" ] || fail "$name: a finished run left its checkpoint"
}
checkpoint_resume ck-coexplore coexplore GoogleNet --samples 10000
checkpoint_resume ck-partition partition GoogleNet --algo sa \
  --samples 10000
# A two-step stop falls inside a candidate after the first: the file
# holds the sweep's position before it, and the resume re-runs that
# candidate.
checkpoint_resume ck-ts-grid coexplore GoogleNet --algo ts-grid \
  --samples 20000

# Another run's checkpoint is refused before the run: exit 1 with
# `fatal: <file>: <reason>`, no resume line, and the file stays.
for limit in 0.05 0.1 0.2 0.4 0.8 1.6; do
  "$cocco" coexplore NasNet --algo ga --samples 2000000 \
    --time-limit "$limit" --checkpoint other.ck > /dev/null 2>&1
  [ -e other.ck ] && break
done
rc=0
"$cocco" coexplore NasNet --algo sa --samples 2000 --checkpoint other.ck \
  > /dev/null 2> other.log || rc=$?
[ "$rc" -eq 1 ] &&
  grep -qxF 'fatal: other.ck: saved by "ga", this run is "sa"' other.log &&
  ! grep -q 'checkpoint: resuming' other.log && [ -s other.ck ] ||
  fail "another run's checkpoint: exit $rc, '$(cat other.log)'"

"$cocco" coexplore GoogleNet --samples 400 --progress > /dev/null \
  2> progress.log
grep -q '"event":"batch"' progress.log ||
  fail "coexplore --progress wrote no batch events"

# SIGINT during a huge budget: exit 130, metrics and cache file saved.
interrupt() {
  local name=$1
  shift
  "$cocco" "$@" --samples 100000000 --progress \
    --metrics-out "$name.metrics" --cache-file "$name.evalcache" \
    > /dev/null 2> "$name.log" &
  local pid=$! rc=0
  for _ in $(seq 1 300); do
    grep -q '"event":"batch"' "$name.log" 2> /dev/null && break
    sleep 0.1
  done
  kill -INT "$pid"
  # A build that ignores the signal would run the budget out: give it
  # 30 s to stop, then kill it.
  for _ in $(seq 1 300); do
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.1
  done
  kill -KILL "$pid" 2> /dev/null && fail "$name: SIGINT did not stop the run"
  wait "$pid" || rc=$?
  [ "$rc" -eq 130 ] || fail "$name: SIGINT exit code $rc, not 130"
  grep -q '"samples"' "$name.metrics" 2> /dev/null ||
    fail "$name: SIGINT left no metrics"
  [ -s "$name.evalcache" ] || fail "$name: SIGINT left no cache file"
}
interrupt sigint-coexplore coexplore GoogleNet
interrupt sigint-partition partition GoogleNet --algo sa

# --- 3. the fixes -----------------------------------------------------
# refused ARGS... : exit 2 with the first offending argument named.
refused() {
  local named=$1 rc=0
  shift
  "$cocco" "$@" < /dev/null > /dev/null 2> refused.log || rc=$?
  [ "$rc" -eq 2 ] && grep -qF -- "$named" refused.log ||
    fail "'$*' was not refused by name (exit $rc)"
}
echo '{"model": "GoogleNet", "samples": 100}' > s.json
refused --no-prune run --spec s.json --no-prune --cache-size 0 \
  --platform edge --cores 4
while read -r flag value; do
  refused "$flag" run --spec s.json "$flag" $value
done <<'EOF'
--model-file g.json
--model-seed 7
--platform edge
--platform-file p.json
--cores 4
--deployment big-little
--deployment-file d.json
--algo sa
--style separate
--samples 5
--alpha 0.1
--metric ema
--seed 3
--threads 3
--neighbor-batch 2
--time-limit 1
--stall-limit 9
--cache-size 0
--no-prune
--runs 2
--jobs 2
--out d
--port 0
--stdio
--serve-workers 2
--serve-queue 8
EOF
# A malformed number is refused by the flag's name, not read as its
# leading digits (or, for a negative seed, wrapped around).
refused --cores coexplore GoogleNet --cores 2x
refused --threads coexplore GoogleNet --threads 2junk
refused --alpha coexplore GoogleNet --alpha 0.002abc
refused --seed coexplore GoogleNet --seed -1
"$cocco" run --spec s.json --json --timeline --metrics-out s.metrics \
  --cache-file s.evalcache --checkpoint s.ck --progress \
  --deterministic-race --frontier-out s.csv > /dev/null 2>&1 ||
  fail "run refused a flag it reads (exit $?)"
refused ResNet50 run ResNet50 --spec s.json
refused ResNet50 coschedule ResNet50 --spec s.json
refused --spec coexplore GoogleNet --spec s.json
refused --spec partition GoogleNet --algo sa --spec s.json

"$cocco" timeline GoogleNet > timeline.1 || fail "timeline exited $?"
for dep in "--cores 4" "--deployment big-little"; do
  # shellcheck disable=SC2086
  "$cocco" timeline GoogleNet $dep > timeline.n || fail "timeline $dep"
  grep -q '^ c1 ' timeline.n && ! grep -q '^ c1 ' timeline.1 ||
    fail "timeline $dep: no per-core lanes"
done

"$cocco" export-model SRCNN > srcnn.json
rc=0
"$cocco" describe --model-file srcnn.json --model-seed 7 > /dev/null \
  2> seed.log || rc=$?
[ "$rc" -eq 1 ] && grep -q 'do not apply to a "file" workload' seed.log ||
  fail "--model-file with --model-seed was not refused by the spec rule"

# A repeated key is refused by the parser, naming it (the last copy
# used to win: a 300-sample run).
echo '{"model": "GoogleNet", "samples": 100, "samples": 300}' > dup.spec.json
rc=0
"$cocco" run --spec dup.spec.json > /dev/null 2> dup.log || rc=$?
[ "$rc" -eq 1 ] && grep -qF 'duplicate key "samples"' dup.log ||
  fail "run --spec with a repeated key: exit $rc, '$(cat dup.log)'"

# --- 4. validate-metrics ----------------------------------------------
# validates NAME ARGS...: the run's --metrics-out document validates.
validates() {
  local name=$1 out
  shift
  "$cocco" "$@" --metrics-out "$name.metrics" > /dev/null 2>&1 ||
    fail "$name: run exited $?"
  out=$("$cocco" validate-metrics "$name.metrics" 2>&1)
  [ "$out" = "$name.metrics: ok (cocco_cli, 1 run)" ] ||
    fail "$name: validate-metrics printed '$out'"
}
echo '{"model": "GoogleNet", "algo": "ga", "mode": "pareto",
       "samples": 400, "ga": {"population": 20}}' > pareto.spec.json
validates pareto run --spec pareto.spec.json
echo '{"model": "GoogleNet", "algo": "portfolio", "samples": 400,
       "portfolio": {"deterministicRace": true}}' > portfolio.spec.json
validates portfolio run --spec portfolio.spec.json
echo '{"model": "GoogleNet", "samples": 400,
       "deployment": {"cores": 2}}' > deployment.spec.json
validates deployment run --spec deployment.spec.json
echo '{"workload_set": [
         {"name": "vision", "model": "GoogleNet",
          "arrival_rate_hz": 40.0, "sla_latency_ms": 18.0},
         {"name": "mobile", "model": "MobileNetV2",
          "arrival_rate_hz": 25.0, "sla_latency_ms": 30.0}],
       "deployment": "big-little", "samples": 200,
       "ga": {"population": 12}}' > coschedule.spec.json
validates coschedule coschedule --spec coschedule.spec.json
validates max-seed coexplore GoogleNet --samples 50 \
  --seed 18446744073709551615

# invalid FILE REASON: exit 1 with "fatal: FILE:" and REASON.
invalid() {
  local rc=0
  "$cocco" validate-metrics "$1" > /dev/null 2> invalid.log || rc=$?
  [ "$rc" -eq 1 ] && grep -qF "fatal: $1:" invalid.log &&
    grep -qF -- "$2" invalid.log ||
    fail "validate-metrics $1: exit $rc, '$(cat invalid.log)'"
}
sed 's/"model":/"bogus":1,"model":/' deployment.metrics > unknown-key.json
invalid unknown-key.json 'unknown key "runs[0].bogus"'
echo '[]' > array-root.json
invalid array-root.json 'must be a JSON object'
invalid no-such.json 'cannot read file'

if [ "$failures" -ne 0 ]; then
  echo "cli_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_test: ok"
