#!/usr/bin/env bash
# Identity diff: run every case of the corpus on two cocco binaries,
# in human and --json mode, and report any difference.
#
#   tools/identity_diff.sh OLD_BIN NEW_BIN [CASES]
#
# CASES defaults to tools/identity/cases.txt (its header documents the
# format). Per case and mode the script compares stdout, the exit
# code, the --metrics-out document with "wall_seconds" masked, every
# other file the case writes (a --frontier-out CSV, a --cache-file)
# and stderr sorted by line. A usage error's text is documentation,
# so it compares as one line. Exits 0 when every case matches, 1 on
# any difference, 2 on a usage error.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 OLD_BIN NEW_BIN [CASES]" >&2
  exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
cases=$(realpath "${3:-$(dirname "$0")/identity/cases.txt}")
for f in "$old" "$new" "$cases"; do
  [ -e "$f" ] || { echo "identity: no such file: $f" >&2; exit 2; }
done
specs=$(dirname "$cases")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/in"
"$old" export-model GoogleNet > "$work/in/GoogleNet.json" || exit 2

# run BIN DIR ARGS...: one invocation in a fresh directory, its output
# normalized for comparison.
run() {
  local bin=$1 dir=$2
  shift 2
  mkdir -p "$dir"
  (cd "$dir" && "$bin" "$@" --metrics-out metrics.json \
      > stdout 2> stderr.raw; echo $? > rc)
  if grep -q '^usage: cocco' "$dir/stderr.raw"; then
    echo "(usage text)" > "$dir/stderr"
  else
    sort "$dir/stderr.raw" > "$dir/stderr"
  fi
  rm "$dir/stderr.raw"
  if [ -f "$dir/metrics.json" ]; then
    sed -i -E 's/"wall_seconds":[^,}]*/"wall_seconds":0/g' \
      "$dir/metrics.json"
  fi
}

# portfolio_only DIR: keep only the exit code and the metrics
# "portfolio" block.
portfolio_only() {
  local dir=$1
  grep -o '"portfolio":{"winner":"[^"]*","racers":\[[^]]*\]}' \
    "$dir/metrics.json" > "$dir/portfolio" 2> /dev/null
  find "$dir" -type f ! -name rc ! -name portfolio -delete
}

# mask_schedule DIR: drop what the thread schedule moves on a threaded
# run: the cache hit counts (concurrent misses of one genome) and a
# portfolio racer's thread grant (when a culled racer's threads go).
mask_schedule() {
  local dir=$1
  sed -i '/^cache: [0-9]*\/[0-9]* evaluations served/d' "$dir/stderr"
  [ -f "$dir/metrics.json" ] && sed -i -E \
    -e 's/"evals_(total|cached)":[0-9]+/"evals_\1":0/g' \
    -e 's/"cache":\{[^}]*\}/"cache":{}/' \
    -e 's/"threads":[0-9]+,"regrants":[0-9]+/"threads":0,"regrants":0/g' \
    "$dir/metrics.json"
}

total=0
failed=0
while read -r compare name rest; do
  case "$compare" in ''|'#'*) continue ;; esac
  read -ra args <<< "$rest"
  for i in "${!args[@]}"; do
    args[i]=${args[i]//\{specs\}/$specs}
    args[i]=${args[i]//\{in\}/$work/in}
  done
  for mode in human json; do
    json=
    [ "$mode" = json ] && json=--json
    for side in old new; do
      bin=$old
      [ "$side" = new ] && bin=$new
      dir="$work/$side/$name.$mode"
      run "$bin" "$dir" "${args[@]}" $json
      case "$compare" in
        portfolio) portfolio_only "$dir" ;;
        threaded) mask_schedule "$dir" ;;
      esac
    done
    total=$((total + 1))
    if out=$(diff -r "$work/old/$name.$mode" "$work/new/$name.$mode"); then
      echo "same    $name ($mode)"
    else
      failed=$((failed + 1))
      echo "DIFFERS $name ($mode)"
      echo "$out" | head -20 | sed 's/^/    /'
    fi
  done
done < "$cases"

echo "identity: $total runs, $failed differ"
[ "$failed" -eq 0 ]
