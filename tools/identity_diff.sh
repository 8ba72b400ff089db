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
# so it compares as one line. A case named in intended.txt beside
# CASES (one "<name> <reason>" per line) may differ: it is reported
# as INTENDED. A "mask <key>[,<key>...] <reason>" line there deletes
# each named key, with its scalar value, from both sides' metrics
# documents before every case's diff. An entry whose case matches in
# both modes, or names no case, is STALE, and so is a mask line when
# no run's documents differ in its keys: once a change is in the
# merge base its entries must go. Exits 0 when every unlisted case
# matches and no entry is stale, 1 otherwise, 2 on a usage error.
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
intended=" "
masks=()
if [ -f "$specs/intended.txt" ]; then
  while read -r name keys _; do
    case "$name" in ''|'#'*) continue ;; esac
    if [ "$name" = mask ]; then
      masks+=("$keys")
    else
      intended="$intended$name "
    fi
  done < "$specs/intended.txt"
fi
masked=()
for m in "${!masks[@]}"; do masked[m]=0; done

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
  ln -sfn "$specs" "$dir/specs"
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

# run_warm BIN DIR ARGS...: run twice in one directory, so the second
# run starts from the files (a --cache-file) the first one wrote; the
# first run's outputs are kept as cold.*.
run_warm() {
  local bin=$1 dir=$2
  shift 2
  run "$bin" "$dir" "$@"
  for f in stdout stderr rc metrics.json; do
    [ -f "$dir/$f" ] && mv "$dir/$f" "$dir/cold.$f"
  done
  run "$bin" "$dir" "$@"
}

# portfolio_only DIR: keep only the exit code and the metrics
# "portfolio" block.
portfolio_only() {
  local dir=$1
  grep -o '"portfolio":{"winner":"[^"]*","racers":\[[^]]*\]}' \
    "$dir/metrics.json" > "$dir/portfolio" 2> /dev/null
  find "$dir" -type f ! -name rc ! -name portfolio -delete
}

# mask_schedule DIR [computed]: drop what the thread schedule moves on
# a threaded run: the cache hit counts (concurrent misses of one
# genome) and a portfolio racer's thread grant (when a culled racer's
# threads go); with "computed", the computed-evaluation count too (two
# workers that miss one genome at once both evaluate it).
mask_schedule() {
  local dir=$1 evals='total|cached'
  [ "${2:-}" = computed ] && evals='total|computed|cached'
  sed -i '/^cache: [0-9]*\/[0-9]* evaluations served/d' "$dir/stderr"
  [ -f "$dir/metrics.json" ] && sed -i -E \
    -e "s/\"evals_($evals)\":[0-9]+/\"evals_\\1\":0/g" \
    -e 's/"cache":\{[^}]*\}/"cache":{}/' \
    -e 's/"threads":[0-9]+,"regrants":[0-9]+/"threads":0,"regrants":0/g' \
    "$dir/metrics.json"
}

# apply_masks NAME.MODE: delete every mask line's keys from both
# sides' metrics documents, counting the lines whose keys differed.
apply_masks() {
  local run=$1 m key f side differs
  for m in "${!masks[@]}"; do
    differs=
    for f in metrics.json cold.metrics.json; do
      [ -f "$work/old/$run/$f" ] || [ -f "$work/new/$run/$f" ] || continue
      for key in ${masks[m]//,/ }; do
        if [ "$(grep -o "\"$key\":[^,}]*" "$work/old/$run/$f" 2> /dev/null)" != \
             "$(grep -o "\"$key\":[^,}]*" "$work/new/$run/$f" 2> /dev/null)" ]; then
          differs=1
        fi
        for side in old new; do
          [ -f "$work/$side/$run/$f" ] && sed -i -E \
            -e "s/\"$key\":[^,}]*,//g" -e "s/,?\"$key\":[^,}]*//g" \
            "$work/$side/$run/$f"
        done
      done
    done
    [ -n "$differs" ] && masked[m]=$((masked[m] + 1))
  done
}

total=0
failed=0
allowed=0
differed=" "
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
      if [ "$compare" = warm ]; then
        run_warm "$bin" "$dir" "${args[@]}" $json
      else
        run "$bin" "$dir" "${args[@]}" $json
      fi
      case "$compare" in
        portfolio) portfolio_only "$dir" ;;
        threaded) mask_schedule "$dir" ;;
        threaded-ga) mask_schedule "$dir" computed ;;
      esac
    done
    total=$((total + 1))
    apply_masks "$name.$mode"
    if out=$(diff -r "$work/old/$name.$mode" "$work/new/$name.$mode"); then
      echo "same    $name ($mode)"
    elif [[ "$intended" == *" $name "* ]]; then
      allowed=$((allowed + 1))
      differed="$differed$name "
      echo "INTENDED $name ($mode)"
      echo "$out" | head -20 | sed 's/^/    /'
    else
      failed=$((failed + 1))
      echo "DIFFERS $name ($mode)"
      echo "$out" | head -20 | sed 's/^/    /'
    fi
  done
done < "$cases"

stale=0
for name in $intended; do
  if [[ "$differed" != *" $name "* ]]; then
    stale=$((stale + 1))
    echo "STALE   $name: listed in intended.txt but no run differs"
  fi
done
for m in "${!masks[@]}"; do
  if [ "${masked[m]}" -eq 0 ]; then
    stale=$((stale + 1))
    echo "STALE   mask ${masks[m]}: no run's metrics differ in these keys"
  else
    echo "masked  ${masks[m]}: ${masked[m]} runs differ in these keys"
  fi
done

echo "identity: $total runs, $failed differ, $allowed intended, $stale stale"
[ "$failed" -eq 0 ] && [ "$stale" -eq 0 ]
