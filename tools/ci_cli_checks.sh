#!/usr/bin/env bash
# The command-line checks of the CI quick job, in order, as one script.
#
# Run from anywhere: tools/ci_cli_checks.sh. Artifacts go to $RUNNER_TEMP,
# or to a fresh directory from mktemp -d. Without the dfa-meet entry point
# installed, the package is run as python -m dfa_meet.cli from src/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="${RUNNER_TEMP:-$(mktemp -d)}"
echo "artifacts in $tmp"

if ! command -v dfa-meet > /dev/null; then
  export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
  dfa-meet() { python -m dfa_meet.cli "$@"; }
fi

step() { echo "== $*"; }

step "The installed Monte Carlo path loads no scipy"
python -X importtime -m dfa_meet.cli simulate --mode sync --n 60 --r 2 --trials 8 --seed 0 --out "$tmp/s.csv" 2> "$tmp/importtime.txt"
if grep -E '\|\s+scipy(\.|$)' "$tmp/importtime.txt"; then exit 1; fi

step "Certified event scan through the CLI"
dfa-meet recipe events-a1-a5 --n 150 --out-dir "$tmp/events-a1-a5"
python -c "import json, sys; rows = json.load(open(sys.argv[1]))['rows']; sys.exit(not rows or not all(r['tv_mode'] == 'sampled-bound' and r['a4_stopped_starts'] == 201 for r in rows))" "$tmp/events-a1-a5/events-a1-a5-report.json"

step "Exact-mode event scan through the CLI"
dfa-meet recipe events-a1-a5 --n 40 --out-dir "$tmp/events-a1-a5-40"
python -c "import json, sys; rows = json.load(open(sys.argv[1]))['rows']; sys.exit(not rows or not all(r['tv_mode'] == 'exact' and r['a4_stopped_starts'] == 0 for r in rows))" "$tmp/events-a1-a5-40/events-a1-a5-report.json"

step "Certified Z stop through the CLI"
dfa-meet gen --n 400 --r 20 --seed 0 --out "$tmp/dfa-400-20.json"
dfa-meet fvtl --dfa "$tmp/dfa-400-20.json" --skip-events --out "$tmp/fvtl-400-20.json"
python -c "import json, sys; p = json.load(open(sys.argv[1])); sys.exit('z_stop_step' not in p)" "$tmp/fvtl-400-20.json"

step "Quasi-stationary pair of the pair chain through the CLI"
dfa-meet gen --n 200 --r 2 --seed 0 --out "$tmp/dfa-200-2.json"
dfa-meet fvtl --dfa "$tmp/dfa-200-2.json" --quasi --out "$tmp/fvtl-200-2.json"
python -c "import json, sys; lam = json.load(open(sys.argv[1]))['lambda_star']; sys.exit(not 0 < lam < 1)" "$tmp/fvtl-200-2.json"

step "Worker count leaves the trial CSVs unchanged"
# at n = 2000 the first steps of each trial are numpy passes over large sets
for n in 60 2000; do
  for mode in coalescing sync; do
    for threads in 1 2; do
      dfa-meet simulate --mode "$mode" --n "$n" --r 2 --trials 40 --seed 3 --threads "$threads" --out "$tmp/$mode-$n-threads-$threads.csv"
    done
    cmp "$tmp/$mode-$n-threads-1.csv" "$tmp/$mode-$n-threads-2.csv"
  done
done
# at n = 12 with cap 8, 19 coalescing and 11 sync trials are censored with three points left
for mode in coalescing sync; do
  for threads in 1 2; do
    dfa-meet simulate --mode "$mode" --n 12 --r 2 --trials 40 --cap 8 --seed 3 --threads "$threads" --out "$tmp/$mode-capped-threads-$threads.csv"
  done
  cmp "$tmp/$mode-capped-threads-1.csv" "$tmp/$mode-capped-threads-2.csv"
done
# six n = 1000, r = 20 tables to a batch: 200 trials are pool tasks of 7
for mode in independent coupled; do
  for threads in 1 2; do
    dfa-meet simulate --mode "$mode" --n 1000 --r 20 --trials 200 --seed 3 --threads "$threads" --out "$tmp/$mode-threads-$threads.csv"
  done
  cmp "$tmp/$mode-threads-1.csv" "$tmp/$mode-threads-2.csv"
done

step "Thread count leaves the exact-side reports unchanged"
# both sizes are above the gate from which pair-chain steps and mixing profiles run on threads
dfa-meet gen --n 1000 --r 2 --seed 0 --out "$tmp/dfa-1000-2.json"
for threads in 1 2; do
  DFA_MEET_THREADS="$threads" dfa-meet fvtl --dfa "$tmp/dfa-400-20.json" --quasi --skip-events --out "$tmp/fvtl-400-20-threads-$threads.json"
  DFA_MEET_THREADS="$threads" dfa-meet exact --dfa "$tmp/dfa-1000-2.json" --out "$tmp/exact-1000-2-threads-$threads.json"
done
cmp "$tmp/fvtl-400-20-threads-1.json" "$tmp/fvtl-400-20-threads-2.json"
cmp "$tmp/exact-1000-2-threads-1.json" "$tmp/exact-1000-2-threads-2.json"

step "Kingman reference through the CLI"
dfa-meet simulate --mode coalescing --n 20 --r 2 --trials 30 --seed 1 --out "$tmp/coalescing-20.csv"
dfa-meet verify --results "$tmp/coalescing-20.csv" --against kingman --report "$tmp/kingman-20.json"

step "Geometric and exponential references through the CLI"
dfa-meet simulate --mode independent --n 60 --r 2 --trials 40 --seed 2 --out "$tmp/independent-60.csv"
for against in geom:auto geom:0.02 exp:1; do
  dfa-meet verify --results "$tmp/independent-60.csv" --against "$against" --report "$tmp/verify-$against.json"
  python -c "import json, sys; ks = json.load(open(sys.argv[1]))['ks_distance']; sys.exit(not 0 <= ks <= 1)" "$tmp/verify-$against.json"
done

step "Recipe manifests and reports through the CLI"
dfa-meet recipe thm-fvtl-suite --out-dir "$tmp/recipes/thm-fvtl-suite"
dfa-meet recipe fig2-sync --n 60 --trials 40 --threads 1 --out-dir "$tmp/recipes/fig2-sync"
python -c "import json, pathlib, sys; root = pathlib.Path(sys.argv[1]); expected = {'thm-fvtl-suite': ['thm-fvtl-suite-report.json'], 'fig2-sync': ['fig2-sync-r2-manifest.json', 'fig2-sync-r20-manifest.json', 'fig2-sync-verify.json']}; sys.exit(not all(sorted(p.name for p in (root / name).glob('*.json')) == files and all(json.loads((root / name / f).read_text())['recipe'] == name for f in files) for name, files in expected.items()))" "$tmp/recipes"

step "Worker count leaves the fig2-sync recipe output unchanged"
dfa-meet recipe fig2-sync --n 60 --trials 40 --threads 2 --out-dir "$tmp/fig2-sync-threads-2"
diff -r "$tmp/recipes/fig2-sync" "$tmp/fig2-sync-threads-2"

echo "all CLI checks passed"
