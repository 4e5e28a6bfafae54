#!/usr/bin/env bash
# End-to-end smoke test of the kpham command line: every graph at the edge
# threshold gets a cycle that `kpham validate` accepts, one edge fewer can
# fail, and --jobs 2 prints the same bytes as --jobs 1.
#
#     bash scripts/smoke.sh
#
# Runs the kpham console script when it is on PATH, and otherwise
# `python3 -m kpham.cli` from this checkout's src. Its files go to a
# temporary directory that is removed on exit. Any failed check exits
# non-zero.
set -eo pipefail

if command -v kpham >/dev/null; then
  KPHAM=(kpham)
else
  src=$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)
  export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
  KPHAM=(python3 -m kpham.cli)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# both_jobs FILE ARGS...: run kpham ARGS at --jobs 1 into FILE and at
# --jobs 2 into FILE.jobs2, print FILE, and require the same bytes.
both_jobs() {
  local file=$1
  shift
  "${KPHAM[@]}" "$@" --jobs 1 > "$file"
  "${KPHAM[@]}" "$@" --jobs 2 > "$file.jobs2"
  cat "$file"
  cmp "$file" "$file.jobs2"
}

out=$("${KPHAM[@]}" gen-complete 3 3 | "${KPHAM[@]}" solve -)
echo "$out"
grep -q '^cycle ' <<< "$out"
out=$("${KPHAM[@]}" gen-tight 3 2 | "${KPHAM[@]}" solve -)
echo "$out"
grep -qx 'none HypothesisNotMet' <<< "$out"
# the oracle subcommand: "no" on the tight (3,2) graph from stdin,
# and on the complete (3,2) graph a "yes" whose cycle validates
out=$("${KPHAM[@]}" gen-tight 3 2 | "${KPHAM[@]}" oracle -)
echo "$out"
grep -qx 'hamiltonian no' <<< "$out"
"${KPHAM[@]}" gen-complete 3 2 > h.txt
out=$("${KPHAM[@]}" oracle h.txt --method dp)
echo "$out"
grep -qx 'hamiltonian yes' <<< "$out"
cyc=$(sed -n 's/^cycle //p' <<< "$out")
test -n "$cyc"
out=$("${KPHAM[@]}" validate h.txt --cycle "$cyc")
echo "$out"
grep -qx valid <<< "$out"
# a 64-vertex closure instance, its cycle certified by validate
"${KPHAM[@]}" gen-random 4 16 1490 --seed 1 > g.txt
out=$("${KPHAM[@]}" solve g.txt)
echo "$out"
cyc=$(sed -n 's/^cycle //p' <<< "$out")
test -n "$cyc"
out=$("${KPHAM[@]}" validate g.txt --cycle "$cyc")
echo "$out"
grep -qx valid <<< "$out"
# a canonical cycle starts at 0, so repeating 0 names the repeat
out=$("${KPHAM[@]}" validate g.txt --cycle "$cyc 0")
echo "$out"
grep -qx 'invalid: vertex 0 repeated' <<< "$out"
# every (3,3) threshold graph is Hamiltonian and built without a
# search fallback
both_jobs sweep33.txt enumerate 3 3
grep -qx 'hamiltonian 20854' sweep33.txt
grep -qx 'counterexamples 0' sweep33.txt
grep -qx 'solver_fallbacks 0' sweep33.txt
grep -qx 'solver_agreements 20854' sweep33.txt
grep -qx 'tags LemmaClosure=20854' sweep33.txt
# a second shape for the closure's join order: every (4,2)
# threshold graph built by the n = 2 route with no search
both_jobs sweep42.txt enumerate 4 2
grep -qx 'solver_agreements 12951' sweep42.txt
grep -qx 'solver_fallbacks 0' sweep42.txt
grep -qx 'tags BaseN2=12951,LemmaClosure=12951' sweep42.txt
# the two other closure routes, each with no search: k = 2 (cross
# pairs at bound n + 1) and n = 1
both_jobs sweep25.txt enumerate 2 5
grep -qx 'solver_fallbacks 0' sweep25.txt
grep -qx 'tags BaseK2=2626,LemmaClosure=2626' sweep25.txt
both_jobs sweep71.txt enumerate 7 1
grep -qx 'solver_fallbacks 0' sweep71.txt
grep -qx 'tags BaseN1=7547,OreRotation=7547' sweep71.txt
# below the threshold the sweep carries no cycle, so every
# instance is searched
both_jobs below.txt enumerate 3 2 --min-edges 9 --counterexamples
grep -qx 'hamiltonian 263' below.txt
grep -qx 'non_hamiltonian 36' below.txt
# full-budget fault trials: the oracle's cross-check carries its
# cycles between trials
both_jobs faults43.txt faults 4 3 --deletions 7 --trials 1000 --seed 1
grep -qx 'survived 1000' faults43.txt
grep -qx 'disagreements 0' faults43.txt
both_jobs faults44.txt faults 4 4 --deletions 10 --trials 50 --seed 1
grep -qx 'survived 50' faults44.txt
grep -qx 'disagreements 0' faults44.txt
# over the budget every verdict comes from the oracle's search
"${KPHAM[@]}" faults 3 2 --deletions 3 --exhaustive --allow-over-budget --failures > over.txt
head -6 over.txt
grep -qx 'trials 220' over.txt
grep -qx 'survived 184' over.txt
# one edge below the (3,8) threshold, every missing edge at the
# pair of least degree sum: the closure builds it without a search
python3 -c '
from kpham import new_complete, remove_edges
from kpham.graphio import write_graph
n, hub = 8, 20
drop = [(w, hub) for w in range(2 * n) if w not in (2 * n - 6, 2 * n - 1)]
g, _ = remove_edges(new_complete(3, n), drop + [(0, n + n // 2)])
print(write_graph(g), end="")
' > short.txt
solved=$(timeout 10 "${KPHAM[@]}" solve --theorem11 short.txt)
echo "$solved"
cyc=$(sed -n 's/^cycle //p' <<< "$solved")
test -n "$cyc"
out=$("${KPHAM[@]}" validate short.txt --cycle "$cyc")
echo "$out"
grep -qx valid <<< "$out"
grep '^trace ' <<< "$solved" | grep -qv SearchFallback
# a census dead end: K_{2,3} plus the edge 3-4 is one edge short at
# (5,1) with minimum degree 2 and no Hamilton cycle, so the n = 1
# closure stalls and the search answers no
out=$(printf 'kpartite 5 1 7\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n3 4\n' | "${KPHAM[@]}" solve --theorem11 -)
echo "$out"
grep -qx 'none NotHamiltonian' <<< "$out"
grep -qx 'trace BaseN1,SearchFallback' <<< "$out"
