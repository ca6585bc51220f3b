#!/usr/bin/env bash
# Build the benchmark and the teamsim daemon from source, then run one
# workload from the repository root:
#
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line is the result object.
set -u
cd "$(dirname "$0")/.." || exit 1
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
DUNE_CACHE=disabled dune build --root . ./perf/main.exe ./bin/teamsim.exe >&2 || exit 1
# The run and the daemons it starts share one CPU, the first this shell
# may use: the host-speed probe (common.ml) then measures the CPU the
# work runs on.
pin=()
cpu=$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//; s/[-,].*//')
if [ -n "$cpu" ]; then pin=(taskset -c "$cpu"); fi
exec "${pin[@]}" ./_build/default/perf/main.exe --teamsim ./_build/default/bin/teamsim.exe "$@"
