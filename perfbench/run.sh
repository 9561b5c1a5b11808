#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout, then run the
# benchmark; all arguments go to it.
#
#   bash perfbench/run.sh --workload profile-exact --seed 1 --seconds 20 --trace 0
#
# Run from anywhere: it works in the checkout that holds this script.
# Build output stays in the checkout (_build, with dune's shared cache
# off, and .perfbench/tmp for the compilers' temporary files); build
# logs go to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .perfbench/tmp
export DUNE_CACHE=disabled TMPDIR="$PWD/.perfbench/tmp"
dune build --root . ./bin/advisor_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
