#!/usr/bin/env bash
# Entry point of the repository benchmark (see perfbench/README.md):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Builds the benchmark and the
# transfusion CLI it drives from source, then runs one workload.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
# The OCaml toolchain comes from opam when the caller's PATH lacks it.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet -j 2 ./perfbench/perfbench.exe ./bin/transfusion_cli.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
