#!/usr/bin/env bash
# Check that the working tree's --strict outputs are byte-identical to those
# of an earlier commit.
#
# Usage: scripts/strict_equivalence.sh PARENT_REF
#
# Runs, once with the source of PARENT_REF and once with the working tree:
#   - demo: all --seed 1 --strict (the demo corpus, every pipeline);
#   - wide: the wide-cli corpus shape: synth --seed 1 --users 1000
#     --hashtags 3000 --posts 40000, then stats, temporal --top-k 2000 and
#     spatial, each --strict, on that corpus.
# The working tree is also rerun twice more:
#   - everything with OPENBLAS_NUM_THREADS=2: hashscope pins OpenBLAS to one
#     thread whatever the caller sets, and --strict output must not depend on
#     the BLAS thread count;
#   - demo on one CPU (taskset -c 0), where `all` computes drift in-process
#     instead of in its forked worker.
# Every command's artifacts, manifest, stdout, stderr and exit code are kept,
# and the parent and both reruns are each compared with the working tree's by
# diff -r.  Exits 0 and prints "no differences" when all of them match.
set -euo pipefail

ref=${1:?usage: $0 PARENT_REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/strict-equivalence.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent-src"
git -C "$root" archive "$ref" src | tar -x -C "$work/parent-src"

# hashscope SRC_ROOT NAME ARGS...: one command, its stdout, stderr and exit
# code kept as NAME.stdout, NAME.stderr and NAME.exit
hashscope() {
    local src=$1 name=$2
    shift 2
    set +e
    PYTHONPATH="$src/src" PYTHONDONTWRITEBYTECODE=1 python3 -c \
        'import sys; from hashscope.cli import main; sys.exit(main())' \
        "$@" >"$name.stdout" 2>"$name.stderr"
    echo $? >"$name.exit"
    set -e
}

# run_demo / run_wide SRC_ROOT OUT_DIR: the commands run from inside
# OUT_DIR/demo or OUT_DIR/wide, so that paths printed to stdout are the same
# for every run
run_demo() {
    mkdir -p "$2/demo"
    (cd "$2/demo" && hashscope "$1" all all --seed 1 --strict --out all)
}

run_wide() {
    mkdir -p "$2/wide"
    (
        cd "$2/wide"
        hashscope "$1" synth synth --seed 1 --users 1000 --hashtags 3000 \
            --posts 40000 --strict --out wide/corpus.jsonl
        local input=(--input wide/corpus.jsonl --seed 1 --strict)
        hashscope "$1" stats stats "${input[@]}" --out wide-stats
        hashscope "$1" temporal temporal "${input[@]}" --top-k 2000 --out wide-temporal
        hashscope "$1" spatial spatial "${input[@]}" \
            --locations wide/corpus.jsonl.locations.csv --out wide-spatial
    )
}

run_all() {
    run_demo "$@"
    run_wide "$@"
}

echo "running $ref ..."
run_all "$work/parent-src" "$work/parent"
echo "running the working tree ..."
run_all "$root" "$work/change"
echo "running the working tree with OPENBLAS_NUM_THREADS=2 ..."
(export OPENBLAS_NUM_THREADS=2; run_all "$root" "$work/change-2threads")
echo "running the working tree's demo on one CPU ..."
(taskset -p -c 0 "$BASHPID" >/dev/null; run_demo "$root" "$work/change-1cpu")
status=0
diff -r "$work/parent" "$work/change" || status=1
diff -r "$work/change" "$work/change-2threads" || status=1
diff -r "$work/change/demo" "$work/change-1cpu/demo" || status=1
if [ "$status" -eq 0 ]; then
    echo "no differences"
fi
exit "$status"
