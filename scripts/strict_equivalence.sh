#!/usr/bin/env bash
# Check that the working tree's --strict outputs are byte-identical to those
# of an earlier commit.
#
# Usage: scripts/strict_equivalence.sh PARENT_REF
#
# Runs, once with the source of PARENT_REF and once with the working tree:
#   - all --seed 1 --strict (the demo corpus, every pipeline);
#   - the wide-cli corpus shape: synth --seed 1 --users 1000 --hashtags 3000
#     --posts 40000, then stats, temporal --top-k 2000 and spatial, each
#     --strict, on that corpus.
# The working tree is also run once more with OPENBLAS_NUM_THREADS=1, since
# --strict output must not depend on the BLAS thread count.  Every command's
# artifacts, manifest, stdout, stderr and exit code are kept, and the parent
# and the one-thread outputs are each compared with the working tree's by
# diff -r.  Exits 0 and prints "no differences" when all of them match.
set -euo pipefail

ref=${1:?usage: $0 PARENT_REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/strict-equivalence.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent-src"
git -C "$root" archive "$ref" src | tar -x -C "$work/parent-src"

# run_all SRC_ROOT OUT_DIR: every command, run from inside OUT_DIR so that
# paths printed to stdout are the same for both trees
run_all() {
    local src=$1 out=$2
    mkdir -p "$out"
    (
        cd "$out"
        hashscope() {
            local name=$1
            shift
            set +e
            PYTHONPATH="$src/src" PYTHONDONTWRITEBYTECODE=1 python3 -c \
                'import sys; from hashscope.cli import main; sys.exit(main())' \
                "$@" >"$name.stdout" 2>"$name.stderr"
            echo $? >"$name.exit"
            set -e
        }
        hashscope all all --seed 1 --strict --out all
        hashscope synth synth --seed 1 --users 1000 --hashtags 3000 --posts 40000 \
            --strict --out wide/corpus.jsonl
        local input=(--input wide/corpus.jsonl --seed 1 --strict)
        hashscope stats stats "${input[@]}" --out wide-stats
        hashscope temporal temporal "${input[@]}" --top-k 2000 --out wide-temporal
        hashscope spatial spatial "${input[@]}" \
            --locations wide/corpus.jsonl.locations.csv --out wide-spatial
    )
}

echo "running $ref ..."
run_all "$work/parent-src" "$work/parent"
echo "running the working tree ..."
run_all "$root" "$work/change"
echo "running the working tree with one BLAS thread ..."
(export OPENBLAS_NUM_THREADS=1; run_all "$root" "$work/change-1thread")
status=0
diff -r "$work/parent" "$work/change" || status=1
diff -r "$work/change" "$work/change-1thread" || status=1
if [ "$status" -eq 0 ]; then
    echo "no differences"
fi
exit "$status"
