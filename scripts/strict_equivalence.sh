#!/usr/bin/env bash
# Check that the working tree's --strict outputs are byte-identical to those
# of an earlier commit, or, where the change is meant to move the synthetic
# corpora, that only the generator moved.
#
# Usage: scripts/strict_equivalence.sh PARENT_REF
#
# Runs, once with the source of PARENT_REF and once with the working tree:
#   - demo: all --seed 1 --strict (the demo corpus, every pipeline), then
#     all --input on the corpus, friends and locations files that run wrote,
#     so that the JSONL reader feeds every pipeline, then the standalone
#     drift and social commands on those files, which train in their own
#     process and never in the worker that `all` forks for drift, and drift
#     once more with --window 3: demo posts carry at most 13 hashtags, so
#     only a window that small clips skip-gram contexts at sentence ends;
#     then social with --social-negatives 1 and drift with --negatives 1
#     --batch-size 7, so that the trainer's two-pass output update (targets,
#     then each group's shared negatives) also runs with one negative per
#     group and with batches smaller than one group of 16 examples, and drift
#     with --batch-size 37, whose batches end in a ragged group of 5 after
#     two full ones;
#   - wide: the wide-cli corpus shape: synth --seed 1 --users 1000
#     --hashtags 3000 --posts 40000, then stats, temporal --top-k 2000 and
#     spatial, each --strict, on that corpus; then the same three on the
#     corpus converted to CSV by perfbench's jsonl_to_csv (the benchmark's
#     own conversion, read from the working tree), so that the CSV reader is
#     diffed too; then synth once more at that shape with --communities 1
#     --drifted 0, where the whole 3000-hashtag pool is one community's
#     pool; then the 10x synth, --posts 300000 --users 3000 --hashtags 1850,
#     where the generator collects the most (post, hashtag) pairs and
#     save_corpus writes more than one block of posts.
# The working tree is also rerun three more times:
#   - everything with OPENBLAS_NUM_THREADS=2: hashscope pins OpenBLAS to one
#     thread whatever the caller sets, and --strict output must not depend on
#     the BLAS thread count;
#   - demo on one CPU (taskset -c 0), where `all` computes drift in-process
#     instead of in its forked worker;
#   - the reader pass: every --input command above (the demo's all --input,
#     drift and social runs, and the wide stats, temporal and spatial runs on
#     the JSONL and the CSV) on copies of the files that PARENT_REF's run
#     generated, so that a change that moves the generator's corpora can
#     still show that nothing downstream of them moved.
# The working tree's src/ is copied at the start and every working-tree pass
# runs from that copy, so an edit saved during the run cannot mix two versions.
# Every command's artifacts, manifest, stdout, stderr and exit code are kept,
# and the parent, both reruns and the reader pass are each compared by
# diff -rq: the parent and the reruns with the working tree's first run, the
# reader pass with the parent's --input outputs. Prints one line a comparison;
# exits 0 and prints "no differences" when all of them match, then the net
# line change of the tracked files under src/ against PARENT_REF, as summed
# from git diff --numstat.
set -euo pipefail

ref=${1:?usage: $0 PARENT_REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/strict-equivalence.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent-src"
git -C "$root" archive "$ref" src | tar -x -C "$work/parent-src"
mkdir "$work/change-src"
cp -R "$root/src" "$work/change-src/src"

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

# demo_inputs / wide_inputs SRC_ROOT: the --input commands, run from inside
# OUT_DIR/demo or OUT_DIR/wide on the corpus files in its all/ or wide/
demo_inputs() {
    hashscope "$1" all-input all --input all/corpus.jsonl \
        --friends all/corpus.friends.csv --locations all/corpus.locations.csv \
        --seed 1 --strict --out all-input
    hashscope "$1" drift drift --input all/corpus.jsonl --seed 1 --strict --out drift
    hashscope "$1" drift-window3 drift --input all/corpus.jsonl --window 3 \
        --seed 1 --strict --out drift-window3
    hashscope "$1" social social --input all/corpus.jsonl \
        --friends all/corpus.friends.csv --seed 1 --strict --out social
    hashscope "$1" social-k1 social --input all/corpus.jsonl \
        --friends all/corpus.friends.csv --social-negatives 1 \
        --seed 1 --strict --out social-k1
    hashscope "$1" drift-k1-batch7 drift --input all/corpus.jsonl \
        --negatives 1 --batch-size 7 --seed 1 --strict --out drift-k1-batch7
    hashscope "$1" drift-batch37 drift --input all/corpus.jsonl \
        --batch-size 37 --seed 1 --strict --out drift-batch37
}

wide_inputs() {
    local input=(--input wide/corpus.jsonl --seed 1 --strict)
    hashscope "$1" stats stats "${input[@]}" --out wide-stats
    hashscope "$1" temporal temporal "${input[@]}" --top-k 2000 --out wide-temporal
    hashscope "$1" spatial spatial "${input[@]}" \
        --locations wide/corpus.jsonl.locations.csv --out wide-spatial
    input=(--input wide/corpus.csv --format csv --seed 1 --strict)
    hashscope "$1" csv-stats stats "${input[@]}" --out wide-csv-stats
    hashscope "$1" csv-temporal temporal "${input[@]}" --top-k 2000 \
        --out wide-csv-temporal
    hashscope "$1" csv-spatial spatial "${input[@]}" \
        --locations wide/corpus.jsonl.locations.csv --out wide-csv-spatial
}

# run_demo / run_wide SRC_ROOT OUT_DIR: the commands run from inside
# OUT_DIR/demo or OUT_DIR/wide, so that paths printed to stdout are the same
# for every run
run_demo() {
    mkdir -p "$2/demo"
    (
        cd "$2/demo"
        hashscope "$1" all all --seed 1 --strict --out all
        demo_inputs "$1"
    )
}

run_wide() {
    mkdir -p "$2/wide"
    (
        cd "$2/wide"
        hashscope "$1" synth synth --seed 1 --users 1000 --hashtags 3000 \
            --posts 40000 --strict --out wide/corpus.jsonl
        PYTHONPATH="$root/perfbench" PYTHONDONTWRITEBYTECODE=1 python3 -c \
            'import sys; from pathlib import Path; from workloads import jsonl_to_csv
jsonl_to_csv(Path(sys.argv[1]), Path(sys.argv[2]))' wide/corpus.jsonl wide/corpus.csv
        wide_inputs "$1"
        hashscope "$1" synth-one-community synth --seed 1 --users 1000 \
            --hashtags 3000 --posts 40000 --communities 1 --drifted 0 --strict \
            --out one-community/corpus.jsonl
        hashscope "$1" synth-10x synth --seed 1 --users 3000 --hashtags 1850 \
            --posts 300000 --strict --out 10x/corpus.jsonl
    )
}

run_all() {
    run_demo "$@"
    run_wide "$@"
}

# run_inputs SRC_ROOT OUT_DIR FROM_DIR: the --input commands alone, on copies
# of the corpus files of FROM_DIR's run
run_inputs() {
    mkdir -p "$2/demo/all" "$2/wide"
    cp "$3"/demo/all/corpus.* "$2/demo/all/"
    cp -R "$3/wide/wide" "$2/wide/wide"
    (cd "$2/demo"; demo_inputs "$1")
    (cd "$2/wide"; wide_inputs "$1")
}

status=0
# compare LABEL DIFF_ARGS...: one comparison and its verdict
compare() {
    local label=$1
    shift
    if diff -rq "$@"; then
        echo "$label: no differences"
    else
        echo "$label: DIFFERENT"
        status=1
    fi
}

echo "running $ref ..."
run_all "$work/parent-src" "$work/parent"
echo "running the working tree ..."
run_all "$work/change-src" "$work/change"
echo "running the working tree with OPENBLAS_NUM_THREADS=2 ..."
(export OPENBLAS_NUM_THREADS=2; run_all "$work/change-src" "$work/change-2threads")
echo "running the working tree's demo on one CPU ..."
(taskset -p -c 0 "$BASHPID" >/dev/null; run_demo "$work/change-src" "$work/change-1cpu")
echo "running the working tree's --input commands on $ref's corpora ..."
run_inputs "$work/change-src" "$work/reader" "$work/parent"
compare "$ref against the working tree" "$work/parent" "$work/change"
compare "OPENBLAS_NUM_THREADS=2" "$work/change" "$work/change-2threads"
compare "one CPU" "$work/change/demo" "$work/change-1cpu/demo"
# the reader pass has only the --input outputs: leave out what generated
compare "reader pass, demo" -x all -x 'all.*' "$work/parent/demo" "$work/reader/demo"
compare "reader pass, wide" -x wide -x 'synth*' -x one-community -x 10x \
    "$work/parent/wide" "$work/reader/wide"
if [ "$status" -eq 0 ]; then
    echo "no differences"
    git -C "$root" diff --numstat "$ref" -- src |
        awk '{a += $1; d += $2} END {printf "src/: +%d -%d, net %+d lines\n", a, d, a - d}'
fi
exit "$status"
