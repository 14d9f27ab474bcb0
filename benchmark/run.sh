#!/usr/bin/env bash
# Runs the benchmark the way it is judged: RUNS untraced runs per workload,
# each with another seed, as one set; a second set the same way; then
# `nwbench compare` on the two. Exit code 0 means every workload x
# end-to-end metric agreed within its bound and no operation failed.
#
#   benchmark/run.sh                 # seeds 11..20, 15 s per run, ~25 min
#   FIRST_SEED=29 benchmark/run.sh   # the held-back seeds
#   RUNS=3 SECONDS_PER_RUN=5 benchmark/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${RUNS:-10}
seconds=${SECONDS_PER_RUN:-15}
first_seed=${FIRST_SEED:-11}
out=${OUT:-benchmark/out}
nwbench=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --)

run_set() {
    : > "$1"
    for workload in ipv4-sat video-knee modem-idle mix-fork-faults; do
        for ((i = 0; i < runs; i++)); do
            seed=$((first_seed + i))
            result=$("${nwbench[@]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1)
            printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
                "$workload" "$seed" "$result" >> "$1"
            echo "$1 $workload seed $seed done" >&2
        done
    done
}

mkdir -p "$out"
run_set "$out/a.jsonl"
run_set "$out/b.jsonl"
"${nwbench[@]}" compare "$out/a.jsonl" "$out/b.jsonl"
