#!/usr/bin/env sh
# bench.sh — refresh the repository's performance trajectory.
#
# Runs the kernel micro-benchmarks and the full experiment-suite
# benchmarks with -benchmem, parses the output through cmd/benchjson,
# and writes:
#
#   BENCH_kernel.json       internal/sim micro-benchmarks
#   BENCH_experiments.json  paper-experiment benchmarks + RunAll wall
#                           times (serial vs -parallel 8)
#   BENCH_lanes.json        laned campaign wall times (serial, 1 and 4
#                           workers), wall-clock speedup over serial plus
#                           the lane profiler's own estimate and parallel
#                           efficiency
#   BENCH_analysis.json     streaming analysis pipeline: streamed vs
#                           materialized digest (B/op, flows/sec), the
#                           digest fold and its decode half alone
#                           (ns/frame), flow-store queries on one kept
#                           store and on a store opened per query
#                           (ns/query), and the GOMEMLIMIT-bounded peak
#                           heap of a Fig13-scale streamed digest
#   BENCH_storefault.json   storage seam overhead: journal-line and
#                           flowstore-block writes raw vs through the
#                           passthrough FS seam, plus the measured
#                           seam/raw ratios (gated within noise in
#                           -smoke)
#
# Each file keeps the best of -count runs per benchmark. Commit the
# refreshed files alongside any change that moves them.
#
#   scripts/bench.sh            full measurement (minutes)
#   scripts/bench.sh -smoke     one iteration per benchmark, output to a
#                               temp dir — a CI gate that bench code and
#                               the JSON pipeline still work; committed
#                               BENCH_*.json are left untouched.
set -eu
cd "$(dirname "$0")/.."

smoke=0
if [ "${1:-}" = "-smoke" ]; then
    smoke=1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$smoke" -eq 1 ]; then
    benchtime=1x
    count=1
    kernel_out="$tmp/BENCH_kernel.json"
    experiments_out="$tmp/BENCH_experiments.json"
    lanes_out="$tmp/BENCH_lanes.json"
    analysis_out="$tmp/BENCH_analysis.json"
    storefault_out="$tmp/BENCH_storefault.json"
else
    benchtime=
    count=3
    kernel_out=BENCH_kernel.json
    experiments_out=BENCH_experiments.json
    lanes_out=BENCH_lanes.json
    analysis_out=BENCH_analysis.json
    storefault_out=BENCH_storefault.json
fi

go build -o "$tmp/benchjson" ./cmd/benchjson

echo "== kernel micro-benchmarks (internal/sim) =="
go test -run '^$' -bench . -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" ./internal/sim | tee "$tmp/kernel.txt"

# Laned campaign wall time: the same journaled campaign driven serially
# and through sharded dataplane lanes. The speedup is hardware-dependent
# (it needs real cores; on one core the window barrier is pure
# overhead), so it is recorded, not gated — what IS gated, in -smoke
# mode, is that lanes with one worker stay within noise of serial and
# that both runs leave byte-identical metrics and WALs.
echo "== laned campaign wall time: serial vs -lanes 4 =="
go build -o "$tmp/patchwork" ./cmd/patchwork
if [ "$smoke" -eq 1 ]; then
    laned_runs=1
else
    laned_runs=3
fi
laned_wall_ms() {
    start=$(date +%s%N)
    "$tmp/patchwork" -federation-sites 4 -runs "$laned_runs" -samples 2 \
        -sample-sec 2 -seed 9 -remedy -checkpoint-sec 10 \
        -journal "$tmp/lw-$1-$2" -out "$tmp/lw-out-$1-$2" \
        -metrics "$tmp/lw-$1-$2.prom" \
        -lanes "$1" -lane-workers "$2" ${3:-} > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}
laned_serial_ms=$(laned_wall_ms 1 0)
laned_w1_ms=$(laned_wall_ms 4 1)
laned_w4_ms=$(laned_wall_ms 4 4 -profile)
cmp "$tmp/lw-1-0.prom" "$tmp/lw-4-1.prom"
cmp "$tmp/lw-1-0.prom" "$tmp/lw-4-4.prom"
cmp "$tmp/lw-1-0/wal.jsonl" "$tmp/lw-4-1/wal.jsonl"
cmp "$tmp/lw-1-0/wal.jsonl" "$tmp/lw-4-4/wal.jsonl"
echo "laned campaign: serial ${laned_serial_ms} ms, lanes=4/w=1 ${laned_w1_ms} ms, lanes=4/w=4 ${laned_w4_ms} ms (artifacts byte-identical)"
if [ "$smoke" -eq 1 ]; then
    # Noise gate: one worker must not cost more than 2x serial (+25 ms
    # floor so sub-50ms runs don't trip on scheduler jitter).
    limit=$(( laned_serial_ms * 2 + 25 ))
    if [ "$laned_w1_ms" -gt "$limit" ]; then
        echo "laned(1 worker) took ${laned_w1_ms} ms, over noise limit ${limit} ms (serial ${laned_serial_ms} ms)" >&2
        exit 1
    fi
fi

"$tmp/benchjson" < "$tmp/kernel.txt" > "$kernel_out"

# Lane report: the three laned campaign wall times, the measured
# wall-clock speedup over serial, plus the lane profiler's own estimate
# and parallel efficiency pulled from the -profile run's
# lane-summary.json. All of these are hardware-dependent — recorded for
# the trajectory, never gated.
summary="$tmp/lw-out-4-4/prof/lane-summary.json"
json_field() {
    awk -F'[:,]' -v k="\"$1\"" '$0 ~ k { gsub(/[[:space:]]/, "", $2); print $2; exit }' "$summary"
}
wall_speedup=$(awk -v s="$laned_serial_ms" -v p="$laned_w4_ms" \
    'BEGIN { if (p > 0) printf "%.3f", s / p; else print 0 }')
est_speedup=$(json_field est_speedup)
efficiency=$(json_field parallel_efficiency)
"$tmp/benchjson" \
    -add "LanedCampaignWallSerial:ms:$laned_serial_ms" \
    -add "LanedCampaignWall1Worker:ms:$laned_w1_ms" \
    -add "LanedCampaignWall4Workers:ms:$laned_w4_ms" \
    -add "LanedWallSpeedup4Workers:x:${wall_speedup:-0}" \
    -add "LanedEstSpeedup4Workers:x:${est_speedup:-0}" \
    -add "LanedParallelEfficiency4Workers:frac:${efficiency:-0}" \
    < /dev/null > "$lanes_out"
echo "lane speedup: wall ${wall_speedup:-0}x, profiler estimate ${est_speedup:-0}x, efficiency ${efficiency:-0}"

echo "== experiment benchmarks (repro root) =="
# The figure/table benchmarks regenerate full paper artifacts per
# iteration (seconds each), so one iteration per count is the
# measurement; the per-frame micro-benchmarks need real iteration
# counts, so they run with the default benchtime. This pass skips the
# benchmarks that the micro pass and the analysis pass below own, so
# each benchmark lands in one BENCH file.
micro='^Benchmark(WireFastPath|CaptureEngine|HostWritev)$'
analysis='^Benchmark(StreamedFlowDigest|MaterializedFlowDigest|DigestFold|DigestDecode|StoreQueryMix)$'
go test -run '^$' -bench . -skip "$micro|$analysis" -benchmem -benchtime 1x \
    -count "$count" . | tee "$tmp/experiments.txt"
go test -run '^$' -bench "$micro" -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" . | tee -a "$tmp/experiments.txt"

echo "== streaming analysis: streamed vs materialized digest =="
# The figure corpus is regenerated per iteration, so one iteration per
# count is the measurement (same reasoning as the experiment suite).
go test -run '^$' -bench '^Benchmark(Streamed|Materialized)FlowDigest$' \
    -benchmem -benchtime 1x -count "$count" . | tee "$tmp/analysis.txt"
# The digest fold, and its decode half, alone: their corpus is built
# before the timer starts, so they run at the default benchtime.
go test -run '^$' -bench '^BenchmarkDigest(Fold|Decode)$' -benchmem \
    ${benchtime:+-benchtime $benchtime} -count "$count" . | tee -a "$tmp/analysis.txt"
# The flow-store query mix over the store a Digester writes for that
# corpus: warm asks it of one kept store, fresh of a store opened per
# query (ns/query).
go test -run '^$' -bench '^BenchmarkStoreQueryMix$' -benchmem \
    ${benchtime:+-benchtime $benchtime} -count "$count" . | tee -a "$tmp/analysis.txt"

# Bounded-memory gate: a Fig13-scale streamed digest runs with the Go
# heap pinned to 64 MiB; the test fails if peak HeapAlloc exceeds the
# budget (the materialized pipeline needs several hundred MB for the
# same corpus). The measured peak lands in BENCH_analysis.json.
GOMEMLIMIT=64MiB PW_STREAM_HEAP_BUDGET_MB=64 \
    go test -run '^TestStreamedDigestHeapBudget$' -v . | tee "$tmp/heap.txt"
peak_heap=$(awk '/peak_heap_mb/ { print $NF }' "$tmp/heap.txt")
"$tmp/benchjson" \
    -add "StreamedDigestPeakHeap64MiBLimit:MB:${peak_heap:-0}" \
    < "$tmp/analysis.txt" > "$analysis_out"
echo "streamed digest peak heap under GOMEMLIMIT=64MiB: ${peak_heap:-?} MB"

echo "== storage seam overhead: raw vs passthrough FS =="
# The fault-injection seam routes every journal and flowstore write
# through an interface; the gate proves the passthrough costs ~0. The
# gate test runs in every mode (smoke included) and FAILS if the seam
# exceeds 2x + 2µs of the raw write on either hot-path shape; the
# benchmarks record the trajectory.
go test -run '^$' -bench '^BenchmarkSeam' -benchmem ${benchtime:+-benchtime $benchtime} \
    -count "$count" ./internal/storefault | tee "$tmp/storefault.txt"
PW_SEAM_GATE=1 go test -run '^TestSeamOverheadGate$' -count=1 -v \
    ./internal/storefault | tee "$tmp/seamgate.txt"
seam_ratio() {
    awk -v k="$1" '$1 == "seam_overhead" && $2 == k { sub(/ratio=/, "", $NF); print $NF; exit }' \
        "$tmp/seamgate.txt"
}
journal_ratio=$(seam_ratio journal-line)
block_ratio=$(seam_ratio flowstore-block)
"$tmp/benchjson" \
    -add "SeamOverheadJournalLine:x:${journal_ratio:-0}" \
    -add "SeamOverheadFlowstoreBlock:x:${block_ratio:-0}" \
    < "$tmp/storefault.txt" > "$storefault_out"
echo "storage seam overhead: journal-line ${journal_ratio:-?}x, flowstore-block ${block_ratio:-?}x raw"

if [ "$smoke" -eq 1 ]; then
    "$tmp/benchjson" < "$tmp/experiments.txt" > "$experiments_out"
    echo "smoke ok: $(ls "$tmp"/BENCH_*.json | wc -l) reports generated (discarded)"
    exit 0
fi
echo "wrote $analysis_out"

echo "wrote $lanes_out"

echo "wrote $storefault_out"

echo "== RunAll wall time: serial vs parallel =="
go build -o "$tmp/pwexperiments" ./cmd/pwexperiments
wall_ms() {
    start=$(date +%s%N)
    "$tmp/pwexperiments" -all -parallel "$1" > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}
serial_ms=$(wall_ms 1)
parallel_ms=$(wall_ms 8)
echo "RunAll serial: ${serial_ms} ms, -parallel 8: ${parallel_ms} ms"

"$tmp/benchjson" \
    -add "RunAllWallSerial:ms:$serial_ms" \
    -add "RunAllWallParallel8:ms:$parallel_ms" \
    < "$tmp/experiments.txt" > "$experiments_out"

echo "wrote $kernel_out and $experiments_out"
