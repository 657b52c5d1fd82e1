#!/usr/bin/env sh
# CI gate: formatting, build, vet, race-enabled tests (short mode — the
# parallel-harness and chaos determinism tests still run their
# concurrent paths there, so the race detector permanently gates the
# "parallel simulations share no state" contract), a bench.sh smoke pass
# (one iteration per benchmark plus the BENCH_*.json pipeline) so CI
# fails if benchmark code no longer compiles, a short fuzz smoke over
# the wire-format parsers (seed corpus plus a few seconds of mutation —
# enough to catch regressions in the option/length walkers — plus the
# flow-store segment codec, the sketch merge operators and the sim
# kernel's FIFO-stream-vs-AtArg differential), a
# harvest scheduling gate (bundles compressed on worker goroutines must
# be byte-identical at GOMAXPROCS 1 and 4, repeated under the race
# detector), a window prefetch gate (traffic windows built one ahead on
# goroutines must cross the switch exactly as the reference driver's at
# GOMAXPROCS 1 and 4, repeated under the race detector), a
# streaming-analytics equivalence gate (the single-pass digester and
# the materialized in-memory pipeline must agree byte-for-byte on every
# CSV and figure artifact, spilling included), and a
# validate-only dry run of every health-alert rule file (the embedded
# defaults always, plus any rules/*.json), a crash/resume gate: a
# journaled campaign is killed at an injected crash point (exit 3),
# resumed, and its metrics and WAL must be byte-identical to an
# uninterrupted baseline of the same seed — repeated under sharded
# dataplane lanes (-lanes), where the laned run, the killed-and-resumed
# laned run, and the serial baseline must all byte-match (the short-mode
# race run above also carries the laned randomized-topology stress
# suite), and a live-telemetry gate: a
# campaign served with -serve is probed over HTTP (pwlive validates the
# exposition and JSON endpoints), shut down with SIGTERM, and its
# artifacts must be byte-identical to the unserved baseline, and a
# provenance gate: the same campaign run with -provenance serially and
# under -lanes must write byte-identical causal traces, and pwprof must
# produce a critical-path report from them, and a results gate:
# `pwexperiments -all -seed 1` must reproduce every committed file in
# results/ (the experiment CSVs and all_experiments.txt) byte for byte,
# so a change meant to alter a result must regenerate results/.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...
# The benchmark is its own module; vetting it compiles pwbench against
# this tree, so an API change that breaks the benchmark fails here.
go -C bench vet ./...
go test -race -short ./...
sh scripts/bench.sh -smoke
go test -run='^$' -fuzz='^FuzzParsePacket$' -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz='^FuzzTCPOptions$' -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz='^FuzzParsePolicy$' -fuzztime=5s ./internal/remedy
go test -run='^$' -fuzz='^FuzzLanePartition$' -fuzztime=5s ./internal/lanes
go test -run='^$' -fuzz='^FuzzSegmentCodec$' -fuzztime=5s ./internal/flowstore
go test -run='^$' -fuzz='^FuzzSketchMerge$' -fuzztime=5s ./internal/sketch
go test -run='^$' -fuzz='^FuzzRingSegment$' -fuzztime=5s ./internal/livemon
go test -run='^$' -fuzz='^FuzzFIFOMatchesAtArg$' -fuzztime=5s ./internal/sim

# Harvest scheduling gate: pcaps are compressed off the simulation
# goroutine, so every bundle must be the same however the workers are
# scheduled, including a cycle whose engines a restart rebuilt.
go test -race -count=10 -run '^TestHarvestSchedulingIndependent$' ./internal/core

# Window prefetch gate: traffic drivers build each window on a goroutine
# one window ahead, so their transits must match the reference driver
# at GOMAXPROCS 1 and 4, across a restart with a build in flight.
go test -race -count=10 -run '^TestDriver' ./internal/core

# Streaming-analytics equivalence gate: streamed digest vs materialized
# baseline on clean and hostile corpora, and the streamed acap encoder
# vs encoding/json (internal/analysis); the /api/flows encoder vs
# encoding/json, and its revalidated store handle seeing every change to
# the file (internal/livemon); the pwanalyze CLI end-to-end with
# spilling forced, and its acaps vs analysis.Digest (cmd/pwanalyze).
go test -run '^(TestStreamEquivalence|TestAcapEncoderMatchesJSON$|TestFlowsEndpointMatchesJSON$|TestFlowsEndpointSeesStoreChanges$)' ./internal/analysis ./internal/livemon
go test -run '^(TestRunMatchesInMemoryPipeline|TestAcapMatchesDigest)$' ./cmd/pwanalyze
echo "streaming equivalence gate: digester matches in-memory pipeline byte-for-byte"

go run ./cmd/pwhealth -validate
if ls rules/*.json >/dev/null 2>&1; then
    go run ./cmd/pwhealth -validate rules/*.json
fi

# Crash/resume gate: baseline (crash points journaled but ignored),
# then a killed run that must exit 3, then a resume that must converge
# on the baseline's exact metrics and WAL.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/patchwork" ./cmd/patchwork
cat >"$tmp/plan.json" <<'EOF'
{"name": "ci-crash", "crash_points": [{"at_sec": 7}]}
EOF
common="-federation-sites 2 -runs 1 -samples 2 -sample-sec 2 -seed 7 \
    -remedy -checkpoint-sec 5 -faults $tmp/plan.json"
"$tmp/patchwork" $common -journal "$tmp/base" -out "$tmp/base-out" \
    -metrics "$tmp/base.prom" -no-kill >/dev/null
rc=0
"$tmp/patchwork" $common -journal "$tmp/crash" -out "$tmp/crash-out" \
    -metrics "$tmp/crash.prom" >/dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "crash run exited $rc, want 3" >&2
    exit 1
fi
"$tmp/patchwork" -resume "$tmp/crash" -out "$tmp/crash-out" \
    -metrics "$tmp/crash.prom" >/dev/null
cmp "$tmp/base.prom" "$tmp/crash.prom"
cmp "$tmp/base/wal.jsonl" "$tmp/crash/wal.jsonl"
echo "crash/resume gate: metrics and WAL byte-identical"

# Laned crash/resume gate: the same campaign sharded across dataplane
# lanes. The uninterrupted laned run must byte-match the serial
# baseline; a laned run killed at the crash point and resumed (under a
# different worker count) must byte-match both.
"$tmp/patchwork" $common -journal "$tmp/lbase" -out "$tmp/lbase-out" \
    -metrics "$tmp/lbase.prom" -no-kill -lanes 2 -lane-workers 2 >/dev/null
cmp "$tmp/base.prom" "$tmp/lbase.prom"
cmp "$tmp/base/wal.jsonl" "$tmp/lbase/wal.jsonl"
rc=0
"$tmp/patchwork" $common -journal "$tmp/lcrash" -out "$tmp/lcrash-out" \
    -metrics "$tmp/lcrash.prom" -lanes 2 -lane-workers 2 >/dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "laned crash run exited $rc, want 3" >&2
    exit 1
fi
"$tmp/patchwork" -resume "$tmp/lcrash" -out "$tmp/lcrash-out" \
    -metrics "$tmp/lcrash.prom" -lanes 2 -lane-workers 1 >/dev/null
cmp "$tmp/base.prom" "$tmp/lcrash.prom"
cmp "$tmp/base/wal.jsonl" "$tmp/lcrash/wal.jsonl"
echo "laned crash/resume gate: artifacts byte-identical to serial baseline"

# Live-telemetry gate: the same campaign served on an ephemeral port.
# -serve-hold keeps the server up after completion so the probe sees a
# finished campaign; pwlive validates /metrics (Prometheus syntax +
# histogram monotonicity), the JSON endpoints, and a ring time-range
# query; SIGTERM releases the hold for a graceful exit 0. The served
# run's artifacts must byte-match the unserved baseline — attaching the
# telemetry plane must not perturb the simulation.
go build -o "$tmp/pwlive" ./cmd/pwlive
"$tmp/patchwork" $common -journal "$tmp/serve" -out "$tmp/serve-out" \
    -metrics "$tmp/serve.prom" -no-kill -serve :0 -serve-hold >/dev/null &
serve_pid=$!
"$tmp/pwlive" -addr-file "$tmp/serve-out/livemon/addr" -wait-sec 30 \
    -series sim_events_processed -min-points 2 >/dev/null
kill -TERM "$serve_pid"
wait "$serve_pid"
cmp "$tmp/base.prom" "$tmp/serve.prom"
cmp "$tmp/base/wal.jsonl" "$tmp/serve/wal.jsonl"
go run ./cmd/pwhealth -check-prom "$tmp/serve.prom" >/dev/null
echo "live-telemetry gate: probe passed, artifacts byte-identical with -serve"

# Provenance gate: the causal event DAG recorded with -provenance is a
# sim-time artifact, so a serial run and a sharded laned run of the same
# seed must write byte-identical traces — and recording it (plus wall
# profiling on the laned run) must not perturb any other artifact. A
# pwprof smoke run then proves the trace loads and yields a critical
# path and blame report.
"$tmp/patchwork" $common -journal "$tmp/pserial" -out "$tmp/pserial-out" \
    -metrics "$tmp/pserial.prom" -no-kill -provenance >/dev/null
"$tmp/patchwork" $common -journal "$tmp/planed" -out "$tmp/planed-out" \
    -metrics "$tmp/planed.prom" -no-kill -lanes 2 -lane-workers 2 \
    -provenance -profile >/dev/null
cmp "$tmp/pserial-out/prof/provenance.trace" "$tmp/planed-out/prof/provenance.trace"
cmp "$tmp/base.prom" "$tmp/pserial.prom"
cmp "$tmp/base.prom" "$tmp/planed.prom"
cmp "$tmp/base/wal.jsonl" "$tmp/pserial/wal.jsonl"
test -s "$tmp/planed-out/prof/lane-trace.json"
test -s "$tmp/planed-out/prof/lane-summary.json"
go build -o "$tmp/pwprof" ./cmd/pwprof
"$tmp/pwprof" -top 5 -chrome "$tmp/critical.json" \
    "$tmp/pserial-out/prof/provenance.trace" | grep -q "critical path:"
test -s "$tmp/critical.json"
echo "provenance gate: serial and laned traces byte-identical, pwprof report ok"

# Crash-point-matrix smoke: kill the campaign at a strided set of WAL
# record and checkpoint-swap boundaries (every boundary runs in the
# full, non-short suite) and require the resumed artifacts byte-match
# the uninterrupted baseline.
go test -short -run '^TestCrashPointMatrix' .
echo "crash-point-matrix smoke: resume byte-identical at probed boundaries"

# Storage-chaos gate: a campaign journaling through a hostile
# fault-injecting filesystem (torn write, bit flip, ENOSPC on the WAL)
# must still complete with exit 0, count the loud fault in
# patchwork_storage_errors_total, and a same-seed rerun must replay the
# chaos injection-for-injection (byte-identical storefault.jsonl).
cat >"$tmp/store-plan.json" <<'EOF'
{
  "name": "ci-hostile-store",
  "torn_writes": [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 6,  "max": 1}],
  "bit_flips":   [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 10, "max": 1}],
  "enospc":      [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 8,  "max": 1}]
}
EOF
"$tmp/patchwork" $common -journal "$tmp/chaos1/journal" -out "$tmp/chaos1" \
    -metrics "$tmp/chaos1.prom" -no-kill -store-chaos "$tmp/store-plan.json" >/dev/null
"$tmp/patchwork" $common -journal "$tmp/chaos2/journal" -out "$tmp/chaos2" \
    -metrics "$tmp/chaos2.prom" -no-kill -store-chaos "$tmp/store-plan.json" >/dev/null
test -s "$tmp/chaos1/storefault.jsonl"
cmp "$tmp/chaos1/storefault.jsonl" "$tmp/chaos2/storefault.jsonl"
grep -q 'patchwork_storage_errors_total{artifact="append"} 1' "$tmp/chaos1.prom"
echo "storage-chaos gate: hostile plan survived, injections replay byte-identically"

# pwfsck gate: the chaos campaign's silent faults (the torn write and
# bit flip land mid-WAL, because later appends continue past them) are
# exactly what the scrubber exists to find. Doctor the directory
# further with shell-planted damage — a pcap truncated mid-record, an
# event log with an unterminated tail — then require pwfsck to report
# mid-file corruption (exit 3), -repair to truncate every damaged
# artifact to its last valid frame, and a re-scrub to come back clean.
go build -o "$tmp/pwfsck" ./cmd/pwfsck
cp -r "$tmp/chaos1" "$tmp/doctored"
pc=$(find "$tmp/doctored" -name '*.pcap' | head -1)
head -c "$(($(wc -c <"$pc") - 11))" "$pc" >"$pc.t" && mv "$pc.t" "$pc"
printf '{"torn' >>"$tmp/doctored/health/alerts.jsonl"
rc=0
"$tmp/pwfsck" "$tmp/doctored" >/dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "pwfsck on doctored chaos dir exited $rc, want 3 (mid-file corruption)" >&2
    exit 1
fi
rc=0
"$tmp/pwfsck" -repair "$tmp/doctored" >/dev/null || rc=$?
if [ "$rc" -ne 3 ] && [ "$rc" -ne 2 ] && [ "$rc" -ne 0 ]; then
    echo "pwfsck -repair exited $rc" >&2
    exit 1
fi
"$tmp/pwfsck" "$tmp/doctored"
echo "pwfsck gate: chaos + doctored damage detected, repaired, re-scrub clean"

# Results gate: regenerate the committed paper results at seed 1 and
# require every file in results/ to match byte for byte.
go build -o "$tmp/pwexperiments" ./cmd/pwexperiments
mkdir -p "$tmp/results"
"$tmp/pwexperiments" -all -seed 1 -out "$tmp/results" >"$tmp/results/all_experiments.txt"
diff -r results "$tmp/results"
echo "results gate: pwexperiments -all -seed 1 reproduces results/ byte for byte"
