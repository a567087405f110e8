#!/usr/bin/env bash
# Static-analysis and test gate for the repository. CI and pre-commit both run
# this; it must exit non-zero on any failure.
#
# The gates run fail-fast in cost order: formatting and stock static analysis
# first, then the custom tmi3dvet determinism/wire-format analyzers, then the
# benchmark module's smoke test, the kernel benchmarks and the codec
# fuzzers, then the race-detector test suite, then the end-to-end smokes (parallel determinism,
# staged identity, formal equivalence, serving). Each gate opens with a named banner so a CI
# log identifies the failing stage at a glance, closes with its wall time,
# and a passing run ends with one timing line per stage.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_names=()
stage_secs=()
stage_start=""

# stage_done prints and records the wall time of the stage in progress.
stage_done() {
    if [ -n "$stage_start" ]; then
        local secs=$((SECONDS - stage_start))
        stage_secs+=("$secs")
        echo "-- stage ${stage_names[${#stage_names[@]}-1]}: ${secs}s"
    fi
}

stage() {
    stage_done
    stage_names+=("$1")
    stage_start=$SECONDS
    echo
    echo "==================================================================="
    echo "== stage: $1"
    echo "==================================================================="
}

stage gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage govet
go vet ./...

stage build
go build ./...

stage tmi3dvet
# The repo's own analyzers: map-iteration order and seed purity. The stage
# cache keys and the shared process caches hold by construction, and they,
# the wire contract and concurrency have runtime tests in internal/flow and
# serve, run by the race stage below. A single unsuppressed diagnostic fails
# the gate; the report ends with two count lines, one per analyzer, so the
# log shows every check ran. Run
# `go run ./cmd/tmi3dvet -list` for the suite; the suppression syntax is in
# cmd/tmi3dvet's doc.
go run ./cmd/tmi3dvet ./...

stage bench-smoke
# The repository benchmark (bench/) is its own Go module, so the root
# `go test ./...` never builds it; an API change in flow, stage or serve
# would otherwise break it silently. Its smoke test builds it and runs every
# workload briefly (about 30 s).
(cd bench && go test ./...)

stage bench-kernels
# The kernel benchmarks (sta.Analyze, place.Run, route.Run, opt.Close,
# lint.CheckDesign, equiv.Check, castore Put/Get, netlist Clone, the stage
# artifact codec) run once each, so they keep compiling and running; `make
# bench-kernels` times them with -benchmem.
go test -run '^$' -bench . -benchtime 1x ./internal/sta ./internal/place ./internal/route ./internal/opt \
    ./internal/lint ./internal/equiv ./internal/castore ./internal/netlist
go test -run '^$' -bench BenchmarkArtifactCodec -benchtime 1x ./internal/stage

stage codec-fuzz
# The one-pass artifact encoder against encoding/json, beyond the seed
# corpora the race stage runs: each encode-oracle fuzz target gets 10 s of
# new inputs (escaped and invalid-UTF-8 names, non-finite floats, nil and
# empty lists, pins out of order). A failing input lands in the package's
# testdata/fuzz, where `go test` replays it from then on.
for target in jsonwire:FuzzWriterString jsonwire:FuzzWriterFloat netlist:FuzzDesignEncode \
    sta:FuzzResultEncode route:FuzzResultEncode place:FuzzSnapshotEncode lint:FuzzReportEncode \
    flow:FuzzSamplesEncode flow:FuzzArtifactEncode; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "./internal/${target%%:*}"
done

stage race
go test -race ./...

stage parallel-determinism
# The experiment engine's contract: the report is byte-identical at any -j.
# Run a real (small) experiment serially and at -j 4 and diff the outputs.
pdir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$pdir"
}
trap cleanup EXIT
go run ./cmd/experiments -scale 0.1 -only table16 -j 1 -out "$pdir/j1.txt" >/dev/null
go run ./cmd/experiments -scale 0.1 -only table16 -j 4 -out "$pdir/j4.txt" >/dev/null
if ! diff -u "$pdir/j1.txt" "$pdir/j4.txt"; then
    echo "experiments output differs between -j 1 and -j 4" >&2
    exit 1
fi

stage staged-identity
# The staged flow engine's contract: byte-identical to the monolithic flow at
# any cache state. Run a 3-point clock sweep monolithically, then staged with
# a cold artifact store, then staged again fully warm (the second pass
# executes no stage bodies at all), then one new clock point over the warm
# store (its upstream stages decode from disk), and diff report + Verilog +
# DEF per point. The tmi3d binary built here serves every later stage.
go build -o "$pdir/tmi3d" ./cmd/tmi3d
for clk in 0 2000 2400; do
    "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$clk" -byfunc \
        -dump "$pdir/mono$clk" >"$pdir/mono$clk.txt" 2>/dev/null
done
for pass in cold warm; do
    for clk in 0 2000 2400; do
        "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$clk" -byfunc \
            -stagecache "$pdir/stagecache" \
            -dump "$pdir/$pass$clk" >"$pdir/$pass$clk.txt" 2>/dev/null
        for f in txt v def; do
            if ! diff -u "$pdir/mono$clk.$f" "$pdir/$pass$clk.$f"; then
                echo "staged ($pass, clock $clk) .$f output differs from monolithic" >&2
                exit 1
            fi
        done
    done
done
# A new clock point over the warm store is a partial hit: a new process
# decodes wlm, synth and place from disk and runs the stages after them.
"$pdir/tmi3d" stages -circuit FPU -scale 0.1 -mode tmi -clock 2200 \
    -stagecache "$pdir/stagecache" >"$pdir/plan2200.txt"
for node in wlm synth place; do
    if ! grep -Eq "^$node +disk " "$pdir/plan2200.txt"; then
        echo "staged (partial, clock 2200): $node is not a disk hit" >&2
        cat "$pdir/plan2200.txt" >&2
        exit 1
    fi
done
"$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock 2200 -byfunc \
    -dump "$pdir/mono2200" >"$pdir/mono2200.txt" 2>/dev/null
"$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock 2200 -byfunc \
    -stagecache "$pdir/stagecache" \
    -dump "$pdir/partial2200" >"$pdir/partial2200.txt" 2>/dev/null
for f in txt v def; do
    if ! diff -u "$pdir/mono2200.$f" "$pdir/partial2200.$f"; then
        echo "staged (partial, clock 2200) .$f output differs from monolithic" >&2
        exit 1
    fi
done

stage equiv-smoke
# Formal sign-off must prove the smallest benchmark's mapped netlist and pass
# the switch-level library check — and must catch an injected logic defect.
"$pdir/tmi3d" equiv -circuit FPU -scale 0.1 -lib -format text
if "$pdir/tmi3d" equiv -circuit FPU -scale 0.1 -corrupt swapgate >/dev/null; then
    echo "equiv failed to detect injected swapgate corruption" >&2
    exit 1
fi

stage serve-smoke
# The serving layer's contract: a daemon answer is byte-identical to a direct
# flow.Run. Boot on an ephemeral port, probe /healthz, fetch one flow result
# twice (cold then cached), and diff against the direct encoding via loadgen.
# The staged engine's identity is covered by staged-identity above; serve
# always runs flow.Run.
go build -o "$pdir/loadgen" ./cmd/loadgen
"$pdir/tmi3d" serve -addr 127.0.0.1:0 -store "$pdir/store" \
    -addrfile "$pdir/addr" 2>"$pdir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$pdir/addr" ] && break; sleep 0.1; done
if [ ! -s "$pdir/addr" ]; then
    echo "tmi3d serve never wrote its address:" >&2
    cat "$pdir/serve.log" >&2
    exit 1
fi
addr=$(tr -d '\n' <"$pdir/addr")
if command -v curl >/dev/null; then
    curl -sf "http://$addr/healthz" >/dev/null
fi
"$pdir/loadgen" -addr "$addr" -workers 8 -n 16 -circuit FPU -scale 0.1 \
    -verify -check
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

stage_done
echo
echo "check.sh: all clean"
for i in "${!stage_names[@]}"; do
    printf '  %-24s %5ss\n' "${stage_names[$i]}" "${stage_secs[$i]}"
done
