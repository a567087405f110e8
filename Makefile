# Convenience targets; scripts/check.sh is the canonical CI gate.
.PHONY: check test build fmt lint vet-custom equiv serve loadgen bench bench-trace bench-kernels bench-serve bench-vet bench-parallel bench-stage

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

# Design-integrity lint over every benchmark, both libraries, and both
# layout sets (see internal/lint).
lint:
	@go run ./cmd/tmi3d lint -all

# The repo's own two static analyzers (maporder, seedpurity) over every
# package, ending with per-analyzer diagnostic counts (see internal/vet and
# cmd/tmi3dvet). The stage cache keys, the shared process caches and the
# wire contract are runtime tests in internal/flow, run by `go test ./...`.
vet-custom:
	go run ./cmd/tmi3dvet ./...

# Formal equivalence sign-off: LEC over every benchmark plus the
# switch-level check of the folded T-MI library (see internal/equiv).
equiv:
	@go run ./cmd/tmi3d equiv -all

# PPA-as-a-service daemon on :8080 with a local persistent store
# (see internal/serve and the serving-layer section of DESIGN.md).
serve:
	go run ./cmd/tmi3d serve -addr 127.0.0.1:8080 -store tmi3d-store

# Drive a running daemon: 64 workers, hot/cold mix, byte-identity check.
loadgen:
	go run ./cmd/loadgen -addr 127.0.0.1:8080 -workers 64 -n 256 \
		-scale 0.1 -cold 0.05 -verify -check

# The repository benchmark (bench/, BENCHMARK.json): every workload in fresh
# child processes, end-to-end metrics plus correctness checks, appended to
# .bench_build/results.json. Pass ARGS to narrow it, e.g.
# `make bench ARGS="--workload matrix45"`.
bench:
	bash bench/run.sh $(ARGS)

# The same run traced: per-layer metrics (stage times, gate counts, alloc,
# gates share) and a Chrome trace under .bench_build/trace.
bench-trace:
	bash bench/run.sh --trace 1 $(ARGS)

# The hot kernels, with allocations: one sta.Analyze, place.Run,
# lint.CheckDesign, equiv.Check and netlist Clone per op on the fixed
# FPU@0.15 design, one place.Run of LDPC@1.0 T-MI and one route.Run and one
# pre-route opt.Close per op on its fixed placement, and one castore Put and
# Get of the FPU@0.1
# report payload; then the stage artifact codec, encode and decode per cached
# node on FPU@0.1 (by name: `-bench .` would also run the sweep benchmark).
bench-kernels:
	go test -run '^$$' -bench . -benchmem ./internal/sta ./internal/place ./internal/route ./internal/opt \
		./internal/lint ./internal/equiv ./internal/castore ./internal/netlist
	go test -run '^$$' -bench BenchmarkArtifactCodec -benchmem ./internal/stage
	go test -run '^$$' -bench BenchmarkRun -benchmem ./internal/flow

# The serving layer alone over a stubbed flow: the LRU hit path and the miss
# path (job table, queue hand-off, encode, store write).
bench-serve:
	go test ./internal/serve -run '^$$' -bench BenchmarkServe -benchmem

bench-vet:
	go test ./internal/vet -run '^$$' -bench BenchmarkVet

# The parallel-driver benches: serial baseline and flow-pool fan-out.
# Compare ns/op; the tracked number is `make bench`'s matrix45 latency_ms.
bench-parallel:
	go test . -run '^$$' -bench 'BenchmarkStudy(Serial|Parallel)' -benchtime 1x

# The staged flow engine's reuse on a clock sweep: monolithic vs cold vs
# warm staged runs, measured in stage-body executions per sweep point. The
# tracked numbers are `make bench`'s sweep_cold/sweep_warm latency_ms and
# stage.execs_per_point.
bench-stage:
	go test ./internal/stage -run '^$$' -bench BenchmarkStagedSweep -benchtime 1x
