# Build, test and benchmark entry points. CI runs `make test`, the
# race detector (`make race`), the spill suite (`make spill`), the
# parallel-executor suite (`make par`), the crash-recovery suite
# (`make crash`), the server suite (`make serve-race`), the short bench
# smoke, the fuzz smoke and the docs smoke; `make bench` records the
# perf trajectory into $(BENCH_OUT) (one file per PR so regressions
# are diffable; `make bench-out` prints the name).

BENCH_OUT ?= BENCH_pr13.json

.PHONY: all test vet race stress spill crash fuzz par serve-race bench bench-out bench-smoke docs-smoke

all: test

test:
	go build ./...
	go test ./...

vet:
	go vet ./...

# The concurrency suite (snapshot stores, sessions, the copy-on-write
# commit-path equivalence property test and the reader/writer stress
# tests) must stay clean under the race detector.
race:
	go test -race ./...

# The randomized reader/writer interleaving stress, the three-path
# commit equivalence property test and the journal-scoped statement
# invariant's equivalence to the full Validate, by name, under the race
# detector — the explicit CI gate for the copy-on-write commit pipeline
# (all also run as part of `make race`).
stress:
	go test -race -count=2 -run 'TestStoreReaderWriterStress|TestCommitPathsEquivalent|TestStoreConcurrentReadersSeeCommittedEpochsOnly|TestValidateSinceMatchesValidate' ./internal/graph
	go test -race -run 'TestConcurrent|TestSession' ./cypher

# The spill suites under the race detector: forced-spill equivalence
# (tiny budgets make every barrier take the external-sort / hash-
# partition path), temp-file cleanup on error and early-LIMIT close,
# and the executor sweep over the script corpus.
spill:
	go test -race -run 'TestExternalSort|TestSpilling|TestSpillFiles|TestSpillCodec|TestOperator' ./internal/plan
	go test -race -run 'TestTinyBudgetSpillEquivalence|TestBudgetBoundsBarrierPeak|TestExecutorTriEquivalence' ./internal/core
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script
	go test -race -run 'TestWithMemoryBudget|TestProfile' ./cypher

# The morsel-parallel executor gate, under the race detector: the
# parallelism sweep (degrees 1/2/8, with and without a spill-forcing
# budget, bit-identical output required), error/cancellation draining
# with zero live spill files, the concurrent spill-registry and budget
# bookkeeping hammer, and the script-corpus sweep whose configs include
# the parallel executor. Degrees are set explicitly in the tests, so
# this gate is meaningful even on single-core CI runners.
par:
	go test -race -run 'TestParallel' ./internal/core
	go test -race -run 'TestSpillBookkeepingConcurrent|TestBudgetShrinkClampConcurrent' ./internal/plan
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script

# The server gate, under the race detector: the wire-protocol
# conformance scripts, the concurrent-client soak (mixed auto-commit /
# explicit-transaction / rollback workloads with exact isolation
# accounting), drain-under-load, and the loopback wire-equivalence
# sweep that requires served results to be bit-identical to the
# embedded session over the whole script corpus.
serve-race:
	go test -race -count=1 ./internal/server
	go test -race -run 'TestCorpusWireEquivalence|TestWireValueExtremes' ./internal/script
	go test -race -run 'TestPlanCache' ./cypher

# The durability gate: the kill-at-random-point property test, 250
# randomized iterations under the race detector. Each iteration runs a
# random workload against a store whose filesystem dies at a random
# byte offset, recovers with the real filesystem, and requires the
# recovered graph to be bit-identical to a published epoch (and, under
# fsync-per-commit, no older than the last successful commit).
crash:
	CRASH_ITERS=250 go test -race -count=1 -run TestKillAtRandomPointRecovery ./internal/graph

# Short fuzz runs over the codecs that parse untrusted bytes: WAL
# records, binary spill/WAL values, the graph JSON snapshot, and the
# server's wire frames and value tags (the only codec fed by remote
# peers). Each must reject or round-trip canonically, never panic.
# The expression fuzzer additionally proves folding is invisible:
# whatever parses evaluates to the same value/error folded or not.
fuzz:
	go test -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzBinaryValueRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 15s ./cypher
	go test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzWireValueRoundTrip -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzExprEval -fuzztime 15s ./internal/expr

# Full benchmark run, serialized to JSON. -benchtime is modest because
# the B-suite covers 12 benchmark families; raise it for stable numbers.
# The go test exit status gates the JSON step, so a panicking benchmark
# cannot record a silently truncated BENCH file.
bench:
	go test -run '^$$' -bench 'BenchmarkB' -benchmem -benchtime 10x . > bench.out
	cat bench.out
	go run ./cmd/benchjson -in bench.out -out $(BENCH_OUT)
	rm -f bench.out

# The file `make bench` writes, so CI reads the name from one place.
bench-out:
	@echo $(BENCH_OUT)

# One iteration of every benchmark: catches panics and broken bench
# inputs on every push without CI paying for real measurement.
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkB' -benchtime 1x .

# Executes every runnable snippet of docs/language.md and the exported-
# symbol godoc check, so documentation cannot rot. Both also run as part
# of the ordinary test suite; this target is the explicit CI gate.
docs-smoke:
	go test ./internal/script -run TestLanguageReferenceSnippets
	go test ./internal/doccheck
