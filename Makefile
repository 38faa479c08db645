GO ?= go

.PHONY: all build vet test race test-1cpu check torture torture-rate torture-stress benchcheck apicheck loc bench-shardscale bench-membalance bench-wire bench-read bench-vlog bench-bg alloc-profile profile repro clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrent write path (commits under one lock, WAL batch appends,
# zero-copy merges under readers), the shard router (cross-shard
# batch splits, multi-get fan-out, merged iterators, parallel
# flush/close, the memory governor), the public DB that forwards to one
# engine or to the router, the pipelined network front end
# (reader/writer split, cross-connection batcher, tag-matched client),
# the bloom filters merged in place under concurrent probes, the
# memtable filters its one committer fills while Gets probe them, the one
# stats recorder that every foreground and background goroutine writes,
# the baselines' shared engine (one writer against its retire job,
# MatrixKV's column job, the SSTable tree's compaction job and readers
# across every tier), the SSTable tree (its compaction job, on its owner's
# table, against flushes, column merges and readers), the simulated disk
# under it (files written by the tree's compaction while Gets read them,
# metered through one shared device) and the one job table every store
# runs its background work on must stay race-clean. The merge reader
# tests — point reads and scans —
# run again on one CPU and on two: the merger and its readers interleave
# differently on each. The paper regenerator's one op loop
# (internal/bench) serves every thread count, so its goroutines share one
# histogram, one miss counter and one error slot: its driver tests run
# too, filtered, as the package's experiments are too slow under -race.
race:
	$(GO) test -race . ./internal/core ./internal/wal ./internal/shard ./internal/server ./internal/client ./internal/skiplist ./internal/memtable ./internal/pmtable ./internal/vaddr ./internal/nvm ./internal/vlog ./internal/bloom ./internal/stats ./internal/baseline/... ./internal/lsm ./internal/jobs ./internal/vfs
	$(GO) test -race -cpu 1,2 ./internal/pmtable -run 'TestConcurrentReadsDuring(Run)?Merge$$|TestSafeIteratorUnderConcurrentMerge$$' -count=1
	$(GO) test -race ./internal/bench -run 'TestDriver|TestConcurrentReadRunners' -count=1

# One CPU: the runners that share it (one per background job, or one for
# every merge under DisableParallelCompaction) must neither starve a job
# nor deadlock when only one goroutine runs at a time — in core (SSD mode
# adds the tree's compaction job to its table; every store, a fresh one
# too, starts its runners from the recovery path, after WAL replay and
# merge resume, so the recovery, manifest and image tests run here), in
# the job table itself, and in the baselines (retire, column and tree
# compaction jobs on one table). Core's free-list reuse tests run here
# too: the release functions that fill the lists run from the epoch
# sweep, whose timing against rotations differs on one CPU.
test-1cpu:
	GOMAXPROCS=1 $(GO) test ./internal/core -run 'Ablation|Idle|ValueLogGC|Degrade|SSDMode|Recover|Manifest|Image|Reuse' -count=1
	GOMAXPROCS=1 $(GO) test ./internal/jobs ./internal/baseline/... -count=1

# Crash-torture: randomized power failures, torn writes, and interrupted
# recoveries under the race detector (50+ cycles), and the compatibility
# table's matrix: every supported feature combination tortured. The seed
# fixes the workload, not the goroutine schedule, so a run is not
# deterministic per seed; torture-stress below measures it as a rate.
torture:
	$(GO) test -race ./internal/core -run 'TestCrashTorture|TestDoubleCrashDuringRecovery|TestCompatibilityTable$$' -v

# Crash-torture health as a rate, not a single run: both torture tests
# COUNT times each (race off), failures tallied by mode with the numbers
# masked so equal modes group. Compare the rate and the modes of a change
# with its parent's: any failure is news, a new mode is a bug.
COUNT ?= 200
TORTURE_TESTS = TestCrashTorture TestCrashTortureValueLog
# torture_tally prints test $$t's tally from .torture-rate.log.
torture_tally = echo "$$t: $$(grep -c -- '--- FAIL' .torture-rate.log) of $(COUNT) runs failed, $$(grep -c '^panic:' .torture-rate.log) panicked (a panic ends the batch: the runs after it never ran)"; \
	grep -A1 -- '--- FAIL' .torture-rate.log | grep -v -- '^--' | sed 's/[0-9][0-9]*/N/g' | cut -c1-100 | sort | uniq -c
torture-rate:
	@for t in $(TORTURE_TESTS); do \
		$(GO) test ./internal/core -run "^$$t$$" -count=$(COUNT) > .torture-rate.log 2>&1; \
		$(torture_tally); \
	done; rm -f .torture-rate.log

# torture-rate as a gate: fails if any of the COUNT runs of either test
# fails or panics, and then prints that test's tally by mode.
torture-stress:
	@status=0; for t in $(TORTURE_TESTS); do \
		if $(GO) test ./internal/core -run "^$$t$$" -count=$(COUNT) > .torture-rate.log 2>&1 && \
			! grep -q -e '--- FAIL' -e '^panic:' .torture-rate.log; then \
			echo "$$t: $(COUNT) of $(COUNT) runs passed"; \
		else \
			status=1; $(torture_tally); tail -n 20 .torture-rate.log; \
		fi; \
	done; rm -f .torture-rate.log; exit $$status

# The repository benchmark is a module of its own (benchmark/go.mod, with
# a replace onto this one), so `go test ./...` here never enters it. It
# compiles against miodb/internal/... and its smoke test checks every
# answer it reads: this is what breaks when an engine change stops the
# benchmark from compiling or verifying.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Public-API break detection for the root miodb package, against the
# previous tag (or commit). Soft by default: skips without the apidiff
# tool, warns without APIDIFF_STRICT=1 — CI sets both.
apicheck:
	sh scripts/apidiff.sh

# Non-test Go lines: the root module, each top-level package, and the
# benchmark module. Print-only; the figure simplicity changes report.
loc:
	@sh scripts/loc.sh

# check is the gate for every change: build, vet, full tests, the race
# detector over the concurrency-heavy packages, the one-CPU pass, the
# crash-torture run under the race detector and COUNT times each without
# it, the nested benchmark module, and the public-API diff.
check: vet build test race test-1cpu torture torture-stress benchcheck apicheck

# Shard-scaling sweep (fill + readrandom vs shard count, 8 threads);
# emits the EXPERIMENTS.md shard table and BENCH_shardscale.json.
bench-shardscale:
	$(GO) run ./cmd/miodb-repro -experiment shardscale -json_dir .

# Adaptive memory governor: skewed zipfian traffic over 8 shards,
# adaptive vs static budget split at equal total memory; writes
# BENCH_membalance.json with per-shard flush counts and memtable-target
# timelines.
bench-membalance:
	$(GO) run ./cmd/miodb-repro -experiment membalance -json_dir .

# The write path's Go heap: TestWriteHeapPerPut, the test that gates the
# bytes allocated per Put, with every allocation in its heap profile.
# Inspect with:
#   go tool pprof -sample_index=alloc_space -top profiles/alloc.test profiles/alloc-heap.out
alloc-profile:
	mkdir -p profiles
	$(GO) test ./internal/core -run '^TestWriteHeapPerPut$$' -count=1 -v \
		-memprofile alloc-heap.out -memprofilerate 1 \
		-outputdir $(CURDIR)/profiles -o profiles/alloc.test

# The wire front end alone: one request through client, loopback socket
# and server over a store that does nothing, closed loops of 1 and 16
# callers on one connection, with allocations and the client's socket
# writes and reads per request. Leaves a CPU profile; inspect with:
#   go tool pprof profiles/wire.test profiles/wire-cpu.out
bench-wire:
	mkdir -p profiles
	$(GO) test ./internal/client -run xxx -bench RoundTrip -benchmem \
		-cpuprofile wire-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/wire.test

# The read path alone, bottom up: one skip-list search at memtable size
# (384 entries) and repository size (60 000), one memtable Get (a hit, and
# a miss its filter rules out, with and without the filter), one
# SafeIterator step through a settled table and through a merging pair,
# and the engine's Scan(20) over a preloaded store, with allocations.
# Leaves a CPU profile per
# layer; inspect with:
#   go tool pprof -top profiles/read-skiplist.test profiles/read-skiplist-cpu.out
bench-read:
	mkdir -p profiles
	$(GO) test ./internal/skiplist -run xxx -bench SeekGE -benchmem \
		-cpuprofile read-skiplist-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/read-skiplist.test
	$(GO) test ./internal/memtable -run xxx -bench Get -benchmem \
		-cpuprofile read-memtable-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/read-memtable.test
	$(GO) test ./internal/pmtable -run xxx -bench SafeIteratorNext -benchmem \
		-cpuprofile read-pmtable-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/read-pmtable.test
	$(GO) test ./internal/core -run xxx -bench Scan20 -benchmem \
		-cpuprofile read-core-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/read-core.test

# The value-log data path alone, bottom up: one 4 KB append into an NVM
# segment, the collector's walk over a sealed segment nine tenths marked
# dead (internal/vlog), and RunValueLogGC to completion over a preloaded,
# overwritten store (internal/core), with allocations. Leaves a CPU
# profile per layer; inspect with:
#   go tool pprof -top profiles/vlog-store.test profiles/vlog-store-cpu.out
bench-vlog:
	mkdir -p profiles
	$(GO) test ./internal/vlog -run xxx -bench 'Append|GCScan' -benchmem \
		-cpuprofile vlog-store-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/vlog-store.test
	$(GO) test ./internal/core -run xxx -bench RunValueLogGC -benchmem \
		-cpuprofile vlog-core-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/vlog-core.test

# The background kernel alone: one zero-copy merge of two 4000-entry
# tables, one lazy copy of such a table into a repository of 30 000 keys
# (keys all present, and all absent) and one flush's pointer swizzle, each
# as ns/node and device calls/node, quiet and beside a goroutine hammering
# the same device's counters, at GOMAXPROCS 1 and 2 — the cache line a
# drain shares with the write path shows as contended-2 against quiet-2.
# Leaves a CPU profile per drain; inspect with:
#   go tool pprof -top profiles/bg-pmtable.test profiles/bg-merge-cpu.out
bench-bg:
	mkdir -p profiles
	$(GO) test ./internal/pmtable -run xxx -bench MergeRun -benchtime 50x -cpu 1,2 \
		-cpuprofile bg-merge-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/bg-pmtable.test
	$(GO) test ./internal/pmtable -run xxx -bench Absorb -benchtime 50x -cpu 1,2 \
		-cpuprofile bg-absorb-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/bg-pmtable.test
	$(GO) test ./internal/pmtable -run xxx -bench FlushSwizzle -benchtime 2000x -cpu 1,2 \
		-cpuprofile bg-swizzle-cpu.out \
		-outputdir $(CURDIR)/profiles -o profiles/bg-pmtable.test

# Capture mutex/block contention profiles from an 8-thread read-only
# run of the epoch-pinned read path (BenchmarkConcurrentReads; no reader
# should show up on db.mu). Inspect with:
#   go tool pprof profiles/readscale.test profiles/mutex.out
#   go tool pprof profiles/readscale.test profiles/block.out
profile:
	mkdir -p profiles
	$(GO) test ./internal/bench -run xxx \
		-bench 'ConcurrentReads/readonly/miodb/threads=8' -benchtime 1x \
		-mutexprofile mutex.out -blockprofile block.out \
		-outputdir $(CURDIR)/profiles -o profiles/readscale.test

# Regenerate every paper table/figure (about an hour at full scale).
repro:
	$(GO) run ./cmd/miodb-repro -all

clean:
	$(GO) clean ./...
