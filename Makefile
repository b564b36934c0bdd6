GO ?= go

RACE_PKGS = repro/internal/txn repro/internal/storage repro/internal/engine repro/internal/extidx repro/internal/exec repro/internal/obs

.PHONY: build vet lint test race crash fuzz obs-smoke check bench bench-batch bench-parallel bench-writers bench-storage

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...

## lint: run the codebase-specific static analyzers (cmd/vetx)
lint:
	$(GO) run ./cmd/vetx ./...

test:
	$(GO) test ./...

## race: race detector + runtime invariant checks on the concurrency-bearing packages
## (the engine suite alone runs ~10 minutes under -race on one core, so
## the per-package timeout is raised above the 600s default)
race:
	$(GO) test -race -tags invariants -timeout 1200s $(RACE_PKGS)
	$(GO) test -race -tags invariants -timeout 1200s -run 'Stress|CrashConcurrent' .

## crash: fault-injection crash-recovery matrix (every crash point, torn
## writes) plus the storage-level delta-vs-full-image replay property
crash:
	$(GO) test -run Crash -tags invariants -v . ./internal/storage

## fuzz: parser round-trip fuzz smoke (parse -> print -> parse identity)
## and WAL replay fuzz smoke (arbitrary log bytes never panic, never apply
## a batch without its commit record; inputs hold 8 KiB page images, so
## minimization is capped or it eats the whole budget)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 20s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzReplayWAL -fuzztime 20s -fuzzminimizetime 2s ./internal/storage

## obs-smoke: run a reduced experiment sweep and fail if any required
## engine counter (pager, txn, planner, ODCI fetch, parallel exec,
## per-shard pager stats, background checkpoints) or wait-event class
## (AdmissionShared, WALGroupFsync, WALAppend, MutationWindow,
## ExchangeWorkerIdle, ODCICallback, PagerLatch,
## CheckpointBackpressure) stayed at zero — catches silently
## disconnected instrumentation
obs-smoke:
	$(GO) run ./cmd/benchrunner -quick -only E2,E6,E8,P1,W1,S1 -json -smoke > /dev/null

## check: everything CI runs
check: build vet lint test race crash obs-smoke

bench:
	$(GO) test -bench=. -benchmem .

## bench-batch: Fetch-batch-size sweep, row-at-a-time baseline vs
## batch-first executor, one JSON metrics snapshot per batch size
bench-batch:
	$(GO) run ./cmd/benchrunner -only B1 -json

## bench-parallel: parallel-degree sweep, morsel-driven scan/aggregate
## vs serial, one JSON metrics snapshot per degree
bench-parallel:
	$(GO) run ./cmd/benchrunner -only P1 -json

## bench-writers: group-commit writer sweep (commits/sec and
## commits-per-fsync at 1/4/16/64 writers), one JSON metrics snapshot
## per writer count; the experiment aborts on parity loss or a dead
## shared-sync path
bench-writers:
	$(GO) run ./cmd/benchrunner -only W1 -json

## bench-storage: sharded-buffer-pool sweep (pager-latch wait time at
## 1/4/16 shards under degree-8 parallel scans racing 16 writers, plus
## a deterministic checkpoint-backpressure phase), one JSON metrics
## snapshot per shard count; the experiment aborts on scan/writer
## parity loss and asserts 16 shards cut latch time to <= 50% of the
## single-latch baseline
bench-storage:
	$(GO) run ./cmd/benchrunner -only S1 -json
