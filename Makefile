GO ?= go

RACE_PKGS = repro/internal/txn repro/internal/storage repro/internal/engine repro/internal/extidx repro/internal/exec repro/internal/obs repro/internal/cartridge/spatial

.PHONY: build vet lint test race crash fuzz check bench bench-smoke

build:
	$(GO) build ./...

## vet: gofmt gate (fails listing any unformatted file), then go vet
vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...

## lint: print the findings of the four codebase-specific static analyzers
## (cmd/vetx: pinbalance, erraudit, layering, lockorder); the gate is
## TestRepoClean in `make test`, which runs the same suite
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
## writes) plus the storage-level delta-vs-full-image replay property,
## then the concurrent failed-sync sweep repeated: the race it guards
## (an acknowledged commit cut from the log by another committer's
## failure) showed in ~1.5% of single runs
crash:
	$(GO) test -run Crash -tags invariants -v . ./internal/storage
	$(GO) test -tags invariants -count=100 -run 'TestCrashConcurrentFailedSyncPoisonsGroup$$' .

## fuzz: parser round-trip fuzz smoke (parse -> print -> parse identity)
## and WAL replay fuzz smoke (arbitrary log bytes never panic, never apply
## a batch without its commit record; inputs hold 8 KiB page images, so
## minimization is capped or it eats the whole budget)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 20s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzReplayWAL -fuzztime 20s -fuzzminimizetime 2s ./internal/storage

## check: everything CI runs except the fuzz smoke (vetx runs inside test)
check: build vet test race crash bench-smoke

## bench: the larger-than-cache full-scan query shapes (allocations per
## query reported); the paper's experiments are TestExperiments in `test`
bench:
	$(GO) test -run '^$$' -bench=BenchmarkFullScan -benchmem ./internal/engine

## bench-smoke: one iteration of each larger-than-cache full-scan shape,
## so its result checks (COUNT/SUM and per-group sums against the loaded
## data) and the eviction path run on every change
bench-smoke:
	$(GO) test -run '^$$' -bench=BenchmarkFullScan -benchtime 1x -benchmem ./internal/engine
