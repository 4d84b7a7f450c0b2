GO ?= go

.PHONY: check fmt vet lint build test race perfbench fuzz bench clean

## check: the full gate — gofmt, vet, lint, build, the race-enabled
## test suite, perfbench's own module, and a short fuzz pass over every
## fuzz target.
check: fmt vet lint build race perfbench fuzz

## fmt: fail when any file is not gofmt-clean, as CI's lint job does.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

## lint: repo-specific hygiene rules (see cmd/mlpalint).
lint:
	$(GO) run ./cmd/mlpalint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## perfbench: vet and test the benchmark's own module (its golden plan
## and estimate digests), which the root ./... never reaches.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## fuzz: short fuzzing pass — 20s per target ('go test -fuzz' takes
## exactly one matching target per invocation, hence one run each).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzAssembleRoundTrip -fuzztime=$(FUZZTIME) ./internal/prog/
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) ./internal/staticanalysis/
	$(GO) test -fuzz=FuzzRunVsStep -fuzztime=$(FUZZTIME) ./internal/emu/
	$(GO) test -fuzz=FuzzLiveness -fuzztime=$(FUZZTIME) ./internal/staticanalysis/dataflow/
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzCkptRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckpt/
	$(GO) test -fuzz=FuzzSchedulerVsReference -fuzztime=$(FUZZTIME) ./internal/cpu/
	$(GO) test -fuzz=FuzzKMeansVsReference -fuzztime=$(FUZZTIME) ./internal/kmeans/

## bench: machine-readable perf/accuracy snapshot, written to
## bench-out/BENCH_<date>.json so the checked-in baseline is never
## overwritten.
bench:
	$(GO) run ./cmd/mlpa bench -size tiny -dir bench-out

clean:
	rm -rf bench-out
