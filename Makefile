GO ?= go

.PHONY: build test race vet bench-short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench-short runs one iteration of every benchmark — it only proves the
# benchmarks still run. Numbers come from benchmark/ (see BENCHMARK.json).
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
