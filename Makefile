# Developer entry points. `make lint` runs the same static-analysis
# stack as CI; the pinned-install tools (staticcheck, govulncheck) run
# only when present locally, since the dev container may be offline.

GO ?= go

.PHONY: all build test race lint sadplint fmt

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

# sadplint is the repo's own analyzer suite (internal/analyzers), run
# once over every production package of the module, as CI runs it;
# `go test ./...` runs the same analysis through TestRepoIsClean. Every
# finding fails the gate: fix it or suppress it with a reasoned
# //sadplint:ignore.
sadplint:
	@mkdir -p bin
	$(GO) build -o bin/sadplint ./cmd/sadplint
	bin/sadplint ./...

# Machine-readable findings, e.g. for editor integration:
#   make sadplint-json > findings.json
.PHONY: sadplint-json
sadplint-json:
	@mkdir -p bin
	@$(GO) build -o bin/sadplint ./cmd/sadplint
	@bin/sadplint -json ./...

lint: sadplint
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipped (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipped (CI runs it pinned)"; fi

# Cluster differential e2e: real processes, real kill -9. Proves the
# distributed invariant (byte-identical results across standalone,
# worker-killed and coordinator-crashed topologies). Same script as CI.
# Scenario selection via SCENARIOS ("kill crash chaos"); the chaos
# scenario drives the -chaos fault presets (latency corrupt slow
# spool) with verified uploads on — narrow with CHAOS_PRESETS.
.PHONY: cluster-e2e cluster-chaos

cluster-e2e:
	bash scripts/cluster_e2e.sh

cluster-chaos:
	SCENARIOS=chaos bash scripts/cluster_e2e.sh
