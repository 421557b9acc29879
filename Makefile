# Local targets mirror .github/workflows/ci.yml step for step so a green
# `make ci` means a green CI run.

GO ?= go

# Perf-trajectory knobs: where the fresh bench run lands, which commit the
# gate runs as its reference, and how much ns/op drift the gate allows.
# BENCH_REF defaults to HEAD: the gate measures the working tree against
# what is committed. Once the change is committed, name its base instead
# (CI passes the pull request's base or the push's previous tip).
BENCH_OUT ?= BENCH_PR30.json
BENCH_REF ?= HEAD
BENCH_MAX_REGRESS ?= 0.35

# BENCH_ROUNDS is how many runs of each side the trajectory medians take,
# sized from the measured run-to-run spread (docs/performance.md). It is a
# constant, not a knob: `override` ignores command-line settings.
override BENCH_ROUNDS := 5

# Coverage gate: these packages carry the statistical-guarantee machinery
# (including the budgeted sparse-GP inference paths), the network serving
# layer, the fleet router/replicator, and the public client, and must stay
# above the floor.
COVER_PKGS = ./internal/mat ./internal/ecdf ./internal/gp ./internal/core ./internal/server ./internal/server/wire ./internal/fleet ./client
COVER_MIN ?= 70

.PHONY: build test vet fmt fmt-fix race bench bench-smoke bench-json bench-diff cover fuzz-smoke e2e e2e-fleet e2e-rebalance e2e-query-fleet docs lint loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails listing any unformatted file (the CI check); fmt-fix rewrites.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

# The statistical suites in internal/bench take ~35 min under the race
# detector, so the race pass runs them in -short mode; the full suites run
# race-free in `test`.
race:
	$(GO) test -race -short ./...

# Compile- and run-check every benchmark once without timing it.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-smoke vets and short-tests the end-to-end benchmark in benchmark/.
# It is a Go module of its own, so `go build ./...` and `go test ./...` at
# the root never compile it: without this target a change to an internal
# API it calls would break it silently.
bench-smoke:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test -short .

# bench-json runs the perf-trajectory rows — every Benchmark_<name>
# function, one per package family (gp inference and growth, core
# evaluation, filtering and tuning, query operators, the band multiplier,
# the parallel executor, serving and fleet) — $(BENCH_ROUNDS) times and
# writes the per-name medians of ns/op, B/op, allocs/op and tuples/s to
# $(BENCH_OUT). -p=1 runs one build or test binary at a time, so no
# compile or link competes with a benchmark for the host's cores.
bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -p=1 -run='^$$' -bench='^Benchmark_' -benchmem -count=$(BENCH_ROUNDS) ./... > "$$tmp" || { cat "$$tmp"; exit 1; }; \
	$(GO) run ./cmd/benchdiff -current "$$tmp" -out $(BENCH_OUT)

# bench-diff is the regression gate. It extracts $(BENCH_REF) into a
# temporary directory and, for $(BENCH_ROUNDS) rounds, runs each package's
# Benchmark_ rows on the reference and on the working tree back to back,
# seconds apart rather than a whole ~80 s pass apart, flipping which side
# goes first every round, so a burst of host load lands on both sides of
# the packages it spans. The per-name medians of the change land in
# $(BENCH_OUT) and are gated against the reference's: the build fails on
# >$(BENCH_MAX_REGRESS) ns/op drift or any allocs/op increase beyond the
# floor-scaled slack. The parallel_*/server_*/fleet_* families are exempt
# from the ns/op rule only (their timings depend on host cores); their
# allocs/op is still gated.
bench-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/ref"; git archive $(BENCH_REF) | tar -x -C "$$tmp/ref"; \
	pkgs=$$( { grep -rl --include='*_test.go' --exclude-dir=testdata '^func Benchmark_' . ; \
		cd "$$tmp/ref" && grep -rl --include='*_test.go' --exclude-dir=testdata '^func Benchmark_' . ; } | xargs -n1 dirname | sort -u); \
	for r in $$(seq $(BENCH_ROUNDS)); do \
		order="ref cur"; [ $$((r % 2)) = 1 ] || order="cur ref"; \
		for pkg in $$pkgs; do \
			for side in $$order; do \
				dir=.; [ $$side = cur ] || dir="$$tmp/ref"; \
				[ -d "$$dir/$$pkg" ] || continue; \
				echo "bench-diff: round $$r/$(BENCH_ROUNDS): $$pkg: $$side"; \
				(cd "$$dir" && $(GO) test -run='^$$' -bench='^Benchmark_' -benchmem "$$pkg") > "$$tmp/run.txt" || { cat "$$tmp/run.txt"; exit 1; }; \
				cat "$$tmp/run.txt" >> "$$tmp/$$side.txt"; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/benchdiff -baseline "$$tmp/ref.txt" -current "$$tmp/cur.txt" -out $(BENCH_OUT) -max-regress $(BENCH_MAX_REGRESS)

# cover enforces a statement-coverage floor on the packages that carry the
# (ε, δ) guarantee machinery. -short keeps it fast; the heavy statistical
# suites run in full in `test`.
cover:
	@fail=0; \
	for p in $(COVER_PKGS); do \
		$(GO) test -short -coverprofile=.cover.out $$p >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "coverage $$p: $$pct% (floor $(COVER_MIN)%)"; \
		awk -v p=$$pct -v m=$(COVER_MIN) 'BEGIN{exit !(p+0 >= m+0)}' || { echo "coverage $$p below $(COVER_MIN)%"; fail=1; }; \
	done; \
	rm -f .cover.out; \
	exit $$fail

# fuzz-smoke runs each native fuzz target briefly: long enough to execute the
# committed seed corpus plus tens of thousands of mutated inputs against the
# envelope/bound invariants, the support sort's stable reference, the query
# merge over hostile shard partials, any /v1/query body through the shard's
# handler and any membership gossip body through a fleet-mode shard's
# handler (a 200 answer or a known error envelope), snapshot restore over
# arbitrary bytes, the request decode of stream lines, eval bodies, query
# bodies and partials bodies against encoding/json's strict decode, and the
# result-line encoder against encoding/json, short enough for every CI run. FuzzQueryRequest spends one
# run minimizing each new input: its seeds are kilobyte query bodies, and
# the default 60 s minimization of one of them would use up the whole 10 s.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDiscrepancyBound -fuzztime=10s ./internal/ecdf
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeOf -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSortWithPerm -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadSnapshot -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzQueryMerge -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzQueryRequest -fuzztime=10s -fuzzminimizetime=1x ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDecodeStreamLine -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEvalBody -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQueryRequest -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQueryPartials -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzMembershipPost -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzAppendEvalResult -fuzztime=10s ./internal/server/wire

# e2e builds the olgaprod binary, boots it on a loopback port, and drives
# the scripted client session: register → learn-stream 50 tuples → frozen
# replay → snapshot → SIGTERM drain → restart → replay the same seeds —
# failing on any byte of divergence or any served Bound > ε.
e2e:
	$(GO) test -count=1 -v -run 'TestE2ESnapshotRestartReplay|TestE2ESparseSnapshotRestartReplay' ./e2e

# e2e-fleet is the sharded-fleet gate: olgarouter over two olgaprod shards,
# one sparse UDF owned by each, learned through the router and replicated as
# versioned snapshot deltas — then kill -9 one shard mid-frozen-stream and
# require the stream to complete byte-identically from the surviving
# replica, reads to keep serving during the outage, and the shard restarted
# from its snapshots to replay the same bytes with every Bound ≤ ε.
e2e-fleet:
	$(GO) test -count=1 -v -run TestE2EFleetFailover ./e2e

# e2e-rebalance is the dynamic-membership gate: olgarouter over three
# olgaprod shards with ten learned UDFs, then — with a frozen stream in
# flight — a fourth shard joins via POST /v1/fleet/members and an original
# shard leaves. Frozen replays must stay byte-identical throughout, the
# joiner must fetch exactly the UDFs the new ring places on it, and the
# departed shard must drain cleanly once its ownership has moved.
e2e-rebalance:
	$(GO) test -count=1 -v -run TestE2ERebalance ./e2e

# e2e-query-fleet is the distributed-query gate: a three-shard fleet where
# three UDF instances are each owned by a different shard must answer a
# group-by + top-k query spanning all three with bytes identical to a
# single-shard fleet holding every instance, a single-instance plan must
# answer the same bytes whether it names its instance with the request-level
# udf or on each row, and a kill -9 of an owning shard mid-scatter must
# leave every retried answer byte-identical.
e2e-query-fleet:
	$(GO) test -count=1 -v -run TestE2EQueryFleet ./e2e

# docs checks the markdown link graph (relative paths + heading anchors)
# of the README and the docs/ tree; docs/api.md is additionally pinned to
# the code by TestAPIDocConformance in internal/server/wire.
docs:
	$(GO) run ./cmd/linkcheck README.md PAPER.md ROADMAP.md docs

# lint runs staticcheck + govulncheck when installed and skips (with a
# notice) when not, so `make ci` works on boxes without the tools; the CI
# lint job installs both and is blocking.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# loc prints the non-test Go line count outside benchmark/: blank lines and
# whole-line comments are not counted. It is a report, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs grep -v '^\s*$$' | grep -v ':\s*//' | wc -l

ci: build vet fmt docs lint test race cover fuzz-smoke e2e e2e-fleet e2e-rebalance e2e-query-fleet bench bench-smoke bench-diff
