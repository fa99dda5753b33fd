# Developer entry points. `make verify` mirrors the tier-1 acceptance gate;
# `make ci` runs everything .github/workflows/ci.yml runs.

.PHONY: verify ci fmt lint test workspace-reuse kernel-smoke trace-smoke serve serve-smoke load-smoke health-smoke timeline-smoke bench bench-baseline bench-check backend-check perf-smoke benchmark benchmark-serve ab clean

# Tier-1 gate: exactly what the roadmap requires to stay green.
verify:
	cargo build --release
	cargo test -q

ci: fmt lint verify
	cargo test -q --workspace
	$(MAKE) workspace-reuse
	$(MAKE) kernel-smoke
	$(MAKE) trace-smoke
	$(MAKE) serve-smoke
	$(MAKE) load-smoke
	$(MAKE) health-smoke
	$(MAKE) timeline-smoke
	$(MAKE) bench-check
	$(MAKE) backend-check
	$(MAKE) perf-smoke
	$(MAKE) benchmark-serve
	cargo test --manifest-path benchmark/Cargo.toml --offline

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

test:
	cargo test -q --workspace

# Zero steady-state workspace growth for all three kernels, read back
# through the workspace.* obs gauges (DESIGN.md §9).
workspace-reuse:
	cargo test --release --test workspace_reuse

# Head-to-head kernel metrics must run end to end.
kernel-smoke:
	cargo run --release --example kernel_comparison

# The acceptance check for the trace feature: the quickstart example must
# emit a JSONL trace covering the paper stages, plus the always-on Perfetto
# (Chrome trace-event) timeline.
trace-smoke:
	cargo run --example quickstart --features trace
	test -s quickstart_trace.jsonl
	grep -q '"path":"step/deposit"' quickstart_trace.jsonl
	grep -q '"path":"step/potentials/cluster"' quickstart_trace.jsonl
	grep -q '"type":"flush"' quickstart_trace.jsonl
	grep -q '"histograms"' quickstart_trace.jsonl
	test -s quickstart_trace.perfetto.json
	grep -q '"traceEvents"' quickstart_trace.perfetto.json
	grep -q '"ph":"X"' quickstart_trace.perfetto.json

# A curl-able live-telemetry daemon on localhost:6310 (README "Live
# monitoring"): /metrics /status /events /healthz /readyz /quitz.
serve:
	cargo run --release --bin beamdyn-daemon -- --steps 60 --step-delay-ms 250

# End-to-end serving smoke (DESIGN.md §11): a real daemon process on an
# ephemeral port, scraped and streamed by the in-repo client, then shut
# down via /quitz. Asserts /metrics parses as Prometheus 0.0.4 and agrees
# with /status, and that live SSE step events arrive.
serve-smoke:
	cargo build --release --bin beamdyn-daemon
	BEAMDYN_DAEMON_BIN=target/release/beamdyn-daemon \
		cargo run --release -p beamdyn-bench --bin serve_smoke

# Multi-tenant session-engine load smoke: 144 concurrent sessions (mixed
# kernels and backends) against a real daemon, with fairness, pool-plateau,
# and scrape-consistency assertions.
load-smoke:
	cargo build --release --bin beamdyn-daemon
	BEAMDYN_DAEMON_BIN=target/release/beamdyn-daemon \
		cargo run --release -p beamdyn-bench --bin load_smoke

# Fleet health-engine smoke (DESIGN.md §15): a real daemon, a deliberately
# stalled session (`step_delay_ms` ≫ stall deadline on one step worker),
# the `watchdog.session_stalled` alert firing on /alerts within the
# deadline, /healthz degrading to 503 while /readyz stays 200, the flight
# rings serving the black-box events, an on-disk post-mortem dump, and a
# clean recovery after the session is deleted.
health-smoke:
	cargo build --release --bin beamdyn-daemon
	BEAMDYN_DAEMON_BIN=target/release/beamdyn-daemon \
		cargo run --release -p beamdyn-bench --bin health_smoke

# Timeline/rules/webhook smoke (DESIGN.md §16): a real daemon loading
# alert rules from a spec file (malformed files must exit 2 with a
# structured error), pushing firing→resolved transitions — with timeline
# excerpts — to a local webhook sink, and serving /timeline history whose
# counter-delta sums equal the /metrics scrape exactly.
timeline-smoke:
	cargo build --release --bin beamdyn-daemon
	BEAMDYN_DAEMON_BIN=target/release/beamdyn-daemon \
		cargo run --release -p beamdyn-bench --bin timeline_smoke

bench:
	cargo bench --workspace

# Regenerates the committed bench baseline (run after an *intentional*
# metrics change, then commit BENCH_baseline.json).
bench-baseline:
	cargo run --release -p beamdyn-bench --bin bench_baseline

# The regression gate: a fresh canonical run must stay within per-metric
# tolerances of the committed BENCH_baseline.json.
bench-check:
	cargo run --release -p beamdyn-bench --bin bench_baseline -- --check

# The differential backend gate (DESIGN.md §13, §17): NativeSimd must make
# the traced lane's decisions with equal counts (plus both lanes' committed
# golden bit patterns), and the smoke targets must run end to end on it too.
backend-check:
	cargo test --release --test backend_equivalence --test rp_golden
	BEAMDYN_BACKEND=native-simd cargo test --release --test workspace_reuse --test determinism
	BEAMDYN_BACKEND=native-simd cargo run --release --example kernel_comparison

# Hot-path perf gate (DESIGN.md §12, §17): prints the GridRp::eval scalar
# vs simd microbench, asserts the per-kernel integrand-eval budgets of the
# canonical scenario, the backend-lane count equality and wall-clock
# ordering (traced > simd on every kernel), and the SoA
# deposit+gather/push pipeline speedup floor.
perf-smoke:
	cargo run --release -p beamdyn-bench --bin perf_smoke

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): every
# workload, three interleaved repetitions plus one traced pass (~7 min).
benchmark:
	bash benchmark/run.sh

# One run of the serving workload, the contract's form: a real daemon
# driven over HTTP. Exits non-zero when any request, session or
# cross-check failed (`failed` > 0).
benchmark-serve:
	bash benchmark/run.sh --workload serve_fleet --seed 42 --seconds 12 --trace 0

# Paired runs of the benchmark, a revision against the working tree, with
# per-metric medians, quartiles and win counts (scripts/ab.sh):
#   make ab REV=HEAD~1 WORKLOAD=sim_traced PAIRS=10 [SEED=42]
REV ?= HEAD
WORKLOAD ?= sim_traced
PAIRS ?= 10
SEED ?= 42
ab:
	bash scripts/ab.sh $(REV) $(WORKLOAD) $(PAIRS) $(SEED)

clean:
	cargo clean
	rm -f quickstart_trace.jsonl quickstart_trace.perfetto.json
	rm -f BENCH_*.jsonl BENCH_current.json BENCH_baseline_trace.json
