# Convenience targets for ESCA-rs. Everything is plain cargo underneath.

.PHONY: all build test verify analyze bench tables examples doc clippy fmt clean

all: build test

build:
	cargo build --workspace --release

test:
	cargo test --workspace

# The CI gate: offline, lockfile-pinned build + tests + lint-clean (clippy
# and rustdoc, both with warnings denied), plus
# a smoke run of the matching-reuse engine bench (asserts bit-identity of
# the flat path and refreshes BENCH_sscn.json) and a seeded smoke chaos
# campaign on the resilient streaming path (replayable summary lands in
# chaos.json). The backend-equivalence suites re-run once per GEMM
# backend with ESCA_GEMM_BACKEND pinned, so every env-driven default
# path (the library unit tests included) is exercised under both tiers,
# and the streaming determinism and
# matching-reuse suites (streaming_determinism, geometry_plan) re-run
# under both backends — cached replay and matching residency must keep
# outputs and cycle telemetry byte-identical. The observability plane is
# gated end to end: the live-scrape/flight/span suites run under both
# backends, and a smoke stream starts `--serve` on loopback, self-scrapes
# /metrics + /healthz with the std-only client, exports the nested span
# trace and dumps the flight ring from a 4-frame chaos campaign
# (flight.json, uploaded as a CI artifact, must be non-empty). The
# ingest admission plane is gated too: the slo_front bench sweeps a
# seeded overload campaign into an availability/latency Pareto front
# (SLO_front.json, uploaded as a CI artifact), and a 2-tenant overload
# smoke (queue depth 2, 8-frame burst) replays it through the bounded
# ingest queue with the selected operating point published on /healthz.
# The benchmark package (perfbench/, its own Cargo workspace with path
# dependencies on the crates) is built and unit-tested too, so a library
# change that breaks the API it calls fails here.
# Matches .github/workflows/ci.yml.
verify:
	cargo build --workspace --release --locked --offline
	cargo test --workspace -q --locked --offline
	cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
	ESCA_GEMM_BACKEND=scalar cargo test -q --locked --offline -p esca-sscn --test gemm_backends -p esca --lib --test chaos_streaming -p esca-suite --test parallel_equivalence --test streaming_determinism --test observability --test snapshot_merge_laws
	ESCA_GEMM_BACKEND=blocked cargo test -q --locked --offline -p esca-sscn --test gemm_backends -p esca --lib --test chaos_streaming -p esca-suite --test parallel_equivalence --test streaming_determinism --test observability --test snapshot_merge_laws
	ESCA_GEMM_BACKEND=scalar cargo test -q --locked --offline -p esca-suite --test streaming_determinism --test geometry_plan
	ESCA_GEMM_BACKEND=blocked cargo test -q --locked --offline -p esca-suite --test streaming_determinism --test geometry_plan
	cargo clippy --workspace --all-targets --locked --offline -- -D warnings
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline
	cargo run -q -p esca-analyze --locked --offline -- --fail-stale
	cargo run --release -q -p esca-bench --bin sscn_engine --locked --offline -- --smoke
	cargo run --release -q -p esca-cli --bin esca --locked --offline -- stream --frames 3 --workers 2 --grid 48 --layers 2 --seed 1 --trace-out trace.json --span-trace-out spans.json --metrics-out metrics.json --prom-out metrics.prom --serve 127.0.0.1:0 --serve-scrape
	cargo run --release -q -p esca-bench --bin validate_trace --locked --offline -- trace.json metrics.json
	cargo run --release -q -p esca-bench --bin validate_trace --locked --offline -- spans.json
	cargo run --release -q -p esca-cli --bin esca --locked --offline -- stream --frames 4 --workers 2 --grid 48 --layers 2 --seed 1 --faults --fault-seed 7 --chaos-out chaos.json --serve 127.0.0.1:0 --serve-scrape --flight-out flight.json
	test -s flight.json
	cargo run --release -q -p esca-bench --bin slo_front --locked --offline -- --smoke --out SLO_front.json
	test -s SLO_front.json
	cargo run --release -q -p esca-cli --bin esca --locked --offline -- stream --frames 8 --workers 2 --grid 48 --layers 2 --seed 1 --queue-depth 2 --arrival-period 0 --tenants 35000/2/1,70000/2/0 --slo-front SLO_front.json --serve 127.0.0.1:0 --serve-scrape

# The determinism & invariant gate (see DESIGN.md "Static analysis
# architecture"): ten simulator-specific lints — per-file checks
# (wall-clock in the cycle model, hash-order leaks, panicking idioms,
# ungated trace clones, cycle-domain telemetry, discarded send/join
# results, order-dependent float reductions) plus call-graph passes
# (host->cycle taint, unbounded per-tick growth, lock discipline). New
# findings (not in analyze/allowlist.tsv or analyze/baseline.tsv) fail,
# as do stale suppression entries; reports land in ANALYZE_report.json
# and analyze.sarif (SARIF 2.1.0).
analyze:
	cargo run -q -p esca-analyze --locked --offline -- --fail-stale

bench:
	cargo bench --workspace

# Regenerate every paper table/figure + the beyond-paper experiments.
tables:
	cargo run --release -p esca-bench --bin table1
	cargo run --release -p esca-bench --bin table2
	cargo run --release -p esca-bench --bin table3
	cargo run --release -p esca-bench --bin fig10
	cargo run --release -p esca-bench --bin motivation
	cargo run --release -p esca-bench --bin endtoend
	cargo run --release -p esca-bench --bin streaming
	cargo run --release -p esca-bench --bin sscn_engine

examples:
	cargo run --release --example quickstart
	cargo run --release --example dilation_demo
	cargo run --release --example pipeline_trace
	cargo run --release --example tile_size_sweep
	cargo run --release --example performance_model
	cargo run --release --example classification
	cargo run --release --example design_space
	cargo run --release --example segmentation

doc:
	cargo doc --workspace --no-deps

clippy:
	cargo clippy --workspace --all-targets

fmt:
	cargo fmt --all

clean:
	cargo clean
