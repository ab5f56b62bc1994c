#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite.
# Everything runs offline (no crates.io access needed).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

# Every crate's unit and integration suites: the root package's (chaos
# at fixed seed 0xC0FFEE, prefetch, laziness, fuzz regressions, ...),
# the wire protocol and serve suites, and the per-crate unit tests.
echo "==> cargo test --workspace"
cargo test -q --workspace

# Deterministic single-threaded re-run: the shared-state suites must
# pass when the test harness provides no accidental parallelism.
# (No loom/miri in-tree: concurrency is covered by deterministic
# schedule replay under chaos faults plus gauge-based leak tests.)
echo "==> shared-state suite again, RUST_TEST_THREADS=1"
RUST_TEST_THREADS=1 cargo test -q -p mix-serve --test serve -- shared_ pooled_ sessions_multiplex

echo "==> no 'validated:' panics in non-test code or release builds"
if grep -rnE '(panic!|expect|unreachable!)\("validated' crates/*/src src; then
  echo "error: 'validated:' plan invariants must return MixError::Plan, not panic" >&2
  exit 1
fi
if grep -aq 'validated: ' target/release/experiments; then
  echo "error: release binary embeds a 'validated:' panic message" >&2
  exit 1
fi

echo "==> DESIGN/README/EXPERIMENTS name only code that exists"
bash scripts/check_doc_idents.sh

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> examples/explain.rs smoke run"
cargo run --quiet --release --example explain >/dev/null

echo "==> E7 smoke run (presorted vs hash groupBy, Table 1's trade-off)"
cargo run --quiet --release -p mix-bench --bin experiments -- e7 >/dev/null

echo "==> E8 smoke run (per-rule ablation through rewrite_with_disabled)"
cargo run --quiet --release -p mix-bench --bin experiments -- e8 >/dev/null

echo "==> examples/sales_report.rs smoke run (the rewrite derivation over a view)"
cargo run --quiet --release --example sales_report >/dev/null

echo "==> block_sweep bench smoke run"
cargo bench -p mix-bench --bench block_sweep -- --smoke >/dev/null

echo "==> prefetch_overlap bench smoke run"
cargo bench -p mix-bench --bench prefetch_overlap -- --smoke >/dev/null

echo "==> federation_sweep bench smoke run (shard routing, scatter-gather, merge overhead)"
cargo bench -p mix-bench --bench federation_sweep -- --smoke >/dev/null

echo "==> workload fuzz smoke (fixed-seed 200-case knob-matrix equivalence sweep)"
# Deterministic: default config is seed 0x4d49585f9, 200 cases. A
# failure prints the minimized repro script before exiting non-zero.
cargo run --quiet --release -p mix-workload --bin workload_fuzz

echo "==> workload soak smoke (~10s served-mode chaos soak, invariants only)"
cargo run --quiet --release -p mix-workload --bin workload_soak -- --smoke >/dev/null

echo "==> mixbench: its own tests, then every workload in both modes (--smoke)"
cargo test -q --offline --manifest-path mixbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path mixbench/Cargo.toml -- --smoke >/dev/null

echo "All checks passed."
