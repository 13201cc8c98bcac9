#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> network-chaos equivalence suite"
cargo test -p pado-core --test network_chaos -q

echo "==> memory-pressure equivalence suite"
cargo test -p pado-core --test memory_pressure -q

echo "==> reconfig chaos matrix (110 seeds, epoch fencing + byte-identical)"
cargo test -p pado-core --test reconfig_chaos -q

echo "==> WAL codec property suite (round-trip + corruption recovery)"
cargo test -p pado-core --test wal_properties -q

echo "==> crash-recovery matrix (110 seeds, WAL replay + byte-identical)"
cargo test -p pado-core --test crash_recovery -q

echo "==> data-plane small-budget smoke (spill-to-disk, byte-identical)"
cargo run -p pado-bench --release --bin dataplane -- --smoke --mem-budget auto >/dev/null

echo "==> backend differential matrix (sim vs threaded, byte-identical)"
cargo test -p pado-core --test backend_equivalence -q

echo "==> fault-injector regression (legacy draw formulas + cross-backend proptests)"
cargo test -p pado-core --test fault_injector -q

echo "==> threaded chaos matrices (five fault families vs same-seed sim) + watchdog wedge"
cargo test -p pado-core --test threaded_chaos -q

echo "==> threaded soak (10 rounds of chaos against fault-free sim baseline)"
cargo test -p pado-core --test backend_equivalence -q -- --ignored

echo "==> data-plane smoke on the threaded backend (byte-identity vs sim)"
cargo run -p pado-bench --release --bin dataplane -- --smoke --backend threaded >/dev/null

echo "==> standing job benchmark self-test (build + per-job correctness checks)"
cargo test --release --manifest-path jobbench/Cargo.toml -q

echo "All checks passed."
