#!/usr/bin/env bash
# The benchmark's own smoke test: build, unit tests, a `run --quick` whose
# report `acqbench` validates against /BENCHMARK.json, then the repository's
# linter, which must still see what it saw before this directory existed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --manifest-path benchmark/Cargo.toml
cargo test --release --manifest-path benchmark/Cargo.toml
cargo run --release --manifest-path benchmark/Cargo.toml -- run --quick

lint=$(cargo run --quiet -p acq-lint -- --workspace 2>&1 || true)
echo "$lint" | tail -n 3
grep -q "0 violation(s), 67 allowed" <<<"$lint"
