#!/usr/bin/env bash
# Benchmark smoke check: unit tests, every workload at 1/20 size (untraced
# and traced) validated against BENCHMARK.json, and a grep for the APIs the
# benchmark must not touch (ROADMAP item 3 deletes them). Wiring this into
# .github/workflows is a later issue.
set -euo pipefail
cd "$(dirname "$0")/.."

# APIs slated for deletion, and config struct literals that would lean on
# defaults (FlowControl is always stated explicitly via rsm_config()).
forbidden='SchedulerKind|with_scheduler|clone_fanout|legacy_clones|RepeatedConsensus|ho_fd|ho-fd|RsmSweep'
# (`-> SimConfig {` is a return type, not a literal.)
forbidden+='|[^>] (Sim|Rsm)Config *\{|\.\.(Sim|Rsm)Config|FlowControl::off|FlowControl::default'
if grep -rnE "$forbidden" benchmark/src benchmark/Cargo.toml; then
    echo "benchmark/ci.sh: forbidden API referenced (see benchmark/README.md, frozen surface)" >&2
    exit 1
fi

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke >/dev/null
echo "benchmark/ci.sh: ok"
