#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with `ci/check.sh`.
#
# 1. release build + full test suite (the equivalence and conservation
#    tests are the correctness contract for the streaming fast path),
#    plus the benchmark's own unit tests (perfbench/ is a separate
#    workspace, so the root `cargo test` does not reach them);
# 2. clippy with warnings denied, and `cargo fmt --check` (the workspace
#    is rustfmt-clean; perfbench/ is its own workspace and not covered);
# 3. `report -- bench-json` smoke (regenerates BENCH_streaming.json and
#    checks it parses; speedup numbers are machine-dependent and NOT
#    gated — see DESIGN.md §4);
# 4. `report -- graph` smoke: regenerates BENCH_graph.json and the chrome
#    trace, and asserts the measured graph-mode sync count equals the
#    schedule's (`sync_match`) — that one IS gated, it is a correctness
#    property of the wave scheduler, not a performance number.
# 5. `report -- layout-sweep` smoke: regenerates BENCH_layout.json and
#    asserts every layout group computed bit-identical physics
#    (`digests_match`) — also gated: the memory layout may only move
#    values around, never change them.
# 6. `report -- thread-sweep` smoke: regenerates BENCH_parallel.json and
#    asserts the state digest is bit-identical at every pool width
#    (`digests_match`) — gated: the staged Accumulate's ordered merge is
#    a determinism contract (DESIGN.md §10). Speedups are NOT gated
#    (CI runners are often single-core; see EXPERIMENTS.md).
# 7. `report -- checkpoint` smoke: regenerates BENCH_checkpoint.json and
#    asserts every interrupted-and-resumed run is bit-identical to its
#    uninterrupted twin (`resume_digest == uninterrupted_digest`), per
#    case and across the save-layout/restore-layout cross case — gated:
#    crash-safe restart is a correctness contract (DESIGN.md §11).
#    Snapshot sizes and save/load throughput are reported, not gated.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test -q --release --manifest-path perfbench/Cargo.toml
cargo clippy --workspace -- -D warnings
cargo fmt --check

if [[ "${CI_BENCH:-0}" == "1" ]]; then
    cargo run --release -q -p lbm-bench --bin report -- bench-json
    python3 -c 'import json; d = json.load(open("BENCH_streaming.json")); print("bench-json ok:", d["stream_kernel"]["speedup_dir_major_vs_general"], "x vs general")'
    cargo run --release -q -p lbm-bench --bin report -- graph
    python3 - <<'EOF'
import json
d = json.load(open("BENCH_graph.json"))
for c in d["cases"]:
    assert c["sync_match"], f"graph-mode sync count != schedule sync count: {c}"
    assert c["wave_match"], f"graph-mode wave count != schedule wave count: {c}"
t = json.load(open("BENCH_graph_trace.json"))
assert t["traceEvents"], "chrome trace has no spans"
print("graph ok:", len(d["cases"]), "cases sync-matched,", len(t["traceEvents"]), "trace spans")
EOF
    cargo run --release -q -p lbm-bench --bin report -- layout-sweep
    python3 - <<'EOF'
import json
d = json.load(open("BENCH_layout.json"))
assert d["all_digests_match"], "layout sweep: physics digests differ across layouts"
for g in d["groups"]:
    assert g["digests_match"], f"layout digests differ in group: {g['velocity_set']} B={g['block_size']}"
    assert len(g["layouts"]) == 3, f"expected 3 layouts per group, got {len(g['layouts'])}"
print("layout-sweep ok:", len(d["groups"]), "groups bit-identical across layouts")
EOF
    cargo run --release -q -p lbm-bench --bin report -- thread-sweep
    python3 - <<'EOF'
import json
d = json.load(open("BENCH_parallel.json"))
assert d["digests_match"], "thread sweep: physics digests differ across thread counts"
assert len(d["cases"]) >= 4, f"expected >= 4 thread counts, got {len(d['cases'])}"
assert any(c["staged"] for c in d["cases"]), "no case exercised the staged Accumulate"
assert any(not c["staged"] for c in d["cases"]), "no case exercised the serial atomic path"
for c in d["cases"]:
    # The per-thread counter unit is executed *blocks* (DESIGN.md §10).
    assert "per_thread_blocks" in c, f"missing per_thread_blocks: {c}"
    if c["threads"] > 1:
        assert len(c["per_thread_blocks"]) <= c["threads"], f"more counters than threads: {c}"
print("thread-sweep ok:", len(d["cases"]), "pool widths bit-identical, digest",
      d["cases"][0]["digest"])
EOF
    cargo run --release -q -p lbm-bench --bin report -- checkpoint
    python3 - <<'EOF'
import json
d = json.load(open("BENCH_checkpoint.json"))
assert d["all_match"], "checkpoint: some resumed run diverged from its uninterrupted twin"
assert d["cross_layout_match"], "checkpoint: cross-layout restore diverged"
assert len(d["cases"]) >= 8, f"expected >= 8 restart cases, got {len(d['cases'])}"
assert any(c["cross_layout"] for c in d["cases"]), "no cross-layout restore case"
for c in d["cases"]:
    assert c["resume_digest"] == c["uninterrupted_digest"], f"restart diverged: {c}"
    assert c["digests_match"], f"case flag disagrees with digests: {c}"
    assert c["snapshot_bytes"] > 0, f"empty snapshot: {c}"
print("checkpoint ok:", len(d["cases"]), "restart cases bit-identical,",
      d["cases"][0]["snapshot_bytes"], "bytes/snapshot")
EOF
fi

echo "ci/check.sh: all checks passed"
