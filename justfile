# Development gates for the matc workspace. `just check` is the full
# pre-merge bar: formatting, clippy-clean (warnings are errors),
# warning-free rustdoc, every test, and a clean audit of the benchmark
# suite.

default: check

check: fmt clippy doc test paper-scale bench-test audit-bench batch-bench fault-bench sim-bench perf-bench shadow-bench cache-bench

fmt:
    cargo fmt --all -- --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Every crate's docs build without warnings: no broken intra-doc
# links, no public docs linking to private items.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

test:
    cargo test --workspace -q

# The planned VM against the interpreter on the benchsuite at the
# Paper preset sizes (`tests/paper_scale.rs`; ignored by `just test`
# because it needs a release build, ~10 s).
paper-scale:
    cargo test --release --test paper_scale -- --ignored

# The benchmark package's own tests (replay equivalence with
# `compile_unit`, the statistics, the metric registry against
# BENCHMARK.json). `perfbench/` is a stand-alone package outside the
# workspace, so `cargo test --workspace` does not reach them.
bench-test:
    cargo test --release --manifest-path perfbench/Cargo.toml

# Run the independent storage-plan auditor + lints over all 11
# benchsuite programs and print each one's findings (DESIGN.md §10);
# fails on any error-severity finding or lowering failure.
audit-bench:
    cargo run -q --bin matc -- audit-bench

# Batch-compile the benchsuite under the determinism harness: proves
# sequential / parallel / per-unit / warm-cache runs byte-identical and
# reports the parallel + cache speedups. Fails on any mismatch.
batch-bench:
    cargo run -q --release --bin matc -- batch --bench --selfcheck --jobs 8

# The tracked performance gate (DESIGN.md §8): four short passes of
# the benchmark (perfbench/BENCHMARK.md, seed 1) — compile-batch
# untraced for 5 s and traced for 40 s, serve-warm for 5 s, run-paper
# traced for 5 s (it builds the programs' C, so it needs `cc`) — then
# `matc perf-bench` compares ten of their host-scaled results with
# the committed PERF_BASELINE.json, each in the direction
# BENCHMARK.json declares, and fails on a >25% regression or on a
# pass that reports a failed operation. The traced compile-batch pass
# is the long one because its first seconds can run in a slower
# allocator state (DESIGN.md §8). Widen the tolerance on a slow machine with
# `MATC_PERF_TOLERANCE=1.0 just perf-bench` instead of editing the
# baseline; re-bless after an intentional change with
# `just perf-bench --bless`.
perf-bench *ARGS:
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
        --workload compile-batch --seed 1 --seconds 5 --trace 0 > /dev/null
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
        --workload compile-batch --seed 1 --seconds 40 --trace 1 > /dev/null
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
        --workload serve-warm --seed 1 --seconds 5 --trace 0 > /dev/null
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
        --workload run-paper --seed 1 --seconds 5 --trace 1 > /dev/null
    cargo run -q --release --bin matc -- perf-bench {{ARGS}}

# The plan-validating shadow runtime (DESIGN.md §11): run all 11
# benchsuite programs through both executors with probes on and replay
# the observed storage behaviour against the static plans. Fails on any
# soundness diff (S100–S102, S104, S105) or plan violation; S103
# precision warnings are reported but don't gate.
shadow-bench:
    cargo run -q --release --bin matc -- shadow --bench

# The incremental-compilation gate (DESIGN.md §12): cold-compile the
# multi-function paper_scale unit into a fresh artifact store, edit one
# function, and prove the warm recompile re-plans only that function —
# every other function's fragment is served from the store (partial-hit
# counter == functions − 1) and the stitched artifact is byte-identical
# to an uncached compile of the edited unit.
cache-bench:
    cargo run -q --release --bin matc -- cache-bench

# The deterministic-simulation gate (DESIGN.md §14): the real serve
# reactor on a virtual clock against an in-memory seeded network. A
# 1000-seed schedule exploration plus the pinned regression seeds, each
# seed run twice with byte-identical traces required and all five
# invariants (no wedge, in-order pipelining, write-buffer cap, clean
# drain, no cache poisoning) checked every virtual tick. A failure
# prints the seed, the greedily shrunk failing configuration and the
# replayable trace (`matc simulate --replay SEED`).
sim-bench:
    cargo run -q --release --bin matc -- simulate --seeds 1000 \
        --seed-file tests/sim_seeds.txt

# The fault-tolerance gate (DESIGN.md §7): the 50-seed fault-injection
# matrix (the forced-fallback differential property runs with the rest
# of the proptests under `just test`), then two CLI smokes — the
# benchsuite under 100% injected audit violations must
# fully compile on the conservative plan (exit 3, not a failure), and
# a persistently unwritable cache (simulated via write faults, the
# portable stand-in for a read-only cache dir) must degrade to
# memory-only caching without failing the batch (exit 0).
fault-bench:
    cargo test -q --test fault_injection
    cargo run -q --release --bin matc -- batch --bench --jobs 4 \
        --faults seed=0,read=0,write=0,panic=0,audit=100 > /dev/null; \
        test $? -eq 3
    d=$(mktemp -d); \
        cargo run -q --release --bin matc -- batch --bench --jobs 4 \
        --cache-dir "$d" \
        --faults seed=0,read=0,write=100,panic=0,audit=0,transient=max \
        > /dev/null && rm -rf "$d"
