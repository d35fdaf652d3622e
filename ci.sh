#!/usr/bin/env bash
# Repo gate: formatting, lints (warnings are errors), docs, full test
# suite, and a smoke run of the headline experiment tables.
# Run before pushing; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Layering: the event engine takes only costs (durations and energies),
# so it must not link the kernel deployment layer (iw-kernels), the
# cluster model (iw-mrwolf) or the network library (iw-fann).
sim_deps=$(cargo tree -p iw-sim -e normal --offline)
for layer in iw-kernels iw-mrwolf iw-fann; do
  if grep -q "$layer v" <<<"$sim_deps"; then
    echo "ci.sh: iw-sim depends on $layer" >&2
    exit 1
  fi
done
# The root package's normal dependencies must each be named (as a crate,
# `-` read as `_`) somewhere under src/, tests/ or examples/: an edge
# nothing names only lengthens the build.
root_deps=$(cargo tree -p infiniwolf-suite -e normal --depth 1 --prefix none --offline |
  tail -n +2 | cut -d' ' -f1)
for dep in $root_deps; do
  if ! grep -rqw "${dep//-/_}" src tests examples; then
    echo "ci.sh: infiniwolf-suite depends on $dep, which src/, tests/ and examples/ never name" >&2
    exit 1
  fi
done
# Docs must build warning-free for our crates (the vendored offline
# stubs under vendor/ are excluded — not ours to lint).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p iw-trace -p iw-power -p iw-rv32 -p iw-armv7m -p iw-mrwolf -p iw-nrf52 \
  -p iw-fann -p iw-kernels -p iw-harvest -p iw-sensors -p iw-sim -p iw-fault \
  -p iw-metrics -p iw-scenario -p iw-policy -p infiniwolf -p iw-biosig -p iw-bench
cargo test --workspace -q
# The long proptests, in release: the cluster's differential one (2 048
# cases of kernel-shaped layers whose cores leave and rejoin the
# lockstep) and the device's (1 024 random devices whose report must not
# change with trace samples or a recording sink).
cargo test --release -q -p iw-mrwolf -p iw-sim -- --ignored

# The benchmark package's tiny-size checks: digest repeatability, energy
# conservation and coordinator == in-process digest on every workload.
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Pin the tiny workload digests: a change to the engine's event order,
# to any ISS run's cycles, instructions or outputs (the iss-classify
# digest folds every run's), or to anything else the digests cover fails
# here and names the workload.
for pin in policy-sweep:35341c5f3af3eb32 fleet-stream:1c607c7f01e0f553 \
  iss-classify:b4f463d275956fad; do
  workload=${pin%%:*}
  cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --tiny --seed 1 --seconds 1 --trace 0 \
    --expect-digest "${pin#*:}" >/dev/null ||
    { echo "ci.sh: $workload tiny digest changed" >&2; exit 1; }
done
# The full-size policy-sweep pass: 135 devices across all 15 D5
# candidates, where the tiny pin runs one device per candidate.
cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload policy-sweep --seed 3 --seconds 1 --trace 0 \
  --expect-digest 916ba1eeb582b238 >/dev/null ||
  { echo "ci.sh: policy-sweep full-size digest changed" >&2; exit 1; }
# The full-size fleet-stream pass: 64 devices of the epidemic scenario
# under harsh faults on two worker processes, where the tiny pin runs 8;
# with faults, contacts and sync on, a change to the order or effect of
# the detection pipeline's events under fault windows shows here.
cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload fleet-stream --seed 3 --seconds 1 --trace 0 \
  --expect-digest e9b8f1f3f259358d >/dev/null ||
  { echo "ci.sh: fleet-stream full-size digest changed" >&2; exit 1; }
# The full-size iss-classify pass: three inputs per network on all eight
# paper rows, where the tiny pin runs one; it folds every run's cycles,
# instructions and outputs, so a single-core loop op that serves a row
# whole must land on the same digest as one that steps it.
cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload iss-classify --seed 3 --seconds 1 --trace 0 \
  --expect-digest b611b70cc7c8f1ab >/dev/null ||
  { echo "ci.sh: iss-classify full-size digest changed" >&2; exit 1; }

# Smoke: the registry-driven tables must regenerate the headline rows
# (Tables III/IV plus the A2/A7 ablations, the D1 cluster cycle
# accounting and the D2 fleet sweep) without faulting, plus the D3
# reliability sweep with fault injection and the D4 epidemic scenario
# sweep. Byte-level drift is caught by bench/tests/golden_tables.rs,
# golden_d3.rs and golden_d4.rs.
cargo run --release -q -p iw-bench --bin tables -- t3 t4 a2 a7 d1 d2 d3 d4 >/dev/null

# Smoke: the tracing layer must produce a valid Perfetto timeline with
# one track per cluster core and a non-empty hotspot report for the
# 8-core RI5CY target on Network A and on Network B (--check exits
# non-zero otherwise), and the same for every single-core product loop,
# which records one instruction per dispatch: the M4's fused program, the
# Ibex's RV32 op program and the single RI5CY's (a one-core cluster
# burst). Network B's 8-core row is the one the cluster's joint mode
# serves without a sink, and Network B's single-core rows (M4, Ibex,
# single RI5CY) the ones whose loop ops serve a whole row per dispatch; a
# recording sink bypasses both and must still record every instruction.
cargo run --release -q -p iw-bench --bin trace -- neta cl8 --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- netb cl8 --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- neta m4 --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- netb m4 --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- neta ibex --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- neta riscy --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- netb ibex --check >/dev/null
cargo run --release -q -p iw-bench --bin trace -- netb riscy --check >/dev/null

# Smoke: the ISS profile (per-target ns/instr, dispatch and loop-op
# counters on both networks' paper rows) that ROADMAP.md and
# EXPERIMENTS.md quote must run to the end without faulting.
cargo run --release -q -p iw-bench --bin iss_profile >/dev/null

# Smoke: every registered target's product interpreter (the
# fusion-compiled program on the M4; the per-PC RV32 op program on the
# Ibex FC, a single RI5CY and, in horizon bursts, the multi-core cluster)
# must be bit-identical to the uncached reference on both evaluation
# networks, without Criterion's timing cost.
cargo bench -q -p iw-bench --bench iss_bench -- --check >/dev/null

# Smoke: the discrete-event fleet runner must produce bit-identical
# aggregates on 1 and 8 worker threads (--check exits non-zero on any
# digest mismatch) — the determinism gate for the co-simulation engine.
cargo run --release -q -p iw-bench --bin fleet -- --devices 64 --threads 8 --check >/dev/null

# Smoke: the same determinism gate with the harsh fault profile fully
# enabled — fault plans, BLE loss/retry streams, gauge noise and the
# brownout state machine must not break thread-count invariance.
cargo run --release -q -p iw-bench --bin fleet -- --devices 64 --faults harsh --check >/dev/null

# Smoke: the streaming coordinator/worker service (iw_sim::coord) — two
# worker processes stream 4096 devices as binary record frames with
# heartbeats interleaved, the coordinator checks each shard's device
# order, re-folds every record, merges the shard aggregates
# hierarchically, exports the fleet metrics snapshot, and the digest
# must be bit-identical to the in-process single-thread reference
# (--check exits non-zero otherwise). The exposition itself is pinned
# byte-for-byte by bench/tests/golden_metrics.rs; here we just require
# that the export is present and carries histogram buckets. The export
# goes to a fresh temporary file, removed on exit however the script ends.
metrics=$(mktemp --suffix=.prom)
trap 'rm -f "$metrics"' EXIT
cargo run --release -q -p iw-bench --bin fleet -- \
  --devices 4096 --workers 2 --metrics "$metrics" --check >/dev/null
grep -q "fleet_device_uptime_ppm_bucket" "$metrics"

# Smoke: the Pareto policy search on a tiny grid — 5 candidates × 64
# devices on the harsh stress cell. --check re-runs the sweep under a
# different thread count and exits non-zero unless every per-candidate
# digest and the search digest match AND at least one adaptive policy
# dominates the aware-24 baseline. The full table is pinned
# byte-for-byte by bench/tests/golden_d5.rs.
cargo run --release -q -p iw-bench --bin policy-search -- \
  --devices 64 --candidates 5 --no-out --check >/dev/null

# Smoke: the networked-scenario engine — two worker processes play the
# compiled epidemic scenario (mobility contacts via BLE scans, weather
# fronts, gateway outages), stream scenario-bearing v4 records, and the
# coordinator's epidemic fold over the merged edge set must land on a
# digest bit-identical to the in-process single-thread reference
# (--check exits non-zero otherwise).
cargo run --release -q -p iw-bench --bin fleet -- \
  --scenario epidemic --devices 256 --workers 2 --check >/dev/null
