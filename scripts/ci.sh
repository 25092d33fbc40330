#!/usr/bin/env bash
# Offline CI gate. Everything here must pass with NO network and NO
# crates-io registry: the workspace is hermetic by policy (DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> guard: no registry dependencies"
# Every [dependencies]/[dev-dependencies] entry in the workspace must be a
# path dependency. A `version = "..."` (or bare `foo = "1.2"`) line in any
# crate manifest means someone reintroduced a crates-io dep.
if grep -rn 'version\s*=' crates/*/Cargo.toml; then
    echo "ERROR: registry dependency found in a crate manifest" >&2
    exit 1
fi
# Same check for bare `foo = "1.2"` shorthand, scoped to dependency
# sections so [package] metadata (edition, rust-version) doesn't trip it.
if awk '
    /^\[/ { dep = ($0 ~ /dependencies\]$/) }
    dep && /^[ \t]*[A-Za-z0-9_-]+[ \t]*=[ \t]*"/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' Cargo.toml crates/*/Cargo.toml; then :; else
    echo "ERROR: bare-version registry dependency found" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (offline, all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build (release, offline, all targets)"
cargo build --release --offline --workspace --benches

echo "==> cargo test (offline)"
cargo test -q --offline --release --workspace

echo "==> reference CLI runs vs tests/golden/cli"
# Seven `albatross run` scenarios whose stdout is pinned byte for byte: the
# Tab. 3 shape, VPC-Internet, RSS, header-only delivery with ACL drops,
# cross-NUMA placement, the rate limiter, and NUMA balancing without the
# drop flag. A change that moves one must say why and re-record its file
# with `albatross run ARGS > tests/golden/cli/NAME.txt`.
cli_golden() {
    local name=$1
    shift
    if ! cargo run -q --release --offline --bin albatross -- run "$@" |
        diff -u "tests/golden/cli/$name.txt" -; then
        echo "ERROR: albatross run $* differs from tests/golden/cli/$name.txt" >&2
        exit 1
    fi
}
cli_golden tab3_44core --cores 44 --pps 40000000 --millis 20 --flows 500000
cli_golden vpc_internet_16core --cores 16 --service vpc-internet --pps 12000000 --millis 20 --flows 200000
cli_golden rss_16core --cores 16 --mode rss --pps 20000000 --millis 20
cli_golden header_only_acl --cores 8 --header-only --acl-drop-mod 7 --pps 8000000 --millis 20
cli_golden cross_numa --cores 8 --cross-numa --pps 8000000 --millis 20
cli_golden ratelimit --cores 8 --ratelimit 3000000 --pps 9000000 --millis 20
cli_golden numa_balancing_no_flag --cores 8 --numa-balancing --no-drop-flag --acl-drop-mod 5 --pps 9000000 --millis 20
echo "    7 CLI scenarios byte-identical to tests/golden/cli"

echo "==> albatross-mem tests in a debug build (overflow checks on)"
# Release builds wrap integer overflow silently; the L3 model's tag
# arithmetic and the nibble shifts of its order words must also pass with
# overflow checks enabled.
cargo test -q --offline -p albatross-mem

echo "==> L3 model vs its oracle under a second property seed"
# cache_properties compares the tag-line and order-word cache with the
# split-array stamp model kept as its oracle; a fixed non-default seed
# widens the streams CI covers.
TESTKIT_SEED=0x13A7 cargo test -q --offline -p albatross-mem --test cache_properties

echo "==> Fig. 5 L3 hit-rate band (fig05_l3_hit_rate)"
# Paper Fig. 5: the shared L3 hits 30-45% of lookups in PLB and RSS alike.
# The bench marks each mode's row "in the paper's band" or "OUT OF BAND";
# both rows must be in the band.
fig05=$(cargo bench --offline -p albatross-bench --bench fig05_l3_hit_rate)
printf '%s\n' "$fig05"
in_band=$(printf '%s\n' "$fig05" | grep -c "in the paper's band" || true)
if printf '%s\n' "$fig05" | grep -q "OUT OF BAND" || [ "$in_band" -lt 2 ]; then
    echo "ERROR: Fig. 5 L3 hit rate is outside the paper's 30-45% band" >&2
    exit 1
fi

echo "==> perfbench self-test (offline)"
# perfbench is its own Cargo workspace with path dependencies on crates/*,
# so nothing above compiles it: an API change that breaks one of its layer
# adapters must fail here.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (offline, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> heavy-hitter lifecycle churn smoke (examples/tenant_churn)"
# 1,000 rotating heavy hitters through 8 pre_meter slots over 100 simulated
# seconds, both determinism runs fanned out through the fleet runner; the
# example asserts promotion is never refused, innocents recover to >= 99%
# every phase, slots drain to zero, and the two same-seed runs produce
# identical reports.
cargo run --release --offline --example tenant_churn -- --threads 2

echo "==> fleet determinism gate (threads=1 vs threads=4)"
# The fleet's contract: thread count must never change a single output
# byte. Run the two-arm isolation demo serially and 4-wide and diff the
# canonical RESULT line (delivered totals per tenant, floats as raw bits).
serial=$(cargo run --release --offline --example multi_tenant_isolation -- --threads 1 | grep '^RESULT')
wide=$(cargo run --release --offline --example multi_tenant_isolation -- --threads 4 | grep '^RESULT')
if [ "$serial" != "$wide" ]; then
    echo "ERROR: fleet output depends on thread count" >&2
    echo "  threads=1: $serial" >&2
    echo "  threads=4: $wide" >&2
    exit 1
fi
echo "    fleet output byte-identical at threads=1 and threads=4"

echo "==> fault injection gate (examples/fault_injection)"
# The example is a gate, not a demo: its canonical RESULT lines (floats
# as raw bits) are pinned byte-for-byte by tests/fault_injection_gate.rs;
# here the binary itself must still run green and emit all three arms.
lines=$(cargo run --release --offline --example fault_injection | grep -c '^RESULT fault_injection')
if [ "$lines" != "3" ]; then
    echo "ERROR: fault_injection must emit exactly 3 RESULT lines, got $lines" >&2
    exit 1
fi

echo "==> AZ resilience drill gate (examples/az_resilience, 1x1 vs 4x4)"
# The coupled AZ simulation (shared switch control plane, per-server BGP
# proxies, per-pod BFD, five failure drills) must produce byte-identical
# canonical output at any shards x threads geometry (DESIGN.md §4g): the
# serial arm is the plain lockstep loop, the wide arm runs 4 shards over
# 4 worker threads. The example also asserts the headline drill contracts
# (crash convergence, loss-free migration, zero-route storm, per-window
# conservation) before printing.
az_serial=$(cargo run --release --offline --example az_resilience -- --threads 1 --shards 1 | grep '^RESULT')
az_wide=$(cargo run --release --offline --example az_resilience -- --threads 4 --shards 4 | grep '^RESULT')
if [ "$az_serial" != "$az_wide" ]; then
    echo "ERROR: AZ drill output depends on the shards x threads geometry" >&2
    diff <(printf '%s\n' "$az_serial") <(printf '%s\n' "$az_wide") >&2 || true
    exit 1
fi
echo "    AZ drill output byte-identical at 1x1 and 4x4 (shards x threads)"

echo "==> co-resident pod fleet smoke (examples/containerized_az)"
# Control-plane walk plus the two-NUMA pod fleet merged into one server
# report (exercises ScenarioFleet + SimReport::merge_ordered end to end).
cargo run --release --offline --example containerized_az -- --threads 2

echo "==> fleet + timing-wheel scaling smoke bench"
# Wheel-vs-heap events/sec and the 8-scenario fleet wall-clock ratio; the
# printed gates are judged from the report (single-core CI machines cannot
# show fleet speedup, and the bench says so explicitly).
cargo bench --offline -p albatross-bench --bench fleet_scaling -- fleet_scaling

echo "==> sharded-engine scaling smoke bench"
# One coupled 8-pod scenario over lockstep shards. The run opens with an
# untimed exactness gate (8x1 and 8xN must match 1x1 byte for byte) that
# hard-fails on divergence; the >= 2.5x speedup is judged from the printed
# report (single-core CI machines cannot show it, and the bench says so).
cargo bench --offline -p albatross-bench --bench shard_scaling -- shard_scaling

echo "==> co-offload tier sweep smoke bench + determinism gate"
# Zipf sweep of the dynamic FPGA/DPU/CPU hierarchy. The bench itself gates
# the pinned 89.2% anchor, the budget-knob frontier and the DPU spill arm;
# here the canonical RESULT lines (floats as raw bits) from two full runs
# must additionally be byte-identical — tier placement is deterministic by
# contract.
tiers_a=$(cargo bench --offline -p albatross-bench --bench offload_tiers -- offload_tiers | grep '^RESULT')
tiers_b=$(cargo bench --offline -p albatross-bench --bench offload_tiers -- offload_tiers | grep '^RESULT')
if [ "$tiers_a" != "$tiers_b" ]; then
    echo "ERROR: offload_tiers RESULT lines differ between two runs" >&2
    diff <(printf '%s\n' "$tiers_a") <(printf '%s\n' "$tiers_b") >&2 || true
    exit 1
fi
echo "    offload_tiers RESULT lines byte-identical across two runs"

echo "==> CPS frontier smoke bench + determinism gate"
# Short-flow/CPS frontier over the bucketed flow table. The bench itself
# hard-gates the untimed exactness arm (FlowStateEngine verdict-for-verdict
# against a HashMap model, plus installs == expired conservation after the
# final drain), the >= 2x batched-insert speedup over the default-hasher
# HashMap baseline, the install-budget CPS ceilings, and the churn-flood
# limiter (zero resident misses under a 1M CPS flood). Here the canonical
# RESULT lines from two full runs must additionally be byte-identical —
# flow-table layout and expiry order are deterministic by contract.
cps_a=$(cargo bench --offline -p albatross-bench --bench cps_frontier -- cps_frontier | grep '^RESULT')
cps_b=$(cargo bench --offline -p albatross-bench --bench cps_frontier -- cps_frontier | grep '^RESULT')
if [ "$cps_a" != "$cps_b" ]; then
    echo "ERROR: cps_frontier RESULT lines differ between two runs" >&2
    diff <(printf '%s\n' "$cps_a") <(printf '%s\n' "$cps_b") >&2 || true
    exit 1
fi
echo "    cps_frontier RESULT lines byte-identical across two runs"

echo "==> CI green"
