#!/usr/bin/env bash
# CI for the LightZone reproduction.
#
# Runs the format gate, the clippy gate (every warning is an error), the
# rustdoc gate (every broken or private intra-doc link is an error), the
# tier-1 verify (ROADMAP.md), and the full
# workspace suite on the default engine, on the reference interpreter
# (LZ_ACCEL=0), and with the metrics journal disabled (LZ_METRICS=0; the
# journal is on by default, so the default leg covers it enabled) — the
# accelerated engine and the journal must be zero-cost in the modelled
# domain. Every workspace leg runs the differential and parallel suites
# (tests/differential.rs, tests/parallel.rs) with the rest, so neither
# is re-run on its own in release. Then: a `repro all` smoke pass, a
# `repro stats` JSON validation, the SMP scaling leg (schema check +
# byte-for-byte determinism re-run, emitted as BENCH_smp_scaling.json),
# the host-speed gate (one seed-1 benchmark/ run of alu_jit, nvm_scan and
# fleet_serve: golden modelled outputs plus a scaled-MIPS floor per
# workload, so engine regressions fail loudly — fleet_serve's floor
# guards the gate-switch fetch and data paths, where global code and
# data stay armed for every ASID) and the benchmark crate's own tests,
# the chaos soak (BENCH_chaos_soak.json: >=10k
# injected faults, zero invariant or containment violations,
# byte-reproducible, and byte-identical under LZ_ACCEL=0), the
# attack-synthesis corpus gate (BENCH_attack_corpus.json: >=5 families,
# zero escapes with defenses on, >=2 distinct shrunk exploits per
# ablated security defense, byte-reproducible), the fleet-scale serving
# gate (BENCH_fleet.json: >=2,000 live domains, >=1 full VMID-space
# rollover, p50/p99/p999 switch and request latencies on 1, 4 and 8
# cores, byte-reproducible, and byte-identical under LZ_PARALLEL=0
# replay), the crash-recovery gate (BENCH_recovery.json: >=10k injected
# faults with >=100 VE crashes, >=10 warm restarts, >=1 quarantine,
# zero invariant violations, byte-reproducible and replay-identical,
# plus a debug-build panic-containment smoke), the parallel-executor
# equivalence legs (full workspace under
# LZ_PARALLEL=0, a debug-build run of tests/parallel.rs — including
# its tiny-quantum helper stress test — as the data-race smoke, and a
# modelled-field byte-compare of the SMP scaling report between
# parallel epochs and sequential replay), a run of every example
# (each must exit 0), and an unwrap/expect ratchet over the
# isolation-stack sources so guest-reachable panics cannot creep back
# in (DESIGN.md §11).
set -euo pipefail
cd "$(dirname "$0")/.."

# Reruns and comparison copies go in one private directory, removed on
# exit, so that two checkouts can run this script side by side.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings denied) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== build (workspace, all targets) =="
cargo build --release --workspace --all-targets

echo "== tier-1 verify: cargo test -q (root package) =="
cargo test -q --release

echo "== workspace tests, default (accelerated engine, journal ON) =="
cargo test -q --release --workspace

echo "== workspace tests, reference interpreter (LZ_ACCEL=0) =="
LZ_ACCEL=0 cargo test -q --release --workspace

echo "== workspace tests, metrics journal OFF (LZ_METRICS=0) =="
LZ_METRICS=0 cargo test -q --release --workspace

echo "== workspace tests, deterministic replay (LZ_PARALLEL=0) =="
LZ_PARALLEL=0 cargo test -q --release --workspace

echo "== parallel equivalence suite (debug-assertion smoke) =="
# The workspace legs above already run the release proptest sweep that
# byte-compares parallel epochs against sequential replay. The same
# suite with debug assertions on — including the >=10k-epoch
# tiny-quantum stress, where the caller and a waking helper race for a
# shell on nearly every epoch — is the in-tree stand-in for a TSan leg:
# the shells share nothing mutable, so a data race surfaces as
# divergence from replay or a debug assert, not a silent corruption.
cargo test -q --test parallel

echo "== examples (each must exit 0) =="
for example in quickstart jit_wx key_vault nvm_store plugin_sandbox; do
    echo "  $example"
    ./target/release/examples/"$example" > /dev/null
done

echo "== repro all (smoke mode, non---full) =="
./target/release/repro all > /dev/null

echo "== repro stats --stats-json: validate the metrics registry =="
./target/release/repro stats --stats-json | python3 -c '
import json, sys
report = json.load(sys.stdin)
required = ["tlb", "icache", "walk", "gate", "traps", "lz", "wx", "stage2", "kernel", "smp", "fleet"]
missing = [s for s in required if s not in report]
assert not missing, f"missing sections: {missing}"
assert report["gate"]["switches"] > 0, "no gate switches recorded"
assert report["wx"]["sanitized_pages"] > 0, "no sanitizer scans recorded"
assert report["stage2"]["faults"] > 0, "no stage-2 faults recorded"
assert all(isinstance(v, int) for s in report.values() for v in s.values())
print(f"stats JSON ok: {len(report)} sections")
'

echo "== repro smp -> BENCH_smp_scaling.json (schema + determinism + replay) =="
./target/release/repro smp --json > BENCH_smp_scaling.json
./target/release/repro smp --json > "$scratch/smp_rerun.json"
LZ_PARALLEL=0 ./target/release/repro smp --json > "$scratch/smp_replay.json"
# The top-level "host" object carries wall-clock nanoseconds, which no
# two runs reproduce; every modelled field must still match byte for
# byte — between reruns AND between the host-threaded backend and
# LZ_PARALLEL=0 sequential replay.
strip_host() {
    python3 -c 'import json,sys; r=json.load(open(sys.argv[1])); r.pop("host",None); print(json.dumps(r,sort_keys=True))' "$1"
}
strip_host BENCH_smp_scaling.json > "$scratch/smp_a.json"
strip_host "$scratch/smp_rerun.json" > "$scratch/smp_b.json"
strip_host "$scratch/smp_replay.json" > "$scratch/smp_c.json"
cmp "$scratch/smp_a.json" "$scratch/smp_b.json" || {
    echo "SMP run is not byte-reproducible (modelled fields)" >&2
    exit 1
}
cmp "$scratch/smp_a.json" "$scratch/smp_c.json" || {
    echo "SMP parallel run diverges from LZ_PARALLEL=0 replay" >&2
    exit 1
}
python3 -c '
import json
report = json.load(open("BENCH_smp_scaling.json"))
assert report["benchmark"] == "smp_scaling"
assert isinstance(report["seed"], int)
cores = [r["cores"] for r in report["runs"]]
assert cores == [1, 2, 4, 8], f"unexpected core sweep: {cores}"
for r in report["runs"]:
    assert len(r["per_core"]) == r["cores"]
    assert r["makespan_cycles"] == max(c["cycles"] for c in r["per_core"])
    for key in ("steps", "shootdowns_sent", "ipis_sent", "ctx_switches",
                "epochs", "epoch_waits", "barrier_stalls",
                "phys_merge_conflicts"):
        assert isinstance(r[key], int), key
single = report["runs"][0]
quad = report["runs"][2]
assert single["shootdowns_sent"] == 0, "no remote cores, no shootdowns"
assert quad["shootdowns_sent"] > 0, "munmap on 4 cores must shoot down"
assert quad["makespan_cycles"] < single["makespan_cycles"], "no scaling"
assert quad["epochs"] > 0 and quad["epochs"] <= single["epochs"], "epoch count implausible"
# Host wall-clock scaling gate: only enforceable where the host actually
# has cores to scale onto. On >=4-way hosts the threaded backend must
# beat sequential replay by >=2.5x at 4 simulated cores; on smaller
# hosts (CI containers are often 1-2 way) the fields are still emitted
# and checked for shape, but the floor is informational.
host = report["host"]
for key in ("host_parallelism", "cores", "quantum", "steps",
            "parallel_ns", "replay_ns", "speedup_milli", "mips_milli"):
    assert isinstance(host[key], int) and host[key] >= 0, key
assert host["parallel_ns"] > 0 and host["replay_ns"] > 0
hw = host["host_parallelism"]
host_speedup = host["speedup_milli"] / 1000
mips = host["mips_milli"] / 1000
if hw >= 4:
    assert host["speedup_milli"] >= 2500, \
        f"host parallel speedup regressed: {host_speedup:.2f}x < 2.5x at 4 cores"
else:
    print(f"  (host has {hw} hw threads; speedup floor not enforced: {host_speedup:.2f}x)")
speedup = single["makespan_cycles"] / quad["makespan_cycles"]
print(f"smp scaling JSON ok: {cores} cores, {speedup:.2f}x modelled at 4 cores, host {mips:.1f} MIPS")
'
cat BENCH_smp_scaling.json

echo "== host speed: benchmark/ alu_jit + nvm_scan + fleet_serve at seed 1 (golden outputs + MIPS floors) =="
# Three rounds of each workload, about 17 s. Any failed output check
# (seed 1 includes every modelled output against benchmark/golden.json)
# makes the run exit 1 and report "correct": false. The floors are about
# half the median scaled sim_mips of five runs on a 2-vCPU x86-64 KVM
# guest when each was set (alu_jit 421 MIPS, with hot loops re-entering
# their compiled block in place; fleet_serve 60, with a set-associative
# micro-DTLB that keeps global data translations across gate switches;
# nvm_scan 171, with a compiled load's micro-DTLB probe and frame access
# inlined). The guest's level moves between sessions: the five runs that
# set the nvm_scan floor read alu_jit 345 and fleet_serve 64.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload alu_jit --workload nvm_scan --workload fleet_serve --seed 1 > "$scratch/host_speed.out"
tail -n 1 "$scratch/host_speed.out" | python3 -c '
import json, sys
report = json.load(sys.stdin)
failed = report["failed"]
assert report["correct"] is True, "benchmark output checks failed (golden modelled outputs)"
assert failed == 0, f"{failed} failed ops"
for workload, floor in (("alu_jit", 210), ("nvm_scan", 85), ("fleet_serve", 30)):
    mips = report["metrics"][f"{workload}.sim_mips"]["value"]
    assert mips >= floor, f"{workload}: host speed regressed: {mips:.1f} MIPS < {floor}"
    print(f"  {workload}: {mips:.1f} MIPS, floor {floor}")
'

echo "== benchmark crate tests (fidelity + held-out seed) =="
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== repro chaos -> BENCH_chaos_soak.json (soak + determinism + reference engine) =="
./target/release/repro chaos --json > BENCH_chaos_soak.json
./target/release/repro chaos --json > "$scratch/chaos_rerun.json"
cmp BENCH_chaos_soak.json "$scratch/chaos_rerun.json" || {
    echo "chaos soak is not byte-reproducible" >&2
    exit 1
}
LZ_ACCEL=0 ./target/release/repro chaos --json > "$scratch/chaos_reference.json"
cmp BENCH_chaos_soak.json "$scratch/chaos_reference.json" || {
    echo "chaos soak diverges on the reference interpreter (LZ_ACCEL=0)" >&2
    exit 1
}
python3 -c '
import json
report = json.load(open("BENCH_chaos_soak.json"))
assert report["benchmark"] == "chaos_soak"
for key in ("seed", "rate", "runs", "kills", "faults_injected",
            "faults_contained", "ve_kills", "journal_dropped",
            "invariant_violations"):
    assert isinstance(report[key], int), key
assert report["faults_injected"] >= 10_000, "soak under-injected"
assert report["faults_injected"] == report["faults_contained"], \
    "some injected faults were not handled fail-closed"
assert report["invariant_violations"] == 0, "chaos invariants violated"
injected, kills = report["faults_injected"], report["kills"]
print(f"chaos soak JSON ok: {injected} faults, {kills} kills, 0 violations")
'
cat BENCH_chaos_soak.json

echo "== repro attacks -> BENCH_attack_corpus.json (corpus gate + determinism) =="
./target/release/repro attacks --json > BENCH_attack_corpus.json
./target/release/repro attacks --json > "$scratch/attacks_rerun.json"
cmp BENCH_attack_corpus.json "$scratch/attacks_rerun.json" || {
    echo "attack corpus is not byte-reproducible" >&2
    exit 1
}
python3 -c '
import json
report = json.load(open("BENCH_attack_corpus.json"))
assert report["benchmark"] == "attack_corpus"
assert isinstance(report["seed"], int)
assert report["problems"] == 0, "corpus gate reported problems"
families = {f["name"] for f in report["families"]}
assert len(families) >= 5, f"only {len(families)} attack families: {families}"
assert report["defenses_on"]["escapes"] == 0, "an attack escaped with every defense on"
cols = {a["defense"]: a for a in report["ablations"]}
for d in ("remote_shootdown", "gate_check_phase", "randomize_phys"):
    col = cols[d]
    n = len(col["distinct_attacks"])
    assert n >= 2, f"{d}: only {n} distinct escapes — the corpus has no teeth against it"
    assert col["shrunk"], f"{d}: escapes were not shrunk"
    for s in col["shrunk"]:
        assert 1 <= s["shrunk_steps"] <= s["steps"], f"{d}: bad shrink {s}"
for d in ("eager_stage2", "retain_hcr_vttbr", "shared_pt_regs", "deferred_sysreg_page"):
    assert cols[d]["escapes"] == 0, f"cost-model ablation {d} must not weaken the boundary"
esc = {d: len(cols[d]["distinct_attacks"]) for d in ("remote_shootdown", "gate_check_phase", "randomize_phys")}
print(f"attack corpus JSON ok: {len(families)} families, 0 escapes defenses-on, per-defense escapes {esc}")
'
cat BENCH_attack_corpus.json

echo "== repro fleet -> BENCH_fleet.json (latency floors + determinism + replay) =="
./target/release/repro fleet --json > BENCH_fleet.json
./target/release/repro fleet --json > "$scratch/fleet_rerun.json"
cmp BENCH_fleet.json "$scratch/fleet_rerun.json" || {
    echo "fleet benchmark is not byte-reproducible" >&2
    exit 1
}
LZ_PARALLEL=0 ./target/release/repro fleet --json > "$scratch/fleet_replay.json"
cmp BENCH_fleet.json "$scratch/fleet_replay.json" || {
    echo "fleet benchmark diverges from LZ_PARALLEL=0 replay" >&2
    exit 1
}
python3 -c '
import json
report = json.load(open("BENCH_fleet.json"))
assert report["benchmark"] == "fleet"
assert isinstance(report["seed"], int)
cores = [r["cores"] for r in report["runs"]]
assert cores == [1, 4, 8], f"unexpected core sweep: {cores}"
for r in report["runs"]:
    peak = r["domains_live_peak"]
    assert peak >= 2000, f"fleet under-packed: {peak} domains"
    for lat in ("switch_cycles", "service_cycles", "request_latency"):
        for q in ("p50", "p99", "p999"):
            assert isinstance(r[lat][q], int) and r[lat][q] > 0, f"{lat}.{q}"
        assert r[lat]["p50"] <= r[lat]["p99"] <= r[lat]["p999"], f"{lat} quantiles unordered"
    # A gate switch is hundreds of cycles, not single digits or millions.
    sw50 = r["switch_cycles"]["p50"]
    assert 100 <= sw50 <= 5000, f"switch p50 implausible: {sw50}"
    assert r["request_latency"]["p50"] >= r["service_cycles"]["p50"], "queue wait cannot be negative"
one, quad, oct8 = report["runs"]
assert one["vmid_rollovers"] >= 1, "1-core churn must roll the full VMID space"
assert one["vmid_recycles"] >= 1
assert one["rollover_shootdowns"] >= one["vmid_recycles"], "recycled VMIDs must be shot down at reuse"
assert one["ve_reaps"] + quad["ve_reaps"] > 60_000, "churn phase under-ran"
p99_one = one["request_latency"]["p99"]
p99_quad = quad["request_latency"]["p99"]
p99_oct = oct8["request_latency"]["p99"]
assert p99_quad < p99_one, "4 cores must drain the open-loop queue that saturates 1 core"
assert p99_oct <= p99_quad, "8 cores must be at least as good as 4"
rolls = one["vmid_rollovers"]
peak = one["domains_live_peak"]
print(f"fleet JSON ok: {peak} domains, {rolls} rollover(s), request p99 {p99_one} -> {p99_quad} -> {p99_oct} cycles at 4/8 cores")
'
cat BENCH_fleet.json

echo "== repro recovery -> BENCH_recovery.json (soak floors + determinism + replay) =="
./target/release/repro recovery --json > BENCH_recovery.json
./target/release/repro recovery --json > "$scratch/recovery_rerun.json"
cmp BENCH_recovery.json "$scratch/recovery_rerun.json" || {
    echo "recovery soak is not byte-reproducible" >&2
    exit 1
}
LZ_PARALLEL=0 ./target/release/repro recovery --json > "$scratch/recovery_replay.json"
cmp BENCH_recovery.json "$scratch/recovery_replay.json" || {
    echo "recovery soak diverges from LZ_PARALLEL=0 replay" >&2
    exit 1
}
python3 -c '
import json
report = json.load(open("BENCH_recovery.json"))
assert report["benchmark"] == "recovery"
assert isinstance(report["seed"], int)
run = report["run"]
for key in ("cores", "tenants", "seed", "epochs", "requests", "spawns",
            "faults_injected", "faults_contained", "ve_crashes",
            "watchdog_kills", "missed_epochs", "snapshot_corruptions",
            "warm_restarts", "cold_restarts", "denials",
            "storm_compressions", "strikes", "quarantines",
            "snapshots_taken", "vmid_recycles", "rollover_shootdowns",
            "priority_events", "invariant_violations"):
    assert isinstance(run[key], int), key
# The recovery contract (ISSUE 10 acceptance floors).
assert run["invariant_violations"] == 0, "recovery invariants violated"
assert run["faults_injected"] >= 10_000, "soak under-injected"
assert run["faults_injected"] == run["faults_contained"], \
    "some injected faults were not handled fail-closed"
assert run["ve_crashes"] >= 100, "soak produced too few VE crashes"
assert run["warm_restarts"] >= 10, "warm-restart path under-exercised"
assert run["quarantines"] >= 1, "no tenant reached quarantine"
assert run["watchdog_kills"] >= 1, "the wedged tenant never tripped the watchdog"
assert run["denials"] >= 1, "admission control never shed load"
assert run["missed_epochs"] == 0, "a scheduled shell retired nothing"
assert run["snapshots_taken"] >= run["warm_restarts"], \
    "every warm restart consumes a request-boundary snapshot"
assert run["priority_events"] >= 1, "priority journal lane lost the fault record"
lat = run["recovery_epochs"]
assert lat["samples"] == run["warm_restarts"] + run["cold_restarts"]
assert 1 <= lat["p50"] <= lat["p99"], "recovery latency quantiles unordered"
faults, crashes = run["faults_injected"], run["ve_crashes"]
warm, cold, quar = run["warm_restarts"], run["cold_restarts"], run["quarantines"]
p50, p99 = lat["p50"], lat["p99"]
print(f"recovery JSON ok: {faults} faults, {crashes} crashes, "
      f"{warm} warm / {cold} cold restarts, {quar} quarantines, "
      f"recovery p50/p99 {p50}/{p99} epochs")
'
cat BENCH_recovery.json

echo "== panic-containment smoke (debug build: catch_unwind under debug assertions) =="
# A host panic injected into one epoch shell must kill only the VE that
# was running there; the debug build keeps the containment honest with
# debug assertions on and exercises the same catch_unwind boundary the
# recovery soak relies on.
cargo test -q --test fleet host_panic

echo "== unwrap/expect ratchet (non-test isolation-stack sources) =="
# Guest-reachable host panics were swept into typed LzFault paths; the
# survivors below are host-setup or internal-consistency asserts that a
# guest cannot reach. New .unwrap()/.expect() in these files must either
# be converted to a typed error or get the baseline raised with a
# written justification.
ratchet() {
    local file="$1" baseline="$2"
    # Strip the trailing #[cfg(test)] module: test code may unwrap freely.
    local count
    count=$(sed '/#\[cfg(test)\]/,$d' "$file" | grep -c -E '\.unwrap\(\)|\.expect\(' || true)
    if [ "$count" -gt "$baseline" ]; then
        echo "unwrap ratchet: $file has $count unwrap/expect (baseline $baseline)" >&2
        exit 1
    fi
    echo "  $file: $count/$baseline"
}
ratchet crates/machine/src/walk.rs 0
ratchet crates/machine/src/mem.rs 0
ratchet crates/machine/src/cpu.rs 0
ratchet crates/machine/src/jit.rs 0
ratchet crates/machine/src/icache.rs 0
ratchet crates/machine/src/tlb.rs 0
# smp.rs: 5 = parked-core slot lookups ("inactive core is parked"),
# which hold because only the active core's slot is ever empty outside
# an epoch; helpers.rs: 0 = the epoch helper pool recovers a poisoned
# board lock explicitly; sched.rs: 2 = scheduler-internal map lookups
# guarded by the run-queue invariants.
ratchet crates/machine/src/smp.rs 5
ratchet crates/machine/src/helpers.rs 0
ratchet crates/machine/src/json.rs 0
ratchet crates/machine/src/metrics.rs 0
ratchet crates/kernel/src/sched.rs 2
# module.rs: 2 = write_ttbr1_code's `fake resolves` (it re-reads a leaf
# the module itself just mapped) and enter_ve_process's host-facing
# `process is in LightZone` (a scheduler contract, documented under
# Panics). Pgt 0's TTBR0 is read through `LzProc::default_ttbr0`,
# which cannot panic.
ratchet crates/core/src/module.rs 2
ratchet crates/core/src/gate.rs 0
ratchet crates/core/src/pgt.rs 0
ratchet crates/core/src/fakephys.rs 0
ratchet crates/core/src/sanitizer.rs 0
ratchet crates/arch/src/sensitive.rs 0
ratchet crates/arch/src/sysreg.rs 0
ratchet crates/arch/src/esr.rs 0
ratchet crates/kernel/src/vma.rs 0
ratchet crates/kernel/src/idalloc.rs 0
ratchet crates/kernel/src/kvm.rs 0
# kernel.rs: 4 = the three host-facing `no such pid` accessors and
# `resume_syscall`'s current process; guest paths reach the current
# process through `current_mut` and fail closed.
ratchet crates/kernel/src/kernel.rs 4
# attacks.rs: 4 = restore_attack's setup steps (the victim and restored
# VEs are live, the donor snapshots, the snapshot restores). They are
# pen-test harness setup on images the harness itself just built, beside
# the asserts on its other setup steps; no guest input reaches them.
ratchet crates/chaos/src/attacks.rs 4
ratchet crates/chaos/src/synth.rs 0
# The fleet crate (sim, supervisor, recovery soak) is guest-adjacent
# control-plane code and stays unwrap-free outside tests.
ratchet crates/fleet/src/hist.rs 0
ratchet crates/fleet/src/load.rs 0
ratchet crates/fleet/src/sim.rs 0
ratchet crates/fleet/src/supervisor.rs 0
ratchet crates/fleet/src/recovery.rs 0

echo "CI OK"
