//! The benchmark drives the simulator its own way — sliced machine
//! entries, a split exit dispatch, re-assembled guest programs. These
//! tests prove that this reproduces what the repository's own
//! paths compute, and that every output check passes on a seed that was
//! never used while the benchmark was written. Run them optimised:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use lightzone::LightZone;
use lz_arch::Platform;
use lz_benchmark::clock::{Bench, ProbeKind};
use lz_benchmark::fleet::{self, FleetConfig};
use lz_benchmark::{alu, churn, nvm, Round};
use lz_workloads::{Deployment, Mechanism};

const HELD_OUT_SEED: u64 = 0x5eed_0fbe_7c4e;
/// `lz_fleet`'s paper configuration seed.
const FLEET_PAPER_SEED: u64 = 0x11a5_77a0;

fn fleet_at(cores: usize, requests: usize) -> (fleet::FleetOutcome, Round) {
    let cfg = FleetConfig { cores, requests, ..FleetConfig::SERVE };
    let mut round = Round::default();
    let out = fleet::serve(&cfg, FLEET_PAPER_SEED, &mut Bench::new(false, ProbeKind::Cpu), &mut round);
    (out, round)
}

fn run_fleet_paper(cores: usize) -> lz_fleet::FleetRun {
    let cfg = lz_fleet::FleetConfig { churn_ves: 0, ..lz_fleet::FleetConfig::paper(Platform::Carmel, cores) };
    lz_fleet::run_fleet(&cfg)
}

#[test]
fn fleet_serve_reproduces_run_fleet() {
    let (out, round) = fleet_at(1, 16);
    assert!(round.failures.is_empty(), "{:?}", round.failures);
    let want = run_fleet_paper(1);
    assert_eq!(out.switch, want.switch_cycles);
    assert_eq!(out.service, want.service_cycles);
    assert_eq!(out.request, want.request_latency);
    assert_eq!(out.domains_live_peak, want.domains_live_peak);
}

#[test]
fn fleet_smp_reproduces_the_two_core_run() {
    let (out, round) = fleet_at(2, 16);
    assert!(round.failures.is_empty(), "{:?}", round.failures);
    let want = run_fleet_paper(2);
    assert_eq!(out.switch, want.switch_cycles);
    assert_eq!(out.service, want.service_cycles);
    assert_eq!(out.request, want.request_latency);
    assert_eq!(out.domains_live_peak, want.domains_live_peak);
}

#[test]
fn nvm_scan_slope_is_the_figure5_cell() {
    // `lz_workloads::nvm` shortens its sequence in debug builds.
    let n = if cfg!(debug_assertions) { 400 } else { 2_000 };
    let seq = nvm::sequence(0x9e37_79b9, n);
    let cycles = |measured: usize| {
        let (end, marks, lz) = nvm::run_sliced(&nvm::program(seq.clone(), measured, 1), 1 << 16);
        assert_eq!(end, lz_kernel::Event::Exited(0));
        assert_eq!(marks.len(), 2, "warm-up and measured-pass markers");
        lz.kernel.machine.cpu.cycles
    };
    let slope = (cycles(n) as f64 - cycles(n / 2) as f64) / (n / 2) as f64;
    let want = lz_workloads::nvm::nvm_cycles_per_op(nvm::PLATFORM, Deployment::Host, Mechanism::LzTtbr, nvm::BUFFERS);
    assert_eq!(slope, want);
}

#[test]
fn sliced_runs_with_split_dispatch_match_lightzone_run() {
    let progs = [
        nvm::program(nvm::sequence(HELD_OUT_SEED, 120), 60, 2),
        fleet::tenant_prog(lz_workloads::oltp::fleet_shape(), 6, 300, HELD_OUT_SEED),
    ];
    for prog in &progs {
        let mut lz = LightZone::new_host(Platform::Carmel);
        let pid = lz.spawn(prog);
        lz.enter_process(pid);
        let facade = lz.run(u64::MAX);
        for slice in [1 << 9, 1 << 16] {
            let (end, _, sliced) = nvm::run_sliced(prog, slice);
            assert_eq!(end, facade, "slice {slice}");
            let (a, b) = (&sliced.kernel.machine.cpu, &lz.kernel.machine.cpu);
            assert_eq!((a.insns, a.cycles), (b.insns, b.cycles), "slice {slice}");
        }
    }
}

#[test]
fn ve_churn_rolls_the_vmid_space_over() {
    let round = churn::run(&churn::ChurnConfig::BENCH, HELD_OUT_SEED, &mut Bench::new(false, ProbeKind::Cpu));
    assert!(round.failures.is_empty(), "{:?}", round.failures);
    let out = |k: &str| round.outputs.iter().find(|(n, _)| n == k).map(|o| o.1).unwrap();
    assert!(out("vmid_rollovers") >= 1);
    assert!(out("rollover_shootdowns") >= out("vmid_recycles"));
    assert_eq!(out("ve_reaps"), (churn::ChurnConfig::BENCH.warm + churn::ChurnConfig::BENCH.ves) as u64);
}

/// Run a small round traced and untraced: every output check passes and
/// the modelled outputs and counters do not depend on tracing.
fn traced_and_untraced(run: impl Fn(&mut Bench) -> Round) -> Round {
    let mut plain = Bench::new(false, ProbeKind::Cpu);
    let a = run(&mut plain);
    let mut traced = Bench::new(true, ProbeKind::Cpu);
    let b = run(&mut traced);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a, b, "tracing changed a modelled output or counter");
    assert!(!plain.ops.is_empty());
    // Traced accounting: summed self times cover summed op time.
    let self_ns: u64 = traced.tr.agg.iter().map(|g| g.self_ns).sum();
    let op_ns: u64 = traced.ops.iter().map(|o| o.ns).sum();
    assert!(self_ns.abs_diff(op_ns) * 20 <= op_ns, "self {self_ns} ns vs ops {op_ns} ns");
    a
}

#[test]
fn held_out_seed_passes_every_check() {
    let s = HELD_OUT_SEED;
    traced_and_untraced(|b| alu::run(&alu::AluConfig { slice: 1 << 14, warm: 4, ops: 64 }, s, b));
    traced_and_untraced(|b| nvm::run(&nvm::NvmConfig { pass: 300, passes: 3, slice: 1 << 14 }, s, b));
    traced_and_untraced(|b| churn::run(&churn::ChurnConfig { warm: 8, ves: 300 }, s, b));
    let small = FleetConfig { tenants: 6, domains: 8, requests: 40, ..FleetConfig::SERVE };
    let serve = traced_and_untraced(|b| fleet::run(&small, s, b));
    let smp = traced_and_untraced(|b| fleet::run(&FleetConfig { cores: 2, ..small }, s, b));
    // One core or two, every request costs the same modelled cycles.
    let part = |r: &Round, p: &str| -> Vec<(String, u64)> {
        r.outputs.iter().filter(|(k, _)| k.starts_with(p)).cloned().collect()
    };
    for p in ["switch.", "service."] {
        assert_eq!(part(&serve, p), part(&smp, p));
    }
}
