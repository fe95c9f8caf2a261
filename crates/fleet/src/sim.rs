//! Fleet-scale multi-tenant serving simulation.
//!
//! Three phases over **one** LightZone instance:
//!
//! 1. **Resident pool** — `tenants` VEs are spawned and run to
//!    completion, each a *real assembled guest program* (alternating
//!    httpd/oltp [`FleetShape`]s) that allocates `domains_per_tenant`
//!    isolation domains and serves `requests_per_tenant` requests
//!    through call gates, self-timing every request with
//!    `CLOCK_GETTIME` reads the host later reads back from guest
//!    memory. Tenants stay resident after exit (their module state is
//!    not reaped), so the domain population peaks at
//!    `tenants * (domains_per_tenant + 1)`.
//! 2. **Open-loop overlay** — a seeded exponential arrival schedule
//!    ([`OpenLoop`]) is replayed against the *measured* per-request
//!    service times on a `cores`-way queueing model (tenant `t` pinned
//!    to core `t % cores`). Queue wait is `start - arrival`; a
//!    saturated core shows up as p99/p999 latency, never as a reduced
//!    rate (no coordinated omission).
//! 3. **Churn** — `churn_ves` minimal VEs are spawned, run, and reaped
//!    back to back. With enough churn the VMID space rolls over and the
//!    generation-tagged allocator starts recycling, which is what the
//!    rollover-shootdown counters (and the penetration tests) exercise.
//!
//! Everything is integer arithmetic over deterministic seeds, so two
//! runs of the same config produce byte-identical [`FleetRun`]s.
//!
//! Demand paging is deliberately *not* warmed out of the request loop:
//! the first visit of each (domain, page) pair faults inside the timed
//! window, producing a deterministic latency tail — that is what the
//! p999 column is for.

use crate::hist::{LatSummary, Log2Hist};
use crate::load::{Lcg, OpenLoop};
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR};
use lightzone::gate::layout;
use lightzone::LightZone;
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::{Event, IdAlloc, Pid, Sysno, VmProt};
use lz_machine::fields;
use lz_machine::json::{Json, Object};
use lz_workloads::FleetShape;

const CODE: u64 = 0x40_0000;
/// The per-request switch sequence (pairs of 8-byte words).
const SEQ_BASE: u64 = 0x2000_0000;
/// Calibration + per-request timing results, read back by the host.
const RESULTS_BASE: u64 = 0x2800_0000;
/// Per-domain 4 KB arena pages.
const ARENA_BASE: u64 = 0x3000_0000;

const RUN_LIMIT: u64 = 400_000_000;
/// Instructions per epoch in the wave drain, on every core count.
/// Tenants share no memory, so the quantum only balances barrier
/// overhead against trap-handling latency (a pending VE exit waits out
/// the epoch).
const FLEET_QUANTUM: u64 = 16_384;

/// One fleet benchmark configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub platform: Platform,
    /// Simulated cores; tenants run on core `t % cores` and the
    /// queueing overlay models one queue per core.
    pub cores: usize,
    pub tenants: usize,
    /// Isolation domains each tenant allocates (plus its default pgt0).
    pub domains_per_tenant: usize,
    pub requests_per_tenant: usize,
    pub seed: u64,
    /// Mean inter-arrival gap of the open-loop schedule, in cycles.
    pub arrival_gap_mean: u64,
    /// Spawn/run/reap cycles in the churn phase.
    pub churn_ves: usize,
    /// Override the VMID space (tests shrink it to force rollover
    /// cheaply); `None` keeps the architectural 16-bit space.
    pub vmid_space: Option<u16>,
}

impl FleetConfig {
    /// The BENCH_fleet configuration: 64 tenants x (32 + 1) domains
    /// = 2,112 live domains, and on the 1-core machine enough churn to
    /// roll the full 16-bit VMID space over at least once.
    pub fn paper(platform: Platform, cores: usize) -> Self {
        FleetConfig {
            platform,
            cores,
            tenants: 64,
            domains_per_tenant: 32,
            requests_per_tenant: 16,
            seed: 0x11a5_77a0,
            arrival_gap_mean: 40_000,
            // 64 residents + 66,000 churn VEs > 65,535 VMIDs: the 1-core
            // leg crosses the rollover; the 4-core leg keeps churn light.
            churn_ves: if cores == 1 { 66_000 } else { 2_048 },
            vmid_space: None,
        }
    }

    /// A seconds-scale configuration for unit tests: a shrunken VMID
    /// space makes even light churn roll over.
    pub fn smoke(cores: usize) -> Self {
        FleetConfig {
            platform: Platform::Carmel,
            cores,
            tenants: 6,
            domains_per_tenant: 4,
            requests_per_tenant: 4,
            seed: 0x11a5_77a0,
            arrival_gap_mean: 30_000,
            churn_ves: 40,
            vmid_space: Some(32),
        }
    }
}

/// One complete fleet run's results (all integers, all deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRun {
    pub cores: usize,
    pub tenants: u64,
    pub requests: u64,
    /// Live domains after the resident phase (tenants are not reaped).
    pub domains_live_peak: u64,
    pub arrival_gap_mean: u64,
    /// Per-gate-switch cycles (calibrated, averaged per request).
    pub switch_cycles: LatSummary,
    /// Per-request service cycles (switches + syscalls + arena work).
    pub service_cycles: LatSummary,
    /// End-to-end request latency under the open-loop schedule
    /// (queue wait + service).
    pub request_latency: LatSummary,
    pub vmid_recycles: u64,
    pub vmid_rollovers: u64,
    pub asid_recycles: u64,
    pub rollover_shootdowns: u64,
    pub ve_reaps: u64,
    pub domains_live_final: u64,
}

/// One JSON object, keys in field order (byte-deterministic).
impl Json for FleetRun {
    fn write_json(&self, out: &mut String) {
        fields!(Object::new(), self;
            cores, tenants, requests, domains_live_peak, arrival_gap_mean, switch_cycles, service_cycles,
            request_latency, vmid_recycles, vmid_rollovers, asid_recycles, rollover_shootdowns, ve_reaps,
            domains_live_final)
        .write_json(out)
    }
}

/// Build one tenant's guest program.
///
/// Register map (x0–x8 are syscall-clobbered, everything else persists
/// across traps): x17 gate target, x19 current domain's arena page,
/// x20 results cursor, x21 sequence cursor, x22 request counter,
/// x23 switch counter, x24 request t0, x25 calibration, x26 switch-
/// section delta, x27 request delta.
fn tenant_prog(shape: FleetShape, domains: usize, requests: usize, seq_seed: u64) -> LzProgram {
    let switches = shape.switches_per_request as usize;
    let pairs = requests * switches;
    let mut lcg = Lcg::new(seq_seed);
    let mut seq = Vec::with_capacity(pairs * 16);
    for _ in 0..pairs {
        let d = lcg.below(domains as u64);
        seq.extend_from_slice(&layout::gate_va(d as u16).to_le_bytes());
        seq.extend_from_slice(&(ARENA_BASE + d * PAGE_SIZE).to_le_bytes());
    }
    let seq_pages = (pairs * 16).div_ceil(PAGE_SIZE as usize) as u64;

    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, seq, VmProt::R);
    b.with_segment(RESULTS_BASE, vec![0u8; PAGE_SIZE as usize], VmProt::RW);
    b.with_segment(ARENA_BASE, vec![0u8; domains * PAGE_SIZE as usize], VmProt::RW);
    assert!(8 + requests * 16 <= PAGE_SIZE as usize, "results ring fits one page");

    b.asm.lz_enter(true, SAN_TTBR);
    // Setup: one table + gate + 4 KB arena page per domain. lz_alloc
    // returns deterministic table ids 1..=domains.
    for d in 0..domains as u64 {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA_BASE + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
    // Warm the sequence pages in the default domain (arena pages stay
    // cold on purpose — their first-touch faults are the latency tail).
    b.asm.mov_imm64(21, SEQ_BASE);
    b.asm.mov_imm64(23, seq_pages);
    let warm = b.asm.label();
    b.asm.bind(warm);
    b.asm.ldr(1, 21, 0);
    b.asm.add_imm(21, 21, 4095);
    b.asm.add_imm(21, 21, 1);
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(warm);
    // Calibration: the delta of two back-to-back clock reads prices one
    // clock trap; RESULTS[0] = calib.
    let clock = Sysno::ClockGettime.nr();
    b.asm.mov_imm64(20, RESULTS_BASE);
    b.asm.mov_imm64(8, clock);
    b.asm.svc(0);
    b.asm.mov_reg(24, 0);
    b.asm.mov_imm64(8, clock);
    b.asm.svc(0);
    b.asm.sub_reg(25, 0, 24);
    b.asm.str(25, 20, 0);
    b.asm.add_imm(20, 20, 8);
    // Request loop.
    b.asm.mov_imm64(21, SEQ_BASE);
    b.asm.mov_imm64(22, requests as u64);
    let req_top = b.asm.label();
    b.asm.bind(req_top);
    b.asm.mov_imm64(8, clock);
    b.asm.svc(0);
    b.asm.mov_reg(24, 0); // t0
    b.asm.mov_imm64(23, switches as u64);
    let sw_top = b.asm.label();
    b.asm.bind(sw_top);
    b.asm.ldr(17, 21, 0); // gate address
    b.asm.ldr(19, 21, 8); // arena page of the target domain
    b.asm.add_imm(21, 21, 16);
    b.asm.blr(17);
    let entry = b.here(); // the single ENTRY shared by every gate
    b.asm.ldr(1, 19, 0); // 8-byte access in the entered domain
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(sw_top);
    b.asm.mov_imm64(8, clock);
    b.asm.svc(0);
    b.asm.sub_reg(26, 0, 24); // t1 - t0: switch section
                              // Kernel round trips (Gettid: a no-op syscall that does not
                              // reschedule), then application data work on the current arena.
    let tid = Sysno::Gettid.nr();
    for _ in 0..shape.syscalls_per_request {
        b.asm.mov_imm64(8, tid);
        b.asm.svc(0);
    }
    for j in 0..shape.arena_touches as u64 {
        b.asm.ldr(1, 19, (j * 64) % PAGE_SIZE);
    }
    b.asm.mov_imm64(8, clock);
    b.asm.svc(0);
    b.asm.sub_reg(27, 0, 24); // t2 - t0: whole request
    b.asm.str(26, 20, 0);
    b.asm.str(27, 20, 8);
    b.asm.add_imm(20, 20, 16);
    b.asm.subs_imm(22, 22, 1);
    b.asm.b_ne(req_top);
    b.asm.exit_imm(0);
    for g in 0..domains as u16 {
        b.register_gate_entry(g, entry);
    }
    b.build()
}

/// The churn-phase program: a minimal VE that enters and exits.
fn churn_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.exit_imm(0);
    b.build()
}

/// Read one u64 from a guest's memory (live, or exited but unreaped);
/// 0 if the address was never populated.
pub(crate) fn read_guest_u64(lz: &LightZone, pid: Pid, va: u64) -> u64 {
    let Some(pa) = lz.kernel.process(pid).mm.page_at(va & !(PAGE_SIZE - 1)) else {
        return 0;
    };
    lz.kernel.machine.mem.read_u64(pa + (va & (PAGE_SIZE - 1))).unwrap_or(0)
}

/// Execute one full fleet run.
///
/// # Panics
///
/// Panics if a tenant or churn VE fails to exit cleanly — the fleet
/// benchmark doubles as an end-to-end invariant check.
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    assert!(cfg.cores >= 1 && cfg.tenants >= 1 && cfg.domains_per_tenant >= 1);
    let mut lz = LightZone::new_host(cfg.platform);
    if let Some(space) = cfg.vmid_space {
        lz.kernel.vmids = IdAlloc::with_space(space);
    }
    lz.kernel.machine.configure_smp(cfg.cores);
    let shapes = [lz_workloads::httpd::fleet_shape(), lz_workloads::oltp::fleet_shape()];

    // Phase 1: resident tenants. Every wave of `cores` tenants drains
    // *concurrently* on the epoch executor (one core: a wave of one) —
    // each tenant pinned to core `t % cores`, executing
    // [`FLEET_QUANTUM`]-instruction epochs with all VE traps committed
    // barrier-side in core order through `LightZone::dispatch_on`, so
    // the drain is byte-deterministic on both the parallel and the
    // replay backend.
    let mut services: Vec<Vec<u64>> = Vec::with_capacity(cfg.tenants);
    let mut switch_hist = Log2Hist::new();
    let mut service_hist = Log2Hist::new();
    let spawn_tenant = |lz: &mut LightZone, t: usize| {
        let shape = shapes[t % shapes.len()];
        let prog = tenant_prog(
            shape,
            cfg.domains_per_tenant,
            cfg.requests_per_tenant,
            cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9),
        );
        let pid = lz.spawn(&prog);
        // `schedule_to`, not `enter_process`: the previous tenant left
        // the core in VE state (HCR/VBAR/VTTBR), and the scheduler path
        // restores the host configuration for a fresh process.
        lz.schedule_to(pid);
        pid
    };
    let mut record_tenant = |lz: &LightZone, t: usize, pid: Pid, services: &mut Vec<Vec<u64>>| {
        let shape = shapes[t % shapes.len()];
        let calib = read_guest_u64(lz, pid, RESULTS_BASE);
        let s = (shape.switches_per_request as u64).max(1);
        let mut per_tenant = Vec::with_capacity(cfg.requests_per_tenant);
        for r in 0..cfg.requests_per_tenant as u64 {
            let sw = read_guest_u64(lz, pid, RESULTS_BASE + 8 + r * 16);
            let rq = read_guest_u64(lz, pid, RESULTS_BASE + 16 + r * 16);
            switch_hist.record(sw.saturating_sub(calib) / s);
            let service = rq.saturating_sub(2 * calib).max(1);
            service_hist.record(service);
            per_tenant.push(service);
        }
        services.push(per_tenant);
    };
    let n = cfg.cores;
    for wave in 0..cfg.tenants.div_ceil(n) {
        // Set up the wave: one tenant per core, entered via the costed
        // VE scheduling path on its own core. `cur` is cleared between
        // set-ups — with several processes live at once the active
        // register state belongs to the core, not to a single
        // kernel-wide current process.
        let mut jobs: Vec<(usize, Pid, usize)> = Vec::with_capacity(n);
        for t in wave * n..((wave + 1) * n).min(cfg.tenants) {
            lz.kernel.machine.switch_core(t % n);
            let pid = spawn_tenant(&mut lz, t);
            lz.kernel.clear_current();
            jobs.push((t % n, pid, t));
        }
        // Drain the wave in epochs until every tenant exited.
        let mut done = vec![false; jobs.len()];
        let mut spent = vec![0u64; jobs.len()];
        while done.iter().any(|&d| !d) {
            let mut budgets = vec![0u64; n];
            for (j, &(core, ..)) in jobs.iter().enumerate() {
                if !done[j] {
                    budgets[core] = FLEET_QUANTUM;
                }
            }
            let results = lz.kernel.machine.run_epoch(&budgets);
            for (j, &(core, pid, t)) in jobs.iter().enumerate() {
                if done[j] {
                    continue;
                }
                let (exit, used) = results[core];
                spent[j] += used;
                assert!(spent[j] <= RUN_LIMIT, "tenant {t} did not exit cleanly");
                if exit == lz_machine::Exit::Limit {
                    continue;
                }
                match lz.dispatch_on(core, pid, exit) {
                    None => {}
                    Some(Event::Exited(0)) => done[j] = true,
                    Some(ev) => panic!("tenant {t} did not exit cleanly: {ev:?}"),
                }
            }
        }
        for &(_, pid, t) in &jobs {
            record_tenant(&lz, t, pid, &mut services);
        }
    }
    lz.kernel.machine.switch_core(0);
    let domains_live_peak = lz.module.domains_live();

    // Phase 2: open-loop queueing overlay over the measured services.
    let mut ol = OpenLoop::new(cfg.seed, cfg.arrival_gap_mean);
    let mut core_free = vec![0u64; cfg.cores];
    let mut latency_hist = Log2Hist::new();
    let total = cfg.tenants * cfg.requests_per_tenant;
    for idx in 0..total {
        let t = idx % cfg.tenants;
        let r = idx / cfg.tenants;
        let arrival = ol.next_arrival();
        let service = services[t][r];
        let core = t % cfg.cores;
        let start = arrival.max(core_free[core]);
        core_free[core] = start + service;
        latency_hist.record(start - arrival + service);
    }

    // Phase 3: churn — spawn/run/reap until the VMID space rolls over.
    let churn = churn_prog();
    for i in 0..cfg.churn_ves {
        let pid = lz.spawn(&churn);
        lz.schedule_to(pid);
        let ev = lz.run(RUN_LIMIT);
        assert_eq!(ev, Event::Exited(0), "churn VE {i} did not exit cleanly");
        assert!(lz.reap(pid), "churn VE {i} could not be reaped");
    }

    FleetRun {
        cores: cfg.cores,
        tenants: cfg.tenants as u64,
        requests: total as u64,
        domains_live_peak,
        arrival_gap_mean: cfg.arrival_gap_mean,
        switch_cycles: LatSummary::of(&switch_hist),
        service_cycles: LatSummary::of(&service_hist),
        request_latency: LatSummary::of(&latency_hist),
        vmid_recycles: lz.kernel.vmids.recycles(),
        vmid_rollovers: lz.kernel.vmids.rollovers(),
        asid_recycles: lz.kernel.asids.recycles() + lz.module.asid_recycles(),
        rollover_shootdowns: lz.kernel.stats.rollover_shootdowns + lz.module.rollover_shootdowns,
        ve_reaps: lz.module.reaps(),
        domains_live_final: lz.module.domains_live(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic() {
        let cfg = FleetConfig::smoke(1);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn smoke_run_counts_line_up() {
        let cfg = FleetConfig::smoke(1);
        let run = run_fleet(&cfg);
        // 6 tenants x (4 domains + pgt0) live after the resident phase.
        assert_eq!(run.domains_live_peak, 6 * 5);
        assert_eq!(run.domains_live_final, run.domains_live_peak, "churn VEs all reaped");
        assert_eq!(run.ve_reaps, cfg.churn_ves as u64);
        // 6 residents + 40 churn VEs over a 32-VMID space must recycle.
        assert!(run.vmid_recycles >= 14, "recycles = {}", run.vmid_recycles);
        assert!(run.vmid_rollovers >= 1, "rollovers = {}", run.vmid_rollovers);
        assert!(run.rollover_shootdowns >= run.vmid_recycles, "every recycle shoots down");
        assert_eq!(run.requests, 24);
        assert_eq!(run.switch_cycles.samples, 24);
        assert_eq!(run.request_latency.samples, 24);
    }

    #[test]
    fn switch_and_service_cycles_are_sane() {
        let run = run_fleet(&FleetConfig::smoke(1));
        // A calibrated gate switch costs tens-to-hundreds of cycles...
        assert!(run.switch_cycles.p50 >= 20, "switch p50 = {}", run.switch_cycles.p50);
        assert!(run.switch_cycles.p50 <= 10_000, "switch p50 = {}", run.switch_cycles.p50);
        // ...and a request (switches + syscalls + touches) much more.
        assert!(run.service_cycles.p50 > run.switch_cycles.p50);
        // Each open-loop latency sample is wait + service of the same
        // request, so the latency distribution dominates service.
        assert!(run.request_latency.p50 >= run.service_cycles.p50);
        assert!(run.request_latency.p999 >= run.request_latency.p50);
    }

    #[test]
    fn four_core_wave_drain_matches_replay() {
        // The epoch wave drain must produce byte-identical results on
        // the parallel and the sequential-replay executor. Flipping the
        // global default mid-suite is safe: the backends are
        // semantically identical, which is exactly what this asserts.
        let cfg = FleetConfig::smoke(4);
        let prior = lz_machine::default_parallel();
        lz_machine::set_default_parallel(true);
        let a = run_fleet(&cfg);
        lz_machine::set_default_parallel(false);
        let b = run_fleet(&cfg);
        lz_machine::set_default_parallel(prior);
        assert_eq!(a, b, "parallel and replay wave drains diverged");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn four_core_overlay_waits_less() {
        // Same measured services, four queues instead of one: the
        // open-loop tail must not get worse.
        let one = run_fleet(&FleetConfig::smoke(1));
        let four = run_fleet(&FleetConfig::smoke(4));
        assert!(
            four.request_latency.p99 <= one.request_latency.p99.saturating_mul(4),
            "4-core p99 {} vs 1-core p99 {}",
            four.request_latency.p99,
            one.request_latency.p99
        );
        assert_eq!(four.domains_live_peak, one.domains_live_peak);
    }
}
