//! `fleet_serve` and `fleet_smp`: the resident phase of `lz_fleet`'s
//! fleet run — 64 tenants x (32 + 1) domains, tenants alternating the
//! httpd and oltp request shapes — driven from outside.
//!
//! On one core each tenant runs to completion in turn, and one op is one
//! request: from the request's first `CLOCK_GETTIME` trap to its last.
//! On two cores each wave of two tenants drains on the epoch executor,
//! and one op is one epoch plus its barrier-side exit dispatches.
//!
//! The tenant program is `lz_fleet`'s, except that its results ring
//! grows with the request count (`lz_fleet` caps a tenant at one page,
//! 255 requests); up to 255 requests the two programs are identical.

use crate::clock::Bench;
use crate::harness;
use crate::trace::{Boundary, Tracer};
use crate::Round;
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::gate::layout;
use lightzone::LightZone;
use lz_arch::{Platform, PAGE_SIZE};
use lz_fleet::{LatSummary, Lcg, Log2Hist, OpenLoop};
use lz_kernel::{Event, Pid, Sysno, VmProt};
use lz_machine::Exit;
use lz_workloads::FleetShape;

pub const PLATFORM: Platform = Platform::Carmel;
const CODE: u64 = 0x40_0000;
const SEQ_BASE: u64 = 0x2000_0000;
const RESULTS_BASE: u64 = 0x2800_0000;
const ARENA_BASE: u64 = 0x3000_0000;
const RUN_LIMIT: u64 = 400_000_000;
/// Instructions per core per epoch, as in `lz_fleet`'s wave drain.
const FLEET_QUANTUM: u64 = 16_384;
const CLOCK: u64 = Sysno::ClockGettime.nr();
/// Clock traps before the first request: two calibration reads.
const CALIBRATION_READS: u64 = 2;
/// Clock traps per request: start, after the switches, end.
const READS_PER_REQUEST: u64 = 3;
/// Tenants replayed through the `LightZone` façade to check each round.
const REFERENCE_TENANTS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    pub cores: usize,
    pub tenants: usize,
    pub domains: usize,
    pub requests: usize,
    pub arrival_gap_mean: u64,
}

impl FleetConfig {
    pub const SERVE: FleetConfig =
        FleetConfig { cores: 1, tenants: 64, domains: 32, requests: 1024, arrival_gap_mean: 40_000 };
    pub const SMP: FleetConfig = FleetConfig { cores: 2, requests: 192, ..FleetConfig::SERVE };
}

fn shape(t: usize) -> FleetShape {
    [lz_workloads::httpd::fleet_shape(), lz_workloads::oltp::fleet_shape()][t % 2]
}

/// `lz_fleet`'s tenant program. Register map: x17 gate target, x19
/// current arena page, x20 results cursor, x21 sequence cursor, x22
/// request counter, x23 switch counter, x24 request t0, x25
/// calibration, x26 switch-section delta, x27 request delta.
pub fn tenant_prog(shape: FleetShape, domains: usize, requests: usize, seq_seed: u64) -> LzProgram {
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
    let results_pages = (8 + requests * 16).div_ceil(PAGE_SIZE as usize);

    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, seq, VmProt::R);
    b.with_segment(RESULTS_BASE, vec![0u8; results_pages * PAGE_SIZE as usize], VmProt::RW);
    b.with_segment(ARENA_BASE, vec![0u8; domains * PAGE_SIZE as usize], VmProt::RW);

    let a = &mut b.asm;
    a.lz_enter(true, SAN_TTBR);
    for d in 0..domains as u64 {
        a.lz_alloc();
        a.lz_map_gate_pgt_imm(d + 1, d);
        a.lz_prot_imm(ARENA_BASE + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
    // Warm the sequence pages; arena pages stay cold, so their first
    // touches fault inside requests.
    a.mov_imm64(21, SEQ_BASE);
    a.mov_imm64(23, seq_pages);
    let warm = a.label();
    a.bind(warm);
    a.ldr(1, 21, 0);
    a.add_imm(21, 21, 4095);
    a.add_imm(21, 21, 1);
    a.subs_imm(23, 23, 1);
    a.b_ne(warm);
    // Calibration: two back-to-back clock reads price one clock trap.
    a.mov_imm64(20, RESULTS_BASE);
    a.mov_imm64(8, CLOCK);
    a.svc(0);
    a.mov_reg(24, 0);
    a.mov_imm64(8, CLOCK);
    a.svc(0);
    a.sub_reg(25, 0, 24);
    a.str(25, 20, 0);
    a.add_imm(20, 20, 8);
    a.mov_imm64(21, SEQ_BASE);
    a.mov_imm64(22, requests as u64);
    let req_top = a.label();
    a.bind(req_top);
    a.mov_imm64(8, CLOCK);
    a.svc(0);
    a.mov_reg(24, 0);
    a.mov_imm64(23, switches as u64);
    let sw_top = a.label();
    a.bind(sw_top);
    a.ldr(17, 21, 0);
    a.ldr(19, 21, 8);
    a.add_imm(21, 21, 16);
    a.blr(17);
    let entry = a.here(); // the ENTRY every gate shares
    a.ldr(1, 19, 0);
    a.subs_imm(23, 23, 1);
    a.b_ne(sw_top);
    a.mov_imm64(8, CLOCK);
    a.svc(0);
    a.sub_reg(26, 0, 24);
    let tid = Sysno::Gettid.nr();
    for _ in 0..shape.syscalls_per_request {
        a.mov_imm64(8, tid);
        a.svc(0);
    }
    for j in 0..shape.arena_touches as u64 {
        a.ldr(1, 19, (j * 64) % PAGE_SIZE);
    }
    a.mov_imm64(8, CLOCK);
    a.svc(0);
    a.sub_reg(27, 0, 24);
    a.str(26, 20, 0);
    a.str(27, 20, 8);
    a.add_imm(20, 20, 16);
    a.subs_imm(22, 22, 1);
    a.b_ne(req_top);
    a.exit_imm(0);
    for g in 0..domains as u16 {
        b.register_gate_entry(g, entry);
    }
    b.build()
}

fn tenant_seed(fleet_seed: u64, t: usize) -> u64 {
    fleet_seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9)
}

/// Modelled per-request results: `(cycles per gate switch, service
/// cycles)`, derived from the guest's own clock reads as `lz_fleet` does.
#[derive(Debug, Default)]
struct Recorder {
    switch_hist: Log2Hist,
    service_hist: Log2Hist,
    per_tenant: Vec<Vec<(u64, u64)>>,
}

impl Recorder {
    fn new(tenants: usize) -> Self {
        Recorder { per_tenant: vec![Vec::new(); tenants], ..Recorder::default() }
    }

    /// Read back request `r` of tenant `t` and record it.
    fn record(&mut self, lz: &LightZone, pid: Pid, t: usize, r: u64) {
        let calib = harness::read_guest_u64(lz, pid, RESULTS_BASE);
        let s = (shape(t).switches_per_request as u64).max(1);
        let sw = harness::read_guest_u64(lz, pid, RESULTS_BASE + 8 + r * 16);
        let rq = harness::read_guest_u64(lz, pid, RESULTS_BASE + 16 + r * 16);
        let switch = sw.saturating_sub(calib) / s;
        let service = rq.saturating_sub(2 * calib).max(1);
        self.switch_hist.record(switch);
        self.service_hist.record(service);
        self.per_tenant[t].push((switch, service));
    }
}

/// What a fleet round modelled, beside the host timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    pub switch: LatSummary,
    pub service: LatSummary,
    pub request: LatSummary,
    pub domains_live_peak: u64,
    /// `(switch, service)` of every request, per tenant.
    pub per_tenant: Vec<Vec<(u64, u64)>>,
}

fn spawn_tenant(lz: &mut LightZone, tr: &mut Tracer, prog: &LzProgram) -> Pid {
    let pid = harness::spawn(lz, tr, prog);
    // `schedule_to`: the previous tenant left the core in VE state.
    tr.span(Boundary::LzScheduleTo, || lz.schedule_to(pid));
    pid
}

fn insns_all(lz: &LightZone) -> u64 {
    let m = &lz.kernel.machine;
    (0..m.num_cores()).map(|i| m.core_cpu(i).insns).sum()
}

/// Run the resident phase of one fleet, timing ops into `bench`.
/// Failures go to `round`; its counters cover the measured phase.
pub fn serve(cfg: &FleetConfig, fleet_seed: u64, bench: &mut Bench, round: &mut Round) -> FleetOutcome {
    // Assembled during set-up; each is dropped once its tenant spawned.
    let progs: Vec<LzProgram> = (0..cfg.tenants)
        .map(|t| tenant_prog(shape(t), cfg.domains, cfg.requests, tenant_seed(fleet_seed, t)))
        .collect();
    let mut lz = LightZone::new_host(PLATFORM);
    if cfg.cores > 1 {
        lz.kernel.machine.configure_smp(cfg.cores);
    }
    harness::pin_engine(&mut lz.kernel.machine);
    let mut f = Fleet { cfg, lz, rec: Recorder::new(cfg.tenants), before: None, round };
    let mut tenants = progs.into_iter().enumerate().peekable();
    if cfg.cores == 1 {
        for (t, prog) in tenants {
            let pid = spawn_tenant(&mut f.lz, &mut bench.tr, &prog);
            drop(prog);
            f.serve_tenant(bench, t, pid);
        }
    } else {
        let n = cfg.cores;
        while tenants.peek().is_some() {
            let mut jobs: Vec<(usize, Pid, usize)> = Vec::with_capacity(n);
            for (t, prog) in tenants.by_ref().take(n) {
                f.lz.kernel.machine.switch_core(t % n);
                let pid = spawn_tenant(&mut f.lz, &mut bench.tr, &prog);
                f.lz.kernel.clear_current();
                jobs.push((t % n, pid, t));
            }
            f.drain_wave(bench, &jobs);
        }
        f.lz.kernel.machine.switch_core(0);
    }
    if let Some((raw, entries0)) = &f.before {
        f.round.counters =
            harness::layer_counters(raw, &harness::raw_lz(&f.lz), harness::entries(&bench.tr) - entries0);
    }
    FleetOutcome {
        switch: LatSummary::of(&f.rec.switch_hist),
        service: LatSummary::of(&f.rec.service_hist),
        request: overlay(cfg, fleet_seed, &f.rec.per_tenant),
        domains_live_peak: f.lz.module.domains_live(),
        per_tenant: f.rec.per_tenant,
    }
}

/// One fleet while its resident phase runs.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    lz: LightZone,
    rec: Recorder,
    /// Raw counters and machine entries when the first op began.
    before: Option<(harness::Raw, u64)>,
    round: &'a mut Round,
}

impl Fleet<'_> {
    fn op_begin(&mut self, bench: &mut Bench) {
        let lz = &self.lz;
        self.before.get_or_insert_with(|| (harness::raw_lz(lz), harness::entries(&bench.tr)));
        bench.op_begin(insns_all(lz));
    }

    /// One tenant on one core, to its exit. An op runs from a request's
    /// first clock trap to its last; request `r - 1` is read back inside
    /// request `r`'s op, the last one after the tenant exits.
    fn serve_tenant(&mut self, bench: &mut Bench, t: usize, pid: Pid) {
        let mut clocks = 0u64;
        let end = loop {
            let exit = bench.tr.span(Boundary::MachineRun, || self.lz.kernel.machine.run(RUN_LIMIT));
            if harness::is_ve_syscall(&self.lz.kernel.machine, exit, CLOCK) {
                clocks += 1;
                if let Some(j) = clocks.checked_sub(CALIBRATION_READS + 1) {
                    let (r, phase) = (j / READS_PER_REQUEST, j % READS_PER_REQUEST);
                    if phase == 0 {
                        self.op_begin(bench);
                        if r > 0 {
                            bench.tr.span(Boundary::FleetRecord, || self.rec.record(&self.lz, pid, t, r - 1));
                        }
                    } else if phase == READS_PER_REQUEST - 1 {
                        bench.op_end(insns_all(&self.lz));
                    }
                }
            }
            match harness::dispatch(&mut self.lz, &mut bench.tr, exit) {
                None | Some(Event::Limit) => {}
                Some(ev) => break ev,
            }
        };
        if bench.in_op() {
            bench.op_end(insns_all(&self.lz));
        }
        if end != Event::Exited(0) {
            self.round.fail(format!("tenant {t} ended with {end:?}"));
            return;
        }
        let want = CALIBRATION_READS + READS_PER_REQUEST * self.cfg.requests as u64;
        if clocks != want {
            self.round.fail(format!("tenant {t} made {clocks} clock reads, expected {want}"));
            return;
        }
        if let Some(last) = (self.cfg.requests as u64).checked_sub(1) {
            bench.tr.span(Boundary::FleetRecord, || self.rec.record(&self.lz, pid, t, last));
        }
    }

    /// One wave of tenants, one per core, drained in epochs. An op is one
    /// epoch plus its barrier-side dispatches; the op that ends the wave
    /// also reads its tenants back.
    fn drain_wave(&mut self, bench: &mut Bench, jobs: &[(usize, Pid, usize)]) {
        let mut done = vec![false; jobs.len()];
        let mut spent = vec![0u64; jobs.len()];
        while done.iter().any(|&d| !d) {
            self.op_begin(bench);
            let mut budgets = vec![0u64; self.cfg.cores];
            for (j, &(core, ..)) in jobs.iter().enumerate() {
                if !done[j] {
                    budgets[core] = FLEET_QUANTUM;
                }
            }
            let results = bench.tr.span(Boundary::MachineRunEpoch, || self.lz.kernel.machine.run_epoch(&budgets));
            for (j, &(core, pid, t)) in jobs.iter().enumerate() {
                if done[j] {
                    continue;
                }
                let (exit, used) = results[core];
                spent[j] += used;
                if spent[j] > RUN_LIMIT {
                    self.round.fail(format!("tenant {t} did not exit within {RUN_LIMIT} instructions"));
                    done[j] = true;
                    continue;
                }
                if exit == Exit::Limit {
                    continue;
                }
                self.lz.kernel.machine.switch_core(core);
                self.lz.kernel.set_current(pid);
                match harness::dispatch(&mut self.lz, &mut bench.tr, exit) {
                    None => {}
                    Some(Event::Exited(0)) => done[j] = true,
                    Some(ev) => {
                        self.round.fail(format!("tenant {t} ended with {ev:?}"));
                        done[j] = true;
                    }
                }
                self.lz.kernel.clear_current();
            }
            if done.iter().all(|&d| d) {
                bench.tr.span(Boundary::FleetRecord, || {
                    for &(_, pid, t) in jobs {
                        for r in 0..self.cfg.requests as u64 {
                            self.rec.record(&self.lz, pid, t, r);
                        }
                    }
                });
            }
            bench.op_end(insns_all(&self.lz));
        }
    }
}

/// `lz_fleet`'s open-loop overlay: seeded arrivals replayed against the
/// measured services on one queue per core.
fn overlay(cfg: &FleetConfig, fleet_seed: u64, per_tenant: &[Vec<(u64, u64)>]) -> LatSummary {
    let mut ol = OpenLoop::new(fleet_seed, cfg.arrival_gap_mean);
    let mut core_free = vec![0u64; cfg.cores];
    let mut hist = Log2Hist::new();
    for idx in 0..cfg.tenants * cfg.requests {
        let (t, r) = (idx % cfg.tenants, idx / cfg.tenants);
        let arrival = ol.next_arrival();
        let service = per_tenant[t].get(r).map_or(0, |&(_, s)| s);
        let core = t % cfg.cores;
        let start = arrival.max(core_free[core]);
        core_free[core] = start + service;
        hist.record(start - arrival + service);
    }
    LatSummary::of(&hist)
}

/// The first `tenants` tenants of a fleet, each run to exit through the
/// `LightZone` façade on one core, as `lz_fleet` runs them.
pub fn facade_reference(cfg: &FleetConfig, fleet_seed: u64, tenants: usize) -> Vec<Vec<(u64, u64)>> {
    let mut lz = LightZone::new_host(PLATFORM);
    harness::pin_engine(&mut lz.kernel.machine);
    let mut rec = Recorder::new(tenants);
    for t in 0..tenants {
        let pid = lz.spawn(&tenant_prog(shape(t), cfg.domains, cfg.requests, tenant_seed(fleet_seed, t)));
        lz.schedule_to(pid);
        if lz.run(RUN_LIMIT) != Event::Exited(0) {
            return Vec::new();
        }
        for r in 0..cfg.requests as u64 {
            rec.record(&lz, pid, t, r);
        }
    }
    rec.per_tenant
}

fn output_summary(round: &mut Round, name: &str, s: &LatSummary) {
    for (k, v) in [("p50", s.p50), ("p99", s.p99), ("p999", s.p999), ("max", s.max), ("mean", s.mean)] {
        round.output(&format!("{name}.{k}"), v);
    }
    round.output(&format!("{name}.samples"), s.samples);
}

pub fn run(cfg: &FleetConfig, seed: u64, bench: &mut Bench) -> Round {
    let fleet_seed = harness::mix(seed, 3);
    let mut round = Round::default();
    let out = serve(cfg, fleet_seed, bench, &mut round);
    // Every round checks its first tenants against the façade path on
    // one core: the split dispatch, and on two cores the epoch drain,
    // must give each request the same modelled cycles.
    let reference = facade_reference(cfg, fleet_seed, REFERENCE_TENANTS.min(cfg.tenants));
    if out.per_tenant.get(..reference.len()) != Some(&reference[..]) || reference.is_empty() {
        round.fail("per-request cycles differ from the one-core LightZone::run reference".into());
    }
    output_summary(&mut round, "switch", &out.switch);
    output_summary(&mut round, "service", &out.service);
    output_summary(&mut round, "request", &out.request);
    round.output("domains_live_peak", out.domains_live_peak);
    round
}
