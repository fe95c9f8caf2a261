//! Chaos-driven crash-recovery soak.
//!
//! One LightZone instance serves a fleet of infinite request-server VEs
//! on the multi-core epoch executor while the chaos engine injects
//! `ve_crash`, `snapshot_corrupt`, and `restart_storm` faults. The
//! [`crate::supervisor`] state machine turns every death into a typed
//! [`FaultReport`] and decides kill → backoff → warm-restart →
//! quarantine; warm restarts rebuild the VE from its last
//! request-boundary [`VeSnapshot`] under a fresh generation-tagged
//! VMID/ASID, and admission control sheds restarts with typed denials
//! when a core's ready queue is full.
//!
//! Every number is integer arithmetic over seeded streams: two runs of
//! the same [`RecoveryConfig`] produce byte-identical [`RecoveryRun`]s,
//! on both the parallel and the sequential-replay epoch backend (all
//! chaos consultations happen barrier-side on the main thread).
//!
//! Invariants are checked *across every restart*, not just at the end:
//!
//! - live (VMID, stage-2 root) pairs stay unique after each restart;
//! - layer counters agree (module `ve_restores` == supervisor warm
//!   restarts, `snapshot_rejects` == corrupt images refused) and only
//!   ever grow;
//! - every injected fault is contained;
//! - after the final reap the frame allocator is back to its pre-spawn
//!   baseline — a leaked frame anywhere in 10k faults' worth of
//!   kill/reap/restore traffic fails the run;
//! - priority journal events (violations, chaos faults) survive
//!   drop-oldest eviction.

use crate::hist::{LatSummary, Log2Hist};
use crate::load::Lcg;
use crate::supervisor::{FaultKind, FaultReport, Supervisor, SupervisorConfig, TenantState, Verdict};
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::gate::layout;
use lightzone::module::VeSnapshot;
use lightzone::{LightZone, SECURITY_KILL};
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::kvm::VmidAllocator;
use lz_kernel::{Pid, Sysno, VmProt};
use lz_machine::{EventKind, Exit, FaultPlan, FaultSite};
use std::collections::VecDeque;

const CODE: u64 = 0x40_0000;
const SEQ_BASE: u64 = 0x2000_0000;
/// The request counter lives at `RESULTS_BASE`; the watchdog reads it
/// back after every epoch to detect progress.
const RESULTS_BASE: u64 = 0x2800_0000;
const ARENA_BASE: u64 = 0x3000_0000;

/// Gate switches per request; [`PAIRS`] must be a multiple.
const SWITCHES: u16 = 2;
/// Length of the precomputed switch sequence (wrapped by the guest).
const PAIRS: u64 = 32;
/// Instructions per epoch (same quantum as the fleet wave drain).
const QUANTUM: u64 = 16_384;
/// Epochs between invariant probes (restarts probe unconditionally).
const PROBE_EVERY: u64 = 64;

/// One recovery-soak configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    pub platform: Platform,
    pub cores: usize,
    /// Tenant slots; slot `s` is pinned to core `s % cores`, and slot 0
    /// runs a deterministically wedging server (it completes
    /// `stuck_after` requests, then spins without progress) so the
    /// watchdog → strikes → quarantine path always fires.
    pub tenants: usize,
    pub domains_per_tenant: usize,
    pub seed: u64,
    /// Run until the chaos engine has injected this many faults.
    pub target_faults: u64,
    /// Chaos fire rate (one fire per `rate` consultations on average).
    pub chaos_rate: u64,
    /// Shrunken VMID space so warm restarts cross generation recycling.
    pub vmid_space: Option<u16>,
    /// Requests between snapshot refreshes at request boundaries.
    pub snapshot_every: u64,
    /// Requests the designated stuck tenant completes before wedging.
    pub stuck_after: u64,
    pub sup: SupervisorConfig,
}

impl RecoveryConfig {
    /// The BENCH_recovery configuration: ≥10k injected faults over a
    /// 12-slot fleet with a 512-VMID space (warm restarts recycle).
    pub fn paper(platform: Platform, cores: usize) -> Self {
        RecoveryConfig {
            platform,
            cores,
            tenants: 12,
            domains_per_tenant: 4,
            seed: 0x5ec0_7e51,
            target_faults: 10_000,
            chaos_rate: 16,
            vmid_space: Some(512),
            snapshot_every: 4,
            stuck_after: 2,
            sup: SupervisorConfig::default(),
        }
    }

    /// A seconds-scale configuration for unit tests.
    pub fn smoke(cores: usize) -> Self {
        RecoveryConfig {
            platform: Platform::Carmel,
            cores,
            tenants: 6,
            domains_per_tenant: 2,
            seed: 0x5ec0_7e51,
            target_faults: 300,
            chaos_rate: 8,
            vmid_space: Some(32),
            snapshot_every: 4,
            stuck_after: 2,
            sup: SupervisorConfig {
                watchdog_budget: 40_000,
                // Three slots share a core: depth 2 guarantees the
                // admission path sheds under a full house.
                max_queue_depth: 2,
                ..Default::default()
            },
        }
    }
}

/// One complete soak's results (all integers, all deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRun {
    pub cores: usize,
    pub tenants: u64,
    pub seed: u64,
    pub epochs: u64,
    pub requests: u64,
    /// Generation-initial starts (first admission, quarantine
    /// replacements) — not recoveries.
    pub spawns: u64,
    pub faults_injected: u64,
    pub faults_contained: u64,
    pub ve_crashes: u64,
    pub watchdog_kills: u64,
    pub missed_epochs: u64,
    pub snapshot_corruptions: u64,
    pub warm_restarts: u64,
    pub cold_restarts: u64,
    pub denials: u64,
    pub storm_compressions: u64,
    pub strikes: u64,
    pub quarantines: u64,
    pub snapshots_taken: u64,
    pub vmid_recycles: u64,
    pub rollover_shootdowns: u64,
    pub priority_events: u64,
    pub invariant_violations: u64,
    /// Fault detection → successful restart, in epochs.
    pub recovery_epochs: LatSummary,
}

impl RecoveryRun {
    /// One JSON object, keys in a fixed order (byte-deterministic).
    pub fn json(&self) -> String {
        format!(
            concat!(
                "{{\"cores\": {}, \"tenants\": {}, \"seed\": {}, ",
                "\"epochs\": {}, \"requests\": {}, \"spawns\": {}, ",
                "\"faults_injected\": {}, \"faults_contained\": {}, ",
                "\"ve_crashes\": {}, \"watchdog_kills\": {}, ",
                "\"missed_epochs\": {}, \"snapshot_corruptions\": {}, ",
                "\"warm_restarts\": {}, \"cold_restarts\": {}, ",
                "\"denials\": {}, \"storm_compressions\": {}, ",
                "\"strikes\": {}, \"quarantines\": {}, ",
                "\"snapshots_taken\": {}, \"vmid_recycles\": {}, ",
                "\"rollover_shootdowns\": {}, \"priority_events\": {}, ",
                "\"invariant_violations\": {}, \"recovery_epochs\": {}}}"
            ),
            self.cores,
            self.tenants,
            self.seed,
            self.epochs,
            self.requests,
            self.spawns,
            self.faults_injected,
            self.faults_contained,
            self.ve_crashes,
            self.watchdog_kills,
            self.missed_epochs,
            self.snapshot_corruptions,
            self.warm_restarts,
            self.cold_restarts,
            self.denials,
            self.storm_compressions,
            self.strikes,
            self.quarantines,
            self.snapshots_taken,
            self.vmid_recycles,
            self.rollover_shootdowns,
            self.priority_events,
            self.invariant_violations,
            self.recovery_epochs.json(),
        )
    }
}

/// Build one infinite request-server guest.
///
/// Register map (x0–x8 are syscall-clobbered): x17 gate target, x19
/// arena page, x20 results base, x21 sequence cursor, x22 request
/// counter (stored to `RESULTS_BASE` at every boundary), x23 switch
/// countdown, x24 sequence-wrap countdown, x25 stuck countdown.
fn server_prog(domains: usize, seq_seed: u64, stuck_after: Option<u64>) -> LzProgram {
    let mut lcg = Lcg::new(seq_seed);
    let mut seq = Vec::with_capacity(PAIRS as usize * 16);
    for _ in 0..PAIRS {
        let d = lcg.below(domains as u64);
        seq.extend_from_slice(&layout::gate_va(d as u16).to_le_bytes());
        seq.extend_from_slice(&(ARENA_BASE + d * PAGE_SIZE).to_le_bytes());
    }

    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, seq, VmProt::R);
    b.with_segment(RESULTS_BASE, vec![0u8; PAGE_SIZE as usize], VmProt::RW);
    b.with_segment(ARENA_BASE, vec![0u8; domains * PAGE_SIZE as usize], VmProt::RW);

    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..domains as u64 {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA_BASE + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
    b.asm.mov_imm64(20, RESULTS_BASE);
    b.asm.mov_imm64(21, SEQ_BASE);
    b.asm.mov_imm64(22, 0);
    b.asm.mov_imm64(24, PAIRS);
    if stuck_after.is_some() {
        b.asm.mov_imm64(25, stuck_after.unwrap_or(0) + 1);
    }
    let req_top = b.asm.label();
    b.asm.bind(req_top);
    if stuck_after.is_some() {
        // After `stuck_after` completed requests: wedge forever without
        // advancing the boundary counter — watchdog bait.
        let healthy = b.asm.label();
        b.asm.subs_imm(25, 25, 1);
        b.asm.b_ne(healthy);
        let spin = b.asm.label();
        b.asm.bind(spin);
        b.asm.b(spin);
        b.asm.bind(healthy);
    }
    // Request boundary: publish the counter, then serve the request.
    b.asm.add_imm(22, 22, 1);
    b.asm.str(22, 20, 0);
    b.asm.mov_imm64(23, SWITCHES as u64);
    let sw_top = b.asm.label();
    b.asm.bind(sw_top);
    b.asm.ldr(17, 21, 0);
    b.asm.ldr(19, 21, 8);
    b.asm.add_imm(21, 21, 16);
    b.asm.blr(17);
    let entry = b.here(); // the single ENTRY shared by every gate
    b.asm.ldr(1, 19, 0);
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(sw_top);
    // One kernel round trip per request: the trap is where `ve_crash`
    // consultations happen.
    b.asm.mov_imm64(8, Sysno::Gettid.nr());
    b.asm.svc(0);
    // Wrap the switch sequence when its pairs run out.
    let no_wrap = b.asm.label();
    b.asm.subs_imm(24, 24, SWITCHES);
    b.asm.b_ne(no_wrap);
    b.asm.mov_imm64(21, SEQ_BASE);
    b.asm.mov_imm64(24, PAIRS);
    b.asm.bind(no_wrap);
    b.asm.b(req_top);
    for g in 0..domains as u16 {
        b.register_gate_entry(g, entry);
    }
    b.build()
}

/// Read one u64 from a live guest's memory; 0 if never populated.
fn read_guest_u64(lz: &LightZone, pid: Pid, va: u64) -> u64 {
    let Some(pa) = lz.kernel.process(pid).mm.page_at(va & !(PAGE_SIZE - 1)) else {
        return 0;
    };
    lz.kernel.machine.mem.read_u64(pa + (va & (PAGE_SIZE - 1))).unwrap_or(0)
}

/// Everything the soak tracks per tenant slot, outside the supervisor.
struct Slot {
    prog: LzProgram,
    pid: Option<Pid>,
    snapshot: Option<VeSnapshot>,
    /// Last request-counter value the watchdog observed.
    last_req: u64,
    /// Request-counter value at the last snapshot refresh.
    last_snap_req: u64,
    /// A fault happened and the next successful start is a *recovery*
    /// (counted and latency-tracked), not a generation-initial spawn.
    recovering: bool,
}

/// Monotonic cross-layer counters sampled by the continuity probe.
fn counter_sample(lz: &LightZone) -> [u64; 5] {
    let fleet = lz.fleet_section();
    [
        fleet.get("ve_restores").unwrap_or(0),
        fleet.get("snapshot_rejects").unwrap_or(0),
        lz.module.reaps(),
        lz.kernel.machine.chaos.faults_injected,
        lz.kernel.vmids.recycles(),
    ]
}

/// Execute one full recovery soak.
pub fn run_recovery(cfg: &RecoveryConfig) -> RecoveryRun {
    assert!(cfg.cores >= 1 && cfg.tenants >= 1 && cfg.domains_per_tenant >= 1);
    let mut lz = LightZone::new_host(cfg.platform);
    // The priority-lane invariant reads the journal, so the soak records
    // it whatever `LZ_METRICS` says.
    lz.kernel.machine.set_metrics(true);
    if let Some(space) = cfg.vmid_space {
        lz.kernel.vmids = VmidAllocator::with_space(space);
    }
    if cfg.cores > 1 {
        lz.kernel.machine.configure_smp(cfg.cores);
    }
    let frame_baseline = lz.kernel.machine.mem.allocated_frames();
    lz.kernel.machine.chaos.install(
        FaultPlan::new(cfg.seed)
            .with_sites(&[FaultSite::VeCrash, FaultSite::SnapshotCorrupt, FaultSite::RestartStorm])
            .with_rate(cfg.chaos_rate),
    );

    let mut sup = Supervisor::new(cfg.sup, cfg.tenants);
    let mut slots: Vec<Slot> = (0..cfg.tenants)
        .map(|s| Slot {
            prog: server_prog(
                cfg.domains_per_tenant,
                cfg.seed ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9),
                if s == 0 { Some(cfg.stuck_after) } else { None },
            ),
            pid: None,
            snapshot: None,
            last_req: 0,
            last_snap_req: 0,
            recovering: false,
        })
        .collect();
    let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); cfg.cores];
    // Which slot's live register state currently sits on each core.
    // Cores are multiplexed round-robin, so every swap parks the
    // incumbent (save to its context) before `schedule_to` loads the
    // next VE through the costed scheduling path.
    let mut occupant: Vec<Option<usize>> = vec![None; cfg.cores];

    let mut epoch = 0u64;
    let mut requests = 0u64;
    let mut spawns = 0u64;
    let mut warm_restarts = 0u64;
    let mut cold_restarts = 0u64;
    let mut snapshots_taken = 0u64;
    let mut violations = 0u64;
    let mut recovery_hist = Log2Hist::new();
    let mut last_sample = counter_sample(&lz);
    let epoch_cap = cfg.target_faults.saturating_mul(100).max(10_000);

    // Invariant probe: (VMID, stage-2 root) pairs unique among live
    // VEs, cross-layer counters agree and only grow, faults contained.
    let probe = |lz: &LightZone, last: &mut [u64; 5], warm: u64, corrupt: u64, violations: &mut u64| {
        let mut live: Vec<(Pid, u16, u64)> = lz.module.live_ves().collect();
        live.sort_unstable();
        for w in 0..live.len() {
            for v in w + 1..live.len() {
                if live[w].1 == live[v].1 || live[w].2 == live[v].2 {
                    *violations += 1;
                }
            }
        }
        let now = counter_sample(lz);
        if now.iter().zip(last.iter()).any(|(n, l)| n < l) {
            *violations += 1;
        }
        *last = now;
        if now[0] != warm || now[1] != corrupt {
            *violations += 1;
        }
        let c = &lz.kernel.machine.chaos;
        if c.faults_contained != c.faults_injected {
            *violations += 1;
        }
    };

    while lz.kernel.machine.chaos.faults_injected < cfg.target_faults && epoch < epoch_cap {
        epoch += 1;

        // Admit tenants whose backoff expired, in slot order. A full
        // core queue sheds the attempt with a typed denial.
        for s in 0..cfg.tenants {
            let TenantState::Backoff { until } = sup.ledger(s).state else {
                continue;
            };
            if until > epoch || slots[s].pid.is_some() {
                continue;
            }
            let core = s % cfg.cores;
            if sup.try_admit(s, core, ready[core].len(), epoch).is_err() {
                continue;
            }
            // Warm path: restore from the last request-boundary
            // snapshot under a fresh generation-tagged VMID/ASID. The
            // `snapshot_corrupt` site flips one byte first; the digest
            // check then refuses the image fail-closed and the tenant
            // retries cold after another strike's backoff.
            lz.kernel.machine.switch_core(core);
            if let Some(prev) = occupant[core].take() {
                // Restore rebuilds its VE on this core; park the
                // incumbent's registers first.
                if let Some(prev_pid) = slots[prev].pid {
                    lz.kernel.set_current(prev_pid);
                    lz.kernel.save_current();
                    lz.kernel.clear_current();
                }
            }
            if slots[s].snapshot.is_some() {
                if let Some(draw) = lz.kernel.machine.chaos_fire(FaultSite::SnapshotCorrupt) {
                    lz.kernel.machine.chaos.contained();
                    if let Some(snap) = slots[s].snapshot.as_mut() {
                        snap.x[(draw % 31) as usize] ^= 1;
                    }
                }
            }
            let mut warm = false;
            let pid = match slots[s].snapshot.as_ref().map(|snap| lz.restore_ve(&slots[s].prog, snap)) {
                Some(Some(pid)) => {
                    warm = true;
                    Some(pid)
                }
                Some(None) => {
                    // Refused image: drop it, report the typed fault.
                    slots[s].snapshot = None;
                    slots[s].recovering = true;
                    let report = FaultReport { slot: s, kind: FaultKind::SnapshotCorrupt, epoch };
                    let storm = lz.kernel.machine.chaos_fire(FaultSite::RestartStorm).is_some();
                    if storm {
                        lz.kernel.machine.chaos.contained();
                    }
                    if sup.on_fault(report, storm) == Verdict::Quarantine {
                        sup.replace(s, epoch);
                    }
                    None
                }
                None => Some(lz.spawn(&slots[s].prog)),
            };
            let Some(pid) = pid else { continue };
            let req = read_guest_u64(&lz, pid, RESULTS_BASE);
            slots[s].pid = Some(pid);
            slots[s].last_req = req;
            slots[s].last_snap_req = req;
            ready[core].push_back(s);
            if slots[s].recovering {
                slots[s].recovering = false;
                let lat = epoch.saturating_sub(sup.ledger(s).fault_epoch).max(1);
                recovery_hist.record(lat);
                if warm {
                    warm_restarts += 1;
                } else {
                    cold_restarts += 1;
                }
            } else {
                spawns += 1;
            }
            probe(&lz, &mut last_sample, warm_restarts, sup.stats.snapshot_corruptions, &mut violations);
        }

        // Schedule: one ready tenant per core, round-robin. Swapping
        // the incumbent out goes through park (save to context) +
        // `schedule_to` (the costed VE scheduling path).
        let mut budgets = vec![0u64; cfg.cores];
        let mut sched: Vec<Option<usize>> = vec![None; cfg.cores];
        for core in 0..cfg.cores {
            let Some(s) = ready[core].pop_front() else { continue };
            let Some(pid) = slots[s].pid else { continue };
            if occupant[core] != Some(s) {
                lz.kernel.machine.switch_core(core);
                if let Some(prev) = occupant[core].take() {
                    if let Some(prev_pid) = slots[prev].pid {
                        lz.kernel.set_current(prev_pid);
                        lz.kernel.save_current();
                        lz.kernel.clear_current();
                    }
                }
                lz.schedule_to(pid);
                lz.kernel.clear_current();
                occupant[core] = Some(s);
            }
            sched[core] = Some(s);
            budgets[core] = QUANTUM;
        }
        if budgets.iter().all(|&b| b == 0) {
            continue; // everyone is backing off; let the clock run
        }
        let results = lz.kernel.machine.run_epoch(&budgets);

        // Barrier: service traps, detect deaths, feed the watchdog —
        // in core order, so both epoch backends agree byte-for-byte.
        for core in 0..cfg.cores {
            let Some(s) = sched[core] else { continue };
            let Some(pid) = slots[s].pid else { continue };
            let (exit, used) = results[core];
            let deadline_blown = sup.on_insns(s, used);
            let mut dead = false;
            if exit != Exit::Limit {
                lz.kernel.machine.switch_core(core);
                lz.kernel.set_current(pid);
                dead = lz.dispatch_exit(exit).is_some();
                lz.kernel.clear_current();
            }
            let mut fault: Option<FaultKind> = None;
            if dead {
                // The VE died mid-request (injected crash / violation /
                // contained host panic): already exited, just reap.
                fault = Some(FaultKind::Crash);
            } else {
                let req = read_guest_u64(&lz, pid, RESULTS_BASE);
                if req > slots[s].last_req {
                    let delta = req - slots[s].last_req;
                    slots[s].last_req = req;
                    requests += delta;
                    sup.on_progress(s, delta);
                    if req - slots[s].last_snap_req >= cfg.snapshot_every {
                        // Request boundary: refresh the warm-restart
                        // image from the parked register file.
                        lz.kernel.machine.switch_core(core);
                        lz.kernel.set_current(pid);
                        lz.kernel.save_current();
                        lz.kernel.clear_current();
                        if let Some(snap) = lz.snapshot_ve(pid) {
                            slots[s].snapshot = Some(snap);
                            slots[s].last_snap_req = req;
                            snapshots_taken += 1;
                        }
                    }
                } else if deadline_blown {
                    fault = Some(FaultKind::WatchdogDeadline);
                } else if exit == Exit::Limit && used == 0 {
                    // A scheduled shell that neither trapped nor
                    // retired a single instruction is wedged. (A
                    // serviced trap with zero retirement is normal —
                    // that is just demand paging.)
                    fault = Some(FaultKind::MissedEpoch);
                }
                if fault.is_some() {
                    // Live but wedged: the watchdog kills it.
                    lz.kernel.machine.switch_core(core);
                    lz.kernel.set_current(pid);
                    lz.kernel.kill_current(SECURITY_KILL);
                }
            }
            match fault {
                None => ready[core].push_back(s),
                Some(kind) => {
                    if !lz.reap(pid) {
                        violations += 1;
                    }
                    slots[s].pid = None;
                    if occupant[core] == Some(s) {
                        occupant[core] = None;
                    }
                    slots[s].recovering = true;
                    let storm = lz.kernel.machine.chaos_fire(FaultSite::RestartStorm).is_some();
                    if storm {
                        lz.kernel.machine.chaos.contained();
                    }
                    if sup.on_fault(FaultReport { slot: s, kind, epoch }, storm) == Verdict::Quarantine {
                        slots[s].snapshot = None;
                        slots[s].recovering = false;
                        sup.replace(s, epoch);
                    }
                }
            }
        }

        if epoch % PROBE_EVERY == 0 {
            probe(&lz, &mut last_sample, warm_restarts, sup.stats.snapshot_corruptions, &mut violations);
        }
    }

    // Drain: kill and reap every live VE, then check exact frame
    // accounting — after 10k faults' worth of kill/reap/restore churn
    // the allocator must be byte-for-byte back at its baseline.
    for s in 0..cfg.tenants {
        let Some(pid) = slots[s].pid.take() else { continue };
        lz.kernel.machine.switch_core(s % cfg.cores);
        lz.kernel.set_current(pid);
        lz.kernel.kill_current(SECURITY_KILL);
        if !lz.reap(pid) {
            violations += 1;
        }
    }
    lz.kernel.machine.switch_core(0);
    probe(&lz, &mut last_sample, warm_restarts, sup.stats.snapshot_corruptions, &mut violations);
    if lz.kernel.machine.mem.allocated_frames() != frame_baseline {
        violations += 1;
    }
    let priority_events =
        lz.kernel.machine.journal.count(|e| matches!(e, EventKind::Violation { .. } | EventKind::Fault { .. }));
    if sup.stats.crashes > 0 && priority_events == 0 {
        violations += 1; // the priority lane must survive eviction
    }

    RecoveryRun {
        cores: cfg.cores,
        tenants: cfg.tenants as u64,
        seed: cfg.seed,
        epochs: epoch,
        requests,
        spawns,
        faults_injected: lz.kernel.machine.chaos.faults_injected,
        faults_contained: lz.kernel.machine.chaos.faults_contained,
        ve_crashes: sup.stats.crashes,
        watchdog_kills: sup.stats.watchdog_kills,
        missed_epochs: sup.stats.missed_epochs,
        snapshot_corruptions: sup.stats.snapshot_corruptions,
        warm_restarts,
        cold_restarts,
        denials: sup.stats.denials,
        storm_compressions: sup.stats.storm_compressions,
        strikes: sup.stats.strikes_total,
        quarantines: sup.stats.quarantines,
        snapshots_taken,
        vmid_recycles: lz.kernel.vmids.recycles(),
        rollover_shootdowns: lz.kernel.stats.rollover_shootdowns + lz.module.rollover_shootdowns,
        priority_events,
        invariant_violations: violations,
        recovery_epochs: LatSummary::of(&recovery_hist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_is_deterministic() {
        let cfg = RecoveryConfig::smoke(2);
        let a = run_recovery(&cfg);
        let b = run_recovery(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.json(), b.json());
    }

    #[test]
    fn smoke_soak_meets_the_floors() {
        let run = run_recovery(&RecoveryConfig::smoke(2));
        assert_eq!(run.invariant_violations, 0, "invariants held across every restart");
        assert!(run.faults_injected >= 300, "faults = {}", run.faults_injected);
        assert_eq!(run.faults_contained, run.faults_injected, "every fault contained");
        assert!(run.ve_crashes >= 20, "crashes = {}", run.ve_crashes);
        assert!(run.warm_restarts >= 10, "warm restarts = {}", run.warm_restarts);
        assert!(run.quarantines >= 1, "the wedged tenant must strike out");
        assert!(run.watchdog_kills >= 1, "the wedged tenant dies by watchdog");
        assert!(run.denials >= 1, "admission control must shed at least once");
        assert!(run.snapshots_taken >= run.warm_restarts, "every warm restart has an image");
        assert!(run.priority_events >= 1, "fault events survive journal eviction");
        assert!(run.recovery_epochs.samples == run.warm_restarts + run.cold_restarts);
        assert!(run.recovery_epochs.p50 >= 1);
    }

    #[test]
    fn smoke_soak_matches_replay_backend() {
        let cfg = RecoveryConfig::smoke(2);
        let prior = lz_machine::default_parallel();
        lz_machine::set_default_parallel(true);
        let a = run_recovery(&cfg);
        lz_machine::set_default_parallel(false);
        let b = run_recovery(&cfg);
        lz_machine::set_default_parallel(prior);
        assert_eq!(a, b, "parallel and replay soaks diverged");
        assert_eq!(a.json(), b.json());
    }
}
