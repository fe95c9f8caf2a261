//! Deterministic fault injection and typed fault propagation.
//!
//! Two related facilities live here:
//!
//! * [`LzFault`] — the typed error guest-reachable host paths return
//!   instead of panicking. A malformed guest state (corrupt descriptor,
//!   dangling fake address, exhausted ASID space) propagates outward as
//!   an `LzFault` until a layer that owns the offending virtual
//!   environment converts it into a precise guest-side consequence: a
//!   data abort, a gate rejection, or a VE kill. Host-logic invariants
//!   (states no guest input can reach) keep `panic!`.
//!
//! * [`FaultPlan`] / [`ChaosState`] — the seed-driven fault-injection
//!   engine. Injection points ("sites", [`FaultSite`]) are consulted at
//!   *modelled* events only — shootdown round trips, interpreted TLBIs,
//!   VE exits, scheduling slices — never on host-side cache paths, so a
//!   plan fires at identical points on both execution engines. Every
//!   decision comes from per-site LCG streams
//!   derived from the plan seed: a run under a given plan is
//!   byte-reproducible, and a recorded schedule can be replayed (and
//!   shrunk) through [`FaultPlan::only`].
//!
//! Faults must *fail closed*: an injected fault may kill the victim VE
//! or waste cycles (retries, rescans, extra invalidations), but may
//! never grant access a non-faulted run would deny. Each site's
//! handling is written to that rule; `lz-chaos`'s invariant checker
//! verifies it after every injected fault rather than trusting it.

use crate::rng::{lcg, splitmix64};
use std::collections::BTreeSet;

/// Typed fault for guest-reachable host paths.
///
/// Carries enough to build a precise guest exception or a violation
/// reason; [`LzFault::reason`] gives the static string journaled with
/// the resulting `Violation` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzFault {
    /// A walk or table-build step touched an unbacked physical frame.
    UnbackedFrame { pa: u64 },
    /// A descriptor had the wrong shape (e.g. a block where a table is
    /// required).
    BadDescriptor { pa: u64, desc: u64 },
    /// A fake physical address has no live real mapping.
    UnresolvedFake { fake: u64 },
    /// An address that must be block-aligned is not.
    Misaligned { addr: u64 },
    /// Per-process isolation state is missing for a process that should
    /// have it.
    MissingState { pid: u64 },
    /// A gate / page-table / thread identifier is out of range.
    BadHandle { id: u64 },
    /// The per-process ASID space is exhausted.
    AsidExhausted,
    /// A frame was freed twice (guest-driven teardown raced or a tree
    /// was corrupted).
    DoubleFree { pa: u64 },
    /// The host panicked inside a parallel epoch shell; the panic was
    /// caught at the shell boundary and converted into a kill of the VE
    /// that was running on that core.
    HostPanic,
}

impl LzFault {
    /// Static violation reason for the event journal.
    pub fn reason(&self) -> &'static str {
        match self {
            LzFault::UnbackedFrame { .. } => "fault: unbacked table frame",
            LzFault::BadDescriptor { .. } => "fault: malformed descriptor",
            LzFault::UnresolvedFake { .. } => "fault: dangling fake address",
            LzFault::Misaligned { .. } => "fault: misaligned block",
            LzFault::MissingState { .. } => "fault: missing LZ state",
            LzFault::BadHandle { .. } => "fault: bad identifier",
            LzFault::AsidExhausted => "fault: ASID space exhausted",
            LzFault::DoubleFree { .. } => "fault: double free",
            LzFault::HostPanic => "fault: host panic in epoch shell",
        }
    }
}

impl std::fmt::Display for LzFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzFault::UnbackedFrame { pa } => write!(f, "unbacked table frame at {pa:#x}"),
            LzFault::BadDescriptor { pa, desc } => write!(f, "malformed descriptor {desc:#x} at {pa:#x}"),
            LzFault::UnresolvedFake { fake } => write!(f, "fake address {fake:#x} does not resolve"),
            LzFault::Misaligned { addr } => write!(f, "misaligned block address {addr:#x}"),
            LzFault::MissingState { pid } => write!(f, "no LightZone state for pid {pid}"),
            LzFault::BadHandle { id } => write!(f, "identifier {id} out of range"),
            LzFault::AsidExhausted => write!(f, "ASID space exhausted"),
            LzFault::DoubleFree { pa } => write!(f, "double free of frame {pa:#x}"),
            LzFault::HostPanic => write!(f, "host panic caught at the epoch-shell boundary"),
        }
    }
}

impl std::error::Error for LzFault {}

/// Named injection points. Each maps to one paper-layer guarantee (see
/// DESIGN.md §11 for the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Corrupt (invalidate) one descriptor in the current VE's stage-1
    /// root frame. Contained by the stage-2 backstop: stage-1 tables
    /// hold only fake addresses, so no corruption can name a frame
    /// outside the VE's stage-2 view.
    PtwBitFlip,
    /// One IPI shootdown doorbell is lost; the ack-timeout protocol
    /// detects it and re-sends, so the invalidation still completes
    /// before the shootdown returns.
    ShootdownDrop,
    /// One shootdown is delivered twice; invalidation is idempotent.
    ShootdownDup,
    /// One shootdown ack is late; costs an extra round trip.
    ShootdownDelay,
    /// A spurious extra TLB invalidation. Dropping cached translations
    /// early can only cost walks, never widen access.
    TlbiSpurious,
    /// An interpreted TLBI is initially lost; the completing DSB
    /// detects the stall and the operation is re-issued.
    TlbiLost,
    /// The stage-2 fault handler aborts mid-walk: the faulting VE is
    /// killed rather than resumed with an unverified mapping.
    S2WalkAbort,
    /// Gate validation transiently fails: the switch is treated as an
    /// isolation violation (a false positive kills; it never admits).
    GateTransient,
    /// The sanitizer scan is interrupted mid-W^X-flip; the page stays
    /// unmapped and the scan restarts from scratch.
    SanitizerInterrupt,
    /// The scheduler preempts at an adversarially chosen instruction
    /// boundary (a shortened quantum).
    SchedPreempt,
    /// The running VE crashes mid-request (modelled guest wreckage).
    /// Contained by the kill path: the VE dies with a typed violation
    /// and the supervisor warm-restarts it; no other VE is touched.
    VeCrash,
    /// A snapshot image is corrupted in flight (one payload-chosen byte
    /// flipped). Contained by the digest check: restore rejects the
    /// image fail-closed and the supervisor falls back to a cold start.
    SnapshotCorrupt,
    /// A restart storm: backoff after a fault is compressed to its
    /// minimum. Contained by the strike ledger — the quarantine
    /// threshold still bounds total restarts per tenant.
    RestartStorm,
}

/// Every site, in a fixed order (stream derivation and reports index
/// into this). New sites are appended so existing seeds keep their
/// per-site streams.
pub const ALL_SITES: [FaultSite; 13] = [
    FaultSite::PtwBitFlip,
    FaultSite::ShootdownDrop,
    FaultSite::ShootdownDup,
    FaultSite::ShootdownDelay,
    FaultSite::TlbiSpurious,
    FaultSite::TlbiLost,
    FaultSite::S2WalkAbort,
    FaultSite::GateTransient,
    FaultSite::SanitizerInterrupt,
    FaultSite::SchedPreempt,
    FaultSite::VeCrash,
    FaultSite::SnapshotCorrupt,
    FaultSite::RestartStorm,
];

impl FaultSite {
    fn index(self) -> usize {
        ALL_SITES.iter().position(|&s| s == self).expect("site listed in ALL_SITES")
    }

    /// Stable name (journal events and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PtwBitFlip => "ptw_bit_flip",
            FaultSite::ShootdownDrop => "shootdown_drop",
            FaultSite::ShootdownDup => "shootdown_dup",
            FaultSite::ShootdownDelay => "shootdown_delay",
            FaultSite::TlbiSpurious => "tlbi_spurious",
            FaultSite::TlbiLost => "tlbi_lost",
            FaultSite::S2WalkAbort => "s2_walk_abort",
            FaultSite::GateTransient => "gate_transient",
            FaultSite::SanitizerInterrupt => "sanitizer_interrupt",
            FaultSite::SchedPreempt => "sched_preempt",
            FaultSite::VeCrash => "ve_crash",
            FaultSite::SnapshotCorrupt => "snapshot_corrupt",
            FaultSite::RestartStorm => "restart_storm",
        }
    }
}

/// A deterministic fault schedule: seed, site filter, firing rate, and
/// an optional replay allowlist.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Root seed; per-site decision streams are derived from it.
    pub seed: u64,
    /// Sites allowed to fire (consultations at other sites are inert
    /// and do not advance any stream).
    pub sites: Vec<FaultSite>,
    /// Fire roughly one in `rate` consultations per enabled site.
    pub rate: u64,
    /// Stop firing after this many injections.
    pub max_faults: u64,
    /// Replay mode: fire exactly at these consultation sequence numbers
    /// (recorded in [`ChaosState::fired`] by a previous run with the
    /// same seed and site filter), ignoring `rate`/`max_faults`. This
    /// is what makes a failing schedule shrinkable: re-run with a
    /// subset and the surviving faults fire at identical points.
    pub only: Option<BTreeSet<u64>>,
}

impl FaultPlan {
    /// All sites, rate 16, unbounded.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, sites: ALL_SITES.to_vec(), rate: 16, max_faults: u64::MAX, only: None }
    }

    pub fn with_sites(mut self, sites: &[FaultSite]) -> Self {
        self.sites = sites.to_vec();
        self
    }

    pub fn with_rate(mut self, rate: u64) -> Self {
        self.rate = rate.max(1);
        self
    }

    pub fn with_max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Restrict to a recorded schedule subset (see [`FaultPlan::only`]).
    pub fn replay(mut self, schedule: BTreeSet<u64>) -> Self {
        self.only = Some(schedule);
        self
    }
}

const NSITES: usize = ALL_SITES.len();

/// Per-machine chaos engine state: the installed plan, the derived
/// decision streams, and the outcome counters. Inert (one `Option`
/// check per consultation) when no plan is installed, so clean runs are
/// byte-identical to a build without the engine.
#[derive(Debug, Default)]
pub struct ChaosState {
    plan: Option<FaultPlan>,
    enabled: [bool; NSITES],
    streams: [u64; NSITES],
    /// Consultations of enabled sites so far (the sequence number
    /// recorded per fired fault).
    pub seq: u64,
    /// Faults injected by the engine.
    pub faults_injected: u64,
    /// Injected faults whose fail-closed handling completed (retry
    /// done, rescan done, kill delivered, corruption bounded).
    pub faults_contained: u64,
    /// Virtual environments killed on isolation violations (chaos and
    /// genuine alike — the count is zero in clean runs that stay
    /// clean).
    pub ve_kills: u64,
    /// Recorded schedule of fired faults: `(seq, site)` pairs.
    pub fired: Vec<(u64, FaultSite)>,
    /// Plan-installation generation; per-core forks compare against it
    /// to detect a stale plan (see [`ChaosState::fork_for_core`]).
    installs: u64,
    /// High-water marks of counters already drained to the global
    /// engine (per-core forks only; see [`ChaosState::drain_delta`]).
    drained_injected: u64,
    drained_contained: u64,
    drained_kills: u64,
    drained_fired: usize,
}

/// Counter deltas drained from a per-core chaos fork at an epoch
/// barrier, to be folded into the global engine in commit order.
#[derive(Debug, Default)]
pub struct ChaosDelta {
    pub faults_injected: u64,
    pub faults_contained: u64,
    pub ve_kills: u64,
    pub fired: Vec<(u64, FaultSite)>,
}

impl ChaosState {
    /// Install a plan, deriving the per-site streams and resetting the
    /// counters and the recorded schedule.
    pub fn install(&mut self, plan: FaultPlan) {
        self.enabled = [false; NSITES];
        for &s in &plan.sites {
            self.enabled[s.index()] = true;
        }
        for (i, s) in self.streams.iter_mut().enumerate() {
            *s = splitmix64(plan.seed ^ splitmix64(i as u64 + 1));
        }
        self.seq = 0;
        self.faults_injected = 0;
        self.faults_contained = 0;
        self.ve_kills = 0;
        self.fired.clear();
        self.drained_injected = 0;
        self.drained_contained = 0;
        self.drained_kills = 0;
        self.drained_fired = 0;
        self.installs += 1;
        self.plan = Some(plan);
    }

    /// Plan-installation generation: bumped on every install so cached
    /// per-core forks know when to re-fork.
    pub fn install_gen(&self) -> u64 {
        self.installs
    }

    /// Derive a per-core fork of the engine for remote cores (core > 0;
    /// core 0's epoch shell takes the global engine itself so
    /// single-core fault schedules are unchanged by the epoch refactor).
    ///
    /// The fork draws from core-salted streams and numbers its
    /// consultations from `core << 56`, so fork sequence numbers are
    /// globally unique and stable — a recorded `(seq, site)` schedule
    /// replays through [`FaultPlan::only`] exactly, on either the
    /// parallel or the replay executor. Inert when no plan is installed.
    pub fn fork_for_core(&self, core: usize) -> ChaosState {
        let mut fork = ChaosState::default();
        if let Some(plan) = &self.plan {
            fork.enabled = self.enabled;
            for (i, s) in fork.streams.iter_mut().enumerate() {
                *s = splitmix64(plan.seed ^ splitmix64(((core as u64) << 32) | (i as u64 + 1)));
            }
            fork.seq = (core as u64) << 56;
            fork.plan = Some(plan.clone());
        }
        fork
    }

    /// Drain the counters and fired entries accumulated since the last
    /// drain (epoch barrier; the fork keeps its streams, sequence
    /// counter, and cumulative totals so `max_faults` caps the fork's
    /// whole lifetime, not one epoch).
    pub fn drain_delta(&mut self) -> ChaosDelta {
        let delta = ChaosDelta {
            faults_injected: self.faults_injected - self.drained_injected,
            faults_contained: self.faults_contained - self.drained_contained,
            ve_kills: self.ve_kills - self.drained_kills,
            fired: self.fired[self.drained_fired..].to_vec(),
        };
        self.drained_injected = self.faults_injected;
        self.drained_contained = self.faults_contained;
        self.drained_kills = self.ve_kills;
        self.drained_fired = self.fired.len();
        delta
    }

    /// Fold a fork's drained delta into this (global) engine.
    pub fn absorb_delta(&mut self, delta: ChaosDelta) {
        self.faults_injected += delta.faults_injected;
        self.faults_contained += delta.faults_contained;
        self.ve_kills += delta.ve_kills;
        self.fired.extend(delta.fired);
    }

    /// Whether a plan is installed.
    pub fn active(&self) -> bool {
        self.plan.is_some()
    }

    /// Consult the engine at `site`. Returns `Some(draw)` — a
    /// deterministic pseudo-random payload for parameterizing the fault
    /// — when the site fires, `None` otherwise. One branch when no plan
    /// is installed.
    #[inline]
    pub fn fire(&mut self, site: FaultSite) -> Option<u64> {
        let plan = self.plan.as_ref()?;
        let idx = site.index();
        if !self.enabled[idx] {
            return None;
        }
        self.seq += 1;
        let s = &mut self.streams[idx];
        *s = lcg(*s);
        let draw = *s >> 11;
        let fires = match &plan.only {
            Some(set) => set.contains(&self.seq),
            None => self.faults_injected < plan.max_faults && draw % plan.rate == 0,
        };
        if !fires {
            return None;
        }
        self.faults_injected += 1;
        self.fired.push((self.seq, site));
        *s = lcg(*s);
        Some(*s >> 11)
    }

    /// Record that an injected fault's fail-closed handling completed.
    #[inline]
    pub fn contained(&mut self) {
        self.faults_contained += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(state: &mut ChaosState, n: usize) -> Vec<(u64, Option<u64>)> {
        (0..n).map(|_| (state.seq, state.fire(FaultSite::TlbiSpurious))).collect()
    }

    #[test]
    fn inert_without_plan() {
        let mut c = ChaosState::default();
        assert!(!c.active());
        assert_eq!(c.fire(FaultSite::PtwBitFlip), None);
        assert_eq!(c.seq, 0, "no plan, no consultation counting");
    }

    #[test]
    fn same_plan_same_schedule() {
        let mut a = ChaosState::default();
        let mut b = ChaosState::default();
        a.install(FaultPlan::new(42).with_rate(4));
        b.install(FaultPlan::new(42).with_rate(4));
        assert_eq!(drain(&mut a, 200), drain(&mut b, 200));
        assert_eq!(a.fired, b.fired);
        assert!(a.faults_injected > 0, "rate 4 over 200 consultations fires");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaosState::default();
        let mut b = ChaosState::default();
        a.install(FaultPlan::new(1).with_rate(4));
        b.install(FaultPlan::new(2).with_rate(4));
        drain(&mut a, 200);
        drain(&mut b, 200);
        assert_ne!(a.fired, b.fired);
    }

    #[test]
    fn disabled_site_never_fires_nor_counts() {
        let mut c = ChaosState::default();
        c.install(FaultPlan::new(7).with_sites(&[FaultSite::SchedPreempt]).with_rate(1));
        assert_eq!(c.fire(FaultSite::TlbiSpurious), None);
        assert_eq!(c.seq, 0);
        assert!(c.fire(FaultSite::SchedPreempt).is_some(), "rate 1 always fires");
        assert_eq!(c.seq, 1);
    }

    #[test]
    fn replay_fires_exact_subset() {
        let mut full = ChaosState::default();
        full.install(FaultPlan::new(9).with_rate(3));
        drain(&mut full, 300);
        let fired = full.fired.clone();
        assert!(fired.len() >= 4, "need a few faults to subset");
        // Replay only the even-indexed faults.
        let subset: BTreeSet<u64> = fired.iter().step_by(2).map(|&(seq, _)| seq).collect();
        let mut replay = ChaosState::default();
        replay.install(FaultPlan::new(9).with_rate(3).replay(subset.clone()));
        drain(&mut replay, 300);
        let replayed: BTreeSet<u64> = replay.fired.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(replayed, subset);
    }

    #[test]
    fn max_faults_caps_injection() {
        let mut c = ChaosState::default();
        c.install(FaultPlan::new(3).with_rate(1).with_max_faults(5));
        drain(&mut c, 100);
        assert_eq!(c.faults_injected, 5);
    }

    #[test]
    fn lzfault_reasons_are_static_and_distinct() {
        let faults = [
            LzFault::UnbackedFrame { pa: 1 },
            LzFault::BadDescriptor { pa: 1, desc: 2 },
            LzFault::UnresolvedFake { fake: 3 },
            LzFault::Misaligned { addr: 4 },
            LzFault::MissingState { pid: 5 },
            LzFault::BadHandle { id: 6 },
            LzFault::AsidExhausted,
            LzFault::DoubleFree { pa: 7 },
            LzFault::HostPanic,
        ];
        let reasons: BTreeSet<&'static str> = faults.iter().map(|f| f.reason()).collect();
        assert_eq!(reasons.len(), faults.len());
        for f in &faults {
            assert!(!format!("{f}").is_empty());
        }
    }
}
