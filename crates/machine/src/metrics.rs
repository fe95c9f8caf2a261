//! Unified observability layer: per-subsystem counters, a bounded typed
//! event journal, and a JSON/text report assembler.
//!
//! The paper's security mechanisms (gate checks, sanitizer scans,
//! break-before-make, stage-2 faults) were previously observable only
//! through ad-hoc fields scattered across subsystems. This module gives
//! them one home:
//!
//! * **Counters** — plain `u64` fields embedded in the subsystem that owns
//!   them ([`WalkStats`] and [`InvalStats`] in the TLB, eviction and
//!   invalidation counts in the compiled-block fetch cache, switch and trap maps
//!   in [`MachineMetrics`]). Counters are always on: they are host-side
//!   bookkeeping and never feed back into the modelled domain.
//! * **Journal** — a bounded ring of cycle-stamped [`Event`]s
//!   (generalizing `trace::Trace`). Recording is gated by the
//!   `LZ_METRICS` default (or [`Journal::set_enabled`]) because events
//!   carry more payload than counters.
//! * **Report** — a [`Section`]/[`Report`] pair that snapshots every
//!   counter into an ordered, JSON-serialisable registry (`repro stats`).
//!
//! # Zero modelled cost
//!
//! Nothing here charges cycles, touches the TLB, or perturbs any
//! modelled state. All paper tables and the differential/determinism
//! suites are byte-identical with metrics enabled or disabled; the
//! toggle only controls host-side journal recording.

use crate::json::{Json, Object};
use crate::walk::{Fault, FaultKind, Stage};
use lz_arch::esr::ExceptionClass;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-wide default for journal recording, initialised from the
/// `LZ_METRICS` environment variable (`0`/`off`/`false` disables).
fn default_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| crate::cpu::env_switch("LZ_METRICS"))
}

/// The default journal-recording setting for new [`Journal`]s.
pub fn default_metrics() -> bool {
    default_flag().load(Ordering::Relaxed)
}

/// Override the default journal-recording setting for new [`Journal`]s
/// (tests and benchmarks; existing journals are unaffected).
pub fn set_default_metrics(on: bool) {
    default_flag().store(on, Ordering::Relaxed)
}

/// TLB invalidation counters, one per architectural TLBI scope.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InvalStats {
    /// `TLBI ALLE1`-scope invalidations.
    pub all: u64,
    /// `TLBI VMALLS12E1`-scope invalidations.
    pub vmid: u64,
    /// `TLBI ASIDE1`-scope invalidations.
    pub asid: u64,
    /// `TLBI VAAE1`-scope invalidations.
    pub va: u64,
}

impl InvalStats {
    /// Total invalidation operations across all scopes.
    pub fn total(&self) -> u64 {
        self.all + self.vmid + self.asid + self.va
    }
}

/// Walk counters: how many stage-1/stage-2 table walks ran and which
/// fault kinds they produced.
///
/// Walk counts are *modelled* walks: compiled blocks run only on pages
/// whose TLB entry is live, and every TLB miss walks, so the counts are
/// identical on both engines. Stage-2 walks performed internally by a nested stage-1 walk
/// (`s1ptw`) are folded into the stage-1 walk that triggered them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalkStats {
    pub s1_walks: u64,
    pub s2_walks: u64,
    pub s1_translation_faults: u64,
    pub s1_permission_faults: u64,
    pub s1_access_flag_faults: u64,
    pub s2_translation_faults: u64,
    pub s2_permission_faults: u64,
    pub s2_access_flag_faults: u64,
}

impl WalkStats {
    /// Count one translation failure by stage and kind.
    pub fn count_fault(&mut self, f: &Fault) {
        let slot = match (f.stage, f.kind) {
            (Stage::S1, FaultKind::Translation) => &mut self.s1_translation_faults,
            (Stage::S1, FaultKind::Permission) => &mut self.s1_permission_faults,
            (Stage::S1, FaultKind::AccessFlag) => &mut self.s1_access_flag_faults,
            (Stage::S2, FaultKind::Translation) => &mut self.s2_translation_faults,
            (Stage::S2, FaultKind::Permission) => &mut self.s2_permission_faults,
            (Stage::S2, FaultKind::AccessFlag) => &mut self.s2_access_flag_faults,
        };
        *slot += 1;
    }
}

/// Host-side fast-path counters: how often the accelerated engine
/// (micro-DTLB, compiled blocks) short-circuited host work.
///
/// Unlike [`WalkStats`], these counters describe *host-side* savings
/// only: they are zero on the reference engine and positive on the
/// accelerated one, while every modelled quantity (cycles, TLB hit/miss
/// counts, walk counts, fault ordering) stays byte-identical. They live
/// in the `walk` report section because that is the work they elide.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastStats {
    /// Data accesses served by the micro-DTLB (replayed as free L1 hits).
    pub dtlb_hits: u64,
    /// Compiled dispatches completed: one per return from
    /// `Machine::step_jit`, however often its block re-entered in place,
    /// so `jit_blocks - jit_loops` unless a host panic cut a block short.
    /// The `repro stats` report and the `benchmark/` harness read it
    /// under this name.
    pub superblock_exits: u64,
    /// Always 0: every TLB miss walks, and no report prints this. The
    /// field stays because the `benchmark/` harness still reads it.
    pub walkcache_hits: u64,
    /// Compiled-block executions (zero on the reference engine): each
    /// dispatch into a block, plus each in-place re-entry (`jit_loops`).
    pub jit_blocks: u64,
    /// Dispatches the accelerated engine single-stepped instead of
    /// entering a compiled block: a misaligned PC, the bare identity
    /// regime, a page entry not armed for the fetch (a stale code frame
    /// included), or a block longer than the remaining budget.
    pub jit_stepped: u64,
    /// In-place re-entries: a looping block's branch back to its own
    /// start, taken with the budget for another whole block left, runs
    /// the block again without a dispatch (see `Machine::step_jit`).
    pub jit_loops: u64,
    /// Runs of code lowered to compiled blocks (each counts once, when
    /// `ICache::jit_block` lowers it).
    pub jit_compiled: u64,
}

/// Machine-level counters that belong to no single translation structure:
/// interpreted gate switches (EL1 `MSR TTBR0_EL1` writes) and trap kinds.
#[derive(Debug, Default)]
pub struct MachineMetrics {
    /// Total interpreted `TTBR0_EL1` writes at EL1 (gate switches).
    pub domain_switches: u64,
    /// Gate switches broken down by target ASID (one ASID per domain
    /// page table in the LightZone design), indexed by ASID. It grows
    /// when a higher ASID first switches, so it is bounded by the 16-bit
    /// ASID space; ASIDs never switched to read 0.
    pub switches_by_asid: Vec<u64>,
    /// Exceptions taken by the interpreter, by exception class.
    pub traps: BTreeMap<ExceptionClass, u64>,
}

impl MachineMetrics {
    /// Count one gate switch to `asid`.
    pub fn domain_switch(&mut self, asid: u16) {
        self.domain_switches += 1;
        let i = usize::from(asid);
        if i >= self.switches_by_asid.len() {
            self.switches_by_asid.resize(i + 1, 0);
        }
        self.switches_by_asid[i] += 1;
    }

    /// `(asid, switches)` for every ASID switched to, in ascending ASID
    /// order.
    pub fn switched_asids(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        (0..=u16::MAX).zip(self.switches_by_asid.iter().copied()).filter(|&(_, n)| n > 0)
    }

    /// Count one exception of the given class.
    pub fn trap(&mut self, class: ExceptionClass) {
        *self.traps.entry(class).or_insert(0) += 1;
    }

    /// Traps of one class counted so far.
    pub fn trap_count(&self, class: ExceptionClass) -> u64 {
        self.traps.get(&class).copied().unwrap_or(0)
    }

    /// Fold the counters accumulated by an epoch shell into this set
    /// (commit-order barrier merge; see [`crate::smp`]).
    pub fn absorb(&mut self, other: MachineMetrics) {
        self.domain_switches += other.domain_switches;
        if self.switches_by_asid.len() < other.switches_by_asid.len() {
            self.switches_by_asid.resize(other.switches_by_asid.len(), 0);
        }
        for (mine, n) in self.switches_by_asid.iter_mut().zip(other.switches_by_asid) {
            *mine += n;
        }
        for (class, n) in other.traps {
            *self.traps.entry(class).or_insert(0) += n;
        }
    }
}

/// A typed journal event. Variants mirror the security-relevant
/// transitions in the model; payloads are page-granular addresses so the
/// journal never leaks more than a fault report would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Interpreted EL1 `MSR TTBR0_EL1` — a call-gate domain switch.
    DomainSwitch { asid: u16, root: u64 },
    /// Stage-2 fault forwarded to the Lowvisor.
    Stage2Fault { fake_page: u64 },
    /// Sanitizer scan rejected a page (sensitive instruction found).
    SanitizerReject { page: u64 },
    /// Break-before-make unmap of a page from every domain.
    BbmUnmap { page: u64 },
    /// Security violation — the process is about to be killed.
    Violation { reason: &'static str },
    /// Exception taken by the interpreter.
    Trap { class: ExceptionClass },
    /// Software IPI from one core to another (TLB-shootdown doorbell).
    Ipi { from: u8, to: u8 },
    /// Cross-core TLB shootdown completed: `targets` remote cores
    /// invalidated (`page` is 0 for VMID/ASID-scoped shootdowns).
    Shootdown { vmid: u16, page: u64, targets: u8 },
    /// Injected fault fired (`seq` is the chaos-engine consultation
    /// sequence number, for replaying a recorded schedule).
    Fault { site: &'static str, seq: u64 },
}

impl EventKind {
    /// Priority-lane events: security violations and injected faults are
    /// what the supervisor and the post-mortem tooling need, so the
    /// journal's drop-oldest eviction skips over them while any
    /// non-priority event remains to evict (see [`Journal::record`]).
    pub fn is_priority(&self) -> bool {
        matches!(self, EventKind::Violation { .. } | EventKind::Fault { .. })
    }

    /// Short type tag used by the text and JSON dumps.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::DomainSwitch { .. } => "DomainSwitch",
            EventKind::Stage2Fault { .. } => "Stage2Fault",
            EventKind::SanitizerReject { .. } => "SanitizerReject",
            EventKind::BbmUnmap { .. } => "BbmUnmap",
            EventKind::Violation { .. } => "Violation",
            EventKind::Trap { .. } => "Trap",
            EventKind::Ipi { .. } => "Ipi",
            EventKind::Shootdown { .. } => "Shootdown",
            EventKind::Fault { .. } => "Fault",
        }
    }
}

/// One journal entry: an event plus the cycle counter when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub cycles: u64,
    pub kind: EventKind,
}

/// `{"cycles":…,"event":"<tag>",…}`, the payload fields after the tag.
impl Json for Event {
    fn write_json(&self, out: &mut String) {
        let obj = Object::new().field("cycles", &self.cycles).field("event", self.kind.tag());
        let obj = match self.kind {
            EventKind::DomainSwitch { asid, root } => obj.field("asid", &asid).field("root", &root),
            EventKind::Stage2Fault { fake_page } => obj.field("fake_page", &fake_page),
            EventKind::SanitizerReject { page } | EventKind::BbmUnmap { page } => obj.field("page", &page),
            EventKind::Violation { reason } => obj.field("reason", reason),
            EventKind::Ipi { from, to } => obj.field("from", &from).field("to", &to),
            EventKind::Shootdown { vmid, page, targets } => {
                obj.field("vmid", &vmid).field("page", &page).field("targets", &targets)
            }
            EventKind::Trap { class } => obj.field("class", &format!("{class:?}")),
            EventKind::Fault { site, seq } => obj.field("site", site).field("seq", &seq),
        };
        obj.write_json(out)
    }
}

/// A bounded ring of typed events (compare `trace::Trace`, which records
/// every retired instruction; the journal records only the rare
/// security-relevant transitions, so its default capacity is generous).
#[derive(Debug)]
pub struct Journal {
    events: VecDeque<Event>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Journal {
    /// Create a journal holding at most `capacity` events; recording
    /// starts out following the process-wide [`default_metrics`] flag.
    pub fn new(capacity: usize) -> Self {
        Journal {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            enabled: default_metrics(),
            dropped: 0,
        }
    }

    /// An empty journal with this journal's capacity and enablement —
    /// the per-core shell journal for one epoch (see [`crate::smp`]).
    pub fn fork(&self) -> Journal {
        Journal {
            events: VecDeque::with_capacity(self.capacity.min(4096)),
            capacity: self.capacity,
            enabled: self.enabled,
            dropped: 0,
        }
    }

    /// Append an epoch shell's events (oldest first) with normal ring
    /// semantics, folding its eviction count in. Barrier-side merge:
    /// commit order is the deterministic core order, so parallel and
    /// replay schedules absorb identical sequences.
    pub fn absorb(&mut self, other: Journal) {
        self.dropped += other.dropped;
        for e in other.events {
            if self.events.len() == self.capacity {
                self.evict_one();
            }
            self.events.push_back(e);
        }
    }

    /// Evict one event to make room: the oldest non-priority event, or —
    /// when the whole ring is priority events — the oldest outright (the
    /// capacity bound always holds).
    fn evict_one(&mut self) {
        match self.events.iter().position(|e| !e.kind.is_priority()) {
            Some(i) => {
                self.events.remove(i);
            }
            None => {
                self.events.pop_front();
            }
        }
        self.dropped += 1;
    }

    /// Turn recording on or off. Events already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether [`Journal::record`] currently stores events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event at the given cycle stamp. No-op while disabled;
    /// once the ring is full the oldest *non-priority* event is dropped
    /// (and counted), so violations and injected faults — the priority
    /// lane ([`EventKind::is_priority`]) — are never evicted by routine
    /// traffic. Only when the ring holds nothing but priority events does
    /// the oldest of those go; the loss is visible in
    /// [`Journal::dropped`] either way.
    pub fn record(&mut self, cycles: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.evict_one();
        }
        self.events.push_back(Event { cycles, kind });
    }

    /// How many events were evicted from the ring to stay within the
    /// capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The capacity bound (the ring never holds more events than this).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Count recorded events matching a predicate on the kind.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.kind)).count() as u64
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Human-readable dump, one event per line, oldest first.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "[{:>12}] {:?}", e.cycles, e.kind);
        }
        out
    }

    /// JSON array of the events ([`Event`]'s form), oldest first.
    pub fn dump_json(&self) -> String {
        self.events.iter().collect::<Vec<_>>().to_json()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(1024)
    }
}

/// One named group of counters in a [`Report`] (a subsystem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    pub name: &'static str,
    pub counters: Vec<(String, u64)>,
}

impl Section {
    pub fn new(name: &'static str) -> Self {
        Section { name, counters: Vec::new() }
    }

    /// Append a counter (insertion order is preserved in the dumps).
    pub fn push(&mut self, key: impl Into<String>, value: u64) {
        self.counters.push((key.into(), value));
    }

    /// Builder-style [`Section::push`].
    pub fn with(mut self, key: impl Into<String>, value: u64) -> Self {
        self.push(key, value);
        self
    }

    /// Look up a counter by key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// An ordered collection of [`Section`]s — the full metrics registry at
/// one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub sections: Vec<Section>,
}

impl Report {
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Aligned human-readable dump.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.sections {
            let _ = writeln!(out, "{}:", s.name);
            for (k, v) in &s.counters {
                let _ = writeln!(out, "  {k:<28} {v}");
            }
        }
        out
    }
}

/// `{"tlb":{"hits":…},…}` — sections as objects keyed by name.
impl Json for Report {
    fn write_json(&self, out: &mut String) {
        self.sections.iter().fold(Object::new(), |obj, s| obj.field(s.name, s)).write_json(out)
    }
}

/// A section's counters as one object, in insertion order.
impl Json for Section {
    fn write_json(&self, out: &mut String) {
        self.counters.iter().fold(Object::new(), |obj, (k, v)| obj.field(k, v)).write_json(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_is_bounded_and_ordered() {
        let mut j = Journal::new(3);
        j.set_enabled(true);
        for i in 0..5 {
            j.record(i, EventKind::BbmUnmap { page: i << 12 });
        }
        assert_eq!(j.len(), 3);
        let stamps: Vec<u64> = j.events().map(|e| e.cycles).collect();
        assert_eq!(stamps, vec![2, 3, 4], "oldest events dropped first");
        assert_eq!(j.dropped(), 2, "evictions are counted, not silent");
        assert!(j.len() <= j.capacity());
    }

    #[test]
    fn journal_priority_events_survive_drop_oldest() {
        let mut j = Journal::new(3);
        j.set_enabled(true);
        j.record(0, EventKind::Violation { reason: "first" });
        j.record(1, EventKind::Fault { site: "ve_crash", seq: 1 });
        // Flood with routine traffic: the ring must keep both priority
        // events and cycle the non-priority slot.
        for i in 2..20 {
            j.record(i, EventKind::BbmUnmap { page: i << 12 });
        }
        assert_eq!(j.len(), 3);
        let kinds: Vec<&'static str> = j.events().map(|e| e.kind.tag()).collect();
        assert_eq!(kinds, vec!["Violation", "Fault", "BbmUnmap"]);
        assert_eq!(j.events().last().map(|e| e.cycles), Some(19), "newest routine event kept");
        assert_eq!(j.dropped(), 17, "every eviction still counted");

        // All-priority ring: the bound holds by evicting the oldest
        // priority event.
        let mut p = Journal::new(2);
        p.set_enabled(true);
        p.record(0, EventKind::Violation { reason: "a" });
        p.record(1, EventKind::Violation { reason: "b" });
        p.record(2, EventKind::Violation { reason: "c" });
        assert_eq!(p.len(), 2);
        let stamps: Vec<u64> = p.events().map(|e| e.cycles).collect();
        assert_eq!(stamps, vec![1, 2]);
        assert_eq!(p.dropped(), 1);
    }

    #[test]
    fn journal_absorb_respects_priority_lane() {
        let mut j = Journal::new(2);
        j.set_enabled(true);
        j.record(0, EventKind::Violation { reason: "keep" });
        j.record(1, EventKind::BbmUnmap { page: 0x1000 });
        let mut shell = j.fork();
        shell.record(2, EventKind::BbmUnmap { page: 0x2000 });
        j.absorb(shell);
        let kinds: Vec<&'static str> = j.events().map(|e| e.kind.tag()).collect();
        assert_eq!(kinds, vec!["Violation", "BbmUnmap"]);
        assert_eq!(j.events().last().map(|e| e.cycles), Some(2));
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn journal_disabled_records_nothing() {
        let mut j = Journal::new(8);
        j.set_enabled(false);
        j.record(1, EventKind::Violation { reason: "x" });
        assert!(j.is_empty());
        j.set_enabled(true);
        j.record(2, EventKind::Violation { reason: "y" });
        assert_eq!(j.len(), 1);
    }

    /// One event of every kind, against the exact bytes the journal's
    /// JSON form has always had (escaped reason included).
    #[test]
    fn journal_json_is_byte_stable() {
        let mut j = Journal::new(16);
        j.set_enabled(true);
        j.record(1, EventKind::DomainSwitch { asid: 3, root: 0x4000 });
        j.record(2, EventKind::Stage2Fault { fake_page: 0x8000_0000 });
        j.record(3, EventKind::SanitizerReject { page: 0x40_1000 });
        j.record(4, EventKind::BbmUnmap { page: 0x61_0000 });
        j.record(5, EventKind::Violation { reason: "gate \"check\" failed\\\tat\n" });
        j.record(6, EventKind::Trap { class: ExceptionClass::Svc });
        j.record(7, EventKind::Ipi { from: 0, to: 3 });
        j.record(8, EventKind::Shootdown { vmid: 7, page: 0x50_0000, targets: 2 });
        j.record(u64::MAX, EventKind::Fault { site: "ve_crash", seq: 42 });
        assert_eq!(
            j.dump_json(),
            concat!(
                r#"[{"cycles":1,"event":"DomainSwitch","asid":3,"root":16384},"#,
                r#"{"cycles":2,"event":"Stage2Fault","fake_page":2147483648},"#,
                r#"{"cycles":3,"event":"SanitizerReject","page":4198400},"#,
                r#"{"cycles":4,"event":"BbmUnmap","page":6356992},"#,
                r#"{"cycles":5,"event":"Violation","reason":"gate \"check\" failed\\\tat\n"},"#,
                r#"{"cycles":6,"event":"Trap","class":"Svc"},"#,
                r#"{"cycles":7,"event":"Ipi","from":0,"to":3},"#,
                r#"{"cycles":8,"event":"Shootdown","vmid":7,"page":5242880,"targets":2},"#,
                r#"{"cycles":18446744073709551615,"event":"Fault","site":"ve_crash","seq":42}]"#,
            )
        );
        assert_eq!(Journal::new(4).dump_json(), "[]");
    }

    #[test]
    fn report_json_and_lookup() {
        let mut r = Report::default();
        r.push(Section::new("tlb").with("hits", 3).with("misses", 1));
        r.push(Section::new("gate").with("switches", 2));
        assert_eq!(r.section("tlb").unwrap().get("misses"), Some(1));
        assert_eq!(r.to_json(), r#"{"tlb":{"hits":3,"misses":1},"gate":{"switches":2}}"#);
        assert!(r.to_text().contains("gate:"));
    }

    #[test]
    fn walk_stats_fault_routing() {
        let mut w = WalkStats::default();
        let f = Fault {
            kind: FaultKind::Permission,
            stage: Stage::S2,
            level: 3,
            va: 0x1000,
            ipa: 0x2000,
            wnr: true,
            s1ptw: false,
        };
        w.count_fault(&f);
        assert_eq!(w, WalkStats { s2_permission_faults: 1, ..WalkStats::default() });
    }

    #[test]
    fn switches_by_asid_grow_and_absorb_element_wise() {
        let mut a = MachineMetrics::default();
        for asid in [5, 1, 5] {
            a.domain_switch(asid);
        }
        let mut b = MachineMetrics::default();
        for asid in [9, 0, 5] {
            b.domain_switch(asid);
        }
        a.absorb(b);
        assert_eq!(a.domain_switches, 6);
        assert_eq!(a.switched_asids().collect::<Vec<_>>(), [(0, 1), (1, 1), (5, 3), (9, 1)]);
        let mut c = MachineMetrics::default();
        c.domain_switch(u16::MAX);
        assert_eq!(c.switched_asids().collect::<Vec<_>>(), [(u16::MAX, 1)]);
    }
}
