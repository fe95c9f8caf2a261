//! TLB tagged by `(VMID, ASID, page)` with global entries.
//!
//! LightZone's TTBR-based domain switching relies on two architectural
//! TLB behaviours modelled here (paper §4.1.2, §8.2):
//!
//! * **per-page-table ASIDs** let a `TTBR0_EL1` write switch translations
//!   without a TLB invalidation — entries for other ASIDs simply stop
//!   matching;
//! * the **global bit** on unprotected memory keeps those entries valid
//!   across every ASID, so only the protected domain's pages miss after a
//!   switch.

use crate::fxhash::FxHashMap;
use crate::icache::{FillInfo, ICache, Served};
use crate::metrics::{FastStats, InvalStats, WalkStats};
use crate::pte::{S1Perms, S2Perms};
use lz_arch::pstate::ExceptionLevel;
use std::collections::VecDeque;

/// One cached translation (a 4 KB page of the final mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// `None` for global entries (`nG == 0`).
    pub asid: Option<u16>,
    /// Physical page base of the translation result.
    pub pa_page: u64,
    /// Stage-1 leaf permissions (PAN is applied at access time, not
    /// caching time — the architecture caches the AP bits, not the PAN
    /// outcome).
    pub s1: S1Perms,
    /// Stage-2 leaf permissions, when stage 2 is enabled.
    pub s2: Option<S2Perms>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TlbKey {
    vmid: u16,
    vpn: u64,
}

/// Which level satisfied a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbHit {
    /// Micro-TLB hit: free.
    L1,
    /// Main-TLB hit: costs `CycleModel::l2_tlb_hit`.
    L2,
}

/// One level of the TLB: a capacity-bounded map with FIFO replacement.
#[derive(Debug)]
struct TlbLevel {
    entries: FxHashMap<TlbKey, Vec<TlbEntry>>,
    order: VecDeque<TlbKey>,
    capacity: usize,
}

impl TlbLevel {
    fn new(capacity: usize) -> Self {
        TlbLevel { entries: FxHashMap::default(), order: VecDeque::new(), capacity }
    }

    fn lookup(&self, vmid: u16, asid: u16, va: u64) -> Option<TlbEntry> {
        let key = TlbKey { vmid, vpn: va >> 12 };
        self.entries.get(&key).and_then(|v| v.iter().find(|e| e.asid.is_none() || e.asid == Some(asid)).copied())
    }

    /// The first entry of `(vmid, va)`'s slot, whatever its ASID.
    fn head(&self, vmid: u16, va: u64) -> Option<TlbEntry> {
        self.entries.get(&TlbKey { vmid, vpn: va >> 12 }).and_then(|v| v.first().copied())
    }

    fn insert(&mut self, vmid: u16, va: u64, entry: TlbEntry) {
        let key = TlbKey { vmid, vpn: va >> 12 };
        while self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        let slot = self.entries.entry(key).or_default();
        if slot.is_empty() {
            self.order.push_back(key);
        }
        slot.retain(|e| e.asid != entry.asid);
        slot.push(entry);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// Micro-DTLB geometry: 64 slots in `DTLB_SETS` sets of `DTLB_WAYS`.
const DTLB_SETS: usize = 16;
const DTLB_WAYS: usize = 4;

/// The micro-DTLB set of a VPN: the top bits of a multiplicative
/// (Fibonacci) hash. Page-aligned regions a multiple of 256 KiB apart —
/// one page table's code and data pages, a gate table beside a domain's
/// first page — share `vpn & 63` but not, in general, this set.
#[inline]
fn dtlb_set(vpn: u64) -> usize {
    (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DTLB_SETS.ilog2())) as usize
}

/// One armed micro-DTLB slot: a host-side memo that a data translation
/// for exactly these tags was proven (by the full slow path) to be a free
/// L1 hit at generation `gen`. `gen == 0` marks an empty slot (the real
/// generation counter starts at 1). The entry caches no permissions: the
/// `read`/`write` bits record which access kinds were *proven*, and
/// everything that could change the outcome of the permission checks —
/// EL, PSTATE.PAN, the unprivileged-access flag, whether stage 1 is on —
/// is part of the tag, so a hit replays a result the slow path is
/// guaranteed to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DtlbSlot {
    gen: u64,
    vpn: u64,
    pa_page: u64,
    vmid: u16,
    /// The ASIDs the proof covers: one, or every ASID (`None`; see
    /// [`Tlb::arm_scope`]).
    asid: Option<u16>,
    el: ExceptionLevel,
    pan: bool,
    unpriv: bool,
    s1_enabled: bool,
    read: bool,
    write: bool,
}

const EMPTY_DTLB_SLOT: DtlbSlot = DtlbSlot {
    gen: 0,
    vpn: 0,
    pa_page: 0,
    vmid: 0,
    asid: None,
    el: ExceptionLevel::El0,
    pan: false,
    unpriv: false,
    s1_enabled: false,
    read: false,
    write: false,
};

const EMPTY_DTLB: [[DtlbSlot; DTLB_WAYS]; DTLB_SETS] = [[EMPTY_DTLB_SLOT; DTLB_WAYS]; DTLB_SETS];

/// A two-level TLB: a small micro-TLB in front of the main TLB, the
/// usual ARM arrangement. Hitting only the main TLB costs a few cycles —
/// which is what makes Table 5's switch cost creep upward with the
/// domain count.
#[derive(Debug)]
pub struct Tlb {
    l1: TlbLevel,
    l2: TlbLevel,
    hits: u64,
    misses: u64,
    l2_hits: u64,
    /// Bumped on every structural mutation (insert, promotion, any
    /// invalidate). While unchanged, a repeated lookup with the same tags
    /// is guaranteed to return the same result — the fact the fetch
    /// cache's arms rely on.
    gen: u64,
    /// Compiled-block fetch cache. Embedded here so that every TLB
    /// maintenance operation (the architectural coherence points) reaches
    /// it without new call sites; see the `icache` module docs.
    icache: ICache,
    /// Invalidation counters by TLBI scope (observability only).
    inval: InvalStats,
    /// Walk/fault counters, owned here because every walk flows through
    /// `walk::translate`/`walk::fetch` with `&mut Tlb` in hand.
    pub(crate) walk: WalkStats,
    /// The engine switch for this core: compiled blocks over the fetch
    /// cache plus the micro-DTLB (on), or the per-step reference
    /// interpreter with both off. Every TLB miss walks on either engine.
    /// Host-side only; every modelled quantity is identical either way.
    accel: bool,
    /// Micro-DTLB: set-associative by a hash of the VPN (`dtlb_set`),
    /// guarded by `gen`.
    dtlb: [[DtlbSlot; DTLB_WAYS]; DTLB_SETS],
    /// Per set, the way the next round-robin eviction replaces.
    dtlb_next: [u8; DTLB_SETS],
    /// Host-side fast-path savings counters.
    pub(crate) fast: FastStats,
}

impl Tlb {
    /// Create a TLB with the given main capacity and a default micro-TLB.
    pub fn new(capacity: usize) -> Self {
        Tlb::with_l1(capacity.min(48), capacity)
    }

    /// Create a TLB with explicit level capacities.
    pub fn with_l1(l1_capacity: usize, l2_capacity: usize) -> Self {
        Tlb {
            l1: TlbLevel::new(l1_capacity),
            l2: TlbLevel::new(l2_capacity),
            hits: 0,
            misses: 0,
            l2_hits: 0,
            gen: 1,
            icache: ICache::default(),
            inval: InvalStats::default(),
            walk: WalkStats::default(),
            accel: false,
            dtlb: EMPTY_DTLB,
            dtlb_next: [0; DTLB_SETS],
            fast: FastStats::default(),
        }
    }

    /// Select the engine (see the `accel` field). Selecting the reference
    /// engine drops every armed micro-DTLB slot so a later re-enable
    /// cannot resurrect state from a different configuration epoch.
    pub fn set_accel(&mut self, on: bool) {
        self.accel = on;
        if !on {
            self.dtlb = EMPTY_DTLB;
        }
    }

    /// Whether this core runs the accelerated engine.
    pub fn accel(&self) -> bool {
        self.accel
    }

    /// Host-side fast-path savings counters.
    pub fn fast_stats(&self) -> FastStats {
        self.fast
    }

    /// The compiled-block fetch cache riding along with this TLB.
    pub fn icache(&self) -> &ICache {
        &self.icache
    }

    pub fn icache_mut(&mut self) -> &mut ICache {
        &mut self.icache
    }

    /// Look up `(vmid, asid, va)`; global entries match any ASID. Returns
    /// the entry and which level supplied it (L2 hits are promoted).
    pub fn lookup_leveled(&mut self, vmid: u16, asid: u16, va: u64) -> Option<(TlbEntry, TlbHit)> {
        if let Some(e) = self.l1.lookup(vmid, asid, va) {
            self.hits += 1;
            return Some((e, TlbHit::L1));
        }
        if let Some(e) = self.l2.lookup(vmid, asid, va) {
            self.hits += 1;
            self.l2_hits += 1;
            self.gen += 1; // promotion mutates L1
            self.l1.insert(vmid, va, e);
            return Some((e, TlbHit::L2));
        }
        self.misses += 1;
        None
    }

    /// Level-blind lookup (compatibility helper for tests).
    pub fn lookup(&mut self, vmid: u16, asid: u16, va: u64) -> Option<TlbEntry> {
        self.lookup_leveled(vmid, asid, va).map(|(e, _)| e)
    }

    /// Side-effect-free lookup: no stats, no L1 promotion. For tests and
    /// diagnostics that must not perturb the modelled TLB state.
    pub fn peek(&self, vmid: u16, asid: u16, va: u64) -> Option<TlbEntry> {
        self.l1.lookup(vmid, asid, va).or_else(|| self.l2.lookup(vmid, asid, va))
    }

    /// Side-effect-free snapshot of every main-TLB resident translation
    /// as `(vmid, va_page, entry)`, sorted for deterministic iteration.
    /// Host-side invariant checkers use this to compare every cached
    /// translation against a fresh table walk; it must never be called
    /// from modelled paths (it would not charge anything, but resident
    /// state is not architecturally enumerable).
    pub fn resident_entries(&self) -> Vec<(u16, u64, TlbEntry)> {
        let mut out: Vec<(u16, u64, TlbEntry)> =
            self.l2.entries.iter().flat_map(|(k, es)| es.iter().map(|e| (k.vmid, k.vpn << 12, *e))).collect();
        out.sort_by_key(|&(vmid, va, e)| (vmid, va, e.asid));
        out
    }

    /// Insert a translation for `(vmid, va)` into both levels.
    pub fn insert(&mut self, vmid: u16, va: u64, entry: TlbEntry) {
        self.gen += 1;
        self.l1.insert(vmid, va, entry);
        self.l2.insert(vmid, va, entry);
    }

    /// `TLBI ALLE1` equivalent — drop everything, compiled blocks included.
    pub fn invalidate_all(&mut self) {
        self.inval.all += 1;
        self.gen += 1;
        self.l1.clear();
        self.l2.clear();
        self.icache.clear();
    }

    /// Drop every entry belonging to one VMID (`TLBI VMALLS12E1`).
    pub fn invalidate_vmid(&mut self, vmid: u16) {
        self.inval.vmid += 1;
        self.gen += 1;
        for level in [&mut self.l1, &mut self.l2] {
            level.entries.retain(|k, _| k.vmid != vmid);
            level.order.retain(|k| k.vmid != vmid);
        }
        self.icache.invalidate_vmid(vmid);
    }

    /// Drop entries for one `(vmid, asid)` (`TLBI ASIDE1`); global entries
    /// survive — in the fetch cache too.
    pub fn invalidate_asid(&mut self, vmid: u16, asid: u16) {
        self.inval.asid += 1;
        self.gen += 1;
        for level in [&mut self.l1, &mut self.l2] {
            for (k, v) in level.entries.iter_mut() {
                if k.vmid == vmid {
                    v.retain(|e| e.asid != Some(asid));
                }
            }
            let entries = &mut level.entries;
            let order = &mut level.order;
            order.retain(|k| entries.get(k).is_some_and(|v| !v.is_empty()));
            entries.retain(|_, v| !v.is_empty());
        }
        self.icache.invalidate_asid(vmid, asid);
    }

    /// Drop all entries for one page in a VMID, any ASID (`TLBI VAAE1`).
    pub fn invalidate_va(&mut self, vmid: u16, va: u64) {
        self.inval.va += 1;
        self.gen += 1;
        let key = TlbKey { vmid, vpn: va >> 12 };
        for level in [&mut self.l1, &mut self.l2] {
            level.entries.remove(&key);
            level.order.retain(|k| *k != key);
        }
        self.icache.invalidate_va(vmid, va);
    }

    /// The structural-mutation generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The ASIDs a translation of `va` that left its TLB entry in L1 may
    /// be replayed for while the generation holds: every ASID (`None`)
    /// when the head entry of `va`'s L1 slot is global, otherwise `asid`
    /// alone. While the generation holds L1 is frozen, and a global entry
    /// matches every ASID, so an L1 lookup under any ASID returns a
    /// global head — the entry the translation itself used. A global
    /// entry behind another ASID's entry answers only the ASIDs whose
    /// lookup passes that entry. The fetch cache's arms
    /// ([`Self::record_fetch`]) and the micro-DTLB's ([`Self::dtlb_arm`])
    /// both follow this rule.
    fn arm_scope(&self, vmid: u16, asid: u16, va: u64) -> Option<u16> {
        match self.l1.head(vmid, va) {
            Some(head) if head.asid.is_none() => None,
            _ => Some(asid),
        }
    }

    /// Record a successful reference fetch at `va` in the fetch cache
    /// (see `ICache::record`). The fetch left the TLB entry it used in L1
    /// — an L1 hit stays, an L2 hit was promoted, a walk inserted — so
    /// the L1 lookup returns that entry, and `record` arms the page
    /// against it at the current generation, for the ASIDs
    /// [`Self::arm_scope`] allows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_fetch(
        &mut self,
        mem: &crate::PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
    ) {
        let Some(snapshot) = self.l1.lookup(vmid, asid, va) else { return };
        let info = FillInfo { el, s1_enabled, wxn, snapshot };
        let scope = self.arm_scope(vmid, asid, va);
        self.icache.record(mem, vmid, asid, va, info, self.gen, scope);
    }

    /// Micro-DTLB probe for a data access. A hit means the slow path
    /// (hash-map lookup + permission checks) was already proven to return
    /// exactly this physical address as a free L1 hit for these tags, and
    /// nothing that could change that outcome has happened since:
    ///
    /// * `gen` guards every structural TLB mutation (insert, promotion,
    ///   every `invalidate_*`, DVM shootdowns) — while it is unchanged,
    ///   L1 content is frozen;
    /// * the tag pins VMID, EL, PSTATE.PAN, the unprivileged flag
    ///   (LDTR/STTR) and whether stage 1 is on, so `set_sysreg`, ERET
    ///   and PAN flips fall back to the slow path;
    /// * the ASID matches the slot's scope: the slot's own ASID, or any
    ///   ASID for a slot armed through a global L1 head — so a domain
    ///   switch keeps global data translations and misses the rest;
    /// * `read`/`write` are armed separately, so an entry proven only
    ///   for loads never short-circuits the write-permission check.
    ///
    /// On a hit the replay is byte-identical to the slow path: one TLB
    /// hit, zero modelled cycles. Always inlined, so a compiled load or
    /// store (`Machine::jit_mem`) probes without a call.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn dtlb_lookup(
        &mut self,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        pan: bool,
        unpriv: bool,
        s1_enabled: bool,
        va: u64,
        write: bool,
    ) -> Option<u64> {
        if !self.accel {
            return None;
        }
        let (vpn, gen) = (va >> 12, self.gen);
        let slot = self.dtlb[dtlb_set(vpn)].iter().find(|s| {
            s.gen == gen
                && s.vpn == vpn
                && (if write { s.write } else { s.read })
                && s.vmid == vmid
                && s.asid.is_none_or(|a| a == asid)
                && s.el == el
                && s.pan == pan
                && s.unpriv == unpriv
                && s.s1_enabled == s1_enabled
        })?;
        let pa = slot.pa_page | (va & 0xfff);
        self.hits += 1; // replay the free L1 hit
        self.fast.dtlb_hits += 1;
        Some(pa)
    }

    /// Arm the micro-DTLB after a successful slow-path data translation:
    /// the caller proved `(tags, access kind) -> pa_page` at the current
    /// generation, for the ASIDs [`Self::arm_scope`] allows. Re-arming
    /// the same mapping ORs in the new access kind. Anything else takes
    /// a way of `va`'s set: the first armed at an older generation (or
    /// never), otherwise the set's round-robin victim.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn dtlb_arm(
        &mut self,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        pan: bool,
        unpriv: bool,
        s1_enabled: bool,
        va: u64,
        write: bool,
        pa_page: u64,
    ) {
        if !self.accel {
            return;
        }
        let (vpn, gen) = (va >> 12, self.gen);
        let asid = self.arm_scope(vmid, asid, va);
        let armed = DtlbSlot { gen, vpn, pa_page, vmid, asid, el, pan, unpriv, s1_enabled, read: !write, write };
        let set = dtlb_set(vpn);
        let ways = &mut self.dtlb[set];
        if let Some(slot) = ways.iter_mut().find(|s| **s == DtlbSlot { read: s.read, write: s.write, ..armed }) {
            slot.read |= armed.read;
            slot.write |= armed.write;
            return;
        }
        let way = ways.iter().position(|s| s.gen != gen).unwrap_or_else(|| {
            let way = usize::from(self.dtlb_next[set]);
            self.dtlb_next[set] = ((way + 1) % DTLB_WAYS) as u8;
            way
        });
        ways[way] = armed;
    }

    /// The compiled block for the fetch at `va`, served or lowered by
    /// `ICache::jit_block` (see [`crate::jit`]) and counted in
    /// `FastStats::jit_compiled` when lowered. Served only when armed at
    /// the *current* generation, so any TLBI, insert, or promotion since
    /// arming refuses service until a recorded fetch re-arms the page.
    /// Returns the block with its backing code frame, content version
    /// and arm scope.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn jit_block(
        &mut self,
        mem: &crate::PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        insn_base: u64,
    ) -> Option<Served> {
        let (served, lowered) = self.icache.jit_block(mem, vmid, asid, el, va, s1_enabled, wxn, self.gen, insn_base)?;
        self.fast.jit_compiled += u64::from(lowered);
        Some(served)
    }

    /// Count one compiled-block execution (host-side observability only).
    #[inline]
    pub(crate) fn count_jit_block(&mut self) {
        self.fast.jit_blocks += 1;
    }

    /// Count one in-place re-entry of a looping block, which is also a
    /// block execution (host-side observability only).
    #[inline]
    pub(crate) fn count_jit_loop(&mut self) {
        self.fast.jit_blocks += 1;
        self.fast.jit_loops += 1;
    }

    /// Count one single-stepped dispatch (host-side observability only).
    #[inline]
    pub(crate) fn count_jit_step(&mut self) {
        self.fast.jit_stepped += 1;
    }

    /// Replay the per-instruction bookkeeping of a compiled-block
    /// instruction: the free L1 TLB hit its fetch would score, and one
    /// fetch-cache hit.
    #[inline]
    pub(crate) fn count_superblock_insn(&mut self) {
        self.hits += 1;
        self.icache.count_hit();
    }

    /// Replay `n` instructions' bookkeeping at once (a JIT ALU run; sums
    /// to exactly `n` calls of [`Self::count_superblock_insn`]).
    #[inline]
    pub(crate) fn count_superblock_insns(&mut self, n: u64) {
        self.hits += n;
        self.icache.count_hits(n);
    }

    /// Count one completed compiled dispatch (host-side observability
    /// only).
    #[inline]
    pub(crate) fn count_superblock_exit(&mut self) {
        self.fast.superblock_exits += 1;
    }

    /// `(hits, misses)` counters since creation or [`Self::reset_stats`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Main-TLB hits that missed the micro-TLB.
    pub fn l2_hit_count(&self) -> u64 {
        self.l2_hits
    }

    /// Invalidation counters by TLBI scope.
    pub fn inval_stats(&self) -> InvalStats {
        self.inval
    }

    /// Walk and walk-fault counters.
    pub fn walk_stats(&self) -> WalkStats {
        self.walk
    }

    /// Zero the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.l2_hits = 0;
    }

    /// Number of resident translations (main TLB).
    pub fn len(&self) -> usize {
        self.l2.entries.values().map(Vec::len).sum()
    }

    /// True when no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.l2.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: Option<u16>, pa: u64) -> TlbEntry {
        TlbEntry { asid, pa_page: pa, s1: S1Perms::kernel_data(), s2: None }
    }

    #[test]
    fn asid_mismatch_misses() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(7), 0xa000));
        assert!(t.lookup(1, 7, 0x1000).is_some());
        assert!(t.lookup(1, 8, 0x1000).is_none(), "different ASID must miss");
        assert!(t.lookup(2, 7, 0x1000).is_none(), "different VMID must miss");
    }

    #[test]
    fn global_entries_match_all_asids() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x2000, entry(None, 0xb000));
        assert!(t.lookup(1, 1, 0x2000).is_some());
        assert!(t.lookup(1, 999, 0x2000).is_some());
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut t = Tlb::new(2);
        t.insert(1, 0x1000, entry(Some(1), 0xa000));
        t.insert(1, 0x2000, entry(Some(1), 0xb000));
        t.insert(1, 0x3000, entry(Some(1), 0xc000));
        assert!(t.lookup(1, 1, 0x1000).is_none(), "oldest entry evicted");
        assert!(t.lookup(1, 1, 0x3000).is_some());
    }

    #[test]
    fn invalidate_asid_spares_globals() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(5), 0xa000));
        t.insert(1, 0x2000, entry(None, 0xb000));
        t.invalidate_asid(1, 5);
        assert!(t.lookup(1, 5, 0x1000).is_none());
        assert!(t.lookup(1, 5, 0x2000).is_some());
    }

    #[test]
    fn invalidate_vmid_is_scoped() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(1), 0xa000));
        t.insert(2, 0x1000, entry(Some(1), 0xb000));
        t.invalidate_vmid(1);
        assert!(t.lookup(1, 1, 0x1000).is_none());
        assert!(t.lookup(2, 1, 0x1000).is_some());
    }

    #[test]
    fn invalidate_va_hits_all_asids() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(1), 0xa000));
        t.insert(1, 0x1000, entry(Some(2), 0xb000));
        t.invalidate_va(1, 0x1fff); // same page
        assert!(t.lookup(1, 1, 0x1000).is_none());
        assert!(t.lookup(1, 2, 0x1000).is_none());
    }

    #[test]
    fn same_asid_reinsert_replaces() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(1), 0xa000));
        t.insert(1, 0x1000, entry(Some(1), 0xc000));
        assert_eq!(t.lookup(1, 1, 0x1000).unwrap().pa_page, 0xc000);
        assert_eq!(t.len(), 1);
    }

    /// A TLB on the accelerated engine, so the micro-DTLB arms.
    fn accel_tlb() -> Tlb {
        let mut t = Tlb::new(16);
        t.set_accel(true);
        t
    }

    /// Arm an EL0 read of `vpn`'s page under `(vmid 1, asid)`, translated
    /// to `pa`, at the current generation.
    fn arm_read(t: &mut Tlb, asid: u16, vpn: u64, pa: u64) {
        t.dtlb_arm(1, asid, ExceptionLevel::El0, false, false, true, vpn << 12, false, pa);
    }

    /// The micro-DTLB's answer for an EL0 read of `vpn`'s page under
    /// `(vmid 1, asid)`.
    fn probe_read(t: &mut Tlb, asid: u16, vpn: u64) -> Option<u64> {
        t.dtlb_lookup(1, asid, ExceptionLevel::El0, false, false, true, vpn << 12, false)
    }

    #[test]
    fn dtlb_set_spreads_pages_a_multiple_of_256_kib_apart() {
        // `CODE` and `DATA` of the chaos programs, 1 MiB apart: the
        // same `vpn & 63`, different sets.
        assert_ne!(dtlb_set(0x400), dtlb_set(0x500));
        let apart: std::collections::BTreeSet<usize> = (0..16u64).map(|k| dtlb_set(0x400 + k * 64)).collect();
        assert!(apart.len() >= 8, "16 pages 256 KiB apart share {} sets", apart.len());
        let consecutive: std::collections::BTreeSet<usize> = (0..16u64).map(|k| dtlb_set(0x400 + k)).collect();
        assert_eq!(consecutive.len(), DTLB_SETS, "16 consecutive pages fill every set");
        assert!((0..4096u64).all(|vpn| dtlb_set(vpn) < DTLB_SETS));
    }

    #[test]
    fn dtlb_victim_is_a_stale_way_first_then_round_robin() {
        let mut t = accel_tlb();
        let set = dtlb_set(0x400);
        let vpns: Vec<u64> = (0x400u64..).filter(|&v| dtlb_set(v) == set).take(10).collect();
        let pa = |v: u64| v << 12;
        let hits = |t: &mut Tlb, vs: &[u64]| vs.iter().map(|&v| probe_read(t, 1, v).is_some()).collect::<Vec<_>>();
        // Five arms at one generation: the fifth replaces way 0, and the
        // round-robin cursor moves on to way 1.
        for &v in &vpns[..5] {
            arm_read(&mut t, 1, v, pa(v));
        }
        assert_eq!(hits(&mut t, &vpns[..5]), [false, true, true, true, true]);
        assert_eq!(probe_read(&mut t, 1, vpns[4]), Some(pa(vpns[4])));
        // A new generation leaves every way stale: the next four arms take
        // ways 0–3 in order, whatever the cursor says.
        t.insert(2, 0, entry(Some(1), 0xa000));
        for &v in &vpns[5..9] {
            arm_read(&mut t, 1, v, pa(v));
        }
        assert_eq!(hits(&mut t, &vpns[..5]), [false; 5], "every arm of the old generation misses");
        assert_eq!(hits(&mut t, &vpns[5..9]), [true; 4]);
        // No stale way left: the cursor's way 1, armed second, goes.
        arm_read(&mut t, 1, vpns[9], pa(vpns[9]));
        assert_eq!(hits(&mut t, &vpns[5..10]), [true, false, true, true, true]);
    }

    #[test]
    fn dtlb_rearm_of_the_same_mapping_adds_the_access_kind() {
        let mut t = accel_tlb();
        arm_read(&mut t, 1, 0x400, 0xa000);
        let write = |t: &mut Tlb| t.dtlb_lookup(1, 1, ExceptionLevel::El0, false, false, true, 0x40_0000, true);
        assert_eq!(write(&mut t), None, "a read arm proves nothing about writes");
        t.dtlb_arm(1, 1, ExceptionLevel::El0, false, false, true, 0x40_0000, true, 0xa000);
        assert_eq!((write(&mut t), probe_read(&mut t, 1, 0x400)), (Some(0xa000), Some(0xa000)));
        assert_eq!(t.fast_stats().dtlb_hits, 2);
        // Both kinds share one way: three more pages of the set fill the
        // other three ways and leave it armed.
        let set = dtlb_set(0x400);
        for v in (0x401u64..).filter(|&v| dtlb_set(v) == set).take(3) {
            arm_read(&mut t, 1, v, v << 12);
        }
        assert_eq!(probe_read(&mut t, 1, 0x400), Some(0xa000));
    }

    #[test]
    fn dtlb_arms_every_asid_only_under_a_global_l1_head() {
        let global = entry(None, 0xb000);
        let own = entry(Some(2), 0xc000);
        // (L1 slot contents, in fill order; the arming ASID; ASIDs among
        // 1–3 the arm serves)
        let cases: [(&[TlbEntry], u16, &[u16]); 4] = [
            (&[global], 1, &[1, 2, 3]),
            (&[own, global], 1, &[1]), // ASID 2's lookup returns its own entry
            (&[own], 2, &[2]),
            (&[], 1, &[1]), // no L1 entry to prove anything about other ASIDs
        ];
        for (i, (fills, asid, served)) in cases.into_iter().enumerate() {
            let mut t = accel_tlb();
            for e in fills {
                t.insert(1, 0x40_0000, *e);
            }
            let pa = t.peek(1, asid, 0x40_0000).map_or(0xd000, |e| e.pa_page);
            arm_read(&mut t, asid, 0x400, pa);
            let hit: Vec<u16> = (1..=3).filter(|&a| probe_read(&mut t, a, 0x400).is_some()).collect();
            assert_eq!(hit, served, "case {i}");
            // Every replay is the lookup the slow path would make.
            for a in hit {
                assert_eq!(t.peek(1, a, 0x40_0000).map(|e| e.pa_page).unwrap_or(pa), pa, "case {i}, ASID {a}");
            }
            assert_eq!(t.dtlb_lookup(2, 1, ExceptionLevel::El0, false, false, true, 0x40_0000, false), None);
        }
    }

    #[test]
    fn dtlb_misses_after_any_generation_bump() {
        let mut t = accel_tlb();
        t.insert(1, 0x40_0000, entry(None, 0xb000));
        for bump in 0..3 {
            arm_read(&mut t, 1, 0x400, 0xb000);
            assert_eq!(probe_read(&mut t, 7, 0x400), Some(0xb000));
            match bump {
                0 => t.insert(1, 0x9000, entry(Some(1), 0xa000)),
                1 => t.invalidate_asid(1, 9),
                _ => t.invalidate_va(1, 0x9000),
            }
            assert_eq!(probe_read(&mut t, 7, 0x400), None, "bump {bump}");
        }
        t.set_accel(false);
        assert_eq!(probe_read(&mut t, 1, 0x400), None, "the reference engine never probes");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut t = Tlb::new(16);
        t.insert(1, 0x1000, entry(Some(1), 0xa000));
        t.lookup(1, 1, 0x1000);
        t.lookup(1, 1, 0x9000);
        assert_eq!(t.stats(), (1, 1));
        t.reset_stats();
        assert_eq!(t.stats(), (0, 0));
    }
}
