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
use crate::icache::{FillInfo, ICache};
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

/// Number of micro-DTLB slots (direct-mapped by VPN).
const DTLB_SLOTS: usize = 64;

/// One armed micro-DTLB slot: a host-side memo that a data translation
/// for exactly these tags was proven (by the full slow path) to be a free
/// L1 hit at generation `gen`. `gen == 0` marks an empty slot (the real
/// generation counter starts at 1). The entry caches no permissions: the
/// `read`/`write` bits record which access kinds were *proven*, and
/// everything that could change the outcome of the permission checks —
/// EL, PSTATE.PAN, the unprivileged-access flag, whether stage 1 is on —
/// is part of the tag, so a hit replays a result the slow path is
/// guaranteed to reproduce.
#[derive(Debug, Clone, Copy)]
struct DtlbSlot {
    gen: u64,
    vpn: u64,
    pa_page: u64,
    vmid: u16,
    asid: u16,
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
    asid: 0,
    el: ExceptionLevel::El0,
    pan: false,
    unpriv: false,
    s1_enabled: false,
    read: false,
    write: false,
};

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
    /// Micro-DTLB: direct-mapped by VPN, guarded by `gen`.
    dtlb: [DtlbSlot; DTLB_SLOTS],
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
            dtlb: [EMPTY_DTLB_SLOT; DTLB_SLOTS],
            fast: FastStats::default(),
        }
    }

    /// Select the engine (see the `accel` field). Selecting the reference
    /// engine drops every armed micro-DTLB slot so a later re-enable
    /// cannot resurrect state from a different configuration epoch.
    pub fn set_accel(&mut self, on: bool) {
        self.accel = on;
        if !on {
            self.dtlb = [EMPTY_DTLB_SLOT; DTLB_SLOTS];
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

    /// Record a successful reference fetch at `va` in the fetch cache
    /// (see `ICache::record`). The fetch left the TLB entry it used in L1
    /// — an L1 hit stays, an L2 hit was promoted, a walk inserted — so
    /// the L1 lookup returns that entry, and `record` arms the page
    /// against it at the current generation. A global entry that heads
    /// its L1 slot is armed for every ASID.
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
        let l1_head = self.l1.head(vmid, va);
        self.icache.record(mem, vmid, asid, va, info, self.gen, l1_head);
    }

    /// Micro-DTLB probe for a data access. A hit means the slow path
    /// (hash-map lookup + permission checks) was already proven to return
    /// exactly this physical address as a free L1 hit for these tags, and
    /// nothing that could change that outcome has happened since:
    ///
    /// * `gen` guards every structural TLB mutation (insert, promotion,
    ///   every `invalidate_*`, DVM shootdowns) — while it is unchanged,
    ///   L1 content is frozen;
    /// * the tag pins VMID, ASID, EL, PSTATE.PAN, the unprivileged flag
    ///   (LDTR/STTR) and whether stage 1 is on, so `set_sysreg`, ERET,
    ///   PAN flips and domain switches all fall back to the slow path;
    /// * `read`/`write` are armed separately, so an entry proven only
    ///   for loads never short-circuits the write-permission check.
    ///
    /// On a hit the replay is byte-identical to the slow path: one TLB
    /// hit, zero modelled cycles.
    #[allow(clippy::too_many_arguments)]
    #[inline]
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
        let vpn = va >> 12;
        let slot = &self.dtlb[(vpn as usize) & (DTLB_SLOTS - 1)];
        let armed = if write { slot.write } else { slot.read };
        if slot.gen == self.gen
            && armed
            && slot.vpn == vpn
            && slot.vmid == vmid
            && slot.asid == asid
            && slot.el == el
            && slot.pan == pan
            && slot.unpriv == unpriv
            && slot.s1_enabled == s1_enabled
        {
            self.hits += 1; // replay the free L1 hit
            self.fast.dtlb_hits += 1;
            return Some(slot.pa_page | (va & 0xfff));
        }
        None
    }

    /// Arm the micro-DTLB after a successful slow-path data translation:
    /// the caller proved `(tags, access kind) -> pa_page` at the current
    /// generation. Re-arming the same mapping ORs in the new access kind;
    /// anything else overwrites the direct-mapped slot.
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
        let vpn = va >> 12;
        let gen = self.gen;
        let slot = &mut self.dtlb[(vpn as usize) & (DTLB_SLOTS - 1)];
        if slot.gen == gen
            && slot.vpn == vpn
            && slot.vmid == vmid
            && slot.asid == asid
            && slot.el == el
            && slot.pan == pan
            && slot.unpriv == unpriv
            && slot.s1_enabled == s1_enabled
            && slot.pa_page == pa_page
        {
            if write {
                slot.write = true;
            } else {
                slot.read = true;
            }
            return;
        }
        *slot = DtlbSlot { gen, vpn, pa_page, vmid, asid, el, pan, unpriv, s1_enabled, read: !write, write };
    }

    /// Lend out the compiled block for the fetch at `va` (see
    /// [`crate::jit`] and `ICache::jit_lend`). Served only when armed at
    /// the *current* generation, so any TLBI, insert, or promotion since
    /// arming refuses service until a recorded fetch re-arms the page.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn jit_lend(
        &mut self,
        mem: &crate::PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
    ) -> Option<crate::icache::LentBlock> {
        let gen = self.gen;
        self.icache.jit_lend(mem, vmid, asid, el, va, s1_enabled, wxn, gen)
    }

    /// Hand a block from [`Self::jit_lend`] back to the dispatch memo.
    #[inline]
    pub(crate) fn jit_return(&mut self, lent: crate::icache::LentBlock) {
        self.icache.jit_return(lent);
    }

    /// Lower the code at `va` and store it in its icache page entry (see
    /// `ICache::compile`), validated at the current generation.
    /// Returns the block and its backing `(pa_page, frame_version)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn jit_compile(
        &mut self,
        mem: &crate::PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        insn_base: u64,
    ) -> Option<(std::sync::Arc<crate::jit::CompiledBlock>, u64, u64)> {
        let gen = self.gen;
        let compiled = self.icache.compile(mem, vmid, asid, el, va, s1_enabled, wxn, gen, insn_base)?;
        self.fast.jit_compiled += 1;
        Some(compiled)
    }

    /// Count one compiled-block execution (host-side observability only).
    #[inline]
    pub(crate) fn count_jit_block(&mut self) {
        self.fast.jit_blocks += 1;
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

    /// Count one completed compiled block (host-side observability only).
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
