//! Compiled-block fetch cache: lets the accelerated engine run code as
//! compiled blocks instead of fetching, translating and decoding every
//! instruction.
//!
//! The cache holds no instruction words. It keys page entries by
//! `(VMID, ASID-or-global, VA page)` — the same tagging discipline as
//! the TLB — and per page remembers the translation regime of the fetch
//! that recorded it (EL, stage-1 enable, WXN), the TLB entry that fetch
//! translated through, and the *content version* of the physical frame
//! the code lives in (see `PhysMem::frame_version`). Compiled blocks
//! (see [`crate::jit`]) are lowered straight from that frame and stored
//! in the page entry, keyed by start slot. `ICache::jit_block` is the
//! one lookup: it validates the page entry, then serves the stored block
//! or lowers and stores one.
//!
//! # Coherence contract
//!
//! The cache serves only compiled blocks. A single step is the
//! reference fetch — `walk::translate`, `read_u32`, `Insn::decode` —
//! and records the page it fetched from (see `ICache::record`). A
//! block is served only when it is provably equivalent to stepping
//! through it:
//!
//! * **TLBI variants** — every `Tlb::invalidate_*` forwards here with the
//!   same scope semantics (global entries survive `invalidate_asid`, etc.).
//! * **Physical writes** — every lookup validates the code frame's
//!   version against `PhysMem`; self-modifying stores, DMA-style
//!   `write_bytes`, and frame recycling all bump it, so the stale block
//!   is refused and the next recorded fetch restarts its entry.
//! * **Translation** — the TLB vouches for every served block: its page
//!   entry must be *armed* (below) at the current TLB generation, which
//!   a recorded fetch proves only when the entry's snapshot is the live
//!   L1 TLB entry. A TLB miss always reads the live descriptors, so a
//!   leaf rewritten without a TLBI is seen as soon as its TLB entry is
//!   gone.
//!
//! Like the TLB itself (see `stale_tlb_entry_survives_table_edit`), the
//! cache may keep translating from a stale view after page-table edits that
//! violate break-before-make — that is the architectural hazard the TLBI
//! contract exists to prevent, not a new one introduced here.
//!
//! Cycle accounting is unaffected by design: a compiled instruction
//! costs what the free L1 TLB hit its fetch would score costs, so paper
//! tables are bit-identical on both engines.
//!
//! # Arming
//!
//! A page entry is *armed* at a TLB generation once a recorded fetch has
//! proven that fetching any word of the page equals a free L1 TLB hit on
//! the entry's snapshot; until the generation moves, compiled blocks are
//! served from it without touching the TLB. The proof is made right
//! after the fetch: the fetch left the entry it used in L1 (an L1 hit
//! stays, an L2 hit was promoted, a walk inserted), and the entry
//! `entry_mut` finds for the fetch's ASID must carry that live entry —
//! an older entry that shadows it under `entry_mut`'s find order is not
//! armed. Every word of the page shares that TLB entry and its fetch
//! permission, so a block may cover words no step has fetched.
//!
//! An entry is armed for the fetch's ASID, or for **every** ASID when
//! two facts hold: its snapshot is global, and that global entry heads
//! the page's L1 TLB slot (`Tlb::arm_scope` decides, for the micro-DTLB
//! too). While the TLB generation holds, L1 is frozen
//! and an L1 slot holds at most one global entry, so every ASID's L1
//! lookup returns that head. Blocks are reached only through
//! `entry_mut`'s find order: an ASID whose own entry precedes the
//! global one in the page's list finds its own entry and never this
//! one, and every other ASID finds this one. A gate switch that only
//! changes the ASID therefore keeps global code (the gate page,
//! unprotected memory) armed.

use crate::fxhash::FxHashMap;
use crate::jit::CompiledBlock;
use crate::pte::S1Perms;
use crate::tlb::TlbEntry;
use crate::PhysMem;
use lz_arch::pstate::ExceptionLevel;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

const WORDS_PER_PAGE: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PageKey {
    vmid: u16,
    vpn: u64,
}

/// The facts of a recorded fetch that must still hold for a block to be
/// served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillInfo {
    /// Exception level of the recorded fetch (permission checks depend
    /// on it, so EL0 and EL1 blocks for one page are cached separately).
    pub el: ExceptionLevel,
    pub s1_enabled: bool,
    pub wxn: bool,
    /// The TLB entry the recorded fetch translated through. Its ASID
    /// tags the page entry (`None` for global pages, which serve every
    /// ASID), and its `pa_page` is the code frame blocks are lowered
    /// from.
    pub snapshot: TlbEntry,
}

#[derive(Debug)]
struct PageEntry {
    info: FillInfo,
    /// `PhysMem::frame_version` of the code frame when last validated.
    frame_version: u64,
    /// `PhysMem::write_gen` at last validation — if the global generation
    /// hasn't moved, no frame anywhere changed and the version compare can
    /// be skipped.
    checked_gen: u64,
    /// `Tlb::generation` when a recorded fetch last proved this entry
    /// equivalent to a free L1 TLB hit (0 = never), and the ASID it was
    /// proven for (`None`: every ASID; see [`ICache::record`]). While
    /// the TLB generation matches and the fetch ASID is covered, the L1
    /// lookup result is guaranteed unchanged.
    fast_gen: u64,
    fast_asid: Option<u16>,
    /// Compiled blocks keyed by start slot (see [`crate::jit`]). Sharing
    /// the page entry means every path that drops or restarts the page —
    /// TLBI scopes, content staleness, capacity eviction — drops its
    /// compiled blocks for the same reason at the same moment; serve-time
    /// validation is then [`ICache::armed_entry`]'s test.
    blocks: FxHashMap<u16, Arc<CompiledBlock>>,
}

impl PageEntry {
    /// A fresh, unarmed entry with no blocks.
    fn new(info: FillInfo, frame_version: u64, checked_gen: u64) -> Self {
        PageEntry { info, frame_version, checked_gen, fast_gen: 0, fast_asid: None, blocks: FxHashMap::default() }
    }
}

/// A compiled block served from an armed page entry (see
/// [`ICache::jit_block`]), with the facts its run revalidates:
/// the code frame's content version after every `Mem` or `Slow`
/// segment, and the arm's ASID scope after a `TTBR0_EL1` write (see
/// `Machine::step_jit`).
#[derive(Debug)]
pub(crate) struct Served {
    pub(crate) block: Arc<CompiledBlock>,
    /// The code frame the block was lowered from.
    pub(crate) pa_page: u64,
    /// `PhysMem::frame_version` of that frame when the entry was last
    /// validated.
    pub(crate) frame_version: u64,
    /// The ASIDs the entry's arm covers: one, or every ASID (`None`; see
    /// [`ICache::record`]).
    pub(crate) arm_asid: Option<u16>,
}

/// The compiled-block fetch cache. Lives inside [`crate::Tlb`] so every
/// TLB maintenance operation reaches it without new call sites.
#[derive(Debug)]
pub struct ICache {
    pages: FxHashMap<PageKey, Vec<PageEntry>>,
    order: VecDeque<PageKey>,
    capacity: usize,
    /// Compiled-block instructions retired.
    hits: u64,
    /// Single steps recorded.
    misses: u64,
    /// Entries dropped for capacity (FIFO) or restarted for staleness
    /// (content/regime).
    evictions: u64,
    /// Entries dropped by TLBI-scope maintenance (`clear`/`invalidate_*`).
    invalidations: u64,
}

impl Default for ICache {
    fn default() -> Self {
        ICache::new(64)
    }
}

impl ICache {
    /// `capacity` bounds the number of cached *pages* (FIFO replacement).
    pub fn new(capacity: usize) -> Self {
        ICache {
            pages: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Record a fetch at `va` that the reference path just completed for
    /// `asid` through `info.snapshot`, the L1 TLB entry it hit, promoted
    /// or inserted (see [`crate::walk::fetch`]): create or restart its
    /// page entry ([`Self::fill`]), then arm the entry at TLB generation
    /// `tlb_gen` if it is the one [`Self::entry_mut`] finds for `asid` —
    /// the entry that carries the live TLB entry (see the module docs).
    /// The arm covers the ASIDs `scope` names: every ASID (`None`) when
    /// the snapshot is a global entry that heads the page's L1 TLB slot,
    /// otherwise `asid` alone (`Tlb::arm_scope` decides).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        va: u64,
        info: FillInfo,
        tlb_gen: u64,
        scope: Option<u16>,
    ) {
        self.misses += 1;
        let Some(i) = self.fill(mem, vmid, va, info) else { return };
        let Some(entries) = self.pages.get_mut(&PageKey { vmid, vpn: va >> 12 }) else { return };
        // `entry_mut`'s find order. Entries are unique per (ASID tag, EL),
        // so the entry it finds carries the live TLB entry exactly when it
        // is the one just filled.
        let finds = |e: &PageEntry| e.info.el == info.el && e.info.snapshot.asid.is_none_or(|a| a == asid);
        if entries.iter().position(finds) != Some(i) {
            return;
        }
        let e = &mut entries[i];
        (e.fast_gen, e.fast_asid) = (tlb_gen, scope);
    }

    /// Create or restart the page entry of a fetch at `va` through
    /// `info.snapshot`: the entry with the snapshot's ASID tag at
    /// `info.el`. An entry whose regime and code-frame content are
    /// unchanged keeps its arm and its compiled blocks, which were
    /// lowered from the same bytes under the same translation; any other
    /// restarts, unarmed and without blocks. Returns the entry's index
    /// in the page's list, or `None` when the code frame is unbacked.
    fn fill(&mut self, mem: &PhysMem, vmid: u16, va: u64, info: FillInfo) -> Option<usize> {
        let frame_version = mem.frame_version(info.snapshot.pa_page)?;
        let key = PageKey { vmid, vpn: va >> 12 };
        let checked_gen = mem.write_gen();

        if let Some(entries) = self.pages.get_mut(&key) {
            let same_tag = |e: &PageEntry| e.info.snapshot.asid == info.snapshot.asid && e.info.el == info.el;
            if let Some(i) = entries.iter().position(same_tag) {
                let e = &mut entries[i];
                if e.info == info && e.frame_version == frame_version {
                    e.checked_gen = checked_gen;
                } else {
                    // Regime or content moved on: restart the entry.
                    self.evictions += 1;
                    *e = PageEntry::new(info, frame_version, checked_gen);
                }
                return Some(i);
            }
        }

        while self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                if let Some(dropped) = self.pages.remove(&old) {
                    self.evictions += dropped.len() as u64;
                }
            }
        }
        let entries = self.pages.entry(key).or_default();
        if entries.is_empty() {
            self.order.push_back(key);
        }
        entries.push(PageEntry::new(info, frame_version, checked_gen));
        Some(entries.len() - 1)
    }

    /// The page entry that serves fetches at `va` by `(vmid, asid, el)`:
    /// the first one filled at `el` whose snapshot is tagged with `asid`
    /// or is global.
    #[inline]
    fn entry_mut(&mut self, vmid: u16, asid: u16, el: ExceptionLevel, va: u64) -> Option<&mut PageEntry> {
        let entries = self.pages.get_mut(&PageKey { vmid, vpn: va >> 12 })?;
        entries.iter_mut().find(|e| e.info.snapshot.asid.is_none_or(|a| a == asid) && e.info.el == el)
    }

    /// The page entry a compiled block for the fetch at `va` comes from:
    /// [`Self::entry_mut`]'s, if its regime flags are unchanged (a flipped
    /// SCTLR bit changes permission-check outcomes), its code frame is
    /// content-fresh (O(1) through the global write generation, falling
    /// back to one frame-version compare), and it is armed at `tlb_gen`
    /// for `asid` or for every ASID (see [`Self::record`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn armed_entry(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        tlb_gen: u64,
    ) -> Option<&mut PageEntry> {
        let e = self.entry_mut(vmid, asid, el, va)?;
        if e.info.s1_enabled != s1_enabled || e.info.wxn != wxn {
            return None;
        }
        if e.checked_gen != mem.write_gen() {
            if mem.frame_version(e.info.snapshot.pa_page) != Some(e.frame_version) {
                return None;
            }
            e.checked_gen = mem.write_gen();
        }
        (e.fast_gen == tlb_gen && e.fast_asid.is_none_or(|a| a == asid)).then_some(e)
    }

    /// The compiled block for the fetch at `va`, if its page entry passes
    /// [`Self::armed_entry`]'s test: the block stored at `va`'s slot, or
    /// one lowered now from the entry's code frame (see
    /// [`crate::jit::lower`]) and stored there for later lookups. A block
    /// is thus lowered only where it could be served, from a frame whose
    /// content is the entry's version. Returns the block with what its
    /// run revalidates against ([`Served`]), and whether this call
    /// lowered it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn jit_block(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        tlb_gen: u64,
        insn_base: u64,
    ) -> Option<(Served, bool)> {
        let e = self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let (pa_page, frame_version, arm_asid) = (e.info.snapshot.pa_page, e.frame_version, e.fast_asid);
        let mut lowered = false;
        let block = match e.blocks.entry(slot_of(va) as u16) {
            Entry::Occupied(stored) => stored.into_mut(),
            Entry::Vacant(slot) => {
                let frame = mem.frame(pa_page)?;
                lowered = true;
                slot.insert(Arc::new(crate::jit::lower(va, &frame[(va & 0xfff) as usize..], insn_base)))
            }
        };
        Some((Served { block: Arc::clone(block), pa_page, frame_version, arm_asid }, lowered))
    }

    /// Count one compiled-block instruction.
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Count `n` compiled-block instructions at once (a JIT ALU run).
    #[inline]
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// `TLBI ALLE1` scope: drop everything.
    pub fn clear(&mut self) {
        self.invalidations += self.len() as u64;
        self.pages.clear();
        self.order.clear();
    }

    /// `TLBI VMALLS12E1` scope: drop one VMID.
    pub fn invalidate_vmid(&mut self, vmid: u16) {
        let before = self.len();
        self.pages.retain(|k, _| k.vmid != vmid);
        self.order.retain(|k| k.vmid != vmid);
        self.invalidations += (before - self.len()) as u64;
    }

    /// `TLBI ASIDE1` scope: drop one `(vmid, asid)`; global entries survive.
    pub fn invalidate_asid(&mut self, vmid: u16, asid: u16) {
        let before = self.len();
        for (k, v) in self.pages.iter_mut() {
            if k.vmid == vmid {
                v.retain(|e| e.info.snapshot.asid != Some(asid));
            }
        }
        let pages = &mut self.pages;
        self.order.retain(|k| pages.get(k).is_some_and(|v| !v.is_empty()));
        pages.retain(|_, v| !v.is_empty());
        self.invalidations += (before - self.len()) as u64;
    }

    /// `TLBI VAAE1` scope: drop one page in a VMID, any ASID.
    pub fn invalidate_va(&mut self, vmid: u16, va: u64) {
        let key = PageKey { vmid, vpn: va >> 12 };
        if let Some(dropped) = self.pages.remove(&key) {
            self.invalidations += dropped.len() as u64;
        }
        self.order.retain(|k| *k != key);
    }

    /// Does the cache hold an entry with this exact ASID tag for the page?
    /// (`None` = a global entry.) For tests and diagnostics.
    pub fn contains(&self, vmid: u16, asid: Option<u16>, va: u64) -> bool {
        let key = PageKey { vmid, vpn: va >> 12 };
        self.pages.get(&key).is_some_and(|v| v.iter().any(|e| e.info.snapshot.asid == asid))
    }

    /// Number of cached page entries (per-ASID entries counted separately).
    pub fn len(&self) -> usize {
        self.pages.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// `(hits, misses)` since creation: compiled-block instructions
    /// retired, and single steps recorded.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries dropped for capacity or restarted for staleness since
    /// creation.
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Entries dropped by TLBI-scope maintenance since creation.
    pub fn invalidation_count(&self) -> u64 {
        self.invalidations
    }

    /// Would a compiled block for the fetch at `va` be served from this
    /// page at TLB generation `tlb_gen`? `armed_entry`'s test,
    /// for tests and diagnostics.
    #[allow(clippy::too_many_arguments)]
    pub fn serves(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        tlb_gen: u64,
    ) -> bool {
        self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen).is_some()
    }

    /// Insert a minimal entry directly (test/diagnostic helper): an
    /// unarmed entry for `(vmid, asid, va)` against `pa_page` in `mem`.
    pub fn seed_entry(&mut self, mem: &PhysMem, vmid: u16, asid: Option<u16>, va: u64, pa_page: u64) {
        self.fill(mem, vmid, va, seed_info(asid, pa_page));
    }
}

/// What [`ICache::seed_entry`] records: an EL0 fetch, stage 1 on and WXN
/// off, through a user-executable page at `pa_page`.
fn seed_info(asid: Option<u16>, pa_page: u64) -> FillInfo {
    let s1 = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: asid.is_none() };
    let snapshot = TlbEntry { asid, pa_page, s1, s2: None };
    FillInfo { el: ExceptionLevel::El0, s1_enabled: true, wxn: false, snapshot }
}

/// The icache slot of the word at `va`.
#[inline]
fn slot_of(va: u64) -> usize {
    (va >> 2) as usize & (WORDS_PER_PAGE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word the tests' code frames hold.
    const NOP: u64 = 0xD503_201F;

    fn seeded(mem: &PhysMem, pairs: &[(u16, Option<u16>, u64, u64)]) -> ICache {
        let mut ic = ICache::new(16);
        for &(vmid, asid, va, pa) in pairs {
            ic.seed_entry(mem, vmid, asid, va, pa);
        }
        ic
    }

    /// A NOP-filled code frame.
    fn nop_frame(mem: &mut PhysMem) -> u64 {
        let pa = mem.alloc_frame();
        assert!(mem.write_bytes(pa, &[NOP as u32; 1024].map(u32::to_le_bytes).concat()));
        pa
    }

    /// Record an EL0 fetch at `va` under ASID 1 at TLB generation 1, armed
    /// for ASID 1 only: the entry for `va` (code at `pa`; ASID 1, or
    /// global).
    fn recorded(mem: &PhysMem, va: u64, pa: u64, global: bool) -> ICache {
        let mut ic = ICache::new(16);
        ic.record(mem, 0, 1, va, seed_info(if global { None } else { Some(1) }, pa), 1, Some(1));
        ic
    }

    /// Does the entry test compiled blocks use pass for an EL0 fetch at
    /// `va` under `asid`, stage 1 on and WXN `wxn`, at TLB generation 1?
    fn serves(ic: &mut ICache, mem: &PhysMem, asid: u16, va: u64, wxn: bool) -> bool {
        ic.serves(mem, 0, asid, ExceptionLevel::El0, va, true, wxn, 1)
    }

    #[test]
    fn invalidate_va_drops_all_asids() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(1, Some(1), 0x1000, pa), (1, Some(2), 0x1000, pa)]);
        assert_eq!(ic.len(), 2);
        ic.invalidate_va(1, 0x1abc);
        assert!(ic.is_empty());
    }

    #[test]
    fn invalidate_asid_spares_globals() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(1, Some(5), 0x1000, pa), (1, None, 0x2000, pa)]);
        ic.invalidate_asid(1, 5);
        assert!(!ic.contains(1, Some(5), 0x1000));
        assert!(ic.contains(1, None, 0x2000));
    }

    #[test]
    fn invalidate_vmid_is_scoped() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(1, Some(1), 0x1000, pa), (2, Some(1), 0x1000, pa)]);
        ic.invalidate_vmid(1);
        assert!(!ic.contains(1, Some(1), 0x1000));
        assert!(ic.contains(2, Some(1), 0x1000));
    }

    #[test]
    fn frame_write_invalidates_entry() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, false);
        assert!(serves(&mut ic, &mem, 1, 0x1000, false));
        mem.write(pa, NOP, 4);
        assert!(!serves(&mut ic, &mem, 1, 0x1000, false), "write to the code frame must not serve the stale page");
        // The next recorded fetch restarts the stale entry in place.
        ic.record(&mem, 0, 1, 0x1000, seed_info(Some(1), pa), 1, Some(1));
        assert_eq!((ic.len(), ic.eviction_count()), (1, 1));
        assert!(serves(&mut ic, &mem, 1, 0x1000, false));
    }

    #[test]
    fn unrelated_write_keeps_entry() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let other = mem.alloc_frame();
        let mut ic = recorded(&mem, 0x1000, pa, false);
        mem.write(other, 0x1234_5678, 4);
        assert!(serves(&mut ic, &mem, 1, 0x1000, false));
    }

    #[test]
    fn global_entry_matches_any_asid() {
        // A global entry that heads its L1 slot is armed for every ASID.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = ICache::new(16);
        ic.record(&mem, 0, 1, 0x1000, seed_info(None, pa), 1, None);
        for asid in [1u16, 7, 999] {
            assert!(serves(&mut ic, &mem, asid, 0x1000, false), "ASID {asid}");
        }
    }

    #[test]
    fn capacity_evicts_fifo_pages() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = ICache::new(2);
        ic.seed_entry(&mem, 0, Some(1), 0x1000, pa);
        ic.seed_entry(&mem, 0, Some(1), 0x2000, pa);
        ic.seed_entry(&mem, 0, Some(1), 0x3000, pa);
        assert!(!ic.contains(0, Some(1), 0x1000), "oldest page evicted");
        assert!(ic.contains(0, Some(1), 0x3000));
    }

    #[test]
    fn recording_counts_a_miss_and_arms_only_a_live_entry() {
        // ASID 1's global entry, then ASID 1's own entry for the same
        // page: `entry_mut` still finds the global one for ASID 1, so the
        // fetch through the own entry fills it but arms nothing.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, true);
        ic.record(&mem, 0, 1, 0x1000, seed_info(Some(1), pa), 2, Some(1));
        assert_eq!((ic.len(), ic.stats()), (2, (0, 2)));
        assert!(!ic.serves(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, false, 2), "the shadowed entry is not armed");
        assert!(serves(&mut ic, &mem, 1, 0x1000, false), "the global entry keeps its arm");
    }

    /// [`ICache::jit_block`] for an EL0 fetch at `va` under ASID 1, stage
    /// 1 on and WXN off, at TLB generation `tlb_gen`: the block, and
    /// whether this lookup lowered it.
    fn lookup(ic: &mut ICache, mem: &PhysMem, va: u64, tlb_gen: u64) -> Option<(Arc<CompiledBlock>, bool)> {
        let (served, lowered) = ic.jit_block(mem, 0, 1, ExceptionLevel::El0, va, true, false, tlb_gen, 1)?;
        Some((served.block, lowered))
    }

    /// [`recorded`], with the compiled block at `va` lowered by its first
    /// lookup.
    fn armed_with_block(mem: &PhysMem, va: u64, pa: u64, global: bool) -> (ICache, Arc<CompiledBlock>) {
        let mut ic = recorded(mem, va, pa, global);
        let (block, lowered) = lookup(&mut ic, mem, va, 1).expect("a NOP lowers");
        assert!(lowered, "the first lookup lowers the block");
        (ic, block)
    }

    /// The ASIDs among 1–3 that compiled blocks at `va` are served to at
    /// TLB generation 1.
    fn served_asids(ic: &mut ICache, mem: &PhysMem, va: u64) -> Vec<u16> {
        (1..=3).filter(|&asid| serves(ic, mem, asid, va, false)).collect()
    }

    #[test]
    fn jit_block_serves_the_stored_block() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let (mut ic, block) = armed_with_block(&mem, 0x1000, pa, false);
        let (again, lowered) = lookup(&mut ic, &mem, 0x1000, 1).expect("served");
        assert!(Arc::ptr_eq(&again, &block) && !lowered, "a second lookup serves the stored block");
        assert!(lookup(&mut ic, &mem, 0x1000, 2).is_none(), "another TLB generation must miss");
        let (next, lowered) = lookup(&mut ic, &mem, 0x1004, 1).expect("the page is armed");
        assert!(lowered && !Arc::ptr_eq(&next, &block), "the next slot lowers its own block");
    }

    #[test]
    fn compiled_blocks_cover_words_no_step_fetched() {
        // One recorded fetch at the page's first word arms the page; a
        // block then lowers at any word, from the frame, up to the page
        // end.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, false);
        let (served, lowered) =
            ic.jit_block(&mem, 0, 1, ExceptionLevel::El0, 0x1ff8, true, false, 1, 1).expect("lowers");
        assert_eq!((served.block.total, served.pa_page, lowered), (2, pa, true), "two words left in the page");
    }

    #[test]
    fn global_entry_arms_every_asid_only_when_it_leads() {
        // A global entry armed for every ASID (its L1 slot head is
        // global; `Tlb::arm_scope`) serves every ASID that `entry_mut`
        // leads to it. An ASID whose own entry comes first in the page's
        // list (case 3's ASID 2) finds that entry instead, so it is never
        // served from the global one.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        let el1 = FillInfo { el: ExceptionLevel::El1, ..seed_info(Some(2), pa) };
        // (entries filled before the global one, arm scope, ASIDs served
        // after recording a fetch under ASID 1)
        let cases: [(&[FillInfo], Option<u16>, &[u16]); 4] = [
            (&[], None, &[1, 2, 3]),
            (&[el1], None, &[1, 2, 3]), // another EL's entry does not count
            (&[], Some(1), &[1]),
            (&[seed_info(Some(2), pa)], None, &[1, 3]), // ASID 2 finds its own (unarmed) entry first
        ];
        for (i, (before, scope, served)) in cases.into_iter().enumerate() {
            let mut ic = ICache::new(16);
            for info in before {
                ic.fill(&mem, 0, va, *info);
            }
            ic.record(&mem, 0, 1, va, seed_info(None, pa), 1, scope);
            assert_eq!(served_asids(&mut ic, &mem, va), served, "case {i}");
        }
    }

    #[test]
    fn jit_block_misses_after_mutations() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        for (i, what) in ["invalidation", "re-arm for another ASID", "code write"].iter().enumerate() {
            // A global entry armed for one ASID, so that it can be
            // re-armed for ASID 2.
            let (mut ic, _) = armed_with_block(&mem, va, pa, true);
            match i {
                0 => ic.invalidate_va(0, va),
                1 => ic.record(&mem, 0, 2, va, seed_info(None, pa), 1, Some(2)),
                _ => assert!(mem.write(pa, NOP, 4)),
            }
            assert!(lookup(&mut ic, &mem, va, 1).is_none(), "{what} must refuse the stored block");
        }
    }

    #[test]
    fn regime_flag_change_evicts() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, false);
        assert!(!serves(&mut ic, &mem, 1, 0x1000, true), "WXN flip must not serve the old page");
        // The next recorded fetch, under the new regime, restarts the
        // entry in place.
        ic.record(&mem, 0, 1, 0x1000, FillInfo { wxn: true, ..seed_info(Some(1), pa) }, 1, Some(1));
        assert_eq!((ic.len(), ic.eviction_count()), (1, 1));
        assert!(serves(&mut ic, &mem, 1, 0x1000, true));
    }
}
