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
//! in the page entry, keyed by start slot.
//!
//! # Coherence contract
//!
//! The cache serves only compiled blocks. A single step is the
//! reference fetch — `walk::translate`, `read_u32`, `Insn::decode` —
//! and records the page it fetched from (see [`ICache::record`]). A
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
//!   L1 TLB entry. A TLB miss always walks (through the walk cache,
//!   which checks every table frame it read), so a leaf rewritten
//!   without a TLBI is seen as soon as its TLB entry is gone.
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
//! three facts hold: its snapshot is global, it is the first entry at
//! its EL in the page's list, and that global entry heads the page's L1
//! TLB slot. While the TLB generation holds, L1 is frozen and an L1 slot
//! holds at most one global entry, so every ASID's L1 lookup returns
//! that head, and `entry_mut`'s find order picks this entry for every
//! ASID. A gate switch that only changes the ASID therefore keeps
//! global code (the gate page, unprotected memory) armed.
//!
//! # JIT dispatch memo
//!
//! Compiled blocks are found through [`ICache::jit_lend`]: a direct-mapped
//! memo of [`MEMO_SLOTS`] recent `jit_block` answers, allocated on first
//! use. A slot hits only under `jit_block`'s own test — the same
//! `(vmid, asid, el, s1_enabled, wxn)` tags, TLB generation and code-frame
//! freshness — plus an unchanged *mutation epoch*: every new entry,
//! restart, eviction, arm, block store and invalidation that can change
//! what `jit_block` returns bumps the epoch, so a hit is always the
//! block the page map would serve. An answer from an entry armed for
//! every ASID is keyed without its ASID, so it matches under any ASID. A
//! slot admits a block only when the same lookup reaches it twice in a
//! row (lookups under different ASIDs count as the same when the answer
//! serves every ASID), so a dispatch stream that never repeats only
//! rewrites slot keys and never drops a displaced block. An admitted
//! block is moved out of its slot while it runs and moved back
//! afterwards, so a hit neither hashes nor touches the `Arc` refcount.

use crate::fxhash::FxHashMap;
use crate::jit::CompiledBlock;
use crate::pte::S1Perms;
use crate::tlb::TlbEntry;
use crate::PhysMem;
use lz_arch::pstate::ExceptionLevel;
use std::collections::VecDeque;
use std::sync::Arc;

const WORDS_PER_PAGE: usize = 1024;

/// Slots in the JIT dispatch memo (direct-mapped by `va >> 2`).
const MEMO_SLOTS: usize = 64;

/// The inputs of one [`ICache::jit_block`] lookup, plus the mutation
/// epoch it was made in (the live epoch starts at 1, so the all-zero key
/// of an empty slot never matches) and what the slot holds for it. A
/// lookup matches only an admitted slot; the same key held as recorded
/// matches a slot that has seen the lookup once. A key held for every
/// ASID has `asid` 0, whatever ASID the lookup ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    epoch: u64,
    tlb_gen: u64,
    va: u64,
    vmid: u16,
    asid: u16,
    el: ExceptionLevel,
    s1_enabled: bool,
    wxn: bool,
    held: Held,
}

/// What a memo slot holds for its key (one byte, so that [`MemoSlot`]
/// stays 64 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// The lookup was seen once; its answer is not kept.
    Recorded,
    /// The lookup was seen twice in a row; the slot keeps its answer.
    Admitted,
    /// [`Held::Recorded`], for an answer from an entry armed for every
    /// ASID.
    RecordedAnyAsid,
    /// [`Held::Admitted`], for an answer from an entry armed for every
    /// ASID: it is served under any ASID.
    AdmittedAnyAsid,
}

/// One dispatch-memo slot: the key of the last lookup made through it
/// and, once that lookup has repeated, its answer.
#[derive(Debug)]
struct MemoSlot {
    key: MemoKey,
    /// The admitted answer's code frame and content version.
    pa_page: u64,
    frame_version: u64,
    /// `PhysMem::write_gen` when the frame was last proven fresh.
    checked_gen: u64,
    /// The admitted block, `None` while it is lent out. Recording a new
    /// key leaves an older block here, so that a miss never drops one.
    block: Option<Arc<CompiledBlock>>,
}

const EMPTY_MEMO_SLOT: MemoSlot = MemoSlot {
    key: MemoKey {
        epoch: 0,
        tlb_gen: 0,
        va: 0,
        vmid: 0,
        asid: 0,
        el: ExceptionLevel::El0,
        s1_enabled: false,
        wxn: false,
        held: Held::Recorded,
    },
    pa_page: 0,
    frame_version: 0,
    checked_gen: 0,
    block: None,
};

/// A compiled block lent out of the dispatch memo by [`ICache::jit_lend`];
/// hand it back with [`ICache::jit_return`] once it has run.
#[derive(Debug)]
pub(crate) struct LentBlock {
    pub(crate) block: Arc<CompiledBlock>,
    /// The code frame and its content version, for per-segment
    /// revalidation.
    pub(crate) pa_page: u64,
    pub(crate) frame_version: u64,
    /// The memo slot the block goes back to, if it is admitted there.
    slot: Option<usize>,
}

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
    /// Mutation epoch guarding the dispatch memo (see the module docs).
    epoch: u64,
    /// JIT dispatch memo, allocated on the first compiled-block dispatch.
    memo: Option<Box<[MemoSlot; MEMO_SLOTS]>>,
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
            epoch: 1,
            memo: None,
        }
    }

    /// Record a fetch at `va` that the reference path just completed for
    /// `asid` through `info.snapshot`, the L1 TLB entry it hit, promoted
    /// or inserted (see [`crate::walk::fetch`]): create or restart its
    /// page entry ([`Self::fill`]), then arm the entry at TLB generation
    /// `tlb_gen` if it is the one [`Self::entry_mut`] finds for `asid` —
    /// the entry that carries the live TLB entry (see the module docs).
    /// `l1_head` is the first entry of the page's L1 TLB slot. The arm
    /// covers every ASID when the entry's snapshot is global, the entry
    /// is the first at its EL in the page's list, and its snapshot heads
    /// the L1 slot; otherwise it covers `asid` only.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        va: u64,
        info: FillInfo,
        tlb_gen: u64,
        l1_head: Option<TlbEntry>,
    ) {
        self.misses += 1;
        let Some(i) = self.fill(mem, vmid, va, info) else { return };
        let Some(entries) = self.pages.get_mut(&PageKey { vmid, vpn: va >> 12 }) else { return };
        // `entry_mut`'s find order. Entries are unique per (ASID tag, EL),
        // so the entry it finds carries the live TLB entry exactly when it
        // is the one just filled.
        let at_el = |e: &PageEntry| e.info.el == info.el;
        if entries.iter().position(|e| at_el(e) && e.info.snapshot.asid.is_none_or(|a| a == asid)) != Some(i) {
            return;
        }
        let every_asid =
            info.snapshot.asid.is_none() && entries.iter().position(at_el) == Some(i) && l1_head == Some(info.snapshot);
        let e = &mut entries[i];
        let armed = (tlb_gen, if every_asid { None } else { Some(asid) });
        if (e.fast_gen, e.fast_asid) != armed {
            (e.fast_gen, e.fast_asid) = armed;
            self.epoch += 1;
        }
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
                    self.epoch += 1;
                    *e = PageEntry::new(info, frame_version, checked_gen);
                }
                return Some(i);
            }
        }

        // Capacity eviction, or a new entry that can shadow an older one
        // for the same page.
        self.epoch += 1;
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

    /// [`Self::entry_mut`], if its regime flags are unchanged (a flipped
    /// SCTLR bit changes permission-check outcomes) and its code frame is
    /// content-fresh: O(1) through the global write generation, falling
    /// back to one frame-version compare.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fresh_entry(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
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
        Some(e)
    }

    /// [`Self::fresh_entry`], if it is armed at `tlb_gen` for `asid` or
    /// for every ASID (see [`Self::record`]) — the test
    /// [`Self::jit_block`] and [`Self::compile`] apply before serving or
    /// lowering anything from the entry.
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
        self.fresh_entry(mem, vmid, asid, el, va, s1_enabled, wxn)
            .filter(|e| e.fast_gen == tlb_gen && e.fast_asid.is_none_or(|a| a == asid))
    }

    /// Serve the compiled block stored for the fetch at `va`, if its page
    /// entry passes [`Self::armed_entry`]'s test. Returns the block, the
    /// backing `(pa_page, frame_version)` for per-segment content
    /// revalidation, and whether the entry is armed for every ASID.
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
    ) -> Option<(Arc<CompiledBlock>, u64, u64, bool)> {
        let e = self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let block = e.blocks.get(&(slot_of(va) as u16))?;
        Some((Arc::clone(block), e.info.snapshot.pa_page, e.frame_version, e.fast_asid.is_none()))
    }

    /// Lower the code that starts at `va` from the page entry's code
    /// frame (see [`crate::jit::lower`]) and store it as the compiled
    /// block for that slot, where [`Self::jit_block`] serves it from then
    /// on. Validation is `jit_block`'s, so a block is compiled only where
    /// it could be served — from a frame whose content is the entry's
    /// version; `None` means the entry fails that test. Returns the block
    /// and its `(pa_page, frame_version)`, as `jit_block` would.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compile(
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
    ) -> Option<(Arc<CompiledBlock>, u64, u64)> {
        let e = self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let frame = mem.frame(e.info.snapshot.pa_page)?;
        let block = Arc::new(crate::jit::lower(va, &frame[(va & 0xfff) as usize..], insn_base));
        e.blocks.insert(slot_of(va) as u16, Arc::clone(&block));
        let (pa_page, frame_version) = (e.info.snapshot.pa_page, e.frame_version);
        self.epoch += 1;
        Some((block, pa_page, frame_version))
    }

    /// Lend out the compiled block [`Self::jit_block`] would serve for the
    /// fetch at `va`, through the dispatch memo (see the module docs). A
    /// hit costs no hashing and no refcount traffic; a miss asks
    /// `jit_block`, and admits a found block if the slot's last lookup was
    /// this one — under any ASID, when the block's entry is armed for
    /// every ASID. Return the block with [`Self::jit_return`] after
    /// running it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn jit_lend(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        tlb_gen: u64,
    ) -> Option<LentBlock> {
        let idx = (va >> 2) as usize & (MEMO_SLOTS - 1);
        let key = MemoKey { epoch: self.epoch, tlb_gen, va, vmid, asid, el, s1_enabled, wxn, held: Held::Admitted };
        let any_key = MemoKey { asid: 0, held: Held::AdmittedAnyAsid, ..key };
        if let Some(s) = self.memo.as_deref_mut().map(|m| &mut m[idx]) {
            if (s.key == key || s.key == any_key) && s.block.is_some() {
                // Code-frame freshness, exactly as `jit_block` checks it:
                // the page entry's version equals this one until the next
                // epoch bump.
                if s.checked_gen != mem.write_gen() {
                    if mem.frame_version(s.pa_page) != Some(s.frame_version) {
                        return None;
                    }
                    s.checked_gen = mem.write_gen();
                }
                let (pa_page, frame_version) = (s.pa_page, s.frame_version);
                #[cfg(debug_assertions)]
                let any_asid = s.key == any_key;
                let block = s.block.take()?;
                #[cfg(debug_assertions)]
                {
                    let served = self.jit_block(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen);
                    assert!(
                        served.as_ref().is_some_and(|(b, pa, fv, any)| {
                            Arc::ptr_eq(b, &block) && (*pa, *fv, *any) == (pa_page, frame_version, any_asid)
                        }),
                        "JIT dispatch memo served a block the icache would not (va {va:#x}, asid {asid})"
                    );
                }
                return Some(LentBlock { block, pa_page, frame_version, slot: Some(idx) });
            }
        }
        let (block, pa_page, frame_version, any_asid) =
            self.jit_block(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let (admitted, recorded) = if any_asid {
            (any_key, MemoKey { held: Held::RecordedAnyAsid, ..any_key })
        } else {
            (key, MemoKey { held: Held::Recorded, ..key })
        };
        let s = &mut self.memo.get_or_insert_with(|| Box::new([EMPTY_MEMO_SLOT; MEMO_SLOTS]))[idx];
        if s.key != recorded {
            s.key = recorded;
            return Some(LentBlock { block, pa_page, frame_version, slot: None });
        }
        // The same lookup twice in a row, with no epoch bump or TLB
        // generation move between: admit its answer.
        s.key = admitted;
        s.pa_page = pa_page;
        s.frame_version = frame_version;
        s.checked_gen = mem.write_gen();
        s.block = None;
        Some(LentBlock { block, pa_page, frame_version, slot: Some(idx) })
    }

    /// Put a block lent by [`Self::jit_lend`] back into its memo slot, or
    /// drop it if the slot has not admitted it. The slot's key is
    /// untouched while the block is out, so a mutation during the run (an
    /// interpreted TLBI, say) has already made the slot stale through the
    /// epoch or the TLB generation.
    #[inline]
    pub(crate) fn jit_return(&mut self, lent: LentBlock) {
        if let (Some(memo), Some(slot)) = (self.memo.as_deref_mut(), lent.slot) {
            memo[slot].block = Some(lent.block);
        }
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
        self.epoch += 1;
        self.invalidations += self.len() as u64;
        self.pages.clear();
        self.order.clear();
    }

    /// `TLBI VMALLS12E1` scope: drop one VMID.
    pub fn invalidate_vmid(&mut self, vmid: u16) {
        self.epoch += 1;
        let before = self.len();
        self.pages.retain(|k, _| k.vmid != vmid);
        self.order.retain(|k| k.vmid != vmid);
        self.invalidations += (before - self.len()) as u64;
    }

    /// `TLBI ASIDE1` scope: drop one `(vmid, asid)`; global entries survive.
    pub fn invalidate_asid(&mut self, vmid: u16, asid: u16) {
        self.epoch += 1;
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
        self.epoch += 1;
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
    /// page at TLB generation `tlb_gen`? [`Self::armed_entry`]'s test,
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

    /// Record an EL0 fetch at `va` under ASID 1 at TLB generation 1, with
    /// an empty L1 TLB slot: the entry for `va` (code at `pa`; ASID 1, or
    /// global) is armed for ASID 1 only.
    fn recorded(mem: &PhysMem, va: u64, pa: u64, global: bool) -> ICache {
        let mut ic = ICache::new(16);
        ic.record(mem, 0, 1, va, seed_info(if global { None } else { Some(1) }, pa), 1, None);
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
        ic.record(&mem, 0, 1, 0x1000, seed_info(Some(1), pa), 1, None);
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
        ic.record(&mem, 0, 1, 0x1000, seed_info(None, pa), 1, Some(seed_info(None, pa).snapshot));
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
        ic.record(&mem, 0, 1, 0x1000, seed_info(Some(1), pa), 2, None);
        assert_eq!((ic.len(), ic.stats()), (2, (0, 2)));
        assert!(!ic.serves(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, false, 2), "the shadowed entry is not armed");
        assert!(serves(&mut ic, &mem, 1, 0x1000, false), "the global entry keeps its arm");
    }

    /// [`recorded`] with a compiled block at `va`.
    fn armed_with_block(mem: &PhysMem, va: u64, pa: u64, global: bool) -> ICache {
        let mut ic = recorded(mem, va, pa, global);
        assert!(ic.compile(mem, 0, 1, ExceptionLevel::El0, va, true, false, 1, 1).is_some(), "a NOP lowers");
        ic
    }

    /// The ASIDs among 1–3 that compiled blocks at `va` are served to at
    /// TLB generation 1.
    fn served_asids(ic: &mut ICache, mem: &PhysMem, va: u64) -> Vec<u16> {
        (1..=3).filter(|&asid| serves(ic, mem, asid, va, false)).collect()
    }

    fn lend(ic: &mut ICache, mem: &PhysMem, va: u64, tlb_gen: u64) -> Option<LentBlock> {
        ic.jit_lend(mem, 0, 1, ExceptionLevel::El0, va, true, false, tlb_gen)
    }

    /// Lend and return the block at `va` until its memo slot admits it;
    /// returns the block's address.
    fn admit(ic: &mut ICache, mem: &PhysMem, va: u64) -> *const CompiledBlock {
        let first = lend(ic, mem, va, 1).expect("served");
        assert!(first.slot.is_none(), "a first lookup only records its key");
        let ptr = Arc::as_ptr(&first.block);
        ic.jit_return(first);
        let second = lend(ic, mem, va, 1).expect("served");
        assert_eq!(second.slot, Some((va >> 2) as usize & (MEMO_SLOTS - 1)), "a repeated lookup is admitted");
        ic.jit_return(second);
        ptr
    }

    #[test]
    fn memo_hits_serve_the_page_entrys_block() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = armed_with_block(&mem, 0x1000, pa, false);
        let ptr = admit(&mut ic, &mem, 0x1000);
        // A hit (debug builds cross-check it against `jit_block`) lends
        // the very same block out of the slot.
        let hit = lend(&mut ic, &mem, 0x1000, 1).expect("memo hit");
        assert_eq!(Arc::as_ptr(&hit.block), ptr);
        assert!(ic.memo.as_deref().is_some_and(|m| m[hit.slot.expect("admitted")].block.is_none()), "lent out");
        ic.jit_return(hit);
        assert!(lend(&mut ic, &mem, 0x1000, 2).is_none(), "another TLB generation must miss");
        assert!(lend(&mut ic, &mem, 0x1004, 1).is_none(), "no block starts at the next slot");
    }

    #[test]
    fn compiled_blocks_cover_words_no_step_fetched() {
        // One recorded fetch at the page's first word arms the page; a
        // block then lowers at any word, from the frame, up to the page
        // end.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, false);
        let (block, block_pa, _) =
            ic.compile(&mem, 0, 1, ExceptionLevel::El0, 0x1ff8, true, false, 1, 1).expect("lowers");
        assert_eq!((block.total, block_pa), (2, pa), "two words left in the page");
    }

    #[test]
    fn memo_admits_only_repeated_lookups() {
        // Alternating ASIDs on one global page that does not head its L1
        // slot: each arm covers one ASID, each lookup records its key
        // over the other's, so neither is ever admitted.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        let mut ic = armed_with_block(&mem, va, pa, true);
        for asid in [1, 2, 1, 2] {
            ic.record(&mem, 0, asid, va, seed_info(None, pa), 1, None);
            let lent = ic.jit_lend(&mem, 0, asid, ExceptionLevel::El0, va, true, false, 1).expect("served");
            assert_eq!(lent.slot, None, "ASID {asid}: alternating lookups must not be admitted");
            ic.jit_return(lent);
        }
    }

    #[test]
    fn memo_admits_every_asid_entry_under_alternating_asids() {
        // A global entry that heads its L1 slot is armed once for every
        // ASID: alternating lookups are repeats, the second one admits
        // the block, and later ones hit it without re-arming.
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        let mut ic = ICache::new(16);
        ic.record(&mem, 0, 1, va, seed_info(None, pa), 1, Some(seed_info(None, pa).snapshot));
        assert!(ic.compile(&mem, 0, 1, ExceptionLevel::El0, va, true, false, 1, 1).is_some(), "a NOP lowers");
        let epoch = ic.epoch;
        let mut block = None;
        for (i, asid) in [1u16, 2, 1, 3, 2].into_iter().enumerate() {
            let lent = ic.jit_lend(&mem, 0, asid, ExceptionLevel::El0, va, true, false, 1).expect("served");
            assert_eq!(lent.slot.is_some(), i > 0, "ASID {asid}: lookup {i} under another ASID is a repeat");
            assert_eq!(*block.get_or_insert(Arc::as_ptr(&lent.block)), Arc::as_ptr(&lent.block));
            ic.jit_return(lent);
        }
        assert_eq!(served_asids(&mut ic, &mem, va), [1, 2, 3]);
        assert_eq!(ic.epoch, epoch, "serving other ASIDs re-armed nothing");
    }

    #[test]
    fn global_entry_arms_every_asid_only_when_it_leads() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        let global = seed_info(None, pa).snapshot;
        let own = seed_info(Some(2), pa).snapshot;
        let el1 = FillInfo { el: ExceptionLevel::El1, ..seed_info(Some(2), pa) };
        // (entries filled before the global one, L1 slot head, ASIDs served
        // after recording a fetch under ASID 1)
        let cases: [(&[FillInfo], Option<TlbEntry>, &[u16]); 5] = [
            (&[], Some(global), &[1, 2, 3]),
            (&[el1], Some(global), &[1, 2, 3]), // another EL's entry does not count
            (&[], None, &[1]),
            (&[], Some(own), &[1]), // ASID 2's L1 lookup returns its own entry
            (&[seed_info(Some(2), pa)], Some(global), &[1]), // ASID 2's fetch finds its own entry first
        ];
        for (i, (before, l1_head, served)) in cases.into_iter().enumerate() {
            let mut ic = ICache::new(16);
            for info in before {
                ic.fill(&mem, 0, va, *info);
            }
            ic.record(&mem, 0, 1, va, seed_info(None, pa), 1, l1_head);
            assert_eq!(served_asids(&mut ic, &mem, va), served, "case {i}");
        }
    }

    #[test]
    fn memo_misses_after_mutations() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let va = 0x1000;
        for (i, what) in ["invalidation", "re-arm for another ASID", "code write"].iter().enumerate() {
            // A global entry armed for one ASID, so that it can be
            // re-armed for ASID 2.
            let mut ic = armed_with_block(&mem, va, pa, true);
            admit(&mut ic, &mem, va);
            match i {
                0 => ic.invalidate_va(0, va),
                1 => ic.record(&mem, 0, 2, va, seed_info(None, pa), 1, None),
                _ => assert!(mem.write(pa, NOP, 4)),
            }
            assert!(lend(&mut ic, &mem, va, 1).is_none(), "{what} must retire the memo slot");
        }
    }

    #[test]
    fn memo_stays_small() {
        // The memo is allocated per core on first dispatch; keep it within
        // one page of host memory.
        assert!(std::mem::size_of::<[MemoSlot; MEMO_SLOTS]>() <= 4096);
    }

    #[test]
    fn regime_flag_change_evicts() {
        let mut mem = PhysMem::new();
        let pa = nop_frame(&mut mem);
        let mut ic = recorded(&mem, 0x1000, pa, false);
        assert!(!serves(&mut ic, &mem, 1, 0x1000, true), "WXN flip must not serve the old page");
        // The next recorded fetch, under the new regime, restarts the
        // entry in place.
        ic.record(&mem, 0, 1, 0x1000, FillInfo { wxn: true, ..seed_info(Some(1), pa) }, 1, None);
        assert_eq!((ic.len(), ic.eviction_count()), (1, 1));
        assert!(serves(&mut ic, &mem, 1, 0x1000, true));
    }
}
