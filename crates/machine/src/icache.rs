//! Decoded-block fetch cache: skips the host-side translation walk and
//! instruction decode on the interpreter's hot path.
//!
//! Every `Cpu::step()` used to pay a full `walk::translate` plus a fresh
//! `Insn::decode`. This cache keys decoded words by
//! `(VMID, ASID-or-global, VA page)` — the same tagging discipline as the
//! TLB — and per page remembers the fill-time translation regime (stage-1
//! enable, WXN, stage-1 root, VTTBR root) plus the *content version* of the
//! physical frame the code came from (see `PhysMem::frame_version`).
//!
//! # Coherence contract
//!
//! A cached block is only served when it is provably equivalent to what the
//! slow path would produce:
//!
//! * **TLBI variants** — every `Tlb::invalidate_*` forwards here with the
//!   same scope semantics (global entries survive `invalidate_asid`, etc.).
//! * **Physical writes** — each probe validates the code frame's version
//!   against `PhysMem`; self-modifying stores, DMA-style `write_bytes`, and
//!   frame recycling all bump it, evicting the stale block on next fetch.
//! * **Root changes** — when the main TLB misses, the cache only skips the
//!   walk if the fill-time `TTBR{0,1}`/`VTTBR` base for the page's VA half
//!   still matches, covering root switches that ASID/VMID tags alone do not
//!   disambiguate. When the main TLB *hits*, the cache defers to it: the
//!   block is served only if the fill-time TLB snapshot is bit-identical to
//!   the entry the TLB just returned.
//!
//! Like the TLB itself (see `stale_tlb_entry_survives_table_edit`), the
//! cache may keep translating from a stale view after page-table edits that
//! violate break-before-make — that is the architectural hazard the TLBI
//! contract exists to prevent, not a new one introduced here.
//!
//! Cycle accounting is unaffected by design: the fast path replays exactly
//! the modelled costs (TLB-hit level cost or the deterministic walk cost for
//! the active regime) and performs the same TLB state transitions the slow
//! path would, so paper tables are bit-identical with the cache on or off.
//!
//! # JIT dispatch memo
//!
//! Compiled blocks are found through [`ICache::jit_lend`]: a direct-mapped
//! memo of [`MEMO_SLOTS`] recent `jit_block` answers, allocated on first
//! use. A slot hits only under `jit_block`'s own test — the same
//! `(vmid, asid, el, s1_enabled, wxn)` tags, TLB generation and code-frame
//! freshness — plus an unchanged *mutation epoch*: every fill, eviction,
//! arm, block store and invalidation that can change what `jit_block`
//! returns bumps the epoch, so a hit is always the block the page map
//! would serve. A slot admits a block only when the same lookup reaches
//! it twice in a row, so a dispatch stream that never repeats (gate
//! switches that change the ASID between two visits to a PC) only
//! rewrites slot keys and never drops a displaced block. An admitted
//! block is moved out of its slot while it runs and moved back
//! afterwards, so a hit neither hashes nor touches the `Arc` refcount.

use crate::fxhash::FxHashMap;
use crate::jit::CompiledBlock;
use crate::tlb::TlbEntry;
use crate::PhysMem;
use lz_arch::insn::Insn;
use lz_arch::pstate::ExceptionLevel;
use std::collections::VecDeque;
use std::sync::Arc;

const WORDS_PER_PAGE: usize = 1024;

/// Slots in the JIT dispatch memo (direct-mapped by `va >> 2`).
const MEMO_SLOTS: usize = 64;

/// The inputs of one [`ICache::jit_block`] lookup, plus the mutation
/// epoch it was made in (the live epoch starts at 1, so the all-zero key
/// of an empty slot never matches) and whether the slot has admitted the
/// answer. A lookup builds its key with `admitted: true`, so it matches
/// only an admitted slot; the same key with `admitted: false` matches a
/// slot that has only recorded it.
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
    admitted: bool,
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
        admitted: false,
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

/// Fill-time facts that must still hold for a block to be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillInfo {
    /// `None` for global (`nG = 0`) pages and for the identity regime.
    pub asid: Option<u16>,
    /// Exception level of the fill-time fetch (permission checks depend
    /// on it, so EL0 and EL1 blocks for one page are cached separately).
    pub el: ExceptionLevel,
    pub s1_enabled: bool,
    pub wxn: bool,
    /// Stage-1 root (baddr) for this VA's half; 0 when stage 1 is off.
    pub root: u64,
    /// Stage-2 root (baddr) when stage 2 was on at fill time.
    pub vttbr: Option<u64>,
    /// The TLB entry the fill-time translation produced (`None` for the
    /// identity regime, which bypasses the TLB entirely).
    pub snapshot: Option<TlbEntry>,
    /// Physical page the code words were read from.
    pub pa_page: u64,
}

#[derive(Debug)]
struct PageEntry {
    info: FillInfo,
    /// `PhysMem::frame_version` of `pa_page` when last validated.
    frame_version: u64,
    /// `PhysMem::write_gen` at last validation — if the global generation
    /// hasn't moved, no frame anywhere changed and the version compare can
    /// be skipped.
    checked_gen: u64,
    /// `Tlb::generation` when this entry was last proven equivalent to a
    /// free L1 TLB hit (0 = never). While the TLB generation matches and
    /// the fetch ASID equals `fast_asid`, the L1 lookup result is
    /// guaranteed unchanged and the slow-path comparison can be skipped.
    fast_gen: u64,
    fast_asid: u16,
    slots: Vec<Option<(u32, Insn)>>,
    /// Compiled blocks keyed by start slot (see [`crate::jit`]). Sharing
    /// the page entry means every path that drops or restarts the decoded
    /// page — TLBI scopes, content staleness, capacity eviction — drops its
    /// compiled blocks for the same reason at the same moment; serve-time
    /// validation is then [`ICache::armed_entry`]'s test.
    blocks: FxHashMap<u16, Arc<CompiledBlock>>,
}

/// What a probe found.
#[derive(Debug, Clone, Copy)]
pub struct ProbeHit {
    pub snapshot: Option<TlbEntry>,
    /// Fill-time stage-1/stage-2 roots still match the current regime.
    pub roots_match: bool,
    pub pa: u64,
    pub word: u32,
    pub insn: Insn,
}

/// The decoded-block cache. Lives inside [`crate::Tlb`] so every TLB
/// maintenance operation reaches it without new call sites.
#[derive(Debug)]
pub struct ICache {
    pages: FxHashMap<PageKey, Vec<PageEntry>>,
    order: VecDeque<PageKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// Entries dropped for capacity (FIFO) or staleness (content/regime).
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

    /// Look for a decoded block for the fetch at `va`. Validates regime
    /// flags, the ASID tag (global entries match any ASID), the fetch EL,
    /// and the code frame's content version; stale entries are evicted on
    /// the spot. Root mismatches are reported, not evicted — the caller
    /// decides whether the main TLB vouches for the translation.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        root: u64,
        vttbr: Option<u64>,
    ) -> Option<ProbeHit> {
        let key = PageKey { vmid, vpn: va >> 12 };
        let entries = match self.pages.get_mut(&key) {
            Some(v) => v,
            None => {
                self.misses += 1;
                return None;
            }
        };
        let idx = entries.iter().position(|e| (e.info.asid.is_none() || e.info.asid == Some(asid)) && e.info.el == el);
        let Some(idx) = idx else {
            self.misses += 1;
            return None;
        };

        // Regime flags must match exactly; a flipped SCTLR bit changes
        // permission-check outcomes, so the entry is dead.
        let stale_flags = {
            let e = &entries[idx];
            e.info.s1_enabled != s1_enabled || e.info.wxn != wxn
        };
        // Content staleness: O(1) via the global write generation, falling
        // back to the single frame-version compare.
        let stale_content = {
            let e = &mut entries[idx];
            if e.checked_gen == mem.write_gen() {
                false
            } else if mem.frame_version(e.info.pa_page) == Some(e.frame_version) {
                e.checked_gen = mem.write_gen();
                false
            } else {
                true
            }
        };
        if stale_flags || stale_content {
            self.evictions += 1;
            self.epoch += 1;
            entries.remove(idx);
            if entries.is_empty() {
                self.pages.remove(&key);
                self.order.retain(|k| *k != key);
            }
            self.misses += 1;
            return None;
        }

        let e = &entries[idx];
        let slot = slot_of(va);
        match e.slots[slot] {
            Some((word, insn)) => {
                self.hits += 1;
                Some(ProbeHit {
                    snapshot: e.info.snapshot,
                    roots_match: e.info.root == root && e.info.vttbr == vttbr,
                    pa: e.info.pa_page | (va & 0xfff),
                    word,
                    insn,
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a decoded word after a successful slow-path fetch.
    pub fn fill(&mut self, mem: &PhysMem, vmid: u16, va: u64, info: FillInfo, word: u32, insn: Insn) {
        let Some(frame_version) = mem.frame_version(info.pa_page) else { return };
        let key = PageKey { vmid, vpn: va >> 12 };
        let slot = slot_of(va);
        let checked_gen = mem.write_gen();

        if let Some(entries) = self.pages.get_mut(&key) {
            if let Some(e) = entries.iter_mut().find(|e| e.info.asid == info.asid && e.info.el == info.el) {
                if e.info == info && e.frame_version == frame_version {
                    e.checked_gen = checked_gen;
                    if e.slots[slot] != Some((word, insn)) {
                        // A newly decoded slot can lengthen a run that
                        // previously ended at an empty slot: drop compiled
                        // blocks so they re-lower against the full run.
                        e.blocks.clear();
                        e.slots[slot] = Some((word, insn));
                        self.epoch += 1;
                    }
                } else {
                    // Regime or content moved on: restart the entry.
                    self.evictions += 1;
                    self.epoch += 1;
                    e.info = info;
                    e.frame_version = frame_version;
                    e.checked_gen = checked_gen;
                    e.fast_gen = 0;
                    e.slots.iter_mut().for_each(|s| *s = None);
                    e.blocks.clear();
                    e.slots[slot] = Some((word, insn));
                }
                return;
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
        let mut slots = vec![None; WORDS_PER_PAGE];
        slots[slot] = Some((word, insn));
        entries.push(PageEntry {
            info,
            frame_version,
            checked_gen,
            fast_gen: 0,
            fast_asid: 0,
            slots,
            blocks: FxHashMap::default(),
        });
    }

    /// The memoised fast path: serve a block with *no* TLB interaction
    /// beyond replaying the free L1 hit, valid only while the TLB
    /// generation recorded by [`Self::arm_fast`] is current (so the L1
    /// lookup outcome is provably unchanged), the fetch ASID matches the
    /// arm-time ASID, the regime flags match, and the code frame is
    /// content-fresh. Returns `(pa, word, insn)`; any failed check falls
    /// back to the slow path (which handles eviction).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn fast_probe(
        &mut self,
        mem: &PhysMem,
        vmid: u16,
        asid: u16,
        el: ExceptionLevel,
        va: u64,
        s1_enabled: bool,
        wxn: bool,
        tlb_gen: u64,
    ) -> Option<(u64, u32, Insn)> {
        let e = self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let (word, insn) = e.slots[slot_of(va)]?;
        let pa = e.info.pa_page | (va & 0xfff);
        self.hits += 1;
        Some((pa, word, insn))
    }

    /// The page entry for the fetch at `va` if it is armed at `tlb_gen`
    /// for `asid` (see [`Self::arm_fast`]), its regime flags are unchanged,
    /// and its code frame is content-fresh — the test every lookup-free
    /// path ([`Self::fast_probe`], [`Self::jit_block`], [`Self::compile`])
    /// applies before serving anything from the entry.
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
        let key = PageKey { vmid, vpn: va >> 12 };
        let entries = self.pages.get_mut(&key)?;
        let e = entries.iter_mut().find(|e| (e.info.asid.is_none() || e.info.asid == Some(asid)) && e.info.el == el)?;
        if e.fast_gen != tlb_gen || e.fast_asid != asid || e.info.s1_enabled != s1_enabled || e.info.wxn != wxn {
            return None;
        }
        if e.checked_gen != mem.write_gen() {
            if mem.frame_version(e.info.pa_page) != Some(e.frame_version) {
                return None;
            }
            e.checked_gen = mem.write_gen();
        }
        Some(e)
    }

    /// Serve the compiled block stored for the fetch at `va`, if its page
    /// entry passes [`Self::armed_entry`]'s test. Returns the block plus the
    /// backing `(pa_page, frame_version)` for per-segment content
    /// revalidation.
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
    ) -> Option<(Arc<CompiledBlock>, u64, u64)> {
        let e = self.armed_entry(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let block = e.blocks.get(&(slot_of(va) as u16))?;
        Some((Arc::clone(block), e.info.pa_page, e.frame_version))
    }

    /// Lower the decoded run that starts at `va` (see
    /// [`crate::jit::lower`]) and store it as the compiled block for that
    /// slot, where [`Self::jit_block`] serves it from then on. Validation
    /// is `jit_block`'s, so a block is compiled only where it could be
    /// served; `None` means the entry fails that test or `va`'s slot is
    /// not decoded. Returns what `jit_block` would.
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
        let first = slot_of(va);
        let block = Arc::new(crate::jit::lower(va, &e.slots[first..], insn_base)?);
        e.blocks.insert(first as u16, Arc::clone(&block));
        let (pa_page, frame_version) = (e.info.pa_page, e.frame_version);
        self.epoch += 1;
        Some((block, pa_page, frame_version))
    }

    /// Lend out the compiled block [`Self::jit_block`] would serve for the
    /// fetch at `va`, through the dispatch memo (see the module docs). A
    /// hit costs no hashing and no refcount traffic; a miss asks
    /// `jit_block`, and admits a found block if the slot's last lookup was
    /// this one. Return the block with [`Self::jit_return`] after running
    /// it.
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
        let key = MemoKey { epoch: self.epoch, tlb_gen, va, vmid, asid, el, s1_enabled, wxn, admitted: true };
        let recorded = MemoKey { admitted: false, ..key };
        let mut repeat = false;
        if let Some(s) = self.memo.as_deref_mut().map(|m| &mut m[idx]) {
            if s.key == key && s.block.is_some() {
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
                let block = s.block.take()?;
                #[cfg(debug_assertions)]
                {
                    let served = self.jit_block(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen);
                    assert!(
                        served.as_ref().is_some_and(|(b, pa, fv)| {
                            Arc::ptr_eq(b, &block) && (*pa, *fv) == (pa_page, frame_version)
                        }),
                        "JIT dispatch memo served a block the icache would not (va {va:#x})"
                    );
                }
                return Some(LentBlock { block, pa_page, frame_version, slot: Some(idx) });
            }
            repeat = s.key == recorded;
        }
        let (block, pa_page, frame_version) = self.jit_block(mem, vmid, asid, el, va, s1_enabled, wxn, tlb_gen)?;
        let s = &mut self.memo.get_or_insert_with(|| Box::new([EMPTY_MEMO_SLOT; MEMO_SLOTS]))[idx];
        if !repeat {
            s.key = recorded;
            return Some(LentBlock { block, pa_page, frame_version, slot: None });
        }
        // The same lookup twice in a row, with no epoch bump or TLB
        // generation move between: admit its answer.
        s.key = key;
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

    /// Replay one decoded-block hit (compiled-block per-instruction
    /// bookkeeping).
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Replay `n` decoded-block hits at once (JIT ALU-run bookkeeping).
    #[inline]
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Record that, at TLB generation `tlb_gen`, serving this page's block
    /// for `asid` is equivalent to a free L1 TLB hit.
    pub(crate) fn arm_fast(&mut self, vmid: u16, asid: u16, el: ExceptionLevel, va: u64, tlb_gen: u64) {
        let key = PageKey { vmid, vpn: va >> 12 };
        if let Some(entries) = self.pages.get_mut(&key) {
            if let Some(e) =
                entries.iter_mut().find(|e| (e.info.asid.is_none() || e.info.asid == Some(asid)) && e.info.el == el)
            {
                if (e.fast_gen, e.fast_asid) != (tlb_gen, asid) {
                    e.fast_gen = tlb_gen;
                    e.fast_asid = asid;
                    self.epoch += 1;
                }
            }
        }
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
                v.retain(|e| e.info.asid != Some(asid));
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
        self.pages.get(&key).is_some_and(|v| v.iter().any(|e| e.info.asid == asid))
    }

    /// Number of cached page entries (per-ASID entries counted separately).
    pub fn len(&self) -> usize {
        self.pages.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// `(hits, misses)` counters for probes since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries dropped for capacity or staleness since creation.
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Entries dropped by TLBI-scope maintenance since creation.
    pub fn invalidation_count(&self) -> u64 {
        self.invalidations
    }

    /// Insert a minimal entry directly (test/diagnostic helper): tags a
    /// decoded `NOP` for `(vmid, asid, va)` against `pa_page` in `mem`.
    pub fn seed_entry(&mut self, mem: &PhysMem, vmid: u16, asid: Option<u16>, va: u64, pa_page: u64) {
        let info = FillInfo {
            asid,
            el: ExceptionLevel::El0,
            s1_enabled: true,
            wxn: false,
            root: 0,
            vttbr: None,
            snapshot: None,
            pa_page,
        };
        const NOP: u32 = 0xD503_201F;
        self.fill(mem, vmid, va, info, NOP, Insn::decode(NOP));
    }
}

/// The icache slot of the word at `va`.
#[inline]
fn slot_of(va: u64) -> usize {
    (va >> 2) as usize & (WORDS_PER_PAGE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(mem: &PhysMem, pairs: &[(u16, Option<u16>, u64, u64)]) -> ICache {
        let mut ic = ICache::new(16);
        for &(vmid, asid, va, pa) in pairs {
            ic.seed_entry(mem, vmid, asid, va, pa);
        }
        ic
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
    fn frame_write_invalidates_on_probe() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(0, Some(1), 0x1000, pa)]);
        assert!(ic.probe(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, false, 0, None).is_some());
        mem.write(pa, 0xD503_201F, 4);
        assert!(
            ic.probe(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, false, 0, None).is_none(),
            "write to the code frame must evict the block"
        );
        assert!(ic.is_empty());
    }

    #[test]
    fn unrelated_write_keeps_entry() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let other = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(0, Some(1), 0x1000, pa)]);
        mem.write(other, 0x1234_5678, 4);
        assert!(ic.probe(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, false, 0, None).is_some());
    }

    #[test]
    fn global_entry_matches_any_asid() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(0, None, 0x1000, pa)]);
        for asid in [1u16, 7, 999] {
            assert!(ic.probe(&mem, 0, asid, ExceptionLevel::El0, 0x1000, true, false, 0, None).is_some());
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

    /// An entry for `va` (code at `pa`; ASID 1, or global) armed for ASID
    /// 1 at TLB generation 1 with a one-NOP compiled block.
    fn armed_with_block(mem: &PhysMem, va: u64, pa: u64, global: bool) -> ICache {
        let mut ic = seeded(mem, &[(0, if global { None } else { Some(1) }, va, pa)]);
        ic.arm_fast(0, 1, ExceptionLevel::El0, va, 1);
        assert!(ic.compile(mem, 0, 1, ExceptionLevel::El0, va, true, false, 1, 1).is_some(), "a NOP lowers");
        ic
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
        let pa = mem.alloc_frame();
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
    fn memo_admits_only_repeated_lookups() {
        // Alternating ASIDs on one global page: each lookup records its
        // key over the other's, so neither is ever admitted.
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let va = 0x1000;
        let mut ic = armed_with_block(&mem, va, pa, true);
        for asid in [1, 2, 1, 2] {
            ic.arm_fast(0, asid, ExceptionLevel::El0, va, 1);
            let lent = ic.jit_lend(&mem, 0, asid, ExceptionLevel::El0, va, true, false, 1).expect("served");
            assert_eq!(lent.slot, None, "ASID {asid}: alternating lookups must not be admitted");
            ic.jit_return(lent);
        }
    }

    #[test]
    fn memo_misses_after_mutations() {
        let mut mem = PhysMem::new();
        let pa = mem.alloc_frame();
        let va = 0x1000;
        for (i, what) in ["invalidation", "re-arm for another ASID", "slot refill", "code write"].iter().enumerate() {
            // A global entry, so that it can be re-armed for ASID 2.
            let mut ic = armed_with_block(&mem, va, pa, true);
            admit(&mut ic, &mem, va);
            match i {
                0 => ic.invalidate_va(0, va),
                1 => ic.arm_fast(0, 2, ExceptionLevel::El0, va, 1),
                2 => ic.seed_entry(&mem, 0, None, va + 4, pa),
                _ => assert!(mem.write(pa, 0, 4)),
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
        let pa = mem.alloc_frame();
        let mut ic = seeded(&mem, &[(0, Some(1), 0x1000, pa)]);
        assert!(
            ic.probe(&mem, 0, 1, ExceptionLevel::El0, 0x1000, true, true, 0, None).is_none(),
            "WXN flip must not serve the old block"
        );
        assert!(ic.is_empty());
    }
}
