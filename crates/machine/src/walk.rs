//! Address translation: the stage-1 and stage-2 hardware walkers, permission
//! checks (including PAN), and the one software descent that edits every tree.
//!
//! The walker is where LightZone's isolation mechanisms actually bite:
//!
//! * a TTBR0 switch changes which stage-1 tree maps the low VA half, so
//!   pages absent from the current tree raise stage-1 translation faults;
//! * `PSTATE.PAN` makes privileged data accesses to `AP[1]=1` ("user")
//!   pages raise stage-1 permission faults;
//! * stage-2 tables bound everything a virtual environment can reach,
//!   regardless of what it writes into its stage-1 tables.
//!
//! Every TLB miss runs the walker, on both engines: no host-side cache
//! replays a walk (DESIGN.md §10.3 records why).

use crate::chaos::LzFault;
use crate::mem::PhysMem;
use crate::pte::{self, S1Perms, S2Perms};
use crate::tlb::{Tlb, TlbEntry, TlbHit};
use lz_arch::insn::Insn;
use lz_arch::pstate::ExceptionLevel;
use lz_arch::sysreg::{ttbr, vttbr};
use lz_arch::CycleModel;

/// Kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Read,
    Write,
    Fetch,
}

/// Which translation stage faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    S1,
    S2,
}

/// Architectural fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    Translation,
    Permission,
    AccessFlag,
}

/// A translation fault with everything needed to build `ESR`/`FAR`/`HPFAR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub kind: FaultKind,
    pub stage: Stage,
    /// Table level at which the walk failed (0–3).
    pub level: u8,
    /// Faulting virtual address.
    pub va: u64,
    /// Faulting intermediate physical address (meaningful for stage 2).
    pub ipa: u64,
    /// Write-not-read.
    pub wnr: bool,
    /// The stage-2 fault occurred while walking a stage-1 table.
    pub s1ptw: bool,
}

/// Translation regime configuration (a snapshot of the relevant system
/// registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkConfig {
    /// `TTBR0_EL1` (ASID-packed).
    pub ttbr0: u64,
    /// `TTBR1_EL1` (ASID ignored; TTBR0's ASID is current, matching
    /// `TCR_EL1.A1 = 0`).
    pub ttbr1: u64,
    /// `SCTLR_EL1.M`.
    pub s1_enabled: bool,
    /// `SCTLR_EL1.WXN`.
    pub wxn: bool,
    /// `VTTBR_EL2` when `HCR_EL2.VM` is set.
    pub vttbr: Option<u64>,
}

impl WalkConfig {
    /// The VMID tagging TLB entries (0 when stage 2 is off — the "host"
    /// VMID).
    pub fn vmid(&self) -> u16 {
        self.vttbr.map(vttbr::vmid).unwrap_or(0)
    }

    /// The current ASID.
    pub fn asid(&self) -> u16 {
        ttbr::asid(self.ttbr0)
    }
}

/// Privilege context of the access.
#[derive(Debug, Clone, Copy)]
pub struct AccessCtx {
    pub el: ExceptionLevel,
    /// `PSTATE.PAN`.
    pub pan: bool,
    /// The access is an unprivileged (`LDTR`/`STTR`) access: permission-
    /// checked as EL0 and therefore *not* subject to PAN.
    pub unpriv: bool,
}

/// Result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Final physical address.
    pub pa: u64,
    /// Walk cost in cycles (0 on a TLB hit).
    pub cost: u64,
    /// Whether the TLB satisfied the lookup.
    pub tlb_hit: bool,
}

const LOW_HALF: u64 = 0;
const HIGH_HALF: u64 = 0xffff;

/// Index of `addr`'s descriptor in its level-`level` table (4 KB
/// granule, 9 bits a level). A stage-1 tree's root is at level 0 and a
/// stage-2 tree's at level 1; the index is the same function of the level.
fn table_idx(addr: u64, level: u8) -> u64 {
    (addr >> (39 - 9 * level as u64)) & 0x1ff
}

/// Translate a virtual address.
///
/// On success the returned [`Translation`] carries the cycle cost of any
/// table walks performed; on failure the [`Fault`] carries the stage,
/// kind, and level for exception routing.
pub fn translate(
    mem: &PhysMem,
    tlb: &mut Tlb,
    model: &CycleModel,
    cfg: &WalkConfig,
    va: u64,
    access: Access,
    actx: &AccessCtx,
) -> Result<Translation, Fault> {
    let has_tlb = cfg.s1_enabled || cfg.vttbr.is_some();

    // Micro-DTLB: replay a data translation already proven to be a free
    // L1 hit for exactly these tags at the current TLB generation. Gated
    // on `has_tlb` because the bare identity regime bypasses the TLB
    // entirely on the slow path too.
    if has_tlb && access != Access::Fetch {
        if let Some(pa) = tlb.dtlb_lookup(
            cfg.vmid(),
            cfg.asid(),
            actx.el,
            actx.pan,
            actx.unpriv,
            cfg.s1_enabled,
            va,
            access == Access::Write,
        ) {
            return Ok(Translation { pa, cost: 0, tlb_hit: true });
        }
    }
    translate_dtlb_missed(mem, tlb, model, cfg, va, access, actx)
}

/// [`translate`] after its micro-DTLB probe: the caller has just probed
/// for exactly these tags and missed (or the access is a fetch), so the
/// probe is not repeated. Used by the JIT's `Mem` segments, whose inline
/// path is that probe.
pub(crate) fn translate_dtlb_missed(
    mem: &PhysMem,
    tlb: &mut Tlb,
    model: &CycleModel,
    cfg: &WalkConfig,
    va: u64,
    access: Access,
    actx: &AccessCtx,
) -> Result<Translation, Fault> {
    /// One TLB lookup, then the permission checks on a hit or the walk
    /// and the TLB insert on a miss.
    fn lookup_or_walk(
        mem: &PhysMem,
        tlb: &mut Tlb,
        model: &CycleModel,
        cfg: &WalkConfig,
        va: u64,
        access: Access,
        actx: &AccessCtx,
    ) -> Result<Translation, Fault> {
        let wnr = access == Access::Write;
        let vmid = cfg.vmid();
        let asid = cfg.asid();
        let has_tlb = cfg.s1_enabled || cfg.vttbr.is_some();

        if let Some((entry, level)) = has_tlb.then(|| tlb.lookup_leveled(vmid, asid, va)).flatten() {
            check_s1(&entry.s1, access, actx, cfg.wxn, cfg.s1_enabled).map_err(|kind| Fault {
                kind,
                stage: Stage::S1,
                level: 3,
                va,
                ipa: 0,
                wnr,
                s1ptw: false,
            })?;
            if let Some(s2p) = entry.s2 {
                check_s2(&s2p, access).map_err(|kind| Fault {
                    kind,
                    stage: Stage::S2,
                    level: 3,
                    va,
                    ipa: entry.pa_page | (va & 0xfff),
                    wnr,
                    s1ptw: false,
                })?;
            }
            let cost = match level {
                TlbHit::L1 => 0,
                TlbHit::L2 => model.l2_tlb_hit,
            };
            return Ok(Translation { pa: entry.pa_page | (va & 0xfff), cost, tlb_hit: true });
        }

        let (ipa_page, s1_perms, mut cost) = if cfg.s1_enabled {
            tlb.walk.s1_walks += 1;
            walk_stage1(mem, model, cfg, va, access)?
        } else {
            // Stage-1 off: identity, full permissions, global.
            (
                va & 0x0000_ffff_ffff_f000,
                S1Perms { read: true, write: true, user_exec: true, priv_exec: true, el0: true, global: false },
                0,
            )
        };

        check_s1(&s1_perms, access, actx, cfg.wxn, cfg.s1_enabled).map_err(|kind| Fault {
            kind,
            stage: Stage::S1,
            level: 3,
            va,
            ipa: 0,
            wnr,
            s1ptw: false,
        })?;

        let (pa_page, s2_perms) = match cfg.vttbr {
            Some(vt) => {
                tlb.walk.s2_walks += 1;
                let (pa, perms, c) = walk_stage2(mem, model, vttbr::baddr(vt), ipa_page, va, wnr, false)?;
                cost += c;
                check_s2(&perms, access).map_err(|kind| Fault {
                    kind,
                    stage: Stage::S2,
                    level: 3,
                    va,
                    ipa: ipa_page | (va & 0xfff),
                    wnr,
                    s1ptw: false,
                })?;
                (pa, Some(perms))
            }
            None => (ipa_page, None),
        };

        if has_tlb {
            let entry_asid = if cfg.s1_enabled && !s1_perms.global { Some(asid) } else { None };
            tlb.insert(vmid, va, TlbEntry { asid: entry_asid, pa_page, s1: s1_perms, s2: s2_perms });
        }

        Ok(Translation { pa: pa_page | (va & 0xfff), cost, tlb_hit: false })
    }

    let has_tlb = cfg.s1_enabled || cfg.vttbr.is_some();
    let r = lookup_or_walk(mem, tlb, model, cfg, va, access, actx);
    match &r {
        Ok(t) => {
            // The slow path just proved this (tags, access kind) pair
            // translates to `t.pa` — and left the entry in L1, so until
            // the next generation bump a repeat is a free L1 hit.
            if has_tlb && access != Access::Fetch {
                tlb.dtlb_arm(
                    cfg.vmid(),
                    cfg.asid(),
                    actx.el,
                    actx.pan,
                    actx.unpriv,
                    cfg.s1_enabled,
                    va,
                    access == Access::Write,
                    t.pa & !0xfff,
                );
            }
        }
        Err(f) => tlb.walk.count_fault(f),
    }
    r
}

/// Result of a successful instruction fetch via [`fetch`].
#[derive(Debug, Clone, Copy)]
pub struct Fetched {
    /// Final physical address of the fetched word.
    pub pa: u64,
    /// Modelled translation cost, as [`translate`] returned it.
    pub cost: u64,
    pub word: u32,
    pub insn: Insn,
}

fn fetch_bus_fault(va: u64) -> Fault {
    Fault { kind: FaultKind::Translation, stage: Stage::S1, level: 3, va, ipa: 0, wnr: false, s1ptw: false }
}

/// Instruction fetch at `el`: [`translate`] + `read_u32` +
/// `Insn::decode`, the reference fetch, on both engines.
///
/// Errors carry the cycle cost the caller must charge before taking the
/// fault: `stage1_walk` for translation faults (the interpreter's
/// historical accounting) or the translation cost for a bus error on a
/// successfully translated PC.
///
/// On the accelerated engine a successful fetch in a TLB-backed regime
/// is then recorded in the compiled-block fetch cache (`Tlb::record_fetch`),
/// which arms the page against the TLB entry the fetch used; the bare
/// identity regime has no TLB entry to arm against. The cache serves
/// only compiled blocks, never a single step (see the [`crate::icache`]
/// module docs for the coherence rules).
pub fn fetch(
    mem: &PhysMem,
    tlb: &mut Tlb,
    model: &CycleModel,
    cfg: &WalkConfig,
    va: u64,
    el: ExceptionLevel,
) -> Result<Fetched, (Fault, u64)> {
    let actx = AccessCtx { el, pan: false, unpriv: false };
    let t = translate(mem, tlb, model, cfg, va, Access::Fetch, &actx).map_err(|f| (f, model.stage1_walk()))?;
    let word = mem.read_u32(t.pa).ok_or((fetch_bus_fault(va), t.cost))?;
    if tlb.accel() && (cfg.s1_enabled || cfg.vttbr.is_some()) {
        tlb.record_fetch(mem, cfg.vmid(), cfg.asid(), el, va, cfg.s1_enabled, cfg.wxn);
    }
    Ok(Fetched { pa: t.pa, cost: t.cost, word, insn: Insn::decode(word) })
}

/// Walk the stage-1 tree. Returns the IPA *page* of `va`, the leaf
/// permissions, and the walk cost.
fn walk_stage1(
    mem: &PhysMem,
    model: &CycleModel,
    cfg: &WalkConfig,
    va: u64,
    access: Access,
) -> Result<(u64, S1Perms, u64), Fault> {
    let wnr = access == Access::Write;
    let top = va >> 48;
    let root = if top == LOW_HALF {
        ttbr::baddr(cfg.ttbr0)
    } else if top == HIGH_HALF {
        ttbr::baddr(cfg.ttbr1)
    } else {
        return Err(Fault { kind: FaultKind::Translation, stage: Stage::S1, level: 0, va, ipa: 0, wnr, s1ptw: false });
    };

    let cost = if cfg.vttbr.is_some() { model.nested_walk() } else { model.stage1_walk() };
    let mut table = root;
    for level in 0..=3u8 {
        // When stage 2 is on, the stage-1 descriptor address is itself an
        // IPA and must be translated (s1ptw faults).
        let desc_ipa = table + table_idx(va, level) * 8;
        let desc_pa = match cfg.vttbr {
            Some(vt) => {
                let (pa, perms, _) = walk_stage2(mem, model, vttbr::baddr(vt), desc_ipa & !0xfff, va, wnr, true)?;
                check_s2(&perms, Access::Read).map_err(|kind| Fault {
                    kind,
                    stage: Stage::S2,
                    level,
                    va,
                    ipa: desc_ipa,
                    wnr,
                    s1ptw: true,
                })?;
                pa | (desc_ipa & 0xfff)
            }
            None => desc_ipa,
        };
        let desc = mem.read_u64(desc_pa).ok_or(Fault {
            kind: FaultKind::Translation,
            stage: Stage::S1,
            level,
            va,
            ipa: 0,
            wnr,
            s1ptw: false,
        })?;
        if !pte::is_valid(desc) {
            return Err(Fault { kind: FaultKind::Translation, stage: Stage::S1, level, va, ipa: 0, wnr, s1ptw: false });
        }
        if pte::is_table(desc, level) {
            table = pte::desc_oa(desc);
            continue;
        }
        // Leaf: block at level 1/2 or page at level 3.
        let is_leaf = pte::is_block(desc, level) || (level == 3 && desc & pte::TABLE_OR_PAGE != 0);
        if !is_leaf {
            return Err(Fault { kind: FaultKind::Translation, stage: Stage::S1, level, va, ipa: 0, wnr, s1ptw: false });
        }
        if desc & pte::AF == 0 {
            return Err(Fault { kind: FaultKind::AccessFlag, stage: Stage::S1, level, va, ipa: 0, wnr, s1ptw: false });
        }
        let perms = S1Perms::from_bits(desc);
        let block_shift = 39 - 9 * level as u64; // 21 for L2, 30 for L1, 12 for L3
        let within = va & ((1u64 << block_shift) - 1) & !0xfff;
        let ipa_page = pte::desc_oa(desc) | within;
        return Ok((ipa_page, perms, cost));
    }
    unreachable!("level-3 descriptors always terminate the loop");
}

/// Walk a stage-2 tree for an IPA page. Returns the PA page, leaf
/// permissions, and extra cost (0 — stage-2 cost is folded into the
/// caller's nested-walk estimate; standalone stage-2 walks charge here).
fn walk_stage2(
    mem: &PhysMem,
    model: &CycleModel,
    root: u64,
    ipa_page: u64,
    va: u64,
    wnr: bool,
    s1ptw: bool,
) -> Result<(u64, S2Perms, u64), Fault> {
    let mut table = root;
    let cost = if s1ptw { 0 } else { model.stage2_walk() };
    for level in 1..=3u8 {
        let desc_pa = table + table_idx(ipa_page, level) * 8;
        let desc = mem.read_u64(desc_pa).ok_or(Fault {
            kind: FaultKind::Translation,
            stage: Stage::S2,
            level,
            va,
            ipa: ipa_page,
            wnr,
            s1ptw,
        })?;
        if !pte::is_valid(desc) {
            return Err(Fault { kind: FaultKind::Translation, stage: Stage::S2, level, va, ipa: ipa_page, wnr, s1ptw });
        }
        if pte::is_table(desc, level) {
            table = pte::desc_oa(desc);
            continue;
        }
        let is_leaf = pte::is_block(desc, level) || (level == 3 && desc & pte::TABLE_OR_PAGE != 0);
        if !is_leaf {
            return Err(Fault { kind: FaultKind::Translation, stage: Stage::S2, level, va, ipa: ipa_page, wnr, s1ptw });
        }
        if desc & pte::AF == 0 {
            return Err(Fault { kind: FaultKind::AccessFlag, stage: Stage::S2, level, va, ipa: ipa_page, wnr, s1ptw });
        }
        let perms = S2Perms::from_bits(desc);
        let block_shift = 39 - 9 * level as u64;
        let within = ipa_page & ((1u64 << block_shift) - 1) & !0xfff;
        let pa_page = pte::desc_oa(desc) | within;
        return Ok((pa_page, perms, cost));
    }
    unreachable!("level-3 descriptors always terminate the loop");
}

/// Stage-1 permission check.
///
/// `s1_enabled = false` (identity regime) skips checks entirely.
fn check_s1(p: &S1Perms, access: Access, actx: &AccessCtx, wxn: bool, s1_enabled: bool) -> Result<(), FaultKind> {
    if !s1_enabled {
        return Ok(());
    }
    let as_el0 = actx.el == ExceptionLevel::El0 || actx.unpriv;
    match access {
        Access::Fetch => {
            if as_el0 {
                if !p.el0 || !p.user_exec {
                    return Err(FaultKind::Permission);
                }
            } else {
                // Privileged fetch: PXN, WXN, and the architectural rule
                // that EL0-writable pages are never privileged-executable.
                if !p.priv_exec || (wxn && p.write) || (p.el0 && p.write) {
                    return Err(FaultKind::Permission);
                }
            }
        }
        Access::Read => {
            if as_el0 {
                if !p.el0 {
                    return Err(FaultKind::Permission);
                }
            } else if actx.pan && p.el0 {
                return Err(FaultKind::Permission);
            }
        }
        Access::Write => {
            if !p.write {
                return Err(FaultKind::Permission);
            }
            if as_el0 {
                if !p.el0 {
                    return Err(FaultKind::Permission);
                }
            } else if actx.pan && p.el0 {
                return Err(FaultKind::Permission);
            }
        }
    }
    Ok(())
}

/// Stage-2 permission check.
fn check_s2(p: &S2Perms, access: Access) -> Result<(), FaultKind> {
    let ok = match access {
        Access::Read => p.read,
        Access::Write => p.write,
        Access::Fetch => p.read && p.exec,
    };
    if ok {
        Ok(())
    } else {
        Err(FaultKind::Permission)
    }
}

// ---------------------------------------------------------------------------
// Software table edits: one descent for every tree the kernel and
// LightZone build (DESIGN.md §10.6).
// ---------------------------------------------------------------------------

/// A tree's table policy: how its table descriptors name table frames.
/// [`Frames`] is the kernel's stage-1 trees' and every stage-2 tree's;
/// LightZone's per-domain trees name tables by fake address.
pub trait Tables {
    /// The real frame of the table a table descriptor's output address
    /// `oa` names, or `None` if it names none.
    fn frame_of(&self, oa: u64) -> Option<u64>;
    /// Make an empty table: its real frame and the output address its
    /// table descriptor holds.
    fn grow(&mut self, mem: &mut PhysMem) -> Result<(u64, u64), LzFault>;
    /// Give back what table frame `table` holds besides itself, just
    /// before [`free_tree`] frees it: nothing by default.
    fn release(&mut self, _mem: &mut PhysMem, _table: u64) {}
}

/// Table descriptors hold real frame addresses.
pub struct Frames;

impl Tables for Frames {
    fn frame_of(&self, oa: u64) -> Option<u64> {
        Some(oa)
    }

    fn grow(&mut self, mem: &mut PhysMem) -> Result<(u64, u64), LzFault> {
        let frame = mem.alloc_frame();
        Ok((frame, frame))
    }
}

/// Allocate an empty (all-invalid) table root.
pub fn alloc_table(mem: &mut PhysMem) -> u64 {
    mem.alloc_frame()
}

/// Write `desc` into the level-`leaf_level` slot for `addr` of the tree
/// whose level-`root_level` root table is `root`, growing each missing
/// table before writing its table descriptor. Returns the descriptor the
/// slot held. A damaged path is a typed fault, never a panic: a block in
/// the way is `BadDescriptor`, a slot in an unbacked frame
/// `UnbackedFrame`, and a table address `tables` cannot resolve
/// `UnresolvedFake`.
#[deny(clippy::panic, clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn map_leaf<T: Tables>(
    mem: &mut PhysMem,
    tables: &mut T,
    root: u64,
    root_level: u8,
    addr: u64,
    leaf_level: u8,
    desc: u64,
) -> Result<u64, LzFault> {
    let mut table = root;
    for level in root_level..leaf_level {
        let pa = table + table_idx(addr, level) * 8;
        let next = mem.read_u64(pa).ok_or(LzFault::UnbackedFrame { pa })?;
        table = if !pte::is_valid(next) {
            let (frame, oa) = tables.grow(mem)?;
            mem.write_u64(pa, pte::table_desc(oa));
            frame
        } else if pte::is_table(next, level) {
            let oa = pte::desc_oa(next);
            tables.frame_of(oa).ok_or(LzFault::UnresolvedFake { fake: oa })?
        } else {
            return Err(LzFault::BadDescriptor { pa, desc: next });
        };
    }
    let pa = table + table_idx(addr, leaf_level) * 8;
    let old = mem.read_u64(pa).ok_or(LzFault::UnbackedFrame { pa })?;
    mem.write_u64(pa, desc);
    Ok(old)
}

/// A leaf descriptor, at real address `pa` in a level-`level` table.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pub pa: u64,
    pub desc: u64,
    pub level: u8,
}

impl Leaf {
    /// The output page this leaf maps `addr`'s page to.
    pub fn page_of(&self, addr: u64) -> u64 {
        let block_shift = 39 - 9 * self.level as u64;
        pte::desc_oa(self.desc) | (addr & ((1u64 << block_shift) - 1) & !0xfff)
    }

    /// Invalidate the leaf; returns the descriptor it held.
    pub fn clear(self, mem: &mut PhysMem) -> u64 {
        mem.write_u64(self.pa, 0);
        self.desc
    }
}

/// The first valid non-table descriptor on `addr`'s path from `root`, a
/// level-`root_level` table, resolving table addresses with the tree's
/// [`Tables::frame_of`]. `None` at an invalid descriptor, an unbacked
/// frame or an unresolved table address. Every lookup and unmap is this.
#[deny(clippy::panic, clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn find_leaf(
    mem: &PhysMem,
    frame_of: impl Fn(u64) -> Option<u64>,
    root: u64,
    root_level: u8,
    addr: u64,
) -> Option<Leaf> {
    let mut table = root;
    for level in root_level..=3 {
        let pa = table + table_idx(addr, level) * 8;
        let desc = mem.read_u64(pa)?;
        if !pte::is_valid(desc) {
            return None;
        }
        if !pte::is_table(desc, level) {
            return Some(Leaf { pa, desc, level });
        }
        table = frame_of(pte::desc_oa(desc))?;
    }
    None
}

/// Free every *table* frame of the tree whose level-`root_level` root
/// table is `root`, children first, each just after [`Tables::release`]
/// saw it. Leaf frames belong to whoever mapped them. A bad descriptor
/// in a tree a dying guest damaged costs at worst a leaked frame, never
/// a panic. Each table frame is looked up once for its table slots, and
/// each slot is re-read just before descending: a child walk may have
/// freed this frame (DESIGN.md §14.4).
#[deny(clippy::panic, clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn free_tree<T: Tables>(mem: &mut PhysMem, tables: &mut T, root: u64, root_level: u8) {
    let is_table = |desc| pte::is_valid(desc) && pte::is_table(desc, root_level);
    let mut slots = Vec::new();
    if let Some(frame) = (root_level < 3).then(|| mem.frame(root)).flatten() {
        for idx in 0..512 {
            let desc = u64::from_le_bytes(std::array::from_fn(|k| frame.get(idx * 8 + k).copied().unwrap_or(0)));
            if is_table(desc) {
                slots.push(idx as u64);
            }
        }
    }
    for idx in slots {
        let desc = mem.read_u64(root + idx * 8).unwrap_or(0);
        if is_table(desc) {
            if let Some(next) = tables.frame_of(pte::desc_oa(desc)) {
                free_tree(mem, tables, next, root_level + 1);
            }
        }
    }
    tables.release(mem, root);
    mem.try_free_frame(root);
}

/// [`free_tree`] of a kernel stage-1 tree (`root_level` 0) or a stage-2
/// tree (`root_level` 1).
pub fn free_table_tree(mem: &mut PhysMem, root: u64, root_level: u8) {
    free_tree(mem, &mut Frames, root, root_level);
}

/// Map one 4 KB page in a stage-1 tree, creating intermediate tables.
/// Returns the previous leaf descriptor (0 if none).
///
/// # Panics
///
/// Panics on a malformed tree — host setup paths only; guest-reachable
/// callers use [`map_leaf`].
pub fn s1_map_page(mem: &mut PhysMem, root: u64, va: u64, pa: u64, perms: S1Perms) -> u64 {
    map_leaf(mem, &mut Frames, root, 0, va, 3, pte::s1_page_desc(pa, perms))
        .unwrap_or_else(|e| panic!("s1_map_page: {e}"))
}

/// Fallible [`s1_map_block`].
pub fn try_s1_map_block(mem: &mut PhysMem, root: u64, va: u64, pa: u64, perms: S1Perms) -> Result<u64, LzFault> {
    if va & 0x1f_ffff != 0 || pa & 0x1f_ffff != 0 {
        return Err(LzFault::Misaligned { addr: va | pa });
    }
    map_leaf(mem, &mut Frames, root, 0, va, 2, pte::s1_block_desc(pa, perms))
}

/// Map one 2 MiB block at level 2 in a stage-1 tree.
///
/// # Panics
///
/// Panics unless `va` and `pa` are 2 MiB-aligned and the tree is well
/// formed; guest-reachable callers use [`try_s1_map_block`].
pub fn s1_map_block(mem: &mut PhysMem, root: u64, va: u64, pa: u64, perms: S1Perms) -> u64 {
    try_s1_map_block(mem, root, va, pa, perms).unwrap_or_else(|e| panic!("s1_map_block: {e}"))
}

/// Clear the leaf descriptor for `va` in a stage-1 tree (page or block).
/// Returns the removed descriptor, or `None` if nothing was mapped.
pub fn s1_unmap(mem: &mut PhysMem, root: u64, va: u64) -> Option<u64> {
    find_leaf(mem, Some, root, 0, va).map(|leaf| leaf.clear(mem))
}

/// Read back the leaf mapping for `va` in a stage-1 tree.
pub fn s1_lookup(mem: &PhysMem, root: u64, va: u64) -> Option<(u64, S1Perms, u8)> {
    find_leaf(mem, Some, root, 0, va).map(|leaf| (leaf.page_of(va), S1Perms::from_bits(leaf.desc), leaf.level))
}

/// Map one 4 KB page in a stage-2 tree (3 levels, root at level 1).
///
/// # Panics
///
/// Panics on a malformed tree — host setup paths only; guest-reachable
/// callers use [`map_leaf`].
pub fn s2_map_page(mem: &mut PhysMem, root: u64, ipa: u64, pa: u64, perms: S2Perms) -> u64 {
    map_leaf(mem, &mut Frames, root, 1, ipa, 3, pte::s2_page_desc(pa, perms))
        .unwrap_or_else(|e| panic!("s2_map_page: {e}"))
}

/// Fallible [`s2_map_block`].
pub fn try_s2_map_block(mem: &mut PhysMem, root: u64, ipa: u64, pa: u64, perms: S2Perms) -> Result<u64, LzFault> {
    if ipa & 0x1f_ffff != 0 || pa & 0x1f_ffff != 0 {
        return Err(LzFault::Misaligned { addr: ipa | pa });
    }
    map_leaf(mem, &mut Frames, root, 1, ipa, 2, pte::s2_block_desc(pa, perms))
}

/// Map one 2 MiB block at level 2 in a stage-2 tree.
pub fn s2_map_block(mem: &mut PhysMem, root: u64, ipa: u64, pa: u64, perms: S2Perms) -> u64 {
    try_s2_map_block(mem, root, ipa, pa, perms).unwrap_or_else(|e| panic!("s2_map_block: {e}"))
}

/// Clear the stage-2 leaf for `ipa`. Returns the removed descriptor.
pub fn s2_unmap(mem: &mut PhysMem, root: u64, ipa: u64) -> Option<u64> {
    find_leaf(mem, Some, root, 1, ipa).map(|leaf| leaf.clear(mem))
}

/// Read back the stage-2 leaf mapping for `ipa`.
pub fn s2_lookup(mem: &PhysMem, root: u64, ipa: u64) -> Option<(u64, S2Perms, u8)> {
    find_leaf(mem, Some, root, 1, ipa).map(|leaf| (leaf.page_of(ipa), S2Perms::from_bits(leaf.desc), leaf.level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::Platform;

    fn setup() -> (PhysMem, Tlb, CycleModel) {
        (PhysMem::new(), Tlb::new(64), Platform::CortexA55.model())
    }

    fn priv_ctx() -> AccessCtx {
        AccessCtx { el: ExceptionLevel::El1, pan: false, unpriv: false }
    }

    fn user_ctx() -> AccessCtx {
        AccessCtx { el: ExceptionLevel::El0, pan: false, unpriv: false }
    }

    fn user_rw() -> S1Perms {
        S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false }
    }

    #[test]
    fn s1_map_walk_roundtrip() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, user_rw());
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let t = translate(&mem, &mut tlb, &model, &cfg, 0x40_0123, Access::Read, &user_ctx()).unwrap();
        assert_eq!(t.pa, frame + 0x123);
        assert!(!t.tlb_hit);
        assert!(t.cost > 0);
        // Second access hits the TLB.
        let t2 = translate(&mem, &mut tlb, &model, &cfg, 0x40_0456, Access::Read, &user_ctx()).unwrap();
        assert!(t2.tlb_hit);
        assert_eq!(t2.cost, 0);
    }

    #[test]
    fn unmapped_va_translation_fault() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Translation);
        assert_eq!(f.stage, Stage::S1);
        assert_eq!(f.level, 0);
    }

    #[test]
    fn non_canonical_va_faults() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x00ff_0000_0000_0000, Access::Read, &user_ctx());
        assert!(f.is_err());
    }

    #[test]
    fn high_half_uses_ttbr1() {
        let (mut mem, mut tlb, model) = setup();
        let root0 = alloc_table(&mut mem);
        let root1 = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let va = 0xffff_0000_dead_0000u64;
        s1_map_page(&mut mem, root1, va, frame, user_rw());
        let cfg = WalkConfig {
            ttbr0: ttbr::pack(1, root0),
            ttbr1: ttbr::pack(0, root1),
            s1_enabled: true,
            wxn: false,
            vttbr: None,
        };
        let t = translate(&mem, &mut tlb, &model, &cfg, va + 8, Access::Read, &user_ctx()).unwrap();
        assert_eq!(t.pa, frame + 8);
    }

    #[test]
    fn user_cannot_touch_kernel_page() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, S1Perms::kernel_data());
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
        // But EL1 can.
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &priv_ctx()).is_ok());
    }

    #[test]
    fn pan_blocks_privileged_access_to_user_pages() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, user_rw());
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let pan_ctx = AccessCtx { el: ExceptionLevel::El1, pan: true, unpriv: false };
        // PAN set: privileged read and write both fault.
        for access in [Access::Read, Access::Write] {
            let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, access, &pan_ctx).unwrap_err();
            assert_eq!(f.kind, FaultKind::Permission, "{access:?}");
        }
        // PAN clear: allowed.
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &priv_ctx()).is_ok());
        // Unprivileged (LDTR-style) access ignores PAN.
        let unpriv = AccessCtx { el: ExceptionLevel::El1, pan: true, unpriv: true };
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &unpriv).is_ok());
    }

    #[test]
    fn pan_check_applies_on_tlb_hit_path() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, user_rw());
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        // Prime the TLB with PAN clear…
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &priv_ctx()).is_ok());
        // …then the same cached entry must still fault under PAN.
        let pan_ctx = AccessCtx { el: ExceptionLevel::El1, pan: true, unpriv: false };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &pan_ctx).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn write_to_readonly_faults() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let ro = S1Perms { write: false, ..user_rw() };
        s1_map_page(&mut mem, root, 0x40_0000, frame, ro);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Write, &user_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
        assert!(f.wnr);
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).is_ok());
    }

    #[test]
    fn uxn_pxn_enforced() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        // User-executable, not priv-executable, read-only.
        let xo = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut mem, root, 0x40_0000, frame, xo);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Fetch, &user_ctx()).is_ok());
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Fetch, &priv_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn el1_cannot_execute_user_writable_page() {
        // The PANIC attack surface: a page writable from EL0 must never be
        // privileged-executable, even with PXN clear.
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let wx = S1Perms { read: true, write: true, user_exec: true, priv_exec: true, el0: true, global: false };
        s1_map_page(&mut mem, root, 0x40_0000, frame, wx);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Fetch, &priv_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn wxn_blocks_writable_exec() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let wx = S1Perms { read: true, write: true, user_exec: false, priv_exec: true, el0: false, global: false };
        s1_map_page(&mut mem, root, 0x40_0000, frame, wx);
        let mut cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: true, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Fetch, &priv_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
        cfg.wxn = false;
        assert!(translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Fetch, &priv_ctx()).is_ok());
    }

    #[test]
    fn stage2_bounds_stage1() {
        // Even if stage-1 maps an IPA, a missing stage-2 entry faults to
        // stage 2 — the process-kernel isolation backstop (§5.1.2).
        let (mut mem, mut tlb, model) = setup();
        let s1_root = alloc_table(&mut mem);
        let s2_root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        let fake_ipa = 0x1000u64;
        s1_map_page(&mut mem, s1_root, 0x40_0000, fake_ipa, user_rw());
        // Stage-2 must also map the stage-1 table pages themselves.
        {
            let pa = s1_root;
            s2_map_page(&mut mem, s2_root, pa, pa, S2Perms::ro());
        }
        // Map every intermediate table page identity at stage 2.
        for f in 0..mem.allocated_frames() as u64 + 16 {
            let pa = (1 << 20) + f * 4096;
            if mem.is_mapped(pa) && pa != frame {
                s2_map_page(&mut mem, s2_root, pa, pa, S2Perms::ro());
            }
        }
        let cfg = WalkConfig {
            ttbr0: ttbr::pack(1, s1_root),
            ttbr1: 0,
            s1_enabled: true,
            wxn: false,
            vttbr: Some(vttbr::pack(3, s2_root)),
        };
        // IPA 0x1000 not mapped at stage 2 -> stage-2 translation fault.
        let f2 = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap_err();
        assert_eq!(f2.stage, Stage::S2);
        assert_eq!(f2.kind, FaultKind::Translation);
        assert!(!f2.s1ptw);
        assert_eq!(f2.ipa & !0xfff, fake_ipa);
    }

    #[test]
    fn stage2_translates_fake_to_real() {
        let (mut mem, mut tlb, model) = setup();
        let s1_root = alloc_table(&mut mem);
        let s2_root = alloc_table(&mut mem);
        let real = mem.alloc_frame();
        let fake_ipa = 0x2000u64;
        s1_map_page(&mut mem, s1_root, 0x40_0000, fake_ipa, user_rw());
        s2_map_page(&mut mem, s2_root, fake_ipa, real, S2Perms::rwx());
        // Identity-map every currently allocated frame (tables) at stage 2.
        let max = (1 << 20) + mem.allocated_frames() as u64 * 4096 + 0x10000;
        let mut pa = 1 << 20;
        while pa < max {
            if mem.is_mapped(pa) && pa != real {
                s2_map_page(&mut mem, s2_root, pa, pa, S2Perms::ro());
            }
            pa += 4096;
        }
        let cfg = WalkConfig {
            ttbr0: ttbr::pack(1, s1_root),
            ttbr1: 0,
            s1_enabled: true,
            wxn: false,
            vttbr: Some(vttbr::pack(3, s2_root)),
        };
        let t = translate(&mem, &mut tlb, &model, &cfg, 0x40_0042, Access::Read, &user_ctx()).unwrap();
        assert_eq!(t.pa, real + 0x42, "stage-2 maps fake IPA to the real frame");
        // Stage-2 RO mapping rejects writes.
        s2_map_page(&mut mem, s2_root, fake_ipa, real, S2Perms::ro());
        tlb.invalidate_all();
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0042, Access::Write, &user_ctx()).unwrap_err();
        assert_eq!(f.stage, Stage::S2);
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn block_mapping_2mb() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        // `alloc_contiguous` aligns the run to its length, as a block needs.
        let base = mem.alloc_contiguous(512);
        let va = 0x4000_0000u64;
        s1_map_block(&mut mem, root, va, base, user_rw());
        assert_eq!(
            s1_lookup(&mem, root, va + 0x12_3456).map(|(pa, _, level)| (pa, level)),
            Some((base + 0x12_3000, 2))
        );
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let t = translate(&mem, &mut tlb, &model, &cfg, va + 0x12_3456, Access::Read, &user_ctx()).unwrap();
        assert_eq!(t.pa, base + 0x12_3456);
    }

    #[test]
    fn asid_switch_changes_translation_without_invalidate() {
        // Two roots map the same VA to different frames under different
        // ASIDs: switching TTBR0 must flip the translation with no TLBI.
        let (mut mem, mut tlb, model) = setup();
        let root_a = alloc_table(&mut mem);
        let root_b = alloc_table(&mut mem);
        let fa = mem.alloc_frame();
        let fb = mem.alloc_frame();
        s1_map_page(&mut mem, root_a, 0x40_0000, fa, user_rw());
        s1_map_page(&mut mem, root_b, 0x40_0000, fb, user_rw());
        let mut cfg = WalkConfig { ttbr0: ttbr::pack(10, root_a), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let ta = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap();
        assert_eq!(ta.pa, fa);
        cfg.ttbr0 = ttbr::pack(11, root_b);
        let tb = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap();
        assert_eq!(tb.pa, fb, "stale ASID-10 entry must not satisfy ASID 11");
        // Switching back hits the still-resident ASID-10 entry.
        cfg.ttbr0 = ttbr::pack(10, root_a);
        let ta2 = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap();
        assert!(ta2.tlb_hit);
        assert_eq!(ta2.pa, fa);
    }

    #[test]
    fn unmap_then_walk_faults() {
        let (mut mem, mut tlb, model) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, user_rw());
        let removed = s1_unmap(&mut mem, root, 0x40_0000).unwrap();
        assert_eq!(pte::desc_oa(removed), frame);
        let cfg = WalkConfig { ttbr0: ttbr::pack(1, root), ttbr1: 0, s1_enabled: true, wxn: false, vttbr: None };
        let f = translate(&mem, &mut tlb, &model, &cfg, 0x40_0000, Access::Read, &user_ctx()).unwrap_err();
        assert_eq!(f.kind, FaultKind::Translation);
        assert_eq!(f.level, 3);
    }

    #[test]
    fn s1_lookup_sees_mapping() {
        let (mut mem, _, _) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s1_map_page(&mut mem, root, 0x40_0000, frame, user_rw());
        let (pa, perms, level) = s1_lookup(&mem, root, 0x40_0000).unwrap();
        assert_eq!((pa, level), (frame, 3));
        assert!(perms.el0 && perms.write);
        assert!(s1_lookup(&mem, root, 0x50_0000).is_none());
    }

    #[test]
    fn s2_lookup_and_unmap() {
        let (mut mem, _, _) = setup();
        let root = alloc_table(&mut mem);
        let frame = mem.alloc_frame();
        s2_map_page(&mut mem, root, 0x3000, frame, S2Perms::rwx());
        let (pa, perms, _) = s2_lookup(&mem, root, 0x3000).unwrap();
        assert_eq!(pa, frame);
        assert!(perms.write);
        s2_unmap(&mut mem, root, 0x3000).unwrap();
        assert!(s2_lookup(&mem, root, 0x3000).is_none());
    }
}
