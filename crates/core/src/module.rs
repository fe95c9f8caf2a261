//! The LightZone kernel module: virtual-environment lifecycle, the
//! `lz_*` API implementation, and trap forwarding for kernel-mode
//! processes (paper §4.1.1, §5).
//!
//! Flow of a LightZone process trap (host case): the process runs at EL1
//! in its own VE; a syscall or stage-1 fault vectors to the VE's own
//! `VBAR_EL1` where the API-library stub (a single `hvc`) forwards it to
//! EL2. There this module reads the *original* syndrome out of
//! `ESR_EL1`/`ELR_EL1`/`SPSR_EL1` and either services the trap (page
//! fault, `lz_*` call, forwarded kernel syscall) or terminates the
//! process on an isolation violation. Returns go straight back to the
//! interrupted instruction via `ERET` from EL2, skipping the stub.

use crate::fakephys::FakePhys;
use crate::gate::{self, layout, GateFlavor, GateTables};
use crate::pgt::{LzTable, Overlay, PGT_ALL};
use crate::sanitizer::{self, WxDecision, WxTracker};
use crate::{api::LzProgram, lowvisor, SECURITY_KILL};
use lz_arch::esr::{self, ExceptionClass};
use lz_arch::pstate::{ExceptionLevel, PState};
use lz_arch::sensitive::SanitizeMode;
use lz_arch::sysreg::{hcr, sctlr, vttbr, SysReg};
use lz_arch::{page_align_down, Platform, PAGE_SIZE};
use lz_kernel::syscall::{custom, CUSTOM_BASE};
use lz_kernel::vma::user_range;
use lz_kernel::{Event, Kernel, KernelMode, Pid, SysOutcome};
use lz_machine::pte::{S1Perms, S2Perms};
use lz_machine::walk::{alloc_table, free_table_tree, s2_map_block, s2_map_page, s2_unmap};
use lz_machine::{EventKind, Exit, Machine, Report, Section};
use std::collections::{BTreeMap, HashMap};

/// Design knobs for ablation studies (all `true`/paper-default normally).
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// §5.2: eagerly map stage-2 while handling a stage-1 fault, avoiding
    /// a second back-to-back trap on the same address.
    pub eager_stage2: bool,
    /// §5.2.1: retain `HCR_EL2`/`VTTBR_EL2` across traps into the host
    /// kernel instead of switching them every time.
    pub retain_hcr_vttbr: bool,
    /// §6.2: gate code shape (check phase ②, ASID-vs-TLBI).
    pub gate_flavor: GateFlavor,
    /// §5.1.2: hide real physical addresses behind sequential fakes.
    pub randomize_phys: bool,
    /// §5.2.2: share the `pt_regs` page between Lowvisor and the guest
    /// kernel, saving one context copy per nested trap.
    pub shared_pt_regs: bool,
    /// §5.2.2 (from NEVE): redirect guest sysreg accesses to a shared
    /// per-core page instead of trapping each one.
    pub deferred_sysreg_page: bool,
    /// **Deliberately broken** when `true`: skip the cross-core IPI
    /// shootdown on break-before-make and detach paths, invalidating
    /// only the issuing core's TLB. Models a kernel that forgets remote
    /// TLB invalidation; the cross-core W^X penetration test asserts
    /// this leaves a stale executable alias on another core.
    pub skip_remote_shootdown: bool,
    /// **Deliberately broken** when `true`: skip the TLB invalidation
    /// that must run when a *recycled* VMID or table ASID is granted
    /// after an allocator rollover. Models a kernel that recycles IDs
    /// without maintenance; the rollover penetration test proves a VE
    /// under a recycled VMID then reads a dead process's memory through
    /// stale TLB entries. Not a [`Defense`] variant: the attack-corpus
    /// schedule is frozen over `ALL_DEFENSES`, so this knob is swept by
    /// the dedicated rollover pen tests instead of the synthesis matrix.
    pub skip_rollover_shootdown: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            eager_stage2: true,
            retain_hcr_vttbr: true,
            gate_flavor: GateFlavor::default(),
            randomize_phys: true,
            shared_pt_regs: true,
            deferred_sysreg_page: true,
            skip_remote_shootdown: false,
            skip_rollover_shootdown: false,
        }
    }
}

/// One named defense mechanism of the stack, as flipped by the ablation
/// sweeps (the attack-synthesis harness runs every candidate exploit
/// under each polarity of each defense).
///
/// `gate_flavor.tlbi_after_switch` is deliberately absent: ASID-vs-TLBI
/// is a performance ablation of §4.1.2, not a defense — both polarities
/// must defeat every attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Defense {
    /// §5.2 eager stage-2 mapping (perf defense: avoids double traps).
    EagerStage2,
    /// §5.2.1 HCR/VTTBR retention across traps (perf defense).
    RetainHcrVttbr,
    /// §6.2 gate check phase ② (lr/TTBR validation after the switch).
    GateCheckPhase,
    /// §5.1.2 fake-physical randomization (hides the real frame layout).
    RandomizePhys,
    /// §5.2.2 shared `pt_regs` page in the Lowvisor path (perf defense).
    SharedPtRegs,
    /// §5.2.2 deferred sysreg page in the Lowvisor path (perf defense).
    DeferredSysregPage,
    /// Cross-core IPI TLB shootdown on break-before-make and detach.
    RemoteShootdown,
}

/// Every defense, in the fixed order the polarity sweeps iterate.
pub const ALL_DEFENSES: [Defense; 7] = [
    Defense::EagerStage2,
    Defense::RetainHcrVttbr,
    Defense::GateCheckPhase,
    Defense::RandomizePhys,
    Defense::SharedPtRegs,
    Defense::DeferredSysregPage,
    Defense::RemoteShootdown,
];

impl Defense {
    /// Stable snake_case name (used in reports and `BENCH_*.json`).
    pub fn name(self) -> &'static str {
        match self {
            Defense::EagerStage2 => "eager_stage2",
            Defense::RetainHcrVttbr => "retain_hcr_vttbr",
            Defense::GateCheckPhase => "gate_check_phase",
            Defense::RandomizePhys => "randomize_phys",
            Defense::SharedPtRegs => "shared_pt_regs",
            Defense::DeferredSysregPage => "deferred_sysreg_page",
            Defense::RemoteShootdown => "remote_shootdown",
        }
    }
}

impl AblationConfig {
    /// Turn one defense off on top of this config (polarity sweep
    /// helper; the paper-default config has every defense on).
    pub fn defense_off(mut self, defense: Defense) -> Self {
        match defense {
            Defense::EagerStage2 => self.eager_stage2 = false,
            Defense::RetainHcrVttbr => self.retain_hcr_vttbr = false,
            Defense::GateCheckPhase => self.gate_flavor.check_phase = false,
            Defense::RandomizePhys => self.randomize_phys = false,
            Defense::SharedPtRegs => self.shared_pt_regs = false,
            Defense::DeferredSysregPage => self.deferred_sysreg_page = false,
            Defense::RemoteShootdown => self.skip_remote_shootdown = true,
        }
        self
    }

    /// The default config with exactly one defense ablated.
    pub fn with_defense_off(defense: Defense) -> Self {
        AblationConfig::default().defense_off(defense)
    }
}

/// Per-page protection record (which domains may see the page, and how).
#[derive(Debug, Default, Clone)]
pub struct PageProt {
    /// Attached to all tables as a PAN-guarded user page (`PGT_ALL` +
    /// `USER`), with the global bit for cheap TTBR switches (Listing 1).
    pub pan_all: Option<Overlay>,
    /// Per-domain attachments: `(pgt id, overlay)`.
    pub attach: Vec<(usize, Overlay)>,
}

/// Version tag for [`VeSnapshot`] images. Bump on any layout change;
/// [`LightZone::restore_ve`] refuses every other version fail-closed.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Sentinel for "no PAN-all overlay" in [`VeSnapshot::protections`]
/// (overlay bit patterns only use the low four bits, so `u64::MAX` can
/// never collide with a real [`Overlay::to_bits`] encoding).
const PAN_ABSENT: u64 = u64::MAX;

/// A deterministic, versioned snapshot of one VE's *guest-visible*
/// state, taken at a request boundary (the VE parked, its thread
/// context saved): registers, domain layout, gate→table designations,
/// the protection policy, and the resident data pages.
///
/// Host-side identifiers are deliberately **not** part of the image.
/// [`LightZone::restore_ve`] rebuilds a fresh VE through the normal
/// spawn/`lz_enter`/`lz_alloc` paths — new pid, new generation-tagged
/// VMID, fresh table ASIDs — so the invalidate-at-reuse contract
/// applies to every recycled identifier and no stale TLB or icache
/// state can survive a restart. The `restore_*` penetration tests prove
/// that shoot-down load-bearing, same style as the `rollover_*` tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VeSnapshot {
    /// Must equal [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Saved general-purpose registers (single-threaded VEs only).
    pub x: [u64; 31],
    pub sp: u64,
    pub pc: u64,
    /// Saved `PSTATE`, encoded as SPSR bits (EL, PAN, NZCV, irq mask).
    pub spsr: u64,
    /// The domain (pgt id) the thread was running in, recovered from
    /// its saved `TTBR0_EL1` root.
    pub cur_domain: usize,
    /// `lz_enter` arguments the restored VE must be rebuilt with.
    pub scalable: bool,
    pub san: SanitizeMode,
    /// One entry per pgt id ever allocated; `false` marks a freed
    /// domain (restore re-allocates then re-frees so ids line up).
    pub domain_slots: Vec<bool>,
    /// GateTab rows with a designated table: `(gate id, pgt id)`.
    pub gate_pgts: Vec<(u16, u64)>,
    /// Protection policy, ascending page VA: `(page, pan_all bits or
    /// [`PAN_ABSENT`], per-domain attachments)`, overlays encoded via
    /// [`Overlay::to_bits`].
    pub protections: Vec<(u64, u64, Vec<(usize, u64)>)>,
    /// Resident data pages, ascending VA, page-sized byte images.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// FNV-1a digest over the canonical field encoding. Restore
    /// verifies it and rejects corrupt images fail-closed (the
    /// `snapshot_corrupt` chaos site flips a byte to exercise this).
    pub digest: u64,
}

impl VeSnapshot {
    fn fold(h: u64, v: u64) -> u64 {
        v.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The FNV-1a digest of every field except `digest` itself, in
    /// declaration order with length prefixes (so field boundaries
    /// cannot alias).
    pub fn compute_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = Self::fold(h, self.version as u64);
        for &v in &self.x {
            h = Self::fold(h, v);
        }
        for v in [self.sp, self.pc, self.spsr, self.cur_domain as u64, self.scalable as u64] {
            h = Self::fold(h, v);
        }
        h = Self::fold(h, self.san as u64);
        h = Self::fold(h, self.domain_slots.len() as u64);
        for &live in &self.domain_slots {
            h = Self::fold(h, live as u64);
        }
        h = Self::fold(h, self.gate_pgts.len() as u64);
        for &(gate, pgt) in &self.gate_pgts {
            h = Self::fold(Self::fold(h, gate as u64), pgt);
        }
        h = Self::fold(h, self.protections.len() as u64);
        for (page, pan, attach) in &self.protections {
            h = Self::fold(Self::fold(h, *page), *pan);
            h = Self::fold(h, attach.len() as u64);
            for &(pgt, bits) in attach {
                h = Self::fold(Self::fold(h, pgt as u64), bits);
            }
        }
        h = Self::fold(h, self.pages.len() as u64);
        for (va, bytes) in &self.pages {
            h = Self::fold(Self::fold(h, *va), bytes.len() as u64);
            h = bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        }
        h
    }

    /// Stamp the digest (the final step of [`LzModule::snapshot_ve`]).
    pub fn seal(&mut self) {
        self.digest = self.compute_digest();
    }

    /// `true` iff the version is current and the digest matches the
    /// content — the restore-side admission check.
    pub fn verify(&self) -> bool {
        self.version == SNAPSHOT_VERSION && self.digest == self.compute_digest()
    }
}

/// Counters for the evaluation.
#[derive(Debug, Default, Clone)]
pub struct LzStats {
    /// Reason for the most recent isolation violation, if any.
    pub last_violation: Option<&'static str>,
    pub ve_traps: u64,
    pub ve_syscalls: u64,
    pub ve_faults: u64,
    pub sanitized_pages: u64,
    pub violations: u64,
    pub stage2_faults: u64,
    /// Sanitizer scans that found a sensitive instruction.
    pub sanitizer_rejects: u64,
    /// W^X transitions into the writable state (exec rights dropped).
    pub wx_to_writable: u64,
    /// W^X transitions into the executable state (after a clean scan).
    pub wx_to_exec: u64,
    /// Break-before-make unmaps (a page zapped from every domain).
    pub bbm_unmaps: u64,
}

/// Module-side state of one LightZone process.
#[derive(Debug)]
pub struct LzProc {
    pub vmid: u16,
    pub s2_root: u64,
    pub fake: FakePhys,
    pub scalable: bool,
    pub san: SanitizeMode,
    /// Stage-1 trees by pgt id; `tables[0]` is the default table.
    pub tables: Vec<Option<LzTable>>,
    /// Root-fake → pgt id (to recover the current domain from TTBR0).
    by_root: HashMap<u64, usize>,
    /// The TTBR1 tree mapping stub, gates, and the two read-only tables.
    pub ttbr1: LzTable,
    pub gates: GateTables,
    ttbrtab_frames: Vec<u64>,
    gatetab_frames: Vec<u64>,
    /// Module-allocated code frames (stub page, gate-stub pages) that
    /// reaping must return to the frame allocator.
    owned_frames: Vec<u64>,
    /// Page protections by page VA.
    pub protections: BTreeMap<u64, PageProt>,
    /// Which tables currently map each page (for detach and BBM).
    residence: HashMap<u64, Vec<usize>>,
    pub wx: WxTracker,
    /// Per-process table-ASID allocator: `lz_free` returns a domain's
    /// ASID here, and after the 16-bit space rolls over `lz_alloc` hands
    /// out recycled ASIDs (with the reuse-time invalidation
    /// `alloc_table_in` performs).
    pub asids: lz_kernel::IdAlloc,
    /// Deferred stage-2 mappings when `eager_stage2` is off.
    s2_pending: HashMap<u64, (u64, S2Perms)>,
    /// Repeated-fault guard (va, count).
    fault_guard: (u64, u32),
    pub stats: LzStats,
}

impl LzProc {
    /// Total stage-1 page-table bytes across all domains (the §9
    /// "page table memory overhead").
    pub fn table_bytes(&self) -> u64 {
        self.tables.iter().flatten().map(|t| t.table_bytes()).sum::<u64>() + self.ttbr1.table_bytes()
    }

    /// Number of live domains (allocated stage-1 tables).
    pub fn domain_count(&self) -> usize {
        self.tables.iter().flatten().count()
    }
}

/// The LightZone kernel module (plus Lowvisor state for guests).
#[derive(Debug)]
pub struct LzModule {
    procs: HashMap<Pid, LzProc>,
    /// Loader-provided gate entries per process (the statically designated
    /// ENTRY addresses of §6.2), registered at spawn.
    pending_entries: HashMap<Pid, Vec<(u16, u64)>>,
    pub ablation: AblationConfig,
    /// Table-ASID space given to each new VE's allocator (full 16-bit
    /// space by default; tests shrink it to reach per-process ASID
    /// exhaustion and rollover in a few `lz_alloc` calls).
    pub asid_space: u16,
    /// Counters of processes torn down by [`LzModule::reap`], folded into
    /// the aggregate so `metrics_sections` survives reaping.
    retired: LzStats,
    retired_asid_recycles: u64,
    /// TLB invalidations forced by recycled VMID/ASID grants (the
    /// rollover maintenance the stale-TLB pen test proves load-bearing).
    pub rollover_shootdowns: u64,
    reaps: u64,
    /// Successful [`LightZone::restore_ve`] warm restarts.
    restores: u64,
    /// Snapshot images refused fail-closed (bad version/digest, or a
    /// rebuild that did not reproduce the snapshot's layout).
    snapshot_rejects: u64,
}

impl Default for LzModule {
    fn default() -> Self {
        LzModule {
            procs: HashMap::new(),
            pending_entries: HashMap::new(),
            ablation: AblationConfig::default(),
            asid_space: u16::MAX,
            retired: LzStats::default(),
            retired_asid_recycles: 0,
            rollover_shootdowns: 0,
            reaps: 0,
            restores: 0,
            snapshot_rejects: 0,
        }
    }
}

impl LzModule {
    pub fn new() -> Self {
        LzModule::default()
    }

    /// Module state for a process, if it entered LightZone.
    pub fn proc(&self, pid: Pid) -> Option<&LzProc> {
        self.procs.get(&pid)
    }

    /// Register loader metadata (gate ENTRY addresses) for a process.
    pub fn register_entries(&mut self, pid: Pid, entries: Vec<(u16, u64)>) {
        self.pending_entries.insert(pid, entries);
    }

    // ------------------------------------------------------------------
    // lz_enter (§5.1): build the VE and lift the process to EL1.
    // ------------------------------------------------------------------

    /// Implement `lz_enter(allow_scalable, insn_san)` for the current
    /// process. Returns the syscall result (0 on success).
    pub fn lz_enter(&mut self, k: &mut Kernel, allow_scalable: bool, san: SanitizeMode) -> u64 {
        let Some(pid) = k.current() else { return u64::MAX };
        if self.procs.contains_key(&pid) {
            return u64::MAX; // one-way ticket, already inside
        }
        // VMID allocation can fail only when every VMID is simultaneously
        // live — a denied lz_enter, not a host panic. A *recycled* VMID
        // may still tag TLB entries from its previous life on any core,
        // so the reuse path shoots the whole VMID down before VTTBR_EL2
        // ever carries it (unless the rollover ablation breaks this on
        // purpose).
        let grant = match k.vmids.alloc() {
            Ok(g) => g,
            Err(_) => return u64::MAX,
        };
        let vmid = grant.id;
        if grant.recycled && !self.ablation.skip_rollover_shootdown {
            if self.ablation.skip_remote_shootdown {
                k.machine.tlb.invalidate_vmid(vmid);
            } else {
                k.machine.shootdown_vmid(vmid);
            }
            self.rollover_shootdowns += 1;
            k.machine.charge(k.machine.model.dsb + k.machine.model.path_cost(60));
        }
        let s2_root = alloc_table(&mut k.machine.mem);
        let mut fake = if self.ablation.randomize_phys { FakePhys::new() } else { FakePhys::identity() };

        // TTBR1 region: stub page, gate stubs, read-only tables.
        let mut ttbr1 = LzTable::new(&mut k.machine.mem, &mut fake, s2_root, 0);
        let mut gates = GateTables::new();
        let entries = self.pending_entries.remove(&pid).unwrap_or_default();

        // Stub page: `hvc #0` at the +0x200 (same-EL) and +0x400
        // (lower-EL) vector slots.
        let stub_real = k.machine.mem.alloc_frame();
        let hvc = lz_arch::insn::Insn::Hvc { imm: 0 }.encode().to_le_bytes();
        k.machine.mem.write_bytes(stub_real + 0x200, &hvc);
        k.machine.mem.write_bytes(stub_real + 0x400, &hvc);
        let stub_fake = fake.assign(stub_real);
        s2_map_page(
            &mut k.machine.mem,
            s2_root,
            stub_fake,
            stub_real,
            S2Perms { read: true, write: false, exec: true },
        );
        ttbr1.map_page(&mut k.machine.mem, &mut fake, s2_root, layout::STUB_VA, stub_fake, gate_code_perms());
        let mut owned_frames = vec![stub_real];

        // Gate stubs for every registered entry.
        for &(gate_id, entry_va) in &entries {
            gates.set_entry(gate_id, entry_va);
            let words = gate::emit_gate(gate_id, self.ablation.gate_flavor);
            let gva = layout::gate_va(gate_id);
            self.write_ttbr1_code(k, &mut ttbr1, &mut fake, s2_root, gva, &words, &mut owned_frames);
        }

        let mut proc = LzProc {
            vmid,
            s2_root,
            fake,
            scalable: allow_scalable,
            san,
            tables: Vec::new(),
            by_root: HashMap::new(),
            ttbr1,
            gates,
            ttbrtab_frames: Vec::new(),
            gatetab_frames: Vec::new(),
            owned_frames,
            protections: BTreeMap::new(),
            residence: HashMap::new(),
            wx: WxTracker::new(),
            asids: lz_kernel::IdAlloc::with_space(self.asid_space),
            s2_pending: HashMap::new(),
            fault_guard: (0, 0),
            stats: LzStats::default(),
        };

        // Default table (pgt 0). With the configured ASID space this can
        // only fail when `asid_space` was shrunk to zero — unwind the
        // half-built VE (trees, frames, VMID) and deny the call instead
        // of panicking the host.
        let Some(pgt0) = self.alloc_table_in(k, &mut proc) else {
            Self::scrap_proc_storage(k, proc);
            return u64::MAX;
        };
        debug_assert_eq!(pgt0, 0);

        // Enter the VE: one-way (paper §4.1.1). The process resumes at
        // the instruction after the svc, now at EL1.
        k.process_mut(pid).in_lightzone = true;
        let resume_pc = k.process(pid).ctx().pc;
        let sp = k.process(pid).ctx().sp;
        let m = &mut k.machine;
        m.set_el1_external(false);
        let mut hcr_val = hcr::VM | hcr::TTLB | hcr::TIDCP;
        if self.ablation.gate_flavor.tlbi_after_switch {
            // Ablation: the gate itself executes TLBI, so TLB maintenance
            // cannot be trapped (the design the per-table ASIDs avoid).
            hcr_val &= !hcr::TTLB;
        }
        if !allow_scalable {
            // PAN-only processes may never touch stage-1 translation
            // (§5.1.2: TVM/TRVM set).
            hcr_val |= hcr::TVM | hcr::TRVM;
        }
        m.write_sysreg_charged(SysReg::HCR_EL2, hcr_val);
        m.write_sysreg_charged(SysReg::VTTBR_EL2, vttbr::pack(vmid, s2_root));
        m.write_sysreg_charged(SysReg::SCTLR_EL1, sctlr::M); // SPAN clear: exceptions set PAN
        m.write_sysreg_charged(SysReg::TTBR0_EL1, proc.tables[0].as_ref().expect("pgt0").ttbr0());
        m.write_sysreg_charged(SysReg::TTBR1_EL1, proc.ttbr1.root_fake);
        m.write_sysreg_charged(SysReg::VBAR_EL1, layout::STUB_VA);
        m.cpu.sp_el1 = sp;
        // VE construction path (table/gate emission, bookkeeping).
        let setup = m.model.path_cost(2500) + entries.len() as u64 * m.model.path_cost(200);
        m.charge(setup);
        m.cpu.set_reg(0, 0);
        let ps = PState { el: ExceptionLevel::El1, pan: true, irq_masked: false, nzcv: Default::default() };
        m.enter(ps, resume_pc);

        self.procs.insert(pid, proc);
        0
    }

    #[allow(clippy::too_many_arguments)]
    fn write_ttbr1_code(
        &self,
        k: &mut Kernel,
        ttbr1: &mut LzTable,
        fake: &mut FakePhys,
        s2_root: u64,
        va: u64,
        words: &[u32],
        owned: &mut Vec<u64>,
    ) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut off = 0usize;
        while off < bytes.len() {
            let page_va = page_align_down(va + off as u64);
            let in_page = (va + off as u64 - page_va) as usize;
            let take = (PAGE_SIZE as usize - in_page).min(bytes.len() - off);
            let real = match ttbr1.lookup(&k.machine.mem, fake, page_va) {
                Some((leaf_fake, _)) => fake.real_of(leaf_fake).expect("fake resolves"),
                None => {
                    let real = k.machine.mem.alloc_frame();
                    owned.push(real);
                    let f = fake.assign(real);
                    s2_map_page(&mut k.machine.mem, s2_root, f, real, S2Perms { read: true, write: false, exec: true });
                    ttbr1.map_page(&mut k.machine.mem, fake, s2_root, page_va, f, gate_code_perms());
                    real
                }
            };
            k.machine.mem.write_bytes(real + in_page as u64, &bytes[off..off + take]);
            off += take;
        }
    }

    // ------------------------------------------------------------------
    // lz_alloc / lz_free / lz_map_gate_pgt / lz_prot (§6.1, Table 2).
    // ------------------------------------------------------------------

    /// Returns `None` when the per-process ASID space is exhausted with
    /// every ASID live — a guest can reach that by looping on `lz_alloc`
    /// without `lz_free`, so it must be a denied allocation, not a host
    /// panic. After `lz_free` returns ASIDs, allocation resumes on the
    /// recycled-ID path: a recycled table ASID may still tag stale
    /// non-global TLB entries from the freed domain, so reuse
    /// invalidates the (vmid, asid) scope on every core first.
    fn alloc_table_in(&mut self, k: &mut Kernel, proc: &mut LzProc) -> Option<usize> {
        let grant = proc.asids.alloc().ok()?;
        if grant.recycled && !self.ablation.skip_rollover_shootdown {
            if self.ablation.skip_remote_shootdown {
                k.machine.tlb.invalidate_asid(proc.vmid, grant.id);
            } else {
                k.machine.shootdown_asid(proc.vmid, grant.id);
            }
            self.rollover_shootdowns += 1;
            k.machine.charge(k.machine.model.dsb + k.machine.model.path_cost(40));
        }
        let t = LzTable::new(&mut k.machine.mem, &mut proc.fake, proc.s2_root, grant.id);
        let ttbr0 = t.ttbr0();
        let pgt = proc.tables.len();
        proc.by_root.insert(t.root_fake, pgt);
        proc.tables.push(Some(t));
        let pgtid = proc.gates.push_table(ttbr0);
        debug_assert_eq!(pgtid as usize, pgt);
        Self::flush_tabs(k, proc);
        Some(pgt)
    }

    fn lz_alloc(&mut self, k: &mut Kernel, pid: Pid) -> u64 {
        let Some(mut proc) = self.procs.remove(&pid) else { return u64::MAX };
        if !proc.scalable {
            self.procs.insert(pid, proc);
            return u64::MAX;
        }
        let ret = match self.alloc_table_in(k, &mut proc) {
            Some(pgt) => pgt as u64,
            None => u64::MAX,
        };
        k.machine.charge(k.machine.model.path_cost(300));
        self.procs.insert(pid, proc);
        ret
    }

    fn lz_free(&mut self, k: &mut Kernel, pid: Pid, pgt: u64) -> u64 {
        let skip_remote = self.ablation.skip_remote_shootdown;
        let Some(proc) = self.procs.get_mut(&pid) else { return u64::MAX };
        let idx = pgt as usize;
        if idx == 0 || idx >= proc.tables.len() || proc.tables[idx].is_none() {
            return u64::MAX;
        }
        // Clear the TTBRTab slot first (while nothing is freed yet): an
        // unknown pgt id is a denied call, never a partial teardown.
        if proc.gates.set_table(pgt, 0).is_err() {
            return u64::MAX;
        }
        let Some(t) = proc.tables[idx].take() else { return u64::MAX };
        proc.by_root.remove(&t.root_fake);
        let freed_frames = t.table_frames;
        let freed_asid = t.asid;
        t.free_tree(&mut k.machine.mem, &mut proc.fake, proc.s2_root);
        // The ASID goes back to the per-process pool; after rollover it
        // will be granted again, and `alloc_table_in` invalidates its TLB
        // scope at that reuse point.
        proc.asids.free(freed_asid);
        // Invalidate every gate that targeted the freed table: its next
        // use must fail the gate's own validation, not silently load a
        // null table root.
        for entry in proc.gates.gatetab.iter_mut() {
            if entry.1 == pgt {
                entry.1 = u64::MAX;
            }
        }
        for pgts in proc.residence.values_mut() {
            pgts.retain(|&p| p != idx);
        }
        Self::flush_tabs(k, proc);
        // The freed tree's ASID entries go; any leftover block entries
        // from this view are covered by the VMID-wide shoot-down below.
        // Other cores may have cached translations through the freed
        // tree, so this must reach every online core.
        if skip_remote {
            k.machine.tlb.invalidate_vmid(proc.vmid);
        } else {
            k.machine.shootdown_vmid(proc.vmid);
        }
        let m = &k.machine.model;
        let cost = m.dsb + m.path_cost(200 + 30 * freed_frames);
        k.machine.charge(cost);
        0
    }

    fn lz_map_gate_pgt(&mut self, k: &mut Kernel, pid: Pid, pgt: u64, gate_id: u64) -> u64 {
        let Some(proc) = self.procs.get_mut(&pid) else { return u64::MAX };
        if gate_id > u16::MAX as u64 {
            return u64::MAX;
        }
        match proc.gates.set_gate_pgt(gate_id as u16, pgt) {
            Ok(()) => {
                Self::flush_tabs(k, proc);
                k.machine.charge(k.machine.model.path_cost(80));
                0
            }
            Err(_) => u64::MAX,
        }
    }

    fn lz_prot(&mut self, k: &mut Kernel, pid: Pid, addr: u64, len: u64, pgt: u64, perm: u64) -> u64 {
        let Some(range) = user_range(addr, len) else { return u64::MAX };
        let skip_remote = self.ablation.skip_remote_shootdown;
        let Some(proc) = self.procs.get_mut(&pid) else { return u64::MAX };
        let overlay = Overlay::from_bits(perm);
        let pan_all = pgt == PGT_ALL;
        if !pan_all && (pgt as usize >= proc.tables.len() || proc.tables[pgt as usize].is_none()) {
            return u64::MAX;
        }
        let end = lz_arch::page_align_up(range.end);
        let mut page = addr;
        while page < end {
            let prot = proc.protections.entry(page).or_default();
            if pan_all {
                prot.pan_all = Some(overlay);
            } else {
                prot.attach.retain(|(p, _)| *p != pgt as usize);
                prot.attach.push((pgt as usize, overlay));
            }
            // Detach current mappings (break-before-make): the page
            // re-faults under the new policy. Huge blocks shed their
            // whole VMID from the TLB (a block covers many 4 KB TLB
            // entries).
            if let Some(mapped) = proc.residence.remove(&page) {
                for t in mapped {
                    if let Some(table) = proc.tables[t].as_mut() {
                        table.unmap_page(&mut k.machine.mem, &proc.fake, page);
                    }
                }
                if k.process(pid).mm.is_huge(page) {
                    if skip_remote {
                        k.machine.tlb.invalidate_vmid(proc.vmid);
                    } else {
                        k.machine.shootdown_vmid(proc.vmid);
                    }
                } else if skip_remote {
                    k.machine.tlb.invalidate_va(proc.vmid, page);
                } else {
                    k.machine.shootdown_va(proc.vmid, page);
                }
            }
            page += PAGE_SIZE;
        }
        let pages = (end - addr) / PAGE_SIZE;
        k.machine.charge(k.machine.model.path_cost(150 * pages) + k.machine.model.dsb);
        0
    }

    /// Rewrite the read-only TTBRTab/GateTab pages from the canonical
    /// [`GateTables`], growing the backing as needed.
    fn flush_tabs(k: &mut Kernel, proc: &mut LzProc) {
        let ttbr_bytes = proc.gates.ttbrtab_bytes();
        let gate_bytes = proc.gates.gatetab_bytes();
        // Destructure to appease the borrow checker.
        let LzProc { fake, ttbr1, s2_root, ttbrtab_frames, gatetab_frames, .. } = proc;
        for (base_va, bytes, frames) in
            [(layout::TTBRTAB_VA, &ttbr_bytes, ttbrtab_frames), (layout::GATETAB_VA, &gate_bytes, gatetab_frames)]
        {
            let pages_needed = bytes.len().div_ceil(PAGE_SIZE as usize);
            while frames.len() < pages_needed {
                let real = k.machine.mem.alloc_frame();
                let f = fake.assign(real);
                s2_map_page(&mut k.machine.mem, *s2_root, f, real, S2Perms::ro());
                let va = base_va + frames.len() as u64 * PAGE_SIZE;
                ttbr1.map_page(&mut k.machine.mem, fake, *s2_root, va, f, tab_data_perms());
                frames.push(real);
            }
            for (i, chunk) in bytes.chunks(PAGE_SIZE as usize).enumerate() {
                k.machine.mem.write_bytes(frames[i], chunk);
            }
        }
    }

    // ------------------------------------------------------------------
    // Reaping (fleet-scale lifecycle): return a dead VE's storage.
    // ------------------------------------------------------------------

    /// Free every module-owned resource of a (possibly half-built) VE:
    /// all stage-1 domain trees, the TTBR1 tree, the stub/gate/table
    /// frames, the stage-2 tree, and the VMID itself. Deliberately does
    /// **not** invalidate the dead VMID's TLB entries — the
    /// generation-tagged allocator's contract is invalidation at *reuse*
    /// (`lz_enter`'s recycled-grant path), which is exactly what the
    /// rollover penetration test probes.
    fn scrap_proc_storage(k: &mut Kernel, proc: LzProc) {
        let LzProc { vmid, s2_root, mut fake, tables, ttbr1, ttbrtab_frames, gatetab_frames, owned_frames, .. } = proc;
        for t in tables.into_iter().flatten() {
            t.free_tree(&mut k.machine.mem, &mut fake, s2_root);
        }
        ttbr1.free_tree(&mut k.machine.mem, &mut fake, s2_root);
        for real in ttbrtab_frames.into_iter().chain(gatetab_frames).chain(owned_frames) {
            if let Some(f) = fake.fake_of(real) {
                s2_unmap(&mut k.machine.mem, s2_root, f);
                fake.release(real);
            }
            k.machine.mem.try_free_frame(real);
        }
        free_table_tree(&mut k.machine.mem, s2_root, 1);
        k.vmids.free(vmid);
    }

    /// Tear down an exited VE's module state and recycle its VMID. The
    /// process's own memory (VMAs, data frames) is the kernel's to free
    /// ([`Kernel::reap`]); this reaps only what the module allocated.
    /// Counters are folded into a retired aggregate first so
    /// [`LzModule::metrics_sections`] keeps reporting them. Returns
    /// `false` for a pid that never entered (or was already reaped).
    pub fn reap(&mut self, k: &mut Kernel, pid: Pid) -> bool {
        let Some(proc) = self.procs.remove(&pid) else { return false };
        self.pending_entries.remove(&pid);
        let s = &proc.stats;
        let r = &mut self.retired;
        if s.last_violation.is_some() {
            r.last_violation = s.last_violation;
        }
        r.ve_traps += s.ve_traps;
        r.ve_syscalls += s.ve_syscalls;
        r.ve_faults += s.ve_faults;
        r.sanitized_pages += s.sanitized_pages;
        r.violations += s.violations;
        r.stage2_faults += s.stage2_faults;
        r.sanitizer_rejects += s.sanitizer_rejects;
        r.wx_to_writable += s.wx_to_writable;
        r.wx_to_exec += s.wx_to_exec;
        r.bbm_unmaps += s.bbm_unmaps;
        self.retired_asid_recycles += proc.asids.recycles();
        Self::scrap_proc_storage(k, proc);
        self.reaps += 1;
        k.machine.charge(k.machine.model.path_cost(600));
        true
    }

    /// Live (allocated, unfreed) domains across every resident VE.
    pub fn domains_live(&self) -> u64 {
        self.procs.values().map(|p| p.domain_count() as u64).sum()
    }

    /// Recycled table-ASID grants across live and reaped VEs.
    pub fn asid_recycles(&self) -> u64 {
        self.retired_asid_recycles + self.procs.values().map(|p| p.asids.recycles()).sum::<u64>()
    }

    /// VEs torn down via [`LzModule::reap`].
    pub fn reaps(&self) -> u64 {
        self.reaps
    }

    /// Live VEs as `(pid, vmid, stage-2 root)` — the recovery soak's
    /// uniqueness oracle (no two live VEs may ever share a VMID or a
    /// stage-2 tree, restarts included).
    pub fn live_ves(&self) -> impl Iterator<Item = (Pid, u16, u64)> + '_ {
        self.procs.iter().map(|(&pid, p)| (pid, p.vmid, p.s2_root))
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (supervised warm restarts).
    // ------------------------------------------------------------------

    /// Capture a [`VeSnapshot`] of `pid` at a request boundary. Returns
    /// `None` — refusing to snapshot rather than producing a lossy
    /// image — unless the VE is parked with its context saved (not
    /// current), single-threaded, not mid-signal, not exited, and free
    /// of huge-page VMAs (block mappings are not page-granular state).
    pub fn snapshot_ve(&self, k: &Kernel, pid: Pid) -> Option<VeSnapshot> {
        let proc = self.procs.get(&pid)?;
        let p = k.process(pid);
        if k.current() == Some(pid)
            || p.exit_code.is_some()
            || p.live_threads() != 1
            || p.sig_frame.is_some()
            || !p.sig_pending.is_empty()
            || p.mm.vmas().any(|v| p.mm.is_huge(v.start))
        {
            return None;
        }
        let ctx = p.ctx();
        let cur_domain =
            if ctx.ttbr0 == 0 { 0 } else { *proc.by_root.get(&lz_arch::sysreg::ttbr::baddr(ctx.ttbr0))? };
        let mut pages = Vec::new();
        for (va, pa) in p.mm.resident() {
            pages.push((va, k.machine.mem.read_bytes(pa, PAGE_SIZE as usize)?));
        }
        let mut snap = VeSnapshot {
            version: SNAPSHOT_VERSION,
            x: ctx.x,
            sp: ctx.sp,
            pc: ctx.pc,
            spsr: ctx.pstate.to_spsr(),
            cur_domain,
            scalable: proc.scalable,
            san: proc.san,
            domain_slots: proc.tables.iter().map(|t| t.is_some()).collect(),
            gate_pgts: proc
                .gates
                .gatetab
                .iter()
                .enumerate()
                .filter(|&(_, &(_, pgt))| pgt != u64::MAX)
                .map(|(gate, &(_, pgt))| (gate as u16, pgt))
                .collect(),
            protections: proc
                .protections
                .iter()
                .map(|(&page, prot)| {
                    (
                        page,
                        prot.pan_all.map_or(PAN_ABSENT, |o| o.to_bits()),
                        prot.attach.iter().map(|&(pgt, o)| (pgt, o.to_bits())).collect(),
                    )
                })
                .collect(),
            pages,
            digest: 0,
        };
        snap.seal();
        Some(snap)
    }

    /// Rebuild a freshly-entered VE's module-side layout (domains, gate
    /// designations, protection policy) from a snapshot: allocate every
    /// pgt id in order through the normal `alloc_table_in` path (so
    /// recycled table ASIDs get their reuse-time invalidation), re-free
    /// the snapshot's holes so ids line up, then replay gate→table
    /// designations and the protection map. Page *residence* is not
    /// replayed — restored pages re-fault lazily under the replayed
    /// policy, exactly like a cold VE. Returns `false` if the rebuild
    /// cannot reproduce the snapshot's layout.
    fn restore_ve_state(&mut self, k: &mut Kernel, pid: Pid, snap: &VeSnapshot) -> bool {
        for want in 1..snap.domain_slots.len() {
            let Some(mut proc) = self.procs.remove(&pid) else { return false };
            let got = self.alloc_table_in(k, &mut proc);
            self.procs.insert(pid, proc);
            if got != Some(want) {
                return false;
            }
        }
        for (idx, &live) in snap.domain_slots.iter().enumerate().skip(1) {
            if !live && self.lz_free(k, pid, idx as u64) != 0 {
                return false;
            }
        }
        let Some(proc) = self.procs.get_mut(&pid) else { return false };
        for &(gate, pgt) in &snap.gate_pgts {
            if proc.gates.set_gate_pgt(gate, pgt).is_err() {
                return false;
            }
        }
        for (page, pan, attach) in &snap.protections {
            let prot = PageProt {
                pan_all: (*pan != PAN_ABSENT).then(|| Overlay::from_bits(*pan)),
                attach: attach.iter().map(|&(pgt, bits)| (pgt, Overlay::from_bits(bits))).collect(),
            };
            proc.protections.insert(*page, prot);
        }
        Self::flush_tabs(k, proc);
        true
    }

    /// Re-enter a LightZone process after a context switch: restore the
    /// VE's system registers and the thread's saved context, including
    /// its TTBR0 (the current domain) and PAN bit — both part of the
    /// LightZone-extended context (§6, "PAN and TTBR0 are added in the
    /// signal contexts of the kernel").
    ///
    /// # Panics
    ///
    /// Panics if `pid` never entered LightZone.
    pub fn enter_ve_process(&mut self, k: &mut Kernel, pid: Pid) {
        assert!(k.process(pid).exit_code.is_none(), "cannot schedule an exited process");
        let proc = self.procs.get(&pid).expect("process is in LightZone");
        let mut hcr_val = hcr::VM | hcr::TTLB | hcr::TIDCP;
        if self.ablation.gate_flavor.tlbi_after_switch {
            hcr_val &= !hcr::TTLB;
        }
        if !proc.scalable {
            hcr_val |= hcr::TVM | hcr::TRVM;
        }
        let vttbr_val = vttbr::pack(proc.vmid, proc.s2_root);
        let ttbr1 = proc.ttbr1.root_fake;
        let default_ttbr0 = proc.tables[0].as_ref().expect("pgt0").ttbr0();
        let ctx = k.process(pid).ctx().clone();
        let m = &mut k.machine;
        m.set_el1_external(false);
        m.write_sysreg_charged(SysReg::HCR_EL2, hcr_val);
        m.write_sysreg_charged(SysReg::VTTBR_EL2, vttbr_val);
        m.write_sysreg_charged(SysReg::SCTLR_EL1, sctlr::M);
        let ttbr0 = if ctx.ttbr0 != 0 { ctx.ttbr0 } else { default_ttbr0 };
        m.write_sysreg_charged(SysReg::TTBR0_EL1, ttbr0);
        m.write_sysreg_charged(SysReg::TTBR1_EL1, ttbr1);
        m.write_sysreg_charged(SysReg::VBAR_EL1, layout::STUB_VA);
        m.cpu.x = ctx.x;
        m.cpu.sp_el1 = ctx.sp;
        k.set_current(pid);
        let mut ps = ctx.pstate;
        ps.el = ExceptionLevel::El1;
        k.machine.enter(ps, ctx.pc);
    }

    // ------------------------------------------------------------------
    // Trap handling (§5.1.3).
    // ------------------------------------------------------------------

    /// Handle a machine exit belonging to a LightZone process. Returns
    /// `None` when the trap was serviced and the process resumed.
    pub fn handle_ve_exit(&mut self, k: &mut Kernel, exit: Exit) -> Option<Event> {
        let Some(pid) = k.current() else { return Some(Event::Raw(exit)) };
        // Chaos injection: corrupt a root-level descriptor of the current
        // domain's stage-1 tree at this trap boundary (a modelled event,
        // so both fast-path legs see the identical schedule).
        if let Some(draw) = k.machine.chaos_fire(lz_machine::FaultSite::PtwBitFlip) {
            self.inject_ptw_bit_flip(k, pid, draw);
        }
        // Chaos injection: crash the VE outright at this trap boundary —
        // the recovery soak's bread-and-butter fault. Fail-closed by
        // construction: the only effect is a SECURITY_KILL of the
        // current VE, which the fleet supervisor then restarts.
        if k.machine.chaos_fire(lz_machine::FaultSite::VeCrash).is_some() {
            k.machine.chaos.contained();
            return self.violation(k, pid, "chaos: injected VE crash");
        }
        match exit {
            Exit::El2(ExceptionClass::Hvc) => {
                self.charge_forward(k);
                match self.procs.get_mut(&pid) {
                    Some(p) => p.stats.ve_traps += 1,
                    None => return self.violation(k, pid, "VE trap without LightZone state"),
                }
                let esr1 = k.machine.sysreg(SysReg::ESR_EL1);
                match esr::ExceptionClass::from_esr(esr1) {
                    Some(ExceptionClass::Svc) => self.ve_syscall(k, pid),
                    Some(ExceptionClass::DataAbortSame) | Some(ExceptionClass::InsnAbortSame) => {
                        let is_fetch = esr::ExceptionClass::from_esr(esr1) == Some(ExceptionClass::InsnAbortSame);
                        self.ve_fault(k, pid, is_fetch)
                    }
                    Some(ExceptionClass::Brk) => {
                        let imm = esr::esr_imm(esr1);
                        if imm == gate::GATE_FAIL_BRK {
                            self.violation(k, pid, "call gate validation failed")
                        } else {
                            Some(k.kill_current(imm as i64))
                        }
                    }
                    Some(ExceptionClass::Unknown) | Some(ExceptionClass::IllegalState) => {
                        self.violation(k, pid, "undefined or illegal instruction in VE")
                    }
                    _ => self.violation(k, pid, "unexpected trap class in VE"),
                }
            }
            // Direct EL2 exits: stage-2 faults and trapped sysregs.
            Exit::El2(ExceptionClass::DataAbortLower)
            | Exit::El2(ExceptionClass::InsnAbortLower)
            | Exit::El2(ExceptionClass::DataAbortSame)
            | Exit::El2(ExceptionClass::InsnAbortSame) => self.stage2_fault(k, pid),
            Exit::El2(ExceptionClass::TrappedSysreg) => {
                // TVM/TRVM/TTLB trapped a stage-1 or TLB operation — a
                // sensitive instruction got past static checks.
                self.violation(k, pid, "trapped system instruction")
            }
            Exit::El2(ExceptionClass::Smc) => self.violation(k, pid, "smc from VE"),
            // A host panic caught at the epoch-shell boundary (see
            // `lz_machine::smp`): the shell already journalled the
            // violation; here the blast radius is bounded to the VE that
            // was running by killing it with a typed fault, so one
            // panicking shell never takes down the other tenants.
            Exit::HostPanic => self.violation(k, pid, lz_machine::LzFault::HostPanic.reason()),
            Exit::Limit => Some(Event::Limit),
            other => {
                let _ = other;
                self.violation(k, pid, "unhandled VE exit")
            }
        }
    }

    /// Chaos injection ([`lz_machine::FaultSite::PtwBitFlip`]): clear the
    /// VALID bit of one root-level descriptor in the faulting thread's
    /// current stage-1 tree. Clearing VALID is the fail-closed corruption:
    /// the affected range can only *stop* translating (a translation fault
    /// the module transparently re-maps, or the fault-loop guard kills the
    /// VE) — it can never redirect a translation or widen permissions. The
    /// TLB is shot down for the VMID at the injection point so cached
    /// entries cannot disagree with the corrupted tree (the corruption is
    /// architecturally "cache coherent"), keeping the fresh-walk oracle
    /// sound.
    fn inject_ptw_bit_flip(&mut self, k: &mut Kernel, pid: Pid, draw: u64) {
        let Some(proc) = self.procs.get(&pid) else { return };
        let ttbr0 = k.machine.sysreg(SysReg::TTBR0_EL1);
        let root_fake = lz_arch::sysreg::ttbr::baddr(ttbr0);
        let Some(&pgt) = proc.by_root.get(&root_fake) else { return };
        let Some(table) = proc.tables[pgt].as_ref() else { return };
        let desc_pa = table.root_real + (draw % 512) * 8;
        if let Some(desc) = k.machine.mem.read_u64(desc_pa) {
            if desc & 1 != 0 {
                k.machine.mem.write_u64(desc_pa, desc & !1);
                k.machine.tlb.invalidate_vmid(proc.vmid);
            }
        }
        k.machine.chaos.contained();
    }

    /// Table 4 row 3: the module's forwarding path. Cheaper in system-
    /// register traffic than the host syscall path (it retains `HCR_EL2`
    /// and `VTTBR_EL2`), at the price of a longer instruction path and the
    /// extra EL1 vector hop through the stub.
    fn charge_forward(&self, k: &mut Kernel) {
        let nested = matches!(k.mode, KernelMode::Guest { .. });
        if nested {
            lowvisor::charge_lowvisor_forward(&mut k.machine, &self.ablation);
            return;
        }
        let m = &k.machine.model;
        let mut cost = m.gpregs_roundtrip(31)
            + 3 * m.sysreg_read // ESR_EL1, ELR_EL1, FAR_EL1
            + m.sysreg_write // ELR_EL2 retarget for the direct return
            + m.path_cost(180)
            + m.trap_cache_pollution;
        if !self.ablation.retain_hcr_vttbr {
            // Ablation: conventional world-switch behaviour.
            cost += 2 * (m.hcr_el2_write + m.vttbr_el2_write);
        }
        k.machine.charge(cost);
    }

    /// Resume the VE at `pc`, restoring the PSTATE captured in SPSR_EL1
    /// (which carries the process's PAN bit across the trap).
    fn resume_ve(&self, k: &mut Kernel, pc: u64) {
        let spsr1 = k.machine.sysreg(SysReg::SPSR_EL1);
        let mut ps = PState::from_spsr(spsr1).unwrap_or(PState::reset());
        debug_assert_eq!(ps.el, ExceptionLevel::El1, "VE traps come from EL1");
        ps.el = ExceptionLevel::El1;
        if matches!(k.mode, KernelMode::Guest { .. }) {
            lowvisor::charge_lowvisor_return(&mut k.machine, &self.ablation);
        }
        k.machine.enter(ps, pc);
    }

    fn ve_syscall(&mut self, k: &mut Kernel, pid: Pid) -> Option<Event> {
        match self.procs.get_mut(&pid) {
            Some(p) => p.stats.ve_syscalls += 1,
            None => return self.violation(k, pid, "VE syscall without LightZone state"),
        }
        let elr1 = k.machine.sysreg(SysReg::ELR_EL1);
        let nr = k.machine.cpu.reg(8);
        let args = [
            k.machine.cpu.reg(0),
            k.machine.cpu.reg(1),
            k.machine.cpu.reg(2),
            k.machine.cpu.reg(3),
            k.machine.cpu.reg(4),
            k.machine.cpu.reg(5),
        ];
        let ret = if nr >= CUSTOM_BASE {
            match nr {
                custom::LZ_ENTER => u64::MAX, // already inside
                custom::LZ_ALLOC => self.lz_alloc(k, pid),
                custom::LZ_FREE => self.lz_free(k, pid, args[0]),
                custom::LZ_PROT => self.lz_prot(k, pid, args[0], args[1], args[2], args[3]),
                custom::LZ_MAP_GATE_PGT => self.lz_map_gate_pgt(k, pid, args[0], args[1]),
                _ => u64::MAX,
            }
        } else {
            // Address-space changes made through the kernel must reach the
            // LZ-owned translation state too: the kernel frees frames and
            // rewrites its own tables, but knows nothing about per-domain
            // stage-1 trees, the W^X tracker, stage-2, or the fake-phys
            // map. Zap those first (break-before-make), or a stale LZ
            // mapping would keep translating to a freed or wrongly
            // permissioned frame.
            match lz_kernel::Sysno::from_nr(nr) {
                Some(lz_kernel::Sysno::Munmap) => self.ve_mm_fixup(k, pid, args[0], args[1], true),
                Some(lz_kernel::Sysno::Mprotect) => self.ve_mm_fixup(k, pid, args[0], args[1], false),
                _ => {}
            }
            match k.do_syscall(nr, args) {
                SysOutcome::Ret(v) => v,
                SysOutcome::Sigreturn => return self.ve_sigreturn(k, pid),
                SysOutcome::Exit(code) => {
                    // Thread exit: the process ends with its last thread.
                    if k.process_mut(pid).exit_current_thread() {
                        return Some(k.kill_current(code));
                    }
                    self.ve_switch_thread(k, pid);
                    return None;
                }
                SysOutcome::Park => {
                    // Futex wait: bookkeeping is done; deliver 0 in x0
                    // on eventual wakeup and run another thread (the
                    // park precondition guarantees one is runnable).
                    k.machine.cpu.set_reg(0, 0);
                    self.ve_rotate_thread(k, pid, elr1);
                    return None;
                }
            }
        };
        k.machine.cpu.set_reg(0, ret);
        if self.ve_deliver_signal(k, pid, elr1) {
            return None;
        }
        if nr == lz_kernel::Sysno::Yield.nr() && k.process(pid).live_threads() > 1 {
            self.ve_rotate_thread(k, pid, elr1);
            return None;
        }
        self.resume_ve(k, elr1);
        None
    }

    /// Save the current VE thread (including its TTBR0 domain and PAN
    /// bit) and run the next runnable thread — per-thread domains are
    /// the paper's MySQL scenario (§9.2: each connection thread's stack
    /// in its own domain).
    fn ve_rotate_thread(&mut self, k: &mut Kernel, pid: Pid, pc: u64) {
        let ttbr0 = k.machine.sysreg(SysReg::TTBR0_EL1);
        let spsr1 = k.machine.sysreg(SysReg::SPSR_EL1);
        let frame = lz_kernel::UserContext {
            x: k.machine.cpu.x,
            sp: k.machine.cpu.sp_el1,
            pc,
            pstate: PState::from_spsr(spsr1).unwrap_or(PState::reset()),
            ttbr0,
        };
        *k.process_mut(pid).ctx_mut() = frame;
        self.ve_switch_thread(k, pid);
    }

    /// Load the next runnable VE thread onto the CPU.
    fn ve_switch_thread(&mut self, k: &mut Kernel, pid: Pid) {
        let Some(proc) = self.procs.get(&pid) else {
            let _ = k.kill_current(SECURITY_KILL);
            return;
        };
        let default_ttbr0 = proc.tables[0].as_ref().expect("pgt0").ttbr0();
        // No runnable thread left (every survivor parked): a guest-made
        // deadlock. Fail closed by finishing the process instead of
        // panicking the host.
        let Some(next) = k.process(pid).next_runnable() else {
            let _ = k.kill_current(-11);
            return;
        };
        let ctx = {
            let p = k.process_mut(pid);
            p.cur_thread = next;
            p.ctx().clone()
        };
        let m = &k.machine.model;
        let cost = m.path_cost(300) + m.gpregs_roundtrip(31);
        k.machine.charge(cost);
        k.machine.cpu.x = ctx.x;
        k.machine.cpu.sp_el1 = ctx.sp;
        // A fresh thread (never scheduled) has no recorded domain: it
        // starts in the default table with PAN set.
        let fresh = ctx.ttbr0 == 0;
        let ttbr0 = if fresh { default_ttbr0 } else { ctx.ttbr0 };
        k.machine.write_sysreg_charged(SysReg::TTBR0_EL1, ttbr0);
        let ps = if fresh {
            PState { el: ExceptionLevel::El1, pan: true, irq_masked: false, nzcv: Default::default() }
        } else {
            let mut p = ctx.pstate;
            p.el = ExceptionLevel::El1;
            p
        };
        if matches!(k.mode, KernelMode::Guest { .. }) {
            lowvisor::charge_lowvisor_return(&mut k.machine, &self.ablation);
        }
        k.machine.enter(ps, ctx.pc);
    }

    /// Deliver a pending signal to a LightZone process: the frame saves
    /// the *full* LightZone context — TTBR0 (current domain) and PAN —
    /// and the handler starts in the default table with PAN set (least
    /// privilege), exactly the §6 signal-context extension.
    fn ve_deliver_signal(&mut self, k: &mut Kernel, pid: Pid, interrupted_pc: u64) -> bool {
        let Some(proc) = self.procs.get(&pid) else { return false };
        let default_ttbr0 = proc.tables[0].as_ref().expect("pgt0").ttbr0();
        let ttbr0 = k.machine.sysreg(SysReg::TTBR0_EL1);
        let spsr1 = k.machine.sysreg(SysReg::SPSR_EL1);
        let (sig, handler) = {
            let p = k.process_mut(pid);
            if p.sig_frame.is_some() {
                return false;
            }
            let Some(&sig) = p.sig_pending.front() else { return false };
            let Some(&handler) = p.sig_handlers.get(&sig) else {
                p.sig_pending.pop_front();
                return false;
            };
            p.sig_pending.pop_front();
            (sig, handler)
        };
        let frame = lz_kernel::UserContext {
            x: k.machine.cpu.x,
            sp: k.machine.cpu.sp_el1,
            pc: interrupted_pc,
            pstate: PState::from_spsr(spsr1).unwrap_or(PState::reset()),
            ttbr0,
        };
        k.process_mut(pid).sig_frame = Some(frame);
        let m = &k.machine.model;
        let cost = m.path_cost(500) + 40 * m.mem_access;
        k.machine.charge(cost);
        k.machine.cpu.set_reg(0, sig);
        // Handler runs in the default table with PAN set.
        k.machine.write_sysreg_charged(SysReg::TTBR0_EL1, default_ttbr0);
        let ps = PState { el: ExceptionLevel::El1, pan: true, irq_masked: false, nzcv: Default::default() };
        if matches!(k.mode, KernelMode::Guest { .. }) {
            lowvisor::charge_lowvisor_return(&mut k.machine, &self.ablation);
        }
        k.machine.enter(ps, handler);
        true
    }

    /// `rt_sigreturn` from a LightZone process: restore the interrupted
    /// domain (TTBR0), PAN, and registers from the frame.
    fn ve_sigreturn(&mut self, k: &mut Kernel, pid: Pid) -> Option<Event> {
        let Some(frame) = k.process_mut(pid).sig_frame.take() else {
            return self.violation(k, pid, "sigreturn without a signal frame");
        };
        let m = &k.machine.model;
        let cost = m.path_cost(400) + 40 * m.mem_access;
        k.machine.charge(cost);
        k.machine.cpu.x = frame.x;
        k.machine.cpu.sp_el1 = frame.sp;
        k.machine.write_sysreg_charged(SysReg::TTBR0_EL1, frame.ttbr0);
        let mut ps = frame.pstate;
        ps.el = ExceptionLevel::El1;
        if matches!(k.mode, KernelMode::Guest { .. }) {
            lowvisor::charge_lowvisor_return(&mut k.machine, &self.ablation);
        }
        k.machine.enter(ps, frame.pc);
        None
    }

    /// Stage-1 fault inside the VE (§5.1.2 memory virtualization +
    /// §6.1 overlays + §6.3 sanitizer).
    fn ve_fault(&mut self, k: &mut Kernel, pid: Pid, is_fetch: bool) -> Option<Event> {
        let Some(mut proc) = self.procs.remove(&pid) else {
            return self.violation(k, pid, "VE fault without LightZone state");
        };
        let result = self.ve_fault_inner(k, pid, &mut proc, is_fetch);
        self.procs.insert(pid, proc);
        result.unwrap_or_else(|reason| self.violation(k, pid, reason))
    }

    /// The body of [`Self::ve_fault`], run with the proc taken out of
    /// `self.procs`. A violation comes back as `Err(reason)`, and
    /// `ve_fault` kills through [`Self::violation`] once the proc is back,
    /// so every kill is counted where it is journaled.
    fn ve_fault_inner(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        proc: &mut LzProc,
        is_fetch: bool,
    ) -> Result<Option<Event>, &'static str> {
        proc.stats.ve_faults += 1;
        let esr1 = k.machine.sysreg(SysReg::ESR_EL1);
        let far = k.machine.sysreg(SysReg::FAR_EL1);
        let elr1 = k.machine.sysreg(SysReg::ELR_EL1);
        let Some((fault, wnr, _)) = esr::esr_abort_info(esr1) else {
            return Err("malformed abort syndrome");
        };
        let page = page_align_down(far);

        // Loop guard: the same VA repeatedly faulting means the module
        // cannot make progress — treat as a violation, not a hang.
        if proc.fault_guard.0 == far {
            proc.fault_guard.1 += 1;
            if proc.fault_guard.1 > 8 {
                return Err("fault loop");
            }
        } else {
            proc.fault_guard = (far, 1);
        }

        // Faults in the TTBR1 half are always violations: the region is
        // fully populated by the module (e.g. writes to gate pages).
        if far >= 0xffff_0000_0000_0000 {
            return Err("access fault in gate region");
        }

        // Which domain is the thread in? Recover from the live TTBR0.
        let ttbr0 = k.machine.sysreg(SysReg::TTBR0_EL1);
        let root_fake = lz_arch::sysreg::ttbr::baddr(ttbr0);
        let Some(&cur_pgt) = proc.by_root.get(&root_fake) else {
            return Err("TTBR0 points outside TTBRTab");
        };
        // Chaos injection: a transient failure in the gate's TTBRTab
        // validation. Fail closed — the thread is killed exactly as a
        // genuinely failed validation would be; a transient fault never
        // falls back to "assume valid".
        if k.machine.chaos_fire(lz_machine::FaultSite::GateTransient).is_some() {
            k.machine.chaos.contained();
            return Err("chaos: transient gate validation failure");
        }

        // Protection policy for this page.
        let prot = proc.protections.get(&page).cloned();
        let overlay: Option<Overlay> = match &prot {
            None => None,
            Some(p) => {
                if let Some(o) = p.pan_all {
                    Some(o)
                } else if let Some((_, o)) = p.attach.iter().find(|(t, _)| *t == cur_pgt) {
                    Some(*o)
                } else {
                    // Protected page not attached to the current domain.
                    return Err("domain access violation");
                }
            }
        };
        let pan_page = prot.as_ref().is_some_and(|p| p.pan_all.is_some()) || overlay.is_some_and(|o| o.user);

        // PAN-guarded page + permission fault = access with PAN set: the
        // thread never opened the domain. Kill (pen-test behaviour).
        if matches!(fault, esr::FaultStatus::Permission(_)) && pan_page {
            return Err("PAN violation");
        }

        // Linux-side residency through the kernel-managed tables.
        let vma = {
            let p = k.process(pid);
            match p.mm.vma_at(far) {
                Some(v) => (v.prot, v.start),
                None => return Ok(Some(k.kill_current(-11))),
            }
        };
        let (vma_prot, _) = vma;
        // Apply the overlay: least privilege (intersection, §6.1).
        let eff_write = vma_prot.write && overlay.is_none_or(|o| o.write);
        let eff_exec = vma_prot.exec && overlay.is_none_or(|o| o.exec);
        let eff_read = vma_prot.read && overlay.is_none_or(|o| o.read);
        if (wnr && !eff_write) || (is_fetch && !eff_exec) || (!wnr && !is_fetch && !eff_read) {
            if matches!(fault, esr::FaultStatus::Permission(_)) && vma_prot.write && vma_prot.exec {
                // fallthrough: W^X toggles below handle W+X VMAs.
            } else {
                return Err("permission violation");
            }
        }

        // Huge-page-backed regions (the §9.3 NVM buffers) map as 2 MiB
        // blocks in both stages, keeping the block TLB coverage and the
        // lower table overhead the paper reports.
        if k.process(pid).mm.is_huge(far) {
            if is_fetch {
                return Err("execute from huge data buffer");
            }
            let block_va = far & !(lz_kernel::vma::BLOCK_SIZE - 1);
            let pa_block = {
                let (mm, machine) = k.mm_and_machine(pid);
                mm.fault_in_block(&mut machine.mem, far, wnr && eff_write)
            };
            let Some(pa_block) = pa_block else {
                return Ok(Some(k.kill_current(-11)));
            };
            let fake_block = proc.fake.assign_block(pa_block);
            let s2p = S2Perms { read: true, write: eff_write, exec: false };
            s2_map_block(&mut k.machine.mem, proc.s2_root, fake_block, pa_block, s2p);
            let is_protected = prot.is_some();
            let perms = S1Perms {
                read: eff_read,
                write: eff_write,
                user_exec: false,
                priv_exec: false,
                el0: pan_page,
                global: !is_protected || pan_page,
            };
            let Some(table) = proc.tables[cur_pgt].as_mut() else {
                return Err("fault in a freed domain");
            };
            if table
                .try_map_block(&mut k.machine.mem, &mut proc.fake, proc.s2_root, block_va, fake_block, perms)
                .is_err()
            {
                return Err("unmappable block in VE fault");
            }
            proc.residence.entry(block_va).or_default().retain(|&t| t != cur_pgt);
            proc.residence.entry(block_va).or_default().push(cur_pgt);
            let m = &k.machine.model;
            let cost = m.path_cost(420) + 12 * m.mem_access + m.trap_cache_pollution;
            k.machine.charge(cost);
            self.resume_ve(k, elr1);
            return Ok(None);
        }

        let pa = {
            let (mm, machine) = k.mm_and_machine(pid);
            match mm.page_at(page) {
                Some(pa) => pa,
                None => match mm.fault_in(&mut machine.mem, far, wnr && eff_write, is_fetch && eff_exec) {
                    Some(pa) => pa,
                    None => return Ok(Some(k.kill_current(-11))),
                },
            }
        };

        // W^X and sanitizer (§6.3).
        let decision = proc.wx.on_fault(page, eff_write, eff_exec, is_fetch);
        let (map_write, map_exec) = match decision {
            WxDecision::Map { write, exec } => {
                // Exec -> writable flip: break-before-make in every domain
                // that maps it. Any data access that grants write on a
                // currently-Executable page must BBM — including *read*
                // faults on W+X VMAs, which also come back as
                // `Map { write: true, .. }`. (Gating this on `wnr` left a
                // stale executable alias alive after a read-fault flip;
                // see `wx_read_fault_flip_contained` in the pen tests.)
                if !is_fetch && write && proc.wx.state(page) == Some(sanitizer::WxState::Executable) {
                    self.bbm_unmap_all(k, proc, page);
                }
                if write {
                    if proc.wx.state(page) != Some(sanitizer::WxState::Writable) {
                        proc.stats.wx_to_writable += 1;
                    }
                    proc.wx.commit_write(page);
                }
                (write, exec)
            }
            WxDecision::ScanThenExec => {
                // Break-before-make *first*, then scan, then map X.
                self.bbm_unmap_all(k, proc, page);
                // Chaos injection: the scan is interrupted partway. Fail
                // closed — the page stays unmapped (BBM already ran) and
                // the scan restarts from scratch; it never resumes from a
                // partial result, so no word escapes classification. Only
                // the wasted half-scan's cycles are charged.
                if k.machine.chaos_fire(lz_machine::FaultSite::SanitizerInterrupt).is_some() {
                    let wasted = sanitizer::scan_cost(&k.machine.model) / 2;
                    k.machine.charge(wasted);
                    k.machine.chaos.contained();
                }
                match sanitizer::sanitize_page(&k.machine.mem, pa, proc.san, &k.machine.model) {
                    Ok(cost) => {
                        k.machine.charge(cost);
                        proc.stats.sanitized_pages += 1;
                        proc.stats.wx_to_exec += 1;
                        proc.wx.commit_exec(page);
                        (false, true)
                    }
                    Err(_) => {
                        proc.stats.sanitizer_rejects += 1;
                        k.machine.record_event(EventKind::SanitizerReject { page });
                        return Err("sensitive instruction in executable page");
                    }
                }
            }
        };

        // Build the stage-1 leaf permissions. Normal memory is a global
        // kernel page; PAN-protected memory is a global user page;
        // per-domain memory is a non-global kernel page.
        let is_protected = prot.is_some();
        let perms = S1Perms {
            read: eff_read,
            write: map_write && eff_write,
            user_exec: false,
            priv_exec: map_exec && eff_exec,
            el0: pan_page,
            global: !is_protected || (is_protected && pan_page),
        };

        // Stage-2 mapping for the data page (eager by default, §5.2).
        let leaf_fake = proc.fake.assign(pa);
        let s2p = S2Perms { read: true, write: eff_write, exec: eff_exec };
        if self.ablation.eager_stage2 {
            s2_map_page(&mut k.machine.mem, proc.s2_root, leaf_fake, pa, s2p);
        } else {
            proc.s2_pending.insert(leaf_fake, (pa, s2p));
        }

        let Some(table) = proc.tables[cur_pgt].as_mut() else {
            return Err("fault in a freed domain");
        };
        if table.try_map_page(&mut k.machine.mem, &mut proc.fake, proc.s2_root, page, leaf_fake, perms).is_err() {
            return Err("unmappable page in VE fault");
        }
        proc.residence.entry(page).or_default().retain(|&t| t != cur_pgt);
        proc.residence.entry(page).or_default().push(cur_pgt);

        // Fault-path software cost.
        let m = &k.machine.model;
        let cost = m.path_cost(380) + 10 * m.mem_access + m.trap_cache_pollution;
        k.machine.charge(cost);

        self.resume_ve(k, elr1);
        Ok(None)
    }

    /// Drop LZ-owned state for `[addr, addr+len)` ahead of a kernel-side
    /// `munmap` (`unmap = true`, which frees the backing frames) or
    /// `mprotect` (`unmap = false`, which changes VMA rights): zap the
    /// page from every domain's stage-1 tree, reset its W^X state, and —
    /// on unmap — retire its fake-phys and stage-2 mappings while the
    /// frame is still resident to look up.
    fn ve_mm_fixup(&mut self, k: &mut Kernel, pid: Pid, addr: u64, len: u64, unmap: bool) {
        // The kernel refuses the same ranges, changing nothing.
        let Some(range) = user_range(addr, len) else { return };
        let Some(mut proc) = self.procs.remove(&pid) else { return };
        let (start, end) = (range.start, lz_arch::page_align_up(range.end));
        let mut huge_touched = false;
        let mut page = start;
        while page < end {
            if k.process(pid).mm.is_huge(page) {
                // Huge regions map as 2 MiB blocks; the leaf zap covers
                // the whole block.
                huge_touched = true;
                let block_va = page & !(lz_kernel::vma::BLOCK_SIZE - 1);
                self.bbm_unmap_all(k, &mut proc, block_va);
                if unmap {
                    proc.protections.remove(&block_va);
                }
                page = block_va + lz_kernel::vma::BLOCK_SIZE;
                continue;
            }
            let pa = k.process(pid).mm.page_at(page);
            self.bbm_unmap_all(k, &mut proc, page);
            proc.wx.forget(page);
            if unmap {
                proc.protections.remove(&page);
                if let Some(pa) = pa {
                    if let Some(fake) = proc.fake.fake_of(pa) {
                        s2_unmap(&mut k.machine.mem, proc.s2_root, fake);
                        proc.s2_pending.remove(&fake);
                        proc.fake.release(pa);
                    }
                }
            }
            page += PAGE_SIZE;
        }
        if huge_touched {
            // Block translations were cached per accessed page, so a
            // page-scoped TLBI on the block base is not enough.
            if self.ablation.skip_remote_shootdown {
                k.machine.tlb.invalidate_vmid(proc.vmid);
            } else {
                k.machine.shootdown_vmid(proc.vmid);
            }
        }
        self.procs.insert(pid, proc);
    }

    /// Zap a page's PTE in every domain that maps it and invalidate the
    /// TLB on every online core (break-before-make). Skipping the
    /// remote half (the `skip_remote_shootdown` ablation) leaves stale
    /// executable aliases on other cores — the exact bug the cross-core
    /// W^X penetration test exploits.
    fn bbm_unmap_all(&self, k: &mut Kernel, proc: &mut LzProc, page: u64) {
        if let Some(mapped) = proc.residence.remove(&page) {
            for t in mapped {
                if let Some(table) = proc.tables[t].as_mut() {
                    table.unmap_page(&mut k.machine.mem, &proc.fake, page);
                }
            }
            if self.ablation.skip_remote_shootdown {
                k.machine.tlb.invalidate_va(proc.vmid, page);
            } else {
                k.machine.shootdown_va(proc.vmid, page);
            }
            k.machine.charge(k.machine.model.dsb + k.machine.model.path_cost(40));
            proc.stats.bbm_unmaps += 1;
            k.machine.record_event(EventKind::BbmUnmap { page });
        }
    }

    /// Stage-2 fault (only with `eager_stage2` off, or a real escape
    /// attempt).
    fn stage2_fault(&mut self, k: &mut Kernel, pid: Pid) -> Option<Event> {
        // Chaos injection: the stage-2 walk aborts mid-handling. Fail
        // closed — an abort that cannot be attributed to a pending lazy
        // mapping is indistinguishable from an escape attempt, so the VE
        // is killed rather than retried with partial walk state.
        if k.machine.chaos_fire(lz_machine::FaultSite::S2WalkAbort).is_some() {
            k.machine.chaos.contained();
            return self.violation(k, pid, "chaos: stage-2 walk abort");
        }
        let Some(proc) = self.procs.get_mut(&pid) else {
            return self.violation(k, pid, "stage-2 fault without LightZone state");
        };
        proc.stats.stage2_faults += 1;
        let hpfar = k.machine.sysreg(SysReg::HPFAR_EL2);
        let fake_page = (hpfar >> 4) << 12;
        k.machine.record_event(EventKind::Stage2Fault { fake_page });
        let elr2 = k.machine.sysreg(SysReg::ELR_EL2);
        if let Some((pa, perms)) = proc.s2_pending.remove(&fake_page) {
            s2_map_page(&mut k.machine.mem, proc.s2_root, fake_page, pa, perms);
            let m = &k.machine.model;
            let cost = m.gpregs_roundtrip(31) + m.path_cost(300) + m.trap_cache_pollution;
            k.machine.charge(cost);
            // Return to the faulting instruction with the trapped PSTATE.
            let spsr2 = k.machine.sysreg(SysReg::SPSR_EL2);
            let ps = PState::from_spsr(spsr2).unwrap_or(PState::reset());
            k.machine.enter(ps, elr2);
            None
        } else {
            // A stage-2 fault with nothing pending is an escape attempt
            // (e.g. forged stage-1 PTE pointing at an unmapped IPA).
            self.violation(k, pid, "stage-2 fault outside VE memory")
        }
    }

    fn violation(&mut self, k: &mut Kernel, pid: Pid, reason: &'static str) -> Option<Event> {
        // Every kill path funnels through here exactly once, with the proc
        // in the map (`ve_fault` re-inserts it first), so the journal
        // event and the proc's counters move together.
        k.machine.record_event(EventKind::Violation { reason });
        k.machine.chaos.ve_kills += 1;
        if let Some(p) = self.procs.get_mut(&pid) {
            p.stats.violations += 1;
            p.stats.last_violation = Some(reason);
        }
        Some(k.kill_current(SECURITY_KILL))
    }

    /// Snapshot the module-owned counters as report sections, aggregated
    /// across every LightZone process (exited processes keep their module
    /// state until reaped, and reaping folds their counters into the
    /// retired aggregate, so post-mortem stats survive both the kill and
    /// the reap).
    pub fn metrics_sections(&self) -> Vec<Section> {
        let mut agg = self.retired.clone();
        let (mut fake_live, mut fake_high, mut domains, mut s2_pending) = (0u64, 0u64, 0u64, 0u64);
        for p in self.procs.values() {
            agg.ve_traps += p.stats.ve_traps;
            agg.ve_syscalls += p.stats.ve_syscalls;
            agg.ve_faults += p.stats.ve_faults;
            agg.sanitized_pages += p.stats.sanitized_pages;
            agg.violations += p.stats.violations;
            agg.stage2_faults += p.stats.stage2_faults;
            agg.sanitizer_rejects += p.stats.sanitizer_rejects;
            agg.wx_to_writable += p.stats.wx_to_writable;
            agg.wx_to_exec += p.stats.wx_to_exec;
            agg.bbm_unmaps += p.stats.bbm_unmaps;
            fake_live += p.fake.len() as u64;
            fake_high += p.fake.high_water() as u64;
            domains += p.domain_count() as u64;
            s2_pending += p.s2_pending.len() as u64;
        }
        vec![
            Section::new("lz")
                .with("processes", self.procs.len() as u64)
                .with("domains", domains)
                .with("ve_traps", agg.ve_traps)
                .with("ve_syscalls", agg.ve_syscalls)
                .with("ve_faults", agg.ve_faults)
                .with("violations", agg.violations),
            Section::new("wx")
                .with("sanitized_pages", agg.sanitized_pages)
                .with("sanitizer_rejects", agg.sanitizer_rejects)
                .with("to_writable", agg.wx_to_writable)
                .with("to_exec", agg.wx_to_exec)
                .with("bbm_unmaps", agg.bbm_unmaps),
            Section::new("stage2").with("faults", agg.stage2_faults).with("pending", s2_pending),
            Section::new("fakephys").with("live", fake_live).with("high_water", fake_high),
        ]
    }

    // ------------------------------------------------------------------
    // EL0-side custom syscalls (before entering the VE).
    // ------------------------------------------------------------------

    /// Handle a custom syscall from a process still at EL0. Only
    /// `lz_enter` is meaningful there.
    pub fn handle_custom(&mut self, k: &mut Kernel, nr: u64, args: [u64; 6]) -> Option<Event> {
        match nr {
            custom::LZ_ENTER => {
                let scalable = args[0] != 0;
                let san = match args[1] {
                    0 => SanitizeMode::Ttbr,
                    1 => SanitizeMode::Pan,
                    _ => SanitizeMode::Both,
                };
                let ret = self.lz_enter(k, scalable, san);
                if ret != 0 {
                    k.resume_syscall(ret);
                }
                // On success lz_enter already resumed into the VE.
                None
            }
            custom::LZ_ALLOC | custom::LZ_FREE | custom::LZ_PROT | custom::LZ_MAP_GATE_PGT => {
                k.resume_syscall(u64::MAX); // must be inside the VE
                None
            }
            _ => Some(Event::Custom { nr, args }),
        }
    }
}

fn gate_code_perms() -> S1Perms {
    S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: true }
}

fn tab_data_perms() -> S1Perms {
    S1Perms { read: true, write: false, user_exec: false, priv_exec: false, el0: false, global: true }
}

/// The top-level facade: a kernel plus the LightZone module, driving the
/// machine to completion.
#[derive(Debug)]
pub struct LightZone {
    pub kernel: Kernel,
    pub module: LzModule,
}

impl LightZone {
    /// Host-kernel deployment (Figure 1 left).
    pub fn new_host(platform: Platform) -> Self {
        LightZone { kernel: Kernel::new_host(platform), module: LzModule::new() }
    }

    /// Guest-kernel deployment with Lowvisor (Figure 1 right).
    pub fn new_guest(platform: Platform) -> Self {
        LightZone { kernel: Kernel::new_guest(platform), module: LzModule::new() }
    }

    /// Same, with ablation knobs.
    pub fn with_ablation(platform: Platform, guest: bool, ablation: AblationConfig) -> Self {
        let kernel = if guest { Kernel::new_guest(platform) } else { Kernel::new_host(platform) };
        let mut module = LzModule::new();
        module.ablation = ablation;
        LightZone { kernel, module }
    }

    /// Spawn a LightZone program (registers its gate entries).
    pub fn spawn(&mut self, prog: &LzProgram) -> Pid {
        let pid = self.kernel.spawn(&prog.program);
        self.module.register_entries(pid, prog.gate_entries.clone());
        pid
    }

    /// Enter (schedule) a process.
    pub fn enter_process(&mut self, pid: Pid) {
        self.kernel.enter_process(pid);
    }

    /// Costed context switch that understands LightZone processes: a VE
    /// target gets its virtual environment restored (the paper's
    /// scheduling support for kernel-mode processes, §5.1.3).
    pub fn schedule_to(&mut self, pid: Pid) {
        self.kernel.save_current();
        if self.kernel.process(pid).in_lightzone {
            let m = &self.kernel.machine.model;
            let cost = m.path_cost(400) + m.gpregs_roundtrip(31);
            self.kernel.machine.charge(cost);
            self.module.enter_ve_process(&mut self.kernel, pid);
        } else {
            // Leaving a VE for a normal process restores host HCR.
            let is_host = matches!(self.kernel.mode, lz_kernel::KernelMode::Host);
            if is_host {
                let hcr_val = lz_arch::sysreg::hcr::TGE | lz_arch::sysreg::hcr::E2H;
                self.kernel.machine.write_sysreg_charged(lz_arch::sysreg::SysReg::HCR_EL2, hcr_val);
            }
            self.kernel.schedule_to(pid);
        }
    }

    /// Run until an event the caller must see: machine entries of at
    /// most `insn_limit` instructions, each exit dispatched through
    /// [`Self::dispatch_exit`].
    pub fn run(&mut self, insn_limit: u64) -> Event {
        loop {
            let exit = self.kernel.machine.run(insn_limit);
            if let Some(event) = self.dispatch_exit(exit) {
                return event;
            }
        }
    }

    /// Dispatch one machine exit for the current process, as [`Self::run`]
    /// does between machine entries, without re-entering the machine.
    /// `None` means handled — the process keeps running.
    ///
    /// Epoch-style drivers (the fleet wave drain) run many VEs
    /// concurrently via [`lz_machine::Machine::run_epoch`] and commit
    /// each core's pending exit barrier-side through this method, after
    /// switching the machine to that core and pointing
    /// [`Kernel::set_current`] at its process.
    pub fn dispatch_exit(&mut self, exit: lz_machine::Exit) -> Option<Event> {
        match self.kernel.handle_exit(exit)? {
            Event::Custom { nr, args } => self.module.handle_custom(&mut self.kernel, nr, args),
            Event::Raw(exit) => {
                let in_lz = self.kernel.current().is_some_and(|pid| self.kernel.process(pid).in_lightzone);
                if in_lz {
                    self.module.handle_ve_exit(&mut self.kernel, exit)
                } else {
                    Some(Event::Raw(exit))
                }
            }
            other => Some(other),
        }
    }

    /// Run to process exit; panics on anything else (test convenience).
    ///
    /// # Panics
    ///
    /// Panics if the program hits the instruction limit or an unhandled
    /// machine exit instead of exiting.
    pub fn run_to_exit(&mut self) -> i64 {
        match self.run(50_000_000) {
            Event::Exited(code) => code,
            other => panic!("expected exit, got {other:?}"),
        }
    }

    /// Convenience accessor.
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.kernel.machine
    }

    /// Reap an *exited* process end to end: kernel side first (frames,
    /// stage-1 tree, process ASID), then the module side (domain trees,
    /// stage-2 tree, VMID). Returns `false` — and frees nothing — for a
    /// pid that is missing or still running.
    pub fn reap(&mut self, pid: Pid) -> bool {
        if !self.kernel.reap(pid) {
            return false;
        }
        self.module.reap(&mut self.kernel, pid);
        true
    }

    /// Capture a warm-restart image of a parked VE (see
    /// [`LzModule::snapshot_ve`] for the preconditions).
    pub fn snapshot_ve(&self, pid: Pid) -> Option<VeSnapshot> {
        self.module.snapshot_ve(&self.kernel, pid)
    }

    /// Warm-restart a VE from a [`VeSnapshot`]: spawn a *fresh* process
    /// from `prog` (which must be the program the snapshotted VE was
    /// spawned from), push it through the normal `lz_enter`/`lz_alloc`
    /// paths — new pid, new generation-tagged VMID, fresh table ASIDs,
    /// with the invalidate-at-reuse shoot-down on every recycled grant —
    /// then replay the snapshot's guest-visible state: domain layout,
    /// gate designations, protection policy, data pages, and finally the
    /// saved registers and current domain. The restored VE is parked;
    /// run it with [`Self::schedule_to`].
    ///
    /// Returns `None` fail-closed — with nothing half-built left behind —
    /// if the snapshot's version or digest does not verify, `lz_enter`
    /// is denied (e.g. VMID exhaustion), or the rebuild cannot reproduce
    /// the snapshot's layout.
    pub fn restore_ve(&mut self, prog: &LzProgram, snap: &VeSnapshot) -> Option<Pid> {
        if !snap.verify() {
            self.module.snapshot_rejects += 1;
            return None;
        }
        let pid = self.spawn(prog);
        self.kernel.set_current(pid);
        if self.module.lz_enter(&mut self.kernel, snap.scalable, snap.san) != 0 {
            self.module.snapshot_rejects += 1;
            self.kernel.kill_current(SECURITY_KILL);
            self.reap(pid);
            return None;
        }
        // `lz_enter` entered the machine into the fresh VE; park it so
        // the thread context (including the VE TTBR0) is canonical.
        self.kernel.save_current();
        let mut ok = self.module.restore_ve_state(&mut self.kernel, pid, snap);
        if ok {
            let (mm, machine) = self.kernel.mm_and_machine(pid);
            for (va, bytes) in &snap.pages {
                let pa = mm
                    .page_at(*va)
                    .or_else(|| mm.fault_in(&mut machine.mem, *va, false, false))
                    .or_else(|| mm.fault_in(&mut machine.mem, *va, true, false));
                match pa {
                    Some(pa) => {
                        machine.mem.write_bytes(pa, bytes);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        let ttbr0 = self
            .module
            .procs
            .get(&pid)
            .and_then(|p| p.tables.get(snap.cur_domain))
            .and_then(|t| t.as_ref())
            .map(|t| t.ttbr0());
        match (ok, ttbr0) {
            (true, Some(ttbr0)) => {
                let ps = PState::from_spsr(snap.spsr).unwrap_or(PState::reset());
                let ctx = self.kernel.process_mut(pid).ctx_mut();
                ctx.x = snap.x;
                ctx.sp = snap.sp;
                ctx.pc = snap.pc;
                ctx.pstate = ps;
                ctx.ttbr0 = ttbr0;
                self.kernel.clear_current();
                self.module.restores += 1;
                Some(pid)
            }
            _ => {
                self.module.snapshot_rejects += 1;
                self.kernel.kill_current(SECURITY_KILL);
                self.reap(pid);
                None
            }
        }
    }

    /// Fleet-scale churn counters: live domains, ID-recycling traffic,
    /// and the rollover shoot-downs that keep recycling sound. Aggregated
    /// across the kernel's allocators (VMIDs, process ASIDs) and the
    /// module's per-VE table-ASID allocators.
    pub fn fleet_section(&self) -> Section {
        Section::new("fleet")
            .with("domains_live", self.module.domains_live())
            .with("vmid_live", self.kernel.vmids.live())
            .with("vmid_recycles", self.kernel.vmids.recycles())
            .with("vmid_rollovers", self.kernel.vmids.rollovers())
            .with("asid_recycles", self.kernel.asids.recycles() + self.module.asid_recycles())
            .with("rollover_shootdowns", self.kernel.stats.rollover_shootdowns + self.module.rollover_shootdowns)
            .with("ve_reaps", self.module.reaps())
            .with("ve_restores", self.module.restores)
            .with("snapshot_rejects", self.module.snapshot_rejects)
    }

    /// The full observability registry: machine sections (TLB, icache,
    /// walk, gate, traps, cpu) plus module sections (lz, wx, stage2,
    /// fakephys) plus the kernel and fleet sections. `repro stats`
    /// serialises this.
    pub fn metrics_report(&self) -> Report {
        let mut report = Report::default();
        for s in self.kernel.machine.metrics_sections() {
            report.push(s);
        }
        for s in self.module.metrics_sections() {
            report.push(s);
        }
        report.push(self.kernel.metrics_section());
        report.push(self.fleet_section());
        report
    }
}
