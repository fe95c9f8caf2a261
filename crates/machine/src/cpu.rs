//! The CPU interpreter and the [`Machine`] façade.
//!
//! The interpreter executes EL0/EL1 code — everything an in-process
//! attacker can influence. EL2 software (host kernel, hypervisor,
//! LightZone Lowvisor) is *modelled*: when an exception routes to EL2 the
//! interpreter stops with an [`Exit`] and the Rust-level kernel code takes
//! over, mutating machine state directly and charging cycles for each
//! architectural operation.
//!
//! Exceptions that route to EL1 are either vectored (interpreted EL1
//! software, e.g. the LightZone API-library stub that forwards traps via
//! `hvc`) or also exit ([`Machine::set_el1_external`]) when the current
//! EL1 software is a modelled guest kernel.

use crate::mem::PhysMem;
use crate::metrics::{EventKind, Journal, MachineMetrics, Section};
use crate::tlb::Tlb;
use crate::trace::Trace;
use crate::walk::{self, Access, AccessCtx, Fault, FaultKind, Stage, WalkConfig};
use lz_arch::esr::{self, ExceptionClass};
use lz_arch::insn::{Barrier, Insn, LogicOp, MemSize};
use lz_arch::pstate::{ExceptionLevel, Nzcv, PState};
use lz_arch::sysreg::{hcr, sctlr, SysReg};
use lz_arch::{CycleModel, Platform};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// An `AtomicBool` initialised from the environment variable `var`: on
/// unless it is set to `0`, `off` or `false`. Backs the process-wide
/// defaults that let harnesses (`repro`, CI) flip a switch for whole
/// runs without threading a flag through every constructor.
pub(crate) fn env_switch(var: &str) -> AtomicBool {
    AtomicBool::new(!matches!(std::env::var(var).as_deref(), Ok("0" | "off" | "false")))
}

/// Process-wide default for [`Machine::set_accel`], initialised from the
/// `LZ_ACCEL` environment variable. Selects between the two execution
/// engines: compiled blocks over the fetch cache plus the micro-DTLB
/// (on), or the per-step reference interpreter with both off
/// (`LZ_ACCEL=0`).
fn accel_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| env_switch("LZ_ACCEL"))
}

/// The default engine for new [`Machine`]s: `true` for compiled blocks,
/// `false` for the reference interpreter.
pub fn default_accel() -> bool {
    accel_flag().load(Ordering::Relaxed)
}

/// Override the default engine for new [`Machine`]s (tests and
/// benchmarks; existing machines are unaffected).
pub fn set_default_accel(on: bool) {
    accel_flag().store(on, Ordering::Relaxed);
}

// The benchmark harness in `benchmark/` still pins the engine through
// the three switches `LZ_ACCEL` replaced, always with one value for all
// three. These forwards keep it building until its next change.
#[doc(hidden)]
pub fn set_default_fetch_cache(on: bool) {
    set_default_accel(on);
}
#[doc(hidden)]
pub fn set_default_fastpath(on: bool) {
    set_default_accel(on);
}
#[doc(hidden)]
pub fn set_default_jit(on: bool) {
    set_default_accel(on);
}

/// Process-wide default for [`Machine::set_parallel`], initialised from
/// the `LZ_PARALLEL` environment variable (`0`/`off` disables). Governs
/// the epoch execution backend: `true` runs concurrent cores of an
/// epoch on real host threads, `false` replays the identical epoch
/// schedule sequentially in core order (the deterministic-replay
/// verification mode). Both backends commit at the same barriers in the
/// same order, so every modelled quantity — cycles, journals, counters
/// — is byte-identical either way (CI runs both and compares).
fn parallel_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| env_switch("LZ_PARALLEL"))
}

/// The default epoch-parallelism setting for new [`Machine`]s.
pub fn default_parallel() -> bool {
    parallel_flag().load(Ordering::Relaxed)
}

/// Override the default epoch-parallelism setting for new [`Machine`]s
/// (tests and benchmarks; existing machines are unaffected).
pub fn set_default_parallel(on: bool) {
    parallel_flag().store(on, Ordering::Relaxed);
}

/// Why the interpreter stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// An exception routed to EL2. `ESR_EL2`, `FAR_EL2`, `HPFAR_EL2`,
    /// `ELR_EL2`, and `SPSR_EL2` hold the details.
    El2(ExceptionClass),
    /// An exception routed to EL1 while EL1 software is externally
    /// modelled. `ESR_EL1`, `FAR_EL1`, `ELR_EL1`, `SPSR_EL1` hold the
    /// details.
    El1(ExceptionClass),
    /// The instruction budget given to [`Machine::run`] was exhausted.
    Limit,
    /// A host panic inside this core's epoch shell was caught at the
    /// shell boundary ([`Machine::run_epoch`]). The shell's state up to
    /// the panic point committed normally; the layer owning the running
    /// VE converts this into a typed [`crate::chaos::LzFault::HostPanic`]
    /// kill.
    HostPanic,
}

/// A hardware watchpoint (DBGWVR/DBGWCR pair, simplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchpoint {
    pub addr: u64,
    pub len: u64,
    pub on_read: bool,
    pub on_write: bool,
}

/// Architectural CPU state.
#[derive(Debug)]
pub struct Cpu {
    /// General-purpose registers x0–x30.
    pub x: [u64; 31],
    /// Stack pointers.
    pub sp_el0: u64,
    pub sp_el1: u64,
    /// Program counter.
    pub pc: u64,
    /// Process state.
    pub pstate: PState,
    /// System registers, indexed by `SysReg as usize` (see
    /// [`Machine::sysreg`]).
    sysregs: [u64; SysReg::ALL.len()],
    /// Cycle counter.
    pub cycles: u64,
    /// Retired-instruction counter.
    pub insns: u64,
    /// Watchpoint register pairs (the Watchpoint baseline uses all 4).
    pub watchpoints: [Option<Watchpoint>; 4],
    /// Master enable for watchpoint matching on EL0 data accesses.
    pub watchpoints_enabled: bool,
}

impl Cpu {
    pub(crate) fn new() -> Self {
        Cpu {
            x: [0; 31],
            sp_el0: 0,
            sp_el1: 0,
            pc: 0,
            pstate: PState::reset(),
            sysregs: [0; SysReg::ALL.len()],
            cycles: 0,
            insns: 0,
            watchpoints: [None; 4],
            watchpoints_enabled: false,
        }
    }

    /// A fresh secondary-core CPU booted with this core's system
    /// registers (the modelled firmware programs every core alike).
    pub(crate) fn fork_boot_state(&self) -> Cpu {
        Cpu { sysregs: self.sysregs, ..Cpu::new() }
    }

    /// Read register `i` as an operand (31 = xzr = 0).
    pub fn reg(&self, i: u8) -> u64 {
        if i == 31 {
            0
        } else {
            self.x[i as usize]
        }
    }

    /// Write register `i` (writes to 31 are discarded).
    pub fn set_reg(&mut self, i: u8, v: u64) {
        if i != 31 {
            self.x[i as usize] = v;
        }
    }

    /// Shared add/sub datapath with optional NZCV update — single source
    /// of truth for the interpreter (`AddImm`/`AddReg`) and the JIT's
    /// arithmetic templates, so their flag math cannot drift apart.
    pub(crate) fn arith(&mut self, rd: u8, a: u64, b: u64, sub: bool, set_flags: bool) {
        let (r, c, v) = if sub {
            let r = a.wrapping_sub(b);
            (r, a >= b, ((a ^ b) & (a ^ r)) >> 63 == 1)
        } else {
            let r = a.wrapping_add(b);
            (r, r < a, ((!(a ^ b)) & (a ^ r)) >> 63 == 1)
        };
        if set_flags {
            self.pstate.nzcv = Nzcv { n: r >> 63 == 1, z: r == 0, c, v };
        }
        self.set_reg(rd, r);
    }

    /// Base-register read for loads/stores (31 = SP).
    fn base_reg(&self, i: u8) -> u64 {
        if i == 31 {
            match self.pstate.el {
                ExceptionLevel::El0 => self.sp_el0,
                _ => self.sp_el1,
            }
        } else {
            self.x[i as usize]
        }
    }
}

/// The complete simulated machine: one CPU, physical memory, a TLB, and
/// the platform cycle model.
#[derive(Debug)]
pub struct Machine {
    pub mem: PhysMem,
    pub tlb: Tlb,
    pub cpu: Cpu,
    pub model: CycleModel,
    /// Retired-instruction trace (off by default).
    pub trace: Trace,
    /// Typed event journal (recording follows the `LZ_METRICS` default).
    pub journal: Journal,
    /// Machine-level observability counters (always on, host-side only).
    pub metrics: MachineMetrics,
    /// When set, exceptions targeting EL1 exit the interpreter instead of
    /// vectoring through `VBAR_EL1` (the EL1 software is a modelled guest
    /// kernel rather than interpreted code).
    pub(crate) el1_external: bool,
    /// Epoch execution backend: host threads (`true`) or sequential
    /// deterministic replay (`false`). Host-side only; see
    /// [`Machine::run_epoch`].
    pub(crate) parallel: bool,
    /// Set while this machine is a per-core epoch shell: carries the
    /// core identity and the cross-core effects deferred to the barrier.
    pub(crate) epoch: Option<crate::smp::EpochCtx>,
    /// SMP state: parked cores and cross-core traffic counters. A
    /// default machine is single-core; see [`crate::smp`].
    pub(crate) smp: crate::smp::SmpState,
    /// Deterministic fault-injection engine (inert unless a
    /// [`crate::chaos::FaultPlan`] is installed; see [`crate::chaos`]).
    pub chaos: crate::chaos::ChaosState,
    /// Host-panic test hook: when set, [`Machine::run`] panics once the
    /// retired-instruction counter reaches this value. Exercises the
    /// epoch-shell `catch_unwind` containment (see [`crate::smp`]);
    /// `None` (the default) costs one branch per run-loop iteration.
    pub(crate) panic_after: Option<u64>,
}

impl Machine {
    /// Create a machine for the given platform.
    pub fn new(platform: Platform) -> Self {
        let model = platform.model();
        let mut tlb = Tlb::with_l1(model.tlb_l1_entries, model.tlb_entries);
        tlb.set_accel(default_accel());
        Machine {
            mem: PhysMem::new(),
            tlb,
            cpu: Cpu::new(),
            model,
            trace: Trace::new(256),
            journal: Journal::default(),
            metrics: MachineMetrics::default(),
            el1_external: false,
            parallel: default_parallel(),
            epoch: None,
            smp: crate::smp::SmpState::default(),
            chaos: crate::chaos::ChaosState::default(),
            panic_after: None,
        }
    }

    /// Arm (or disarm) the host-panic test hook: the next [`Machine::run`]
    /// panics once `cpu.insns` reaches `threshold`. Deterministic — the
    /// check sits at run-loop iteration boundaries, so the parallel and
    /// replay epoch backends panic at the identical retired-instruction
    /// count. Test-only by construction; production code never arms it.
    pub fn set_panic_after(&mut self, threshold: Option<u64>) {
        self.panic_after = threshold;
    }

    /// Choose the execution engine on every core: `true` runs compiled
    /// blocks over the fetch cache plus the micro-DTLB; `false` runs the
    /// per-step reference interpreter with both off. Every TLB miss walks
    /// on either. Host-side only: the differential suite proves cycles,
    /// exits and journals identical on both engines.
    pub fn set_accel(&mut self, on: bool) {
        self.tlb.set_accel(on);
        for core in self.smp.cores.iter_mut().flatten() {
            core.tlb.set_accel(on);
        }
    }

    /// Whether the active core runs the accelerated engine.
    pub fn accel(&self) -> bool {
        self.tlb.accel()
    }

    // Forwards to the one engine switch for the benchmark harness in
    // `benchmark/` (see `set_default_fetch_cache`).
    #[doc(hidden)]
    pub fn set_fetch_cache(&mut self, on: bool) {
        self.set_accel(on);
    }
    #[doc(hidden)]
    pub fn set_fastpath(&mut self, on: bool) {
        self.set_accel(on);
    }
    #[doc(hidden)]
    pub fn set_jit(&mut self, on: bool) {
        self.set_accel(on);
    }
    #[doc(hidden)]
    pub fn fetch_cache(&self) -> bool {
        self.accel()
    }
    #[doc(hidden)]
    pub fn fastpath(&self) -> bool {
        self.accel()
    }
    #[doc(hidden)]
    pub fn jit(&self) -> bool {
        self.accel()
    }

    /// Choose the epoch execution backend: `true` (the `LZ_PARALLEL`
    /// default) runs concurrent cores of an epoch on real host threads,
    /// `false` replays the identical epoch schedule sequentially in core
    /// order — the deterministic-replay verification mode. Host-side
    /// only: commit order is the same either way, so cycles, journals,
    /// and every counter are byte-identical.
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Whether epoch execution uses host threads.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Enable or disable journal recording for this machine, overriding
    /// the process-wide `LZ_METRICS` default. Counters are unaffected —
    /// they are always on.
    pub fn set_metrics(&mut self, on: bool) {
        self.journal.set_enabled(on);
    }

    /// Record a journal event stamped with the current cycle counter.
    pub fn record_event(&mut self, kind: EventKind) {
        let cycles = self.cpu.cycles;
        self.journal.record(cycles, kind);
    }

    /// Consult the fault-injection engine at `site` and journal a
    /// `Fault` event when it fires. Returns the deterministic payload
    /// draw on fire, `None` otherwise (always `None` without a plan).
    pub fn chaos_fire(&mut self, site: crate::chaos::FaultSite) -> Option<u64> {
        let draw = self.chaos.fire(site)?;
        let seq = self.chaos.seq;
        self.record_event(EventKind::Fault { site: site.name(), seq });
        Some(draw)
    }

    /// Snapshot the machine-owned metrics as report sections: TLB,
    /// compiled-block icache, walk/fault counters, gate switches, traps.
    pub fn metrics_sections(&self) -> Vec<Section> {
        let (hits, misses) = self.tlb.stats();
        let inval = self.tlb.inval_stats();
        let tlb = Section::new("tlb")
            .with("hits", hits)
            .with("misses", misses)
            .with("l2_hits", self.tlb.l2_hit_count())
            .with("entries", self.tlb.len() as u64)
            .with("invalidate_all", inval.all)
            .with("invalidate_vmid", inval.vmid)
            .with("invalidate_asid", inval.asid)
            .with("invalidate_va", inval.va);

        let (ihits, imisses) = self.tlb.icache().stats();
        let icache = Section::new("icache")
            .with("hits", ihits)
            .with("misses", imisses)
            .with("entries", self.tlb.icache().len() as u64)
            .with("evictions", self.tlb.icache().eviction_count())
            .with("invalidations", self.tlb.icache().invalidation_count());

        let w = self.tlb.walk_stats();
        let fast = self.tlb.fast_stats();
        let walk = Section::new("walk")
            .with("s1_walks", w.s1_walks)
            .with("s2_walks", w.s2_walks)
            .with("s1_translation_faults", w.s1_translation_faults)
            .with("s1_permission_faults", w.s1_permission_faults)
            .with("s1_access_flag_faults", w.s1_access_flag_faults)
            .with("s2_translation_faults", w.s2_translation_faults)
            .with("s2_permission_faults", w.s2_permission_faults)
            .with("s2_access_flag_faults", w.s2_access_flag_faults)
            .with("dtlb_hits", fast.dtlb_hits)
            .with("superblock_exits", fast.superblock_exits)
            .with("jit_blocks", fast.jit_blocks)
            .with("jit_stepped", fast.jit_stepped)
            .with("jit_loops", fast.jit_loops)
            .with("jit_compiled", fast.jit_compiled);

        let mut gate = Section::new("gate").with("switches", self.metrics.domain_switches);
        gate.push("distinct_domains", self.metrics.switched_asids().count() as u64);
        for (asid, n) in self.metrics.switched_asids() {
            gate.push(format!("asid_{asid}"), n);
        }

        let mut traps = Section::new("traps");
        let total: u64 = self.metrics.traps.values().sum();
        traps.push("total", total);
        // By class name, so the listing does not follow the enum's
        // variant order.
        let mut by_name: Vec<_> = self.metrics.traps.iter().map(|(class, &n)| (format!("{class:?}"), n)).collect();
        by_name.sort();
        for (name, n) in by_name {
            traps.push(name, n);
        }

        let cpu = Section::new("cpu")
            .with("insns", self.cpu.insns)
            .with("cycles", self.cpu.cycles)
            .with("journal_events", self.journal.len() as u64)
            .with("journal_dropped", self.journal.dropped());

        let chaos = Section::new("chaos")
            .with("faults_injected", self.chaos.faults_injected)
            .with("faults_contained", self.chaos.faults_contained)
            .with("ve_kills", self.chaos.ve_kills);

        let smp = Section::new("smp")
            .with("cores", self.num_cores() as u64)
            .with("shootdowns_sent", self.smp.shootdowns_sent)
            .with("shootdowns_acked", self.smp.shootdowns_acked)
            .with("ipis_sent", self.smp.ipis_sent)
            .with("tlbi_broadcasts", self.smp.tlbi_broadcasts)
            .with("epochs", self.smp.epochs)
            .with("epoch_waits", self.smp.epoch_waits)
            .with("barrier_stalls", self.smp.barrier_stalls)
            .with("phys_merge_conflicts", self.smp.phys_merge_conflicts)
            .with("shell_panics", self.smp.shell_panics);

        let mut sections = vec![tlb, icache, walk, gate, traps, cpu, chaos, smp];
        sections.extend(self.per_core_sections());
        sections
    }

    /// Route EL1-targeted exceptions out of the interpreter (modelled
    /// guest kernel) instead of vectoring through `VBAR_EL1`.
    pub fn set_el1_external(&mut self, external: bool) {
        self.el1_external = external;
    }

    /// Whether EL1 exceptions currently exit the interpreter.
    pub fn el1_external(&self) -> bool {
        self.el1_external
    }

    /// Read a system register of the active core (no cycle charge —
    /// model-internal). Every register reads 0 until first written.
    /// `NZCV` and `SP_EL0` read the flags and the stack pointer EL0 runs
    /// on, which live in PSTATE and the CPU, not in the register file.
    #[inline]
    pub fn sysreg(&self, reg: SysReg) -> u64 {
        match reg {
            SysReg::NZCV => self.cpu.pstate.nzcv.to_bits(),
            SysReg::SP_EL0 => self.cpu.sp_el0,
            _ => self.cpu.sysregs[reg as usize],
        }
    }

    /// Write a system register of the active core (no cycle charge —
    /// model-internal). Nothing caches a register's value, so the next
    /// [`Machine::walk_config`] or access already sees the write. `NZCV`
    /// and `SP_EL0` write the live flags and EL0 stack pointer (see
    /// [`Machine::sysreg`]).
    #[inline]
    pub fn set_sysreg(&mut self, reg: SysReg, value: u64) {
        match reg {
            SysReg::NZCV => self.cpu.pstate.nzcv = Nzcv::from_bits(value),
            SysReg::SP_EL0 => self.cpu.sp_el0 = value,
            _ => self.cpu.sysregs[reg as usize] = value,
        }
    }

    /// Charge cycles to the CPU counter.
    pub fn charge(&mut self, cycles: u64) {
        self.cpu.cycles += cycles;
    }

    /// The cost of an `MSR` write to `reg` on this platform.
    pub fn sysreg_write_cost(&self, reg: SysReg) -> u64 {
        match reg {
            SysReg::HCR_EL2 => self.model.hcr_el2_write,
            SysReg::VTTBR_EL2 => self.model.vttbr_el2_write,
            SysReg::TTBR0_EL1 => self.model.ttbr0_el1_write,
            _ => self.model.sysreg_write,
        }
    }

    /// Write a system register *as software would*: charges the per-
    /// register `MSR` cost. Used by modelled kernel/hypervisor paths.
    pub fn write_sysreg_charged(&mut self, reg: SysReg, value: u64) {
        let cost = self.sysreg_write_cost(reg);
        self.charge(cost);
        self.set_sysreg(reg, value);
    }

    /// Enter interpreted code at `pc` with the given PSTATE, as an `ERET`
    /// from modelled EL2 software (host kernel / hypervisor / Lowvisor)
    /// would: charges the EL2 return cost.
    pub fn enter(&mut self, pstate: PState, pc: u64) {
        self.charge(self.model.exception_return_el2);
        self.cpu.pstate = pstate;
        self.cpu.pc = pc;
    }

    /// Enter interpreted code as an `ERET` from *modelled EL1 software*
    /// (a guest kernel) would: charges the EL1 return cost.
    pub fn enter_from_el1(&mut self, pstate: PState, pc: u64) {
        self.charge(self.model.exception_return_el1);
        self.cpu.pstate = pstate;
        self.cpu.pc = pc;
    }

    /// The active core's translation regime, built from its live
    /// registers on every call (five indexed loads), so no register write
    /// or core switch leaves a cached copy to invalidate.
    pub fn walk_config(&self) -> WalkConfig {
        let sctlr_el1 = self.sysreg(SysReg::SCTLR_EL1);
        let hcr_el2 = self.sysreg(SysReg::HCR_EL2);
        WalkConfig {
            ttbr0: self.sysreg(SysReg::TTBR0_EL1),
            ttbr1: self.sysreg(SysReg::TTBR1_EL1),
            s1_enabled: sctlr_el1 & sctlr::M != 0,
            wxn: sctlr_el1 & sctlr::WXN != 0,
            vttbr: if hcr_el2 & hcr::VM != 0 { Some(self.sysreg(SysReg::VTTBR_EL2)) } else { None },
        }
    }

    /// Translate a VA in the current context without executing anything
    /// (used by kernels for `get_user`-style accesses and by tests).
    pub fn probe(&mut self, va: u64, access: Access, actx: &AccessCtx) -> Result<u64, Fault> {
        let cfg = self.walk_config();
        walk::translate(&self.mem, &mut self.tlb, &self.model, &cfg, va, access, actx).map(|t| t.pa)
    }

    /// Run the interpreter until an exit condition, retiring at most
    /// `limit` instructions.
    ///
    /// The accelerated engine executes compiled blocks, but every
    /// instruction boundary the budget-driven `step` loop below would
    /// observe (quantum expiry, exits, faults) is observed identically —
    /// a block is never entered with less budget than it retires.
    pub fn run(&mut self, limit: u64) -> Exit {
        if self.tlb.accel() {
            let mut remaining = limit;
            while remaining > 0 {
                self.check_panic_hook();
                let (used, exit) = self.step_block(remaining);
                if let Some(exit) = exit {
                    return exit;
                }
                remaining = remaining.saturating_sub(used.max(1));
            }
            return Exit::Limit;
        }
        for _ in 0..limit {
            self.check_panic_hook();
            if let Some(exit) = self.step() {
                return exit;
            }
        }
        Exit::Limit
    }

    /// Fire the armed host-panic test hook (see [`Machine::set_panic_after`]).
    #[inline]
    fn check_panic_hook(&self) {
        if let Some(n) = self.panic_after {
            if self.cpu.insns >= n {
                panic!("injected host panic for containment testing (insns={})", self.cpu.insns);
            }
        }
    }

    /// Execute one instruction. Returns `Some(exit)` when control leaves
    /// the interpreter.
    pub fn step(&mut self) -> Option<Exit> {
        debug_assert!(self.cpu.pstate.el != ExceptionLevel::El2, "EL2 code is modelled, not interpreted");
        let pc = self.cpu.pc;
        if pc & 3 != 0 {
            // PC alignment fault, taken before any translation: nothing
            // is fetched, so no fetch cost is charged.
            let esr = ExceptionClass::PcAlignment.ec() << 26;
            let target = self.svc_target();
            return self.take_exception(target, ExceptionClass::PcAlignment, esr, pc, 0, pc);
        }
        let cfg = self.walk_config();
        match walk::fetch(&self.mem, &mut self.tlb, &self.model, &cfg, pc, self.cpu.pstate.el) {
            Ok(f) => {
                // Fetch charges only the translation cost: sequential
                // i-fetch bandwidth is covered by `insn_base`.
                self.charge(f.cost);
                self.cpu.insns += 1;
                self.charge(self.model.insn_base);
                self.trace.record(pc, f.word, self.cpu.pstate.el);
                self.execute(f.insn, f.word)
            }
            Err((fault, cost)) => {
                self.charge(cost);
                self.fault_exception(fault, true)
            }
        }
    }

    /// Execute the compiled block at the current PC, or single-step.
    ///
    /// Returns `(attempts, exit)` where `attempts` counts run-loop
    /// iterations consumed — one per retired instruction, or one for a
    /// faulting fetch attempt on the single-step path — exactly matching
    /// what `budget` iterations of `step()` would consume.
    ///
    /// One `Tlb::jit_block` lookup finds the block: it serves the block
    /// stored for the PC's page entry, or lowers one from the code frame
    /// and stores it for later entries. Where the icache cannot serve the
    /// page (no entry armed for this TLB generation and ASID, or a stale
    /// code frame) the core single-steps; the step is the reference
    /// fetch, which records the page and arms it, so the next dispatch
    /// on the page finds a block. A block whose `total` exceeds `budget`
    /// is not entered: the core single-steps to the quantum edge instead,
    /// so no block overruns its quantum and a block's shape never depends
    /// on the budget. A misaligned PC always single-steps (the icache
    /// keys blocks by word slot `va >> 2`, and `step` raises the
    /// alignment fault), and so does the bare identity regime, which has
    /// no TLB to arm the icache against.
    fn step_block(&mut self, budget: u64) -> (u64, Option<Exit>) {
        debug_assert!(self.cpu.pstate.el != ExceptionLevel::El2, "EL2 code is modelled, not interpreted");
        let pc = self.cpu.pc;
        let cfg = self.walk_config();
        if pc & 3 != 0 || !(cfg.s1_enabled || cfg.vttbr.is_some()) {
            return self.single_step();
        }
        let (el, insn_base) = (self.cpu.pstate.el, self.model.insn_base);
        match self.tlb.jit_block(&self.mem, cfg.vmid(), cfg.asid(), el, pc, cfg.s1_enabled, cfg.wxn, insn_base) {
            Some((block, pa_page, frame_version)) if u64::from(block.total) <= budget => {
                let (used, exit) = self.step_jit(&block, &cfg, pc, pa_page, frame_version, budget);
                debug_assert!(used <= budget, "compiled block overran its quantum budget");
                (used, exit)
            }
            _ => self.single_step(),
        }
    }

    /// A dispatch the accelerated engine cannot serve with a compiled
    /// block: one `step`, counted in `FastStats::jit_stepped`.
    fn single_step(&mut self) -> (u64, Option<Exit>) {
        self.tlb.count_jit_step();
        (1, self.step())
    }

    /// Execute a compiled block (see [`crate::jit`]), re-entering it in
    /// place while it loops and `budget` covers another whole entry.
    ///
    /// Equivalence to stepping: the block revalidates what its dispatch
    /// checked wherever a segment can have moved it. After every segment
    /// it checks the PC (a data fault vectored to interpreted EL1, a
    /// taken branch, or any other control transfer ends the block);
    /// after a `Mem` or `Slow` segment also the TLB generation (a
    /// load/store may have inserted or promoted an entry, an interpreted
    /// TLBI may have invalidated) and the code frame's content version
    /// via the `write_gen` shortcut (a self-modifying store ends the
    /// block before the next fetch). ALU runs cannot touch the TLB,
    /// memory, or the journal, and move the PC only in a branch that
    /// ends the run, so these checks observe exactly the states stepping
    /// would.
    /// Only chainable instructions (see [`crate::jit::lower`]) appear
    /// mid-block, so EL, PSTATE.PAN and the regime registers cannot
    /// change under a running block: a regime register is written only
    /// by a non-chainable terminal, after which nothing in the block
    /// runs, and a `Mem` or `Slow` segment that faults moves the PC,
    /// which ends the block. Every `Mem` segment therefore translates
    /// under `cfg`, the regime the dispatch built. Cycle,
    /// instruction, and hit counters are charged in per-run batches that
    /// sum to the per-instruction totals, and no cycle-stamped event can
    /// be emitted between the instructions of a run (a branch included).
    /// `Mem` and `Slow` segments run the interpreter's own
    /// per-instruction bookkeeping; a `Mem` access is `data_access`
    /// itself or its armed micro-DTLB hit (`jit_mem`).
    ///
    /// Re-entry is the dispatch `run` would make next. A taken branch
    /// back to `pc` at the end of an ALU run leaves the regime, EL, PAN
    /// and ASID as they were at entry, so `jit_block` would serve this
    /// same block from the same page entry under the same arm. What it
    /// would check anew is re-checked here: the panic hook and the
    /// remaining budget against `total`. The TLB generation and code
    /// frame were last checked after the iteration's final `Mem` or
    /// `Slow` segment, and the ALU run since cannot move them. Nothing
    /// modelled is counted for it;
    /// it counts as a block execution in `FastStats::jit_blocks` and
    /// `FastStats::jit_loops`.
    fn step_jit(
        &mut self,
        block: &crate::jit::CompiledBlock,
        cfg: &WalkConfig,
        pc: u64,
        pa_page: u64,
        frame_version: u64,
        budget: u64,
    ) -> (u64, Option<Exit>) {
        use crate::jit::Segment;
        self.tlb.count_jit_block();
        let el = self.cpu.pstate.el;
        let gen0 = self.tlb.generation();
        let mut checked_wg = self.mem.write_gen();
        let mut used = 0u64;
        let mut exit = None;
        let mut pc_k = pc;
        let mut si = 0;
        loop {
            match &block.segs[si] {
                Segment::Alu { ops, cycles } => {
                    let n = ops.len() as u64;
                    self.tlb.count_superblock_insns(n);
                    self.cpu.insns += n;
                    self.cpu.cycles += cycles;
                    used += n;
                    if self.trace.enabled() {
                        for op in ops.iter() {
                            self.trace.record(pc_k, op.word, el);
                            pc_k += 4;
                        }
                    } else {
                        pc_k += 4 * n;
                    }
                    // Fall-through PC first: templates never read it, and
                    // a branch (always the last op) overwrites it.
                    let cpu = &mut self.cpu;
                    cpu.pc = pc_k;
                    for op in ops.iter() {
                        op.exec(cpu);
                    }
                    si += 1;
                    if self.cpu.pc != pc_k {
                        if !block.loops || self.cpu.pc != pc || used + u64::from(block.total) > budget {
                            break;
                        }
                        self.check_panic_hook();
                        self.tlb.count_jit_loop();
                        pc_k = pc;
                        si = 0;
                    }
                    // An ALU run moves neither the TLB generation nor any
                    // frame: nothing to revalidate, at a loop's re-entry
                    // either.
                    if si == block.segs.len() {
                        break;
                    }
                    continue;
                }
                &Segment::Mem { word, rt, rn, offset, size, write } => {
                    self.tlb.count_superblock_insn();
                    used += 1;
                    self.cpu.insns += 1;
                    self.charge(self.model.insn_base);
                    self.trace.record(pc_k, word, el);
                    let va = self.cpu.base_reg(rn).wrapping_add(offset);
                    pc_k += 4;
                    exit = self.jit_mem(cfg, va, size, rt, write, pc_k);
                    if exit.is_some() || self.cpu.pc != pc_k {
                        break;
                    }
                    si += 1;
                }
                Segment::Slow { word, insn } => {
                    self.tlb.count_superblock_insn();
                    used += 1;
                    self.cpu.insns += 1;
                    self.charge(self.model.insn_base);
                    self.trace.record(pc_k, *word, el);
                    exit = self.execute(*insn, *word);
                    if exit.is_some() {
                        break;
                    }
                    pc_k += 4;
                    if self.cpu.pc != pc_k {
                        break;
                    }
                    si += 1;
                }
            }
            if si == block.segs.len() || self.tlb.generation() != gen0 {
                break;
            }
            let wg = self.mem.write_gen();
            if wg != checked_wg {
                if self.mem.frame_version(pa_page) != Some(frame_version) {
                    break;
                }
                checked_wg = wg;
            }
        }
        self.tlb.count_superblock_exit();
        (used, exit)
    }

    fn execute(&mut self, insn: Insn, word: u32) -> Option<Exit> {
        let next_pc = self.cpu.pc + 4;
        match insn {
            Insn::Movz { rd, imm16, hw } => {
                self.cpu.set_reg(rd, (imm16 as u64) << (16 * hw));
                self.cpu.pc = next_pc;
            }
            Insn::Movn { rd, imm16, hw } => {
                self.cpu.set_reg(rd, !((imm16 as u64) << (16 * hw)));
                self.cpu.pc = next_pc;
            }
            Insn::Movk { rd, imm16, hw } => {
                let old = self.cpu.reg(rd);
                let mask = 0xffffu64 << (16 * hw);
                self.cpu.set_reg(rd, (old & !mask) | ((imm16 as u64) << (16 * hw)));
                self.cpu.pc = next_pc;
            }
            Insn::AddImm { rd, rn, imm12, shift12, sub, set_flags } => {
                let a = self.cpu.reg(rn);
                let b = (imm12 as u64) << if shift12 { 12 } else { 0 };
                self.cpu.arith(rd, a, b, sub, set_flags);
                self.cpu.pc = next_pc;
            }
            Insn::AddReg { rd, rn, rm, shift, sub, set_flags } => {
                let a = self.cpu.reg(rn);
                let b = self.cpu.reg(rm) << shift;
                self.cpu.arith(rd, a, b, sub, set_flags);
                self.cpu.pc = next_pc;
            }
            Insn::LogicReg { rd, rn, rm, shift, op } => {
                let a = self.cpu.reg(rn);
                let b = self.cpu.reg(rm) << shift;
                let r = match op {
                    LogicOp::And | LogicOp::Ands => a & b,
                    LogicOp::Orr => a | b,
                    LogicOp::Eor => a ^ b,
                };
                if op == LogicOp::Ands {
                    self.cpu.pstate.nzcv = Nzcv { n: r >> 63 == 1, z: r == 0, c: false, v: false };
                }
                self.cpu.set_reg(rd, r);
                self.cpu.pc = next_pc;
            }
            Insn::LsrImm { rd, rn, shift } => {
                self.cpu.set_reg(rd, self.cpu.reg(rn) >> shift);
                self.cpu.pc = next_pc;
            }
            Insn::LslImm { rd, rn, shift } => {
                self.cpu.set_reg(rd, self.cpu.reg(rn) << shift);
                self.cpu.pc = next_pc;
            }
            Insn::Adr { rd, offset } => {
                self.cpu.set_reg(rd, self.cpu.pc.wrapping_add_signed(offset));
                self.cpu.pc = next_pc;
            }
            Insn::Adrp { rd, offset } => {
                self.cpu.set_reg(rd, (self.cpu.pc & !0xfff).wrapping_add_signed(offset));
                self.cpu.pc = next_pc;
            }
            Insn::Ldp { rt, rt2, rn, offset } => {
                let va = self.cpu.base_reg(rn).wrapping_add_signed(offset);
                if let Some(exit) = self.data_access(va, MemSize::X, rt, false, false, self.cpu.pc) {
                    return Some(exit);
                }
                return self.data_access(va.wrapping_add(8), MemSize::X, rt2, false, false, next_pc);
            }
            Insn::Stp { rt, rt2, rn, offset } => {
                let va = self.cpu.base_reg(rn).wrapping_add_signed(offset);
                if let Some(exit) = self.data_access(va, MemSize::X, rt, true, false, self.cpu.pc) {
                    return Some(exit);
                }
                return self.data_access(va.wrapping_add(8), MemSize::X, rt2, true, false, next_pc);
            }
            Insn::Madd { rd, rn, rm, ra } => {
                let v = self.cpu.reg(ra).wrapping_add(self.cpu.reg(rn).wrapping_mul(self.cpu.reg(rm)));
                self.charge(crate::jit::MADD_EXTRA_CYCLES); // multiply latency
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next_pc;
            }
            Insn::Udiv { rd, rn, rm } => {
                let d = self.cpu.reg(rm);
                let v = self.cpu.reg(rn).checked_div(d).unwrap_or(0);
                self.charge(crate::jit::UDIV_EXTRA_CYCLES); // divide latency
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next_pc;
            }
            Insn::Csel { rd, rn, rm, cond } => {
                let v = if cond.holds(self.cpu.pstate.nzcv) { self.cpu.reg(rn) } else { self.cpu.reg(rm) };
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next_pc;
            }
            Insn::Csinc { rd, rn, rm, cond } => {
                let v =
                    if cond.holds(self.cpu.pstate.nzcv) { self.cpu.reg(rn) } else { self.cpu.reg(rm).wrapping_add(1) };
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next_pc;
            }
            Insn::LdrImm { rt, rn, offset, size } => {
                let va = self.cpu.base_reg(rn).wrapping_add(offset);
                return self.data_access(va, size, rt, false, false, next_pc);
            }
            Insn::StrImm { rt, rn, offset, size } => {
                let va = self.cpu.base_reg(rn).wrapping_add(offset);
                return self.data_access(va, size, rt, true, false, next_pc);
            }
            Insn::Ldtr { rt, rn, offset, size } => {
                let va = self.cpu.base_reg(rn).wrapping_add_signed(offset);
                return self.data_access(va, size, rt, false, true, next_pc);
            }
            Insn::Sttr { rt, rn, offset, size } => {
                let va = self.cpu.base_reg(rn).wrapping_add_signed(offset);
                return self.data_access(va, size, rt, true, true, next_pc);
            }
            Insn::B { offset } => {
                self.cpu.pc = self.cpu.pc.wrapping_add_signed(offset);
            }
            Insn::Bl { offset } => {
                self.cpu.set_reg(30, next_pc);
                self.cpu.pc = self.cpu.pc.wrapping_add_signed(offset);
            }
            Insn::BCond { cond, offset } => {
                self.cpu.pc =
                    if cond.holds(self.cpu.pstate.nzcv) { self.cpu.pc.wrapping_add_signed(offset) } else { next_pc };
            }
            Insn::Cbz { rt, offset, nonzero } => {
                let taken = (self.cpu.reg(rt) == 0) != nonzero;
                self.cpu.pc = if taken { self.cpu.pc.wrapping_add_signed(offset) } else { next_pc };
            }
            Insn::Br { rn } => {
                self.cpu.pc = self.cpu.reg(rn);
            }
            Insn::Blr { rn } => {
                let target = self.cpu.reg(rn);
                self.cpu.set_reg(30, next_pc);
                self.cpu.pc = target;
            }
            Insn::Ret { rn } => {
                self.cpu.pc = self.cpu.reg(rn);
            }
            Insn::Svc { imm } => {
                let esr = esr::esr_exception_gen(ExceptionClass::Svc, imm);
                let target = self.svc_target();
                return self.take_exception(target, ExceptionClass::Svc, esr, 0, 0, next_pc);
            }
            Insn::Hvc { imm } => {
                if self.cpu.pstate.el == ExceptionLevel::El0 {
                    // HVC is undefined at EL0.
                    return self.undefined(word, next_pc);
                }
                let esr = esr::esr_exception_gen(ExceptionClass::Hvc, imm);
                return self.take_exception(ExceptionLevel::El2, ExceptionClass::Hvc, esr, 0, 0, next_pc);
            }
            Insn::Smc { imm } => {
                // No EL3 in the model: treat as a hypervisor trap.
                let esr = esr::esr_exception_gen(ExceptionClass::Smc, imm);
                return self.take_exception(ExceptionLevel::El2, ExceptionClass::Smc, esr, 0, 0, next_pc);
            }
            Insn::Brk { imm } => {
                let esr = esr::esr_exception_gen(ExceptionClass::Brk, imm);
                let target = self.svc_target();
                // BRK's preferred return is the BRK itself.
                return self.take_exception(target, ExceptionClass::Brk, esr, 0, 0, self.cpu.pc);
            }
            Insn::Eret => {
                if self.cpu.pstate.el == ExceptionLevel::El0 {
                    return self.undefined(word, next_pc);
                }
                self.charge(self.model.exception_return_el1);
                let spsr = self.sysreg(SysReg::SPSR_EL1);
                let elr = self.sysreg(SysReg::ELR_EL1);
                match PState::from_spsr(spsr) {
                    Some(ps) if ps.el <= self.cpu.pstate.el => {
                        self.cpu.pstate = ps;
                        self.cpu.pc = elr;
                    }
                    _ => {
                        let esr = (ExceptionClass::IllegalState.ec()) << 26;
                        return self.take_exception(
                            ExceptionLevel::El1,
                            ExceptionClass::IllegalState,
                            esr,
                            0,
                            0,
                            next_pc,
                        );
                    }
                }
            }
            Insn::Nop => {
                self.cpu.pc = next_pc;
            }
            Insn::Barrier(b) => {
                self.charge(match b {
                    Barrier::Isb => self.model.isb,
                    Barrier::Dsb => self.model.dsb,
                    Barrier::Dmb => self.model.dsb / 2,
                });
                self.cpu.pc = next_pc;
            }
            Insn::MsrImm { op1, crm, op2 } => {
                return self.msr_imm(op1, crm, op2, word, next_pc);
            }
            Insn::MsrReg { enc, rt } => {
                return self.msr_mrs(enc, rt, false, word, next_pc);
            }
            Insn::MrsReg { enc, rt } => {
                return self.msr_mrs(enc, rt, true, word, next_pc);
            }
            Insn::Sys { op1, crn, crm, op2, rt, .. } => {
                return self.sys_op(op1, crn, crm, op2, rt, word);
            }
            Insn::Unallocated { .. } => {
                return self.undefined(word, next_pc);
            }
        }
        None
    }

    fn svc_target(&self) -> ExceptionLevel {
        // From EL0 under HCR_EL2.TGE (host process on a VHE host), all
        // synchronous exceptions route to EL2. Otherwise they go to EL1.
        if self.cpu.pstate.el == ExceptionLevel::El0 && self.sysreg(SysReg::HCR_EL2) & hcr::TGE != 0 {
            ExceptionLevel::El2
        } else {
            ExceptionLevel::El1
        }
    }

    fn undefined(&mut self, _word: u32, _next_pc: u64) -> Option<Exit> {
        let esr = ExceptionClass::Unknown.ec() << 26;
        let target = self.svc_target();
        // Preferred return for undefined is the faulting instruction.
        self.take_exception(target, ExceptionClass::Unknown, esr, 0, 0, self.cpu.pc)
    }

    fn msr_imm(&mut self, op1: u8, crm: u8, op2: u8, word: u32, next_pc: u64) -> Option<Exit> {
        use lz_arch::insn::{PSTATE_DAIFCLR_OP2, PSTATE_DAIFSET_OP2, PSTATE_PAN_OP1, PSTATE_PAN_OP2};
        if self.cpu.pstate.el == ExceptionLevel::El0 {
            return self.undefined(word, next_pc);
        }
        if op1 == PSTATE_PAN_OP1 && op2 == PSTATE_PAN_OP2 {
            self.charge(self.model.pan_write);
            self.cpu.pstate.pan = crm & 1 == 1;
        } else if op1 == 0b011 && op2 == PSTATE_DAIFSET_OP2 {
            self.cpu.pstate.irq_masked = true;
        } else if op1 == 0b011 && op2 == PSTATE_DAIFCLR_OP2 {
            self.cpu.pstate.irq_masked = false;
        } else {
            return self.undefined(word, next_pc);
        }
        self.cpu.pc = next_pc;
        None
    }

    fn msr_mrs(
        &mut self,
        enc: lz_arch::sysreg::SysRegEnc,
        rt: u8,
        is_read: bool,
        word: u32,
        next_pc: u64,
    ) -> Option<Exit> {
        let Some(reg) = SysReg::from_encoding(enc) else {
            return self.undefined(word, next_pc);
        };
        let el0_ok =
            matches!(reg, SysReg::NZCV | SysReg::FPCR | SysReg::FPSR | SysReg::TPIDR_EL0 | SysReg::CNTV_CTL_EL0);
        if self.cpu.pstate.el == ExceptionLevel::El0 && !el0_ok {
            return self.undefined(word, next_pc);
        }
        // EL2 registers are not accessible from EL1/EL0 (no nested-virt
        // re-injection in the interpreter: LightZone never lets the
        // process see them).
        let is_el2_reg = matches!(
            reg,
            SysReg::HCR_EL2
                | SysReg::VTTBR_EL2
                | SysReg::VTCR_EL2
                | SysReg::SCTLR_EL2
                | SysReg::VBAR_EL2
                | SysReg::ESR_EL2
                | SysReg::FAR_EL2
                | SysReg::HPFAR_EL2
                | SysReg::ELR_EL2
                | SysReg::SPSR_EL2
                | SysReg::SP_EL1
                | SysReg::TTBR0_EL2
                | SysReg::TTBR1_EL2
                | SysReg::TCR_EL2
                | SysReg::CPTR_EL2
                | SysReg::MDCR_EL2
                | SysReg::TPIDR_EL2
        );
        if is_el2_reg && self.cpu.pstate.el != ExceptionLevel::El2 {
            return self.undefined(word, next_pc);
        }

        // HCR_EL2.TVM / TRVM: trap EL1 accesses to stage-1 VM controls.
        let hcr_el2 = self.sysreg(SysReg::HCR_EL2);
        let vm_ctl = matches!(
            reg,
            SysReg::SCTLR_EL1
                | SysReg::TTBR0_EL1
                | SysReg::TTBR1_EL1
                | SysReg::TCR_EL1
                | SysReg::CONTEXTIDR_EL1
                | SysReg::MAIR_EL1
        );
        if self.cpu.pstate.el == ExceptionLevel::El1 && vm_ctl {
            let trapped = if is_read { hcr_el2 & hcr::TRVM != 0 } else { hcr_el2 & hcr::TVM != 0 };
            if trapped {
                let esr = esr::esr_trapped_sysreg(word);
                return self.take_exception(ExceptionLevel::El2, ExceptionClass::TrappedSysreg, esr, 0, 0, self.cpu.pc);
            }
        }

        if is_read {
            self.charge(self.model.sysreg_read);
            self.cpu.set_reg(rt, self.sysreg(reg));
        } else {
            self.charge(self.sysreg_write_cost(reg));
            let v = self.cpu.reg(rt);
            self.set_sysreg(reg, v);
            // An interpreted EL1 `MSR TTBR0_EL1` is a call-gate domain
            // switch (paper §4.1.2) — the event the observability layer
            // exists to count. Host-side `set_sysreg` calls (modelled
            // kernel work) intentionally do not land here.
            if reg == SysReg::TTBR0_EL1 && self.cpu.pstate.el == ExceptionLevel::El1 {
                use lz_arch::sysreg::ttbr;
                let asid = ttbr::asid(v);
                self.metrics.domain_switch(asid);
                self.record_event(EventKind::DomainSwitch { asid, root: ttbr::baddr(v) });
            }
        }
        self.cpu.pc = next_pc;
        None
    }

    fn sys_op(&mut self, op1: u8, crn: u8, crm: u8, op2: u8, rt: u8, word: u32) -> Option<Exit> {
        let next_pc = self.cpu.pc + 4;
        if self.cpu.pstate.el == ExceptionLevel::El0 {
            return self.undefined(word, next_pc);
        }
        if crn == 8 {
            // TLB maintenance: trapped by HCR_EL2.TTLB, else executed.
            if self.sysreg(SysReg::HCR_EL2) & hcr::TTLB != 0 {
                let esr = esr::esr_trapped_sysreg(word);
                return self.take_exception(ExceptionLevel::El2, ExceptionClass::TrappedSysreg, esr, 0, 0, self.cpu.pc);
            }
            self.charge(self.model.dsb);
            // Injected TLBI faults, both fail-closed by construction:
            // a *lost* operation is detected as a stall at the
            // completing barrier and re-issued (one extra barrier, then
            // the invalidation below runs as normal), and a *spurious*
            // one drops extra cached translations, which can only cost
            // walks — a TLB entry the tables would not reproduce is
            // never created by invalidation.
            if self.chaos_fire(crate::chaos::FaultSite::TlbiLost).is_some() {
                self.charge(self.model.dsb);
                self.chaos.contained();
            }
            let cfg = self.walk_config();
            let vmid = cfg.vmid();
            match lz_arch::tlbi::TlbiOp::decode(op1, crm, op2) {
                Some(op) => {
                    // Local forms flush only the issuing core; the
                    // Inner Shareable forms DVM-broadcast to every
                    // remote core (see `smp` module docs).
                    let xt = self.cpu.reg(rt);
                    crate::smp::apply_tlbi(&mut self.tlb, op, vmid, xt);
                    if op.broadcast {
                        self.dvm_broadcast(op, vmid, xt);
                    }
                }
                // Unmodelled TLBI encodings keep the conservative
                // pre-SMP behaviour: flush the issuing core's VMID.
                None => self.tlb.invalidate_vmid(vmid),
            }
            if self.chaos_fire(crate::chaos::FaultSite::TlbiSpurious).is_some() {
                self.tlb.invalidate_all();
                self.chaos.contained();
            }
        }
        // Cache maintenance (CRn=7) and others: architecturally effectful,
        // semantically inert in this model.
        self.cpu.pc = next_pc;
        None
    }

    fn data_access(
        &mut self,
        va: u64,
        size: MemSize,
        rt: u8,
        is_write: bool,
        unpriv: bool,
        next_pc: u64,
    ) -> Option<Exit> {
        let cfg = self.walk_config();
        self.data_access_in(&cfg, va, size, rt, is_write, unpriv, next_pc, false)
    }

    /// [`Machine::data_access`] under the regime `cfg`. `dtlb_missed`
    /// says the caller already probed the micro-DTLB for this unwatched
    /// single-page access and missed, so translation skips that probe.
    #[allow(clippy::too_many_arguments)]
    fn data_access_in(
        &mut self,
        cfg: &WalkConfig,
        va: u64,
        size: MemSize,
        rt: u8,
        is_write: bool,
        unpriv: bool,
        next_pc: u64,
        dtlb_missed: bool,
    ) -> Option<Exit> {
        // Watchpoint match (EL0 accesses while enabled). Wrapping sums
        // keep an access at the top of the VA space from overflowing.
        if self.cpu.watchpoints_enabled && self.cpu.pstate.el == ExceptionLevel::El0 {
            for wp in self.cpu.watchpoints.iter().flatten() {
                let hit = va < wp.addr.wrapping_add(wp.len) && va.wrapping_add(size.bytes()) > wp.addr;
                if hit && ((is_write && wp.on_write) || (!is_write && wp.on_read)) {
                    let esr = (ExceptionClass::WatchpointLower.ec() << 26) | ((is_write as u64) << 6);
                    self.set_sysreg(SysReg::FAR_EL1, va);
                    self.set_sysreg(SysReg::FAR_EL2, va);
                    let target = self.svc_target();
                    return self.take_exception(target, ExceptionClass::WatchpointLower, esr, va, 0, self.cpu.pc);
                }
            }
        }
        let actx = AccessCtx { el: self.cpu.pstate.el, pan: self.cpu.pstate.pan, unpriv };
        let access = if is_write { Access::Write } else { Access::Read };

        // Split accesses that cross a page boundary (the second part of an
        // access at the top of the VA space wraps to page 0).
        let first_len = first_page_len(va, size.bytes());
        let crosses = first_len != size.bytes();
        debug_assert!(!dtlb_missed || !crosses, "only single-page accesses probe the micro-DTLB inline");
        let mut pas = [0u64; 2];
        for (pa, start) in pas.iter_mut().zip([va, va.wrapping_add(first_len)]).take(1 + usize::from(crosses)) {
            let t = if dtlb_missed {
                walk::translate_dtlb_missed(&self.mem, &mut self.tlb, &self.model, cfg, start, access, &actx)
            } else {
                walk::translate(&self.mem, &mut self.tlb, &self.model, cfg, start, access, &actx)
            };
            match t {
                Ok(t) => {
                    self.charge(t.cost);
                    *pa = t.pa;
                }
                Err(f) => {
                    self.charge(self.model.stage1_walk());
                    return self.fault_exception(f, false);
                }
            }
        }
        let split = crosses.then_some((first_len, pas[1]));
        self.complete_access(pas[0], split, size, va, rt, is_write, next_pc)
    }

    /// The translated tail of every data access: charge the memory
    /// access, move the bytes and retire, or raise the bus error of a
    /// missing frame. A single-page access (`split` is `None`) is one
    /// fixed-width frame access at `pa`; one that crosses a page moves
    /// its first `len` bytes at `pa` and the rest at `pa2`, for `split`
    /// `Some((len, pa2))`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn complete_access(
        &mut self,
        pa: u64,
        split: Option<(u64, u64)>,
        size: MemSize,
        va: u64,
        rt: u8,
        is_write: bool,
        next_pc: u64,
    ) -> Option<Exit> {
        self.charge(self.model.mem_access);
        let moved = if is_write {
            let v = self.cpu.reg(rt);
            match split {
                None => self.mem.store(pa, size, v),
                Some((len, pa2)) => {
                    self.mem.write(pa, v, len) && self.mem.write(pa2, v >> (8 * len), size.bytes() - len)
                }
            }
        } else {
            let v = match split {
                None => self.mem.load(pa, size),
                Some((len, pa2)) => self
                    .mem
                    .read(pa, len)
                    .zip(self.mem.read(pa2, size.bytes() - len))
                    .map(|(lo, hi)| lo | hi << (8 * len)),
            };
            if let Some(v) = v {
                self.cpu.set_reg(rt, v);
            }
            v.is_some()
        };
        if !moved {
            return self.bus_error(va, is_write);
        }
        self.cpu.pc = next_pc;
        None
    }

    /// A JIT `Mem` segment's access (`LDR`/`STR`, immediate offset) under
    /// `cfg`, the regime of the block's dispatch (see
    /// [`Machine::step_jit`]), which is TLB-backed: `step_block`
    /// single-steps the bare identity regime.
    ///
    /// The inline path is `data_access` for an armed micro-DTLB hit: with
    /// no EL0 watchpoint to match and a single-page access, `data_access`
    /// would make exactly one `translate` call, whose probe this is —
    /// same hit counters, zero translation cost — and then
    /// `complete_access`, whose single-page case is one fixed-width frame
    /// access. Anything else runs `data_access_in` under the same `cfg`,
    /// and a probe miss continues there without probing again.
    ///
    /// Never inlined: inlined into `step_jit`, the memory path would share
    /// the register allocation and code layout of the ALU-run loop around
    /// it and slow that loop down. The hit path is inlined here instead: a
    /// load hit is this one call, a store hit also calls `frame_mut`.
    #[inline(never)]
    fn jit_mem(
        &mut self,
        cfg: &WalkConfig,
        va: u64,
        size: MemSize,
        rt: u8,
        is_write: bool,
        next_pc: u64,
    ) -> Option<Exit> {
        debug_assert_eq!(*cfg, self.walk_config(), "the regime changed under a running block");
        let watched = self.cpu.watchpoints_enabled && self.cpu.pstate.el == ExceptionLevel::El0;
        if watched || first_page_len(va, size.bytes()) != size.bytes() {
            return self.data_access_in(cfg, va, size, rt, is_write, false, next_pc, false);
        }
        let ps = self.cpu.pstate;
        match self.tlb.dtlb_lookup(cfg.vmid(), cfg.asid(), ps.el, ps.pan, false, cfg.s1_enabled, va, is_write) {
            Some(pa) => self.complete_access(pa, None, size, va, rt, is_write, next_pc),
            None => self.data_access_in(cfg, va, size, rt, is_write, false, next_pc, true),
        }
    }

    /// The external abort of an access whose frame is unbacked; a store's
    /// sets `WnR`, as on the architecture.
    fn bus_error(&mut self, va: u64, wnr: bool) -> Option<Exit> {
        let f = Fault { kind: FaultKind::Translation, stage: Stage::S1, level: 0, va, ipa: 0, wnr, s1ptw: false };
        self.fault_exception(f, false)
    }

    /// Convert an MMU fault into an exception: stage-1 faults go to EL1
    /// (EL2 under TGE); stage-2 faults always go to EL2.
    fn fault_exception(&mut self, f: Fault, is_fetch: bool) -> Option<Exit> {
        let from_el = self.cpu.pstate.el;
        let target = match f.stage {
            Stage::S2 => ExceptionLevel::El2,
            Stage::S1 => {
                if from_el == ExceptionLevel::El0 && self.sysreg(SysReg::HCR_EL2) & hcr::TGE != 0 {
                    ExceptionLevel::El2
                } else {
                    ExceptionLevel::El1
                }
            }
        };
        let from_lower = from_el < target || (from_el == ExceptionLevel::El0);
        let class = match (is_fetch, from_lower) {
            (true, true) => ExceptionClass::InsnAbortLower,
            (true, false) => ExceptionClass::InsnAbortSame,
            (false, true) => ExceptionClass::DataAbortLower,
            (false, false) => ExceptionClass::DataAbortSame,
        };
        let status = match f.kind {
            FaultKind::Translation => esr::FaultStatus::Translation(f.level),
            FaultKind::Permission => esr::FaultStatus::Permission(f.level),
            FaultKind::AccessFlag => esr::FaultStatus::AccessFlag(f.level),
        };
        let esr = esr::esr_abort(class, status, f.wnr, f.s1ptw);
        let hpfar = (f.ipa >> 12) << 4; // HPFAR_EL2 holds IPA[47:12] at bits 43:4.
        self.take_exception(target, class, esr, f.va, hpfar, self.cpu.pc)
    }

    /// Take an exception to `target`. Fills the target EL's syndrome
    /// registers; either vectors (interpreted EL1) or exits.
    fn take_exception(
        &mut self,
        target: ExceptionLevel,
        class: ExceptionClass,
        esr_val: u64,
        far: u64,
        hpfar: u64,
        preferred_return: u64,
    ) -> Option<Exit> {
        self.metrics.trap(class);
        self.record_event(EventKind::Trap { class });
        self.charge(match target {
            ExceptionLevel::El2 => self.model.exception_entry_el2,
            _ => self.model.exception_entry_el1,
        });
        let spsr = self.cpu.pstate.to_spsr();
        match target {
            ExceptionLevel::El1 => {
                self.set_sysreg(SysReg::ESR_EL1, esr_val);
                self.set_sysreg(SysReg::FAR_EL1, far);
                self.set_sysreg(SysReg::ELR_EL1, preferred_return);
                self.set_sysreg(SysReg::SPSR_EL1, spsr);
                let from_lower = self.cpu.pstate.el == ExceptionLevel::El0;
                // SPAN: if clear, exception entry to EL1 sets PAN.
                let span = self.sysreg(SysReg::SCTLR_EL1) & sctlr::SPAN != 0;
                self.cpu.pstate.el = ExceptionLevel::El1;
                self.cpu.pstate.irq_masked = true;
                if !span {
                    self.cpu.pstate.pan = true;
                }
                if self.el1_external {
                    return Some(Exit::El1(class));
                }
                let vbar = self.sysreg(SysReg::VBAR_EL1);
                self.cpu.pc = vbar + if from_lower { 0x400 } else { 0x200 };
                None
            }
            ExceptionLevel::El2 => {
                self.set_sysreg(SysReg::ESR_EL2, esr_val);
                self.set_sysreg(SysReg::FAR_EL2, far);
                self.set_sysreg(SysReg::HPFAR_EL2, hpfar);
                self.set_sysreg(SysReg::ELR_EL2, preferred_return);
                self.set_sysreg(SysReg::SPSR_EL2, spsr);
                self.cpu.pstate.el = ExceptionLevel::El2;
                self.cpu.pstate.irq_masked = true;
                Some(Exit::El2(class))
            }
            ExceptionLevel::El0 => unreachable!("exceptions never target EL0"),
        }
    }
}

/// Bytes of a `bytes`-long access at `va` that fall in `va`'s page.
#[inline]
fn first_page_len(va: u64, bytes: u64) -> u64 {
    (4096 - (va & 0xfff)).min(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::S1Perms;
    use crate::walk::{alloc_table, s1_map_page};
    use lz_arch::asm::Asm;
    use lz_arch::sysreg::ttbr;

    const CODE: u64 = 0x40_0000;
    const DATA: u64 = 0x50_0000;

    fn user_code_perms() -> S1Perms {
        S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false }
    }

    fn user_data_perms() -> S1Perms {
        S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false }
    }

    /// Build a machine with one EL0 program mapped at CODE and a data page
    /// at DATA, stage-1 only, TGE set (host process semantics).
    fn machine_with(asm: Asm) -> Machine {
        let mut m = Machine::new(Platform::CortexA55);
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        let data_pa = m.mem.alloc_frame();
        let bytes = asm.bytes();
        m.mem.write_bytes(code_pa, &bytes);
        s1_map_page(&mut m.mem, root, CODE, code_pa, user_code_perms());
        s1_map_page(&mut m.mem, root, DATA, data_pa, user_data_perms());
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.cpu.pstate = PState::user();
        m.cpu.pc = CODE;
        m
    }

    #[test]
    fn runs_arithmetic_and_svc() {
        let mut a = Asm::new(CODE);
        a.movz(0, 20, 0);
        a.movz(1, 22, 0);
        a.add_reg(2, 0, 1);
        a.svc(7);
        let mut m = machine_with(a);
        let exit = m.run(100);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(2), 42);
        assert_eq!(esr::esr_imm(m.sysreg(SysReg::ESR_EL2)), 7);
        assert_eq!(m.sysreg(SysReg::ELR_EL2), CODE + 16);
        assert_eq!(m.cpu.pstate.el, ExceptionLevel::El2);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA);
        a.mov_imm64(1, 0xdead_beef);
        a.str(1, 0, 16);
        a.ldr(2, 0, 16);
        a.svc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(2), 0xdead_beef);
    }

    #[test]
    fn unaligned_cross_page_access() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA + 0xffc);
        a.mov_imm64(1, 0x1122_3344_5566_7788);
        a.str(1, 0, 0);
        a.ldr(2, 0, 0);
        a.svc(0);
        // Needs the next page mapped too.
        let mut m = machine_with(a);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let pa = m.mem.alloc_frame();
        s1_map_page(&mut m.mem, root, DATA + 0x1000, pa, user_data_perms());
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(2), 0x1122_3344_5566_7788);
    }

    #[test]
    fn store_to_unmapped_faults_to_el2_under_tge() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, 0x70_0000);
        a.str(0, 0, 0);
        let mut m = machine_with(a);
        let exit = m.run(100);
        assert_eq!(exit, Exit::El2(ExceptionClass::DataAbortLower));
        assert_eq!(m.sysreg(SysReg::FAR_EL2), 0x70_0000);
        let (fault, wnr, _) = esr::esr_abort_info(m.sysreg(SysReg::ESR_EL2)).unwrap();
        assert!(matches!(fault, esr::FaultStatus::Translation(_)));
        assert!(wnr);
    }

    #[test]
    fn branch_loop_executes() {
        let mut a = Asm::new(CODE);
        a.movz(0, 10, 0);
        a.movz(1, 0, 0);
        let top = a.label();
        a.bind(top);
        a.add_imm(1, 1, 3);
        a.subs_imm(0, 0, 1);
        a.b_ne(top);
        a.svc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(1000), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(1), 30);
    }

    #[test]
    fn bl_ret_links() {
        let mut a = Asm::new(CODE);
        let func = a.label();
        a.bl(func);
        a.svc(0);
        a.bind(func);
        a.movz(5, 99, 0);
        a.ret();
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(5), 99);
    }

    #[test]
    fn el0_cannot_write_privileged_sysreg() {
        let mut a = Asm::new(CODE);
        a.movz(0, 0, 0);
        a.msr(SysReg::TTBR0_EL1, 0);
        let mut m = machine_with(a);
        // Undefined routes to EL2 under TGE.
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Unknown));
    }

    #[test]
    fn el0_cannot_toggle_pan() {
        let mut a = Asm::new(CODE);
        a.msr_pan(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Unknown));
    }

    #[test]
    fn el0_can_use_tpidr_el0() {
        let mut a = Asm::new(CODE);
        a.movz(0, 77, 0);
        a.msr(SysReg::TPIDR_EL0, 0);
        a.mrs(1, SysReg::TPIDR_EL0);
        a.svc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(1), 77);
    }

    #[test]
    fn el1_pan_toggle_and_enforcement() {
        // EL1 process; data page is user-marked; PAN blocks access until
        // cleared.
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA);
        a.msr_pan(1);
        a.ldr(1, 0, 0); // must fault
        let mut m = machine_with(a);
        // Re-enter at EL1 with code executable at EL1: remap code page.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (code_pa, _, _) = crate::walk::s1_lookup(&m.mem, root, CODE).unwrap();
        let kcode = S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: false };
        s1_map_page(&mut m.mem, root, CODE, code_pa, kcode);
        m.set_sysreg(SysReg::HCR_EL2, 0); // not a TGE host process
        m.cpu.pstate = PState { el: ExceptionLevel::El1, pan: false, irq_masked: false, nzcv: Default::default() };
        m.set_el1_external(true);
        let exit = m.run(100);
        assert_eq!(exit, Exit::El1(ExceptionClass::DataAbortSame));
        let (fault, ..) = esr::esr_abort_info(m.sysreg(SysReg::ESR_EL1)).unwrap();
        assert!(matches!(fault, esr::FaultStatus::Permission(_)));
    }

    #[test]
    fn el1_vectors_to_vbar_when_interpreted() {
        // An EL1 process (LightZone-style) takes SVC to its own VBAR stub,
        // which forwards via HVC.
        let mut a = Asm::new(CODE);
        a.svc(42);
        let mut m = machine_with(a);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (code_pa, _, _) = crate::walk::s1_lookup(&m.mem, root, CODE).unwrap();
        let kcode = S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: false };
        s1_map_page(&mut m.mem, root, CODE, code_pa, kcode);

        // Stub at VBAR+0x200 (same-EL): hvc #0.
        let vbar = 0x60_0000u64;
        let stub_pa = m.mem.alloc_frame();
        let mut stub = Asm::new(vbar + 0x200);
        stub.hvc(0);
        m.mem.write_bytes(stub_pa + 0x200, &stub.bytes());
        s1_map_page(&mut m.mem, root, vbar, stub_pa, kcode);
        m.set_sysreg(SysReg::VBAR_EL1, vbar);
        m.set_sysreg(SysReg::HCR_EL2, 0);
        m.cpu.pstate = PState { el: ExceptionLevel::El1, pan: false, irq_masked: false, nzcv: Default::default() };
        let exit = m.run(100);
        assert_eq!(exit, Exit::El2(ExceptionClass::Hvc));
        // The original syndrome is still in ESR_EL1 for the module to read.
        assert_eq!(esr::esr_imm(m.sysreg(SysReg::ESR_EL1)), 42);
        assert_eq!(m.sysreg(SysReg::ELR_EL1), CODE + 4);
    }

    #[test]
    fn watchpoint_fires_on_el0_access() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA + 0x100);
        a.ldr(1, 0, 0);
        let mut m = machine_with(a);
        m.cpu.watchpoints[0] = Some(Watchpoint { addr: DATA + 0x100, len: 8, on_read: true, on_write: true });
        m.cpu.watchpoints_enabled = true;
        let exit = m.run(100);
        assert_eq!(exit, Exit::El2(ExceptionClass::WatchpointLower));
        assert_eq!(m.sysreg(SysReg::FAR_EL2), DATA + 0x100);
    }

    #[test]
    fn watchpoint_does_not_fire_outside_range() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA);
        a.ldr(1, 0, 0);
        a.svc(0);
        let mut m = machine_with(a);
        m.cpu.watchpoints[0] = Some(Watchpoint { addr: DATA + 0x100, len: 8, on_read: true, on_write: true });
        m.cpu.watchpoints_enabled = true;
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
    }

    #[test]
    fn pair_and_arith_instructions_execute() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA);
        a.mov_imm64(1, 0x1111);
        a.mov_imm64(2, 0x2222);
        a.stp(1, 2, 0, 16);
        a.ldp(3, 4, 0, 16);
        a.mul(5, 3, 4); // 0x1111 * 0x2222
        a.mov_imm64(6, 0x22);
        a.udiv(7, 5, 6);
        a.cmp_imm(7, 0);
        a.csel(9, 3, 4, lz_arch::insn::Cond::Ne);
        a.cset(10, lz_arch::insn::Cond::Ne);
        a.svc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(3), 0x1111);
        assert_eq!(m.cpu.reg(4), 0x2222);
        assert_eq!(m.cpu.reg(5), 0x1111 * 0x2222);
        assert_eq!(m.cpu.reg(7), (0x1111 * 0x2222) / 0x22);
        assert_eq!(m.cpu.reg(9), 0x1111, "csel picks rn when NE holds");
        assert_eq!(m.cpu.reg(10), 1, "cset on NE");
    }

    #[test]
    fn udiv_by_zero_is_zero() {
        let mut a = Asm::new(CODE);
        a.mov_imm64(1, 99);
        a.movz(2, 0, 0);
        a.udiv(3, 1, 2);
        a.svc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(3), 0, "architected zero on divide-by-zero");
    }

    #[test]
    fn stp_faults_atomically_enough() {
        // The second slot of an STP crossing into an unmapped page faults;
        // after the kernel maps it, restarting the instruction redoes both
        // stores (idempotent).
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, DATA + 0xff0);
        a.mov_imm64(1, 7);
        a.mov_imm64(2, 9);
        a.stp(1, 2, 0, 8); // second store lands at DATA+0x1000
        let mut m = machine_with(a);
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::DataAbortLower));
        assert_eq!(m.sysreg(SysReg::FAR_EL2), DATA + 0x1000);
    }

    #[test]
    fn cycles_accumulate_and_limit_works() {
        let mut a = Asm::new(CODE);
        let top = a.label();
        a.bind(top);
        let l2 = top;
        a.b(l2);
        let mut m = machine_with(a);
        assert_eq!(m.run(50), Exit::Limit);
        assert_eq!(m.cpu.insns, 50);
        assert!(m.cpu.cycles >= 50);
    }

    #[test]
    fn eret_from_el1_restores_el0() {
        let mut a = Asm::new(CODE);
        a.eret();
        let mut m = machine_with(a);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (code_pa, _, _) = crate::walk::s1_lookup(&m.mem, root, CODE).unwrap();
        let kcode = S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: false };
        s1_map_page(&mut m.mem, root, CODE, code_pa, kcode);
        m.set_sysreg(SysReg::HCR_EL2, 0);
        m.cpu.pstate = PState { el: ExceptionLevel::El1, pan: false, irq_masked: true, nzcv: Default::default() };
        m.set_sysreg(SysReg::SPSR_EL1, PState::user().to_spsr());
        m.set_sysreg(SysReg::ELR_EL1, DATA); // arbitrary EL0 target
        m.step();
        assert_eq!(m.cpu.pstate.el, ExceptionLevel::El0);
        assert_eq!(m.cpu.pc, DATA);
    }

    #[test]
    fn hvc_undefined_at_el0() {
        let mut a = Asm::new(CODE);
        a.hvc(0);
        let mut m = machine_with(a);
        assert_eq!(m.run(10), Exit::El2(ExceptionClass::Unknown));
    }

    #[test]
    fn tvm_traps_el1_ttbr_write() {
        let mut a = Asm::new(CODE);
        a.movz(0, 0, 0);
        a.msr(SysReg::SCTLR_EL1, 0);
        let mut m = machine_with(a);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (code_pa, _, _) = crate::walk::s1_lookup(&m.mem, root, CODE).unwrap();
        let kcode = S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: false };
        s1_map_page(&mut m.mem, root, CODE, code_pa, kcode);
        m.set_sysreg(SysReg::HCR_EL2, hcr::VM | hcr::TVM);
        // Stage-2 required for VM bit: identity-map everything currently
        // allocated.
        let s2_root = alloc_table(&mut m.mem);
        let mut pa = 1 << 20;
        let end = (1 << 20) + 4096 * 4096;
        while pa < end {
            if m.mem.is_mapped(pa) {
                crate::walk::s2_map_page(&mut m.mem, s2_root, pa, pa, crate::pte::S2Perms::rwx());
            }
            pa += 4096;
        }
        m.set_sysreg(SysReg::VTTBR_EL2, lz_arch::sysreg::vttbr::pack(5, s2_root));
        m.cpu.pstate = PState { el: ExceptionLevel::El1, pan: false, irq_masked: false, nzcv: Default::default() };
        let exit = m.run(100);
        assert_eq!(exit, Exit::El2(ExceptionClass::TrappedSysreg));
    }

    #[test]
    fn every_sysreg_has_its_own_slot() {
        let mut m = Machine::new(Platform::CortexA55);
        assert!(SysReg::ALL.iter().all(|&r| m.sysreg(r) == 0), "a register read nonzero before its first write");
        let value = |i: usize| 0xa000_1000 + i as u64;
        for (i, &reg) in SysReg::ALL.iter().enumerate() {
            m.set_sysreg(reg, value(i));
        }
        // `NZCV` and `SP_EL0` have no slot: they are the live flags (bits
        // 31:28 of the written value) and the EL0 stack pointer.
        let sp_el0 = SysReg::ALL.iter().position(|&r| r == SysReg::SP_EL0).map(value);
        assert_eq!((m.cpu.pstate.nzcv.to_bits(), Some(m.cpu.sp_el0)), (0xa000_0000, sp_el0));
        // A secondary core boots with a copy of the register file, and
        // with flags and a stack pointer of its own.
        m.configure_smp(2);
        for core in [0, 1] {
            m.switch_core(core);
            for (i, &reg) in SysReg::ALL.iter().enumerate() {
                let live = match reg {
                    SysReg::NZCV => m.cpu.pstate.nzcv.to_bits(),
                    SysReg::SP_EL0 => m.cpu.sp_el0,
                    _ => value(i),
                };
                assert_eq!(m.sysreg(reg), live, "core {core}: {reg} shares a slot");
            }
        }
        assert_eq!([m.sysreg(SysReg::NZCV), m.sysreg(SysReg::SP_EL0)], [0, 0], "core 1 copied core 0's flags or stack");
    }

    /// A host-side `sysreg`/`set_sysreg` of `SP_EL0` or `NZCV` reads and
    /// moves the stack and flags EL0 runs on.
    #[test]
    fn host_sp_el0_and_nzcv_are_el0s_live_stack_and_flags() {
        use lz_arch::insn::Cond;
        let mut a = Asm::new(CODE);
        a.cset(3, Cond::Eq); // the flags the host wrote
        a.movz(1, 0x77, 0);
        a.str(1, 31, 8); // through the stack pointer the host wrote
        a.mov_imm64(2, DATA + 0x108);
        a.ldr(4, 2, 0);
        a.movz(0, 0, 0);
        a.subs_imm(0, 0, 1); // N: 0 - 1 is negative
        a.svc(0);
        let mut m = machine_with(a);
        m.set_sysreg(SysReg::SP_EL0, DATA + 0x100);
        m.set_sysreg(SysReg::NZCV, 1 << 30); // Z
        assert_eq!(m.run(100), Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(3), 1, "EL0 saw the host's Z flag");
        assert_eq!(m.cpu.reg(4), 0x77, "EL0 stored through the host's stack pointer");
        assert_eq!((m.sysreg(SysReg::SP_EL0), m.cpu.sp_el0), (DATA + 0x100, DATA + 0x100));
        assert_eq!(m.sysreg(SysReg::NZCV), 1 << 31, "the host reads EL0's flags: N alone");
    }

    #[test]
    fn charged_sysreg_costs_differ() {
        let mut m = Machine::new(Platform::Carmel);
        let before = m.cpu.cycles;
        m.write_sysreg_charged(SysReg::HCR_EL2, 1);
        let hcr_cost = m.cpu.cycles - before;
        assert_eq!(hcr_cost, m.model.hcr_el2_write);
        let before = m.cpu.cycles;
        m.write_sysreg_charged(SysReg::TPIDR_EL1, 1);
        assert_eq!(m.cpu.cycles - before, m.model.sysreg_write);
    }
}
