//! Seeded program generators and the four chaos scenarios.
//!
//! The generator half (the randomized, self-modifying, trap-and-resume
//! program builder plus its bare-machine harness) is the single source
//! shared with `tests/differential.rs` — the differential suite and the
//! chaos soak must drive the *same* programs, or a containment argument
//! proven here would not transfer there.
//!
//! The scenario half wraps each generator into a [`run_scenario`] entry
//! point that installs an optional [`FaultPlan`], runs to completion,
//! snapshots a cycle-independent digest of the architecturally visible
//! outcome (chaos may legally degrade throughput, never results), and
//! runs the [`ChaosInvariants`] checks.

use crate::invariants::ChaosInvariants;
use lz_arch::asm::Asm;
use lz_arch::esr::{self, ExceptionClass};
use lz_arch::insn::Insn;
use lz_arch::pstate::{ExceptionLevel, PState};
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page};
use lz_machine::{Exit, FaultPlan, FaultSite, Machine};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const CODE: u64 = 0x40_0000;
pub const PATCH: u64 = CODE + 0x3000;
pub const DATA: u64 = 0x50_0000;
pub const NOP: u32 = 0xD503_201F;
/// `tlbi vmalle1` (op0=01, op1=000, CRn=8, CRm=7, op2=0).
const TLBI_VMALLE1: u32 = 0xD508_871F;
/// EL1-executable stub page for the TLB-maintenance phase.
const EL1_STUB: u64 = 0x60_0000;

pub fn user_rwx() -> S1Perms {
    // Writable + executable so self-modifying stores are legal (WXN off).
    S1Perms { read: true, write: true, user_exec: true, priv_exec: false, el0: true, global: false }
}

pub fn user_rw() -> S1Perms {
    S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false }
}

/// Build one machine: 4 code pages at `CODE` (the last is the patch
/// area), 2 data pages at `DATA`, stage-1 only, TGE host semantics,
/// on the accelerated engine (`accel`) or the reference interpreter.
pub fn build_machine(code: &[u8], patch: &[u8], accel: bool) -> Machine {
    let mut m = Machine::new(Platform::CortexA55);
    m.set_accel(accel);
    let root = alloc_table(&mut m.mem);
    for page in 0..4u64 {
        let pa = m.mem.alloc_frame();
        s1_map_page(&mut m.mem, root, CODE + page * 0x1000, pa, user_rwx());
        let src = if page == 3 {
            patch
        } else {
            let lo = (page * 0x1000) as usize;
            if lo >= code.len() {
                &[]
            } else {
                &code[lo..code.len().min(lo + 0x1000)]
            }
        };
        m.mem.write_bytes(pa, src);
    }
    for page in 0..2u64 {
        let pa = m.mem.alloc_frame();
        s1_map_page(&mut m.mem, root, DATA + page * 0x1000, pa, user_rw());
    }
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.trace.set_enabled(true);
    m.cpu.pstate = PState::user();
    m.cpu.pc = CODE;
    m
}

/// Everything a program can observe about one run.
#[derive(Debug, PartialEq)]
pub struct Snapshot {
    pub exit: Exit,
    pub resumes: u32,
    pub pc: u64,
    pub regs: Vec<u64>,
    pub cycles: u64,
    pub insns: u64,
    pub tlb_stats: (u64, u64),
    pub l2_hits: u64,
    pub trace: Vec<(u64, u32, ExceptionLevel)>,
}

pub fn snapshot(m: &Machine, exit: Exit, resumes: u32) -> Snapshot {
    Snapshot {
        exit,
        resumes,
        pc: m.cpu.pc,
        regs: (0..31).map(|i| m.cpu.reg(i)).collect(),
        cycles: m.cpu.cycles,
        insns: m.cpu.insns,
        tlb_stats: m.tlb.stats(),
        l2_hits: m.tlb.l2_hit_count(),
        trace: m.trace.entries().map(|e| (e.pc, e.word, e.el)).collect(),
    }
}

/// Run until `svc #0` (program exit) or a non-SVC exception; `svc #k`
/// with `k != 0` is treated as a trap the host resumes from.
pub fn run_to_completion(m: &mut Machine) -> (Exit, u32) {
    let mut resumes = 0u32;
    loop {
        let exit = m.run(200_000);
        match exit {
            Exit::El2(ExceptionClass::Svc) => {
                if esr::esr_imm(m.sysreg(SysReg::ESR_EL2)) == 0 {
                    return (exit, resumes);
                }
                resumes += 1;
                let elr = m.sysreg(SysReg::ELR_EL2);
                m.enter(PState::user(), elr);
            }
            other => return (other, resumes),
        }
    }
}

/// A patch area of `slots` NOP words followed by `ret`, at `PATCH`.
pub fn patch_area(slots: usize) -> Vec<u8> {
    let mut a = Asm::new(PATCH);
    for _ in 0..slots {
        a.nop();
    }
    a.ret();
    a.bytes()
}

/// Candidate instruction words a self-modifying store may plant in a
/// patch slot. All are safe at EL0 and side-effect-bounded.
fn plantable(rng: &mut StdRng) -> u32 {
    match rng.random_range(0u32..4) {
        0 => NOP,
        1 => Insn::AddImm {
            rd: 0,
            rn: 0,
            imm12: rng.random_range(0u16..64),
            shift12: false,
            sub: false,
            set_flags: false,
        }
        .encode(),
        2 => Insn::Movz { rd: rng.random_range(2u8..8), imm16: rng.random_range(0u16..1000), hw: 0 }.encode(),
        _ => Insn::AddImm { rd: 1, rn: 1, imm12: 1, shift12: false, sub: true, set_flags: false }.encode(),
    }
}

/// Emit one seeded random program. Structure:
///
/// * prologue: base registers x19/x20 (data pages), x21 (patch area),
///   seed immediates in x0..x7;
/// * `blr` into the patch area (populates the decoded-block cache);
/// * `len` random body instructions: ALU, loads/stores, compares,
///   forward conditional branches, resumable traps, and stores of
///   instruction words into patch slots;
/// * `blr` into the patch area again (patched words must now execute);
/// * `svc #0`.
pub fn random_program(seed: u64, len: usize, slots: usize) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.mov_imm64(20, DATA + 0x1000);
    a.mov_imm64(21, PATCH);
    for r in 0..8u8 {
        a.mov_imm64(r, rng.raw_u64() & 0xffff_ffff);
    }
    a.mov_imm64(10, PATCH);
    a.blr(10);
    // A short counted loop so even store-heavy programs re-fetch some
    // code and give the decoded-block cache something to hit.
    a.mov_imm64(11, 64);
    let warm = a.label();
    a.bind(warm);
    a.add_imm(12, 12, 1);
    a.subs_imm(11, 11, 1);
    a.b_ne(warm);
    for _ in 0..len {
        match rng.random_range(0u32..100) {
            0..=39 => {
                // ALU on x0..x7.
                let (rd, rn, rm) = (rng.random_range(0u8..8), rng.random_range(0u8..8), rng.random_range(0u8..8));
                match rng.random_range(0u32..8) {
                    0 => a.add_reg(rd, rn, rm),
                    1 => a.sub_reg(rd, rn, rm),
                    2 => a.and_reg(rd, rn, rm),
                    3 => a.orr_reg(rd, rn, rm),
                    4 => a.eor_reg(rd, rn, rm),
                    5 => a.mul(rd, rn, rm),
                    6 => a.add_imm(rd, rn, rng.random_range(0u16..4096)),
                    _ => a.lsr_imm(rd, rn, rng.random_range(1u8..32)),
                };
            }
            40..=64 => {
                // Load/store within the mapped data pages.
                let base = if rng.random_bool() { 19 } else { 20 };
                let off = rng.random_range(0u64..512) * 8;
                let rt = rng.random_range(0u8..8);
                if rng.random_bool() {
                    a.str(rt, base, off);
                } else {
                    a.ldr(rt, base, off);
                }
            }
            65..=79 => {
                // Compare + short forward conditional skip.
                let (rn, imm) = (rng.random_range(0u8..8), rng.random_range(0u16..100));
                a.cmp_imm(rn, imm);
                let skip = a.label();
                if rng.random_bool() {
                    a.b_eq(skip);
                } else {
                    a.b_ne(skip);
                }
                for _ in 0..rng.random_range(1u32..4) {
                    let rd = rng.random_range(0u8..8);
                    a.add_imm(rd, rd, 1);
                }
                a.bind(skip);
            }
            80..=89 => {
                // Self-modifying store: plant (insn, NOP) into a patch slot.
                let slot = rng.random_range(0u64..(slots as u64 / 2)) * 2;
                let pair = (NOP as u64) << 32 | plantable(&mut rng) as u64;
                a.mov_imm64(9, pair);
                a.str(9, 21, slot * 4);
            }
            _ => {
                // Resumable trap.
                a.svc(rng.random_range(1u16..100));
            }
        }
    }
    a.mov_imm64(10, PATCH);
    a.blr(10);
    a.svc(0);
    let bytes = a.bytes();
    assert!(bytes.len() <= 3 * 0x1000, "random body overflowed the code pages");
    (bytes, patch_area(slots))
}

// ----------------------------------------------------------------------
// Scenarios.
// ----------------------------------------------------------------------

/// One chaos scenario: a seeded program generator plus the harness that
/// drives it and knows what its clean outcome looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Bare-machine randomized program (ALU/loads/branches/traps).
    Randomized,
    /// Randomized self-modifying program followed by an EL1 phase that
    /// issues interpreted TLB maintenance (exercises the TLBI sites).
    SelfModifying,
    /// The LightZone composite: four TTBR domains, gate switches, a W^X
    /// JIT cycle, lazy stage-2, and a syscall loop (exercises the VE
    /// trap, stage-2, gate, and sanitizer sites).
    DomainSwitching,
    /// The SMP clone/futex/munmap workload on a multi-core machine
    /// (exercises the shootdown and scheduler-preemption sites).
    Smp,
}

pub const ALL_SCENARIOS: [Scenario; 4] =
    [Scenario::Randomized, Scenario::SelfModifying, Scenario::DomainSwitching, Scenario::Smp];

impl Scenario {
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Randomized => "randomized",
            Scenario::SelfModifying => "self_modifying",
            Scenario::DomainSwitching => "domain_switching",
            Scenario::Smp => "smp",
        }
    }
}

/// Everything the soak driver needs to know about one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Cycle-independent digest of the architecturally visible outcome.
    /// Chaos may change cycle counts (degraded throughput is allowed by
    /// the fail-closed contract) but never this digest — unless the run
    /// ended in a precise guest-side kill, reported via `killed`.
    pub digest: String,
    /// The run ended in a guest-side kill or fault (allowed under chaos).
    pub killed: bool,
    /// Faults injected / handled-and-contained by the hooks, and VE
    /// kills, as counted by the machine's chaos state.
    pub injected: u64,
    pub contained: u64,
    pub ve_kills: u64,
    /// The exact `(seq, site)` schedule that fired (for shrinking).
    pub fired: Vec<(u64, FaultSite)>,
    /// Full metrics journal as JSON (byte-compared for determinism).
    pub journal_json: String,
    /// Events evicted from the bounded journal during the run.
    pub journal_dropped: u64,
    /// Invariant violations found after the run (must stay empty).
    pub violations: Vec<String>,
}

fn chaos_outcome(m: &Machine, digest: String, killed: bool, violations: Vec<String>) -> ScenarioRun {
    ScenarioRun {
        digest,
        killed,
        injected: m.chaos.faults_injected,
        contained: m.chaos.faults_contained,
        ve_kills: m.chaos.ve_kills,
        fired: m.chaos.fired.clone(),
        journal_json: m.journal.dump_json(),
        journal_dropped: m.journal.dropped(),
        violations,
    }
}

/// Run one scenario under an optional fault plan and check invariants.
pub fn run_scenario(scenario: Scenario, seed: u64, plan: Option<&FaultPlan>) -> ScenarioRun {
    match scenario {
        Scenario::Randomized => run_randomized(seed, plan),
        Scenario::SelfModifying => run_self_modifying(seed, plan),
        Scenario::DomainSwitching => run_domain_switching(seed, plan),
        Scenario::Smp => run_smp(seed, plan),
    }
}

fn bare_digest(m: &Machine, exit: Exit, resumes: u32, extra: &str) -> String {
    let regs: Vec<u64> = (0..31).map(|i| m.cpu.reg(i)).collect();
    format!("{exit:?}|r{resumes}|pc{:#x}|{regs:x?}|{extra}", m.cpu.pc)
}

fn run_randomized(seed: u64, plan: Option<&FaultPlan>) -> ScenarioRun {
    let (code, patch) = random_program(seed, 300, 64);
    let mut m = build_machine(&code, &patch, lz_machine::default_accel());
    m.set_metrics(true);
    if let Some(p) = plan {
        m.chaos.install(p.clone());
    }
    let (exit, resumes) = run_to_completion(&mut m);
    let digest = bare_digest(&m, exit, resumes, "");
    let killed = exit != Exit::El2(ExceptionClass::Svc);
    let violations = ChaosInvariants::check_machine(&m);
    chaos_outcome(&m, digest, killed, violations)
}

fn run_self_modifying(seed: u64, plan: Option<&FaultPlan>) -> ScenarioRun {
    let (code, patch) = random_program(seed ^ 0x5e1f_0d1f_5e1f_0d1f, 400, 64);
    let mut m = build_machine(&code, &patch, lz_machine::default_accel());
    m.set_metrics(true);
    // EL1 stub: interpreted TLB maintenance after the self-modifying
    // phase, ending in an `hvc` marker (SVC/BRK from EL1 stay at EL1;
    // only HVC exits to the host). The TLBI instructions are the
    // modelled events the TlbiLost/TlbiSpurious sites hang off.
    let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
    let stub_pa = m.mem.alloc_frame();
    let el1_rx = S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: false };
    s1_map_page(&mut m.mem, root, EL1_STUB, stub_pa, el1_rx);
    let mut a = Asm::new(EL1_STUB);
    for _ in 0..8 {
        a.raw(TLBI_VMALLE1);
        a.nop();
    }
    a.hvc(0x7f);
    m.mem.write_bytes(stub_pa, &a.bytes());
    if let Some(p) = plan {
        m.chaos.install(p.clone());
    }
    let (exit, resumes) = run_to_completion(&mut m);
    // Drop TGE so the machine is a genuine EL1&0 regime for the stub
    // (under TGE the interpreted TLBIs would be host-side concepts).
    m.set_sysreg(SysReg::HCR_EL2, hcr::E2H);
    let el1 = PState { el: ExceptionLevel::El1, pan: false, irq_masked: false, nzcv: Default::default() };
    m.enter(el1, EL1_STUB);
    let exit2 = m.run(64);
    let digest = bare_digest(&m, exit, resumes, &format!("{exit2:?}"));
    let killed = exit != Exit::El2(ExceptionClass::Svc) || exit2 != Exit::El2(ExceptionClass::Hvc);
    let violations = ChaosInvariants::check_machine(&m);
    chaos_outcome(&m, digest, killed, violations)
}

fn run_domain_switching(seed: u64, plan: Option<&FaultPlan>) -> ScenarioRun {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
    use lightzone::module::AblationConfig;
    use lightzone::{LightZone, SECURITY_KILL};
    const ARENA: u64 = 0x5000_0000;
    const JIT: u64 = 0x61_0000;

    let yields = 8 + (seed % 9);
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, 8 * 4096, lz_kernel::VmProt::RW);
    let mut jit_seed = Asm::new(JIT);
    jit_seed.nop();
    jit_seed.ret();
    b.with_segment(JIT, jit_seed.bytes(), lz_kernel::VmProt::RWX);
    b.asm.lz_enter(true, SAN_TTBR);
    // Four TTBR domains over the arena, one call gate per switch site.
    for d in 0..4u64 {
        b.asm.lz_alloc();
        b.asm.lz_prot_imm(ARENA + d * 4096, 4096, d + 1, RW);
    }
    for round in 0..8u64 {
        b.asm.lz_map_gate_pgt_imm(round % 4 + 1, round);
    }
    for round in 0..8u64 {
        let d = round % 4;
        b.lz_switch_to_ttbr_gate(round as u16);
        b.asm.mov_imm64(1, ARENA + d * 4096);
        b.asm.ldr(2, 1, 0);
        b.asm.add_imm(2, 2, 1);
        b.asm.str(2, 1, 0);
    }
    // W^X cycle on the JIT page: execute (scan), rewrite through the
    // writable flip (break-before-make), execute again (rescan).
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
    b.asm.mov_imm64(1, JIT);
    b.asm.mov_imm64(2, Insn::Movz { rd: 9, imm16: 7, hw: 0 }.encode() as u64);
    b.asm.emit(Insn::StrImm { rt: 2, rn: 1, offset: 0, size: lz_arch::insn::MemSize::W });
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
    b.asm.mov_imm64(23, yields);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
    let top = b.asm.label();
    b.asm.bind(top);
    b.asm.svc(0);
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(top);
    b.asm.exit_imm(0);
    let prog = b.build();

    // Lazy stage-2 so the stage-2 fault path (and its chaos site) runs.
    let ablation = AblationConfig { eager_stage2: false, ..AblationConfig::default() };
    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, ablation);
    lz.kernel.machine.set_metrics(true);
    if let Some(p) = plan {
        lz.kernel.machine.chaos.install(p.clone());
    }
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let mut violations = Vec::new();
    let code = match lz.run(50_000_000) {
        lz_kernel::Event::Exited(code) => code,
        other => {
            violations.push(format!("domain_switching run ended in {other:?} instead of an exit"));
            i64::MIN
        }
    };
    let digest = format!("exit:{code}");
    let killed = code == SECURITY_KILL || code == -11;
    violations.extend(ChaosInvariants::check_lightzone(&lz, pid));
    chaos_outcome(&lz.kernel.machine, digest, killed, violations)
}

fn run_smp(seed: u64, plan: Option<&FaultPlan>) -> ScenarioRun {
    use lz_kernel::syscall::futex;
    use lz_kernel::{Kernel, Program, SmpConfig, Sysno};
    const SHARED: u64 = 0x50_0000;
    const ARENA: u64 = 0x5100_0000;
    const STACKS: u64 = 0x7000_0000;
    const WORKERS: u64 = 3;

    let iters = 200 + (seed % 4) as u16 * 100;
    let cores = if seed & 0x10 != 0 { 4 } else { 2 };

    // main: clone WORKERS workers, futex-join each, exit with the slot
    // sum. worker i: pound its own arena page, munmap it (IPI shootdown
    // traffic), post slot i, futex-wake.
    let mut a = Asm::new(CODE);
    let worker = a.label();
    for i in 0..WORKERS {
        a.adr(0, worker);
        a.mov_imm64(1, STACKS + (i + 1) * 0x4000);
        a.mov_imm64(2, i);
        a.mov_imm64(8, Sysno::Clone.nr());
        a.svc(0);
    }
    for i in 0..WORKERS {
        a.mov_imm64(11, SHARED + i * 8);
        let wait = a.label();
        let done = a.label();
        a.bind(wait);
        a.ldr(4, 11, 0);
        a.cbnz(4, done);
        a.mov_reg(0, 11);
        a.mov_imm64(1, futex::WAIT);
        a.movz(2, 0, 0);
        a.mov_imm64(8, Sysno::Futex.nr());
        a.svc(0);
        a.b(wait);
        a.bind(done);
    }
    a.movz(3, 0, 0);
    for i in 0..WORKERS {
        a.mov_imm64(11, SHARED + i * 8);
        a.ldr(4, 11, 0);
        a.add_reg(3, 3, 4);
    }
    a.mov_reg(0, 3);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.mov_reg(19, 0); // worker index
    a.mov_imm64(9, ARENA);
    a.lsl_imm(10, 19, 12);
    a.add_reg(9, 9, 10);
    a.movz(1, iters, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(2, 9, 0);
    a.add_imm(2, 2, 1);
    a.str(2, 9, 0);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, top);
    a.mov_reg(0, 9);
    a.mov_imm64(1, 4096);
    a.mov_imm64(8, Sysno::Munmap.nr());
    a.svc(0);
    a.mov_imm64(12, SHARED);
    a.lsl_imm(11, 19, 3);
    a.add_reg(11, 12, 11);
    a.movz(13, 1, 0);
    a.str(13, 11, 0);
    a.mov_reg(0, 11);
    a.mov_imm64(1, futex::WAKE);
    a.movz(2, 1, 0);
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    a.movz(0, 0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    let prog = Program::from_code(CODE, a.bytes())
        .with_anon_segment(SHARED, 4096, lz_kernel::VmProt::RW)
        .with_anon_segment(ARENA, WORKERS * 4096, lz_kernel::VmProt::RW)
        .with_anon_segment(STACKS, (WORKERS + 1) * 0x4000, lz_kernel::VmProt::RW);

    let mut k = Kernel::new_host(Platform::CortexA55);
    k.machine.set_metrics(true);
    if let Some(p) = plan {
        k.machine.chaos.install(p.clone());
    }
    let pid = k.spawn(&prog);
    let run = k.run_smp(SmpConfig { cores, quantum: 64, seed: seed ^ 0x5eed }, 10_000_000);
    // The process exit code is the *last* thread's code, which depends
    // on legal thread-completion order (preemption may reorder it), so
    // it cannot be part of the containment digest. The posted futex
    // slots are: every worker must have written its slot exactly once,
    // whatever order the threads finished in.
    let slot_pa = k.process(pid).mm.page_at(SHARED);
    let slots: Vec<u64> =
        (0..WORKERS).map(|i| slot_pa.and_then(|pa| k.machine.mem.read_u64(pa + i * 8)).unwrap_or(u64::MAX)).collect();
    let digest = format!("slots:{slots:?}|exited:{}|stalled:{}", run.exited.len(), run.stalled);
    // The SMP sites (preemption, shootdown drop/dup/delay) are all
    // invisible-after-containment: the workload must still complete with
    // the same exit codes, so a chaos run never reports `killed`.
    let killed = false;
    let mut violations = Vec::new();
    for c in 0..cores {
        k.machine.switch_core(c);
        for v in ChaosInvariants::check_machine(&k.machine) {
            violations.push(format!("core {c}: {v}"));
        }
    }
    chaos_outcome(&k.machine, digest, killed, violations)
}
