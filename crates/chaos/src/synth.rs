//! Seeded attack synthesis over every defense ablation (DESIGN.md §12).
//!
//! The synthesizer composes the primitives of [`crate::attacks`] into
//! candidate exploit programs across six families — direct access,
//! gate abuse, sanitizer/W^X, cross-core stale alias, fake-phys layout
//! probes, and kernel-context abuse — then runs every candidate under
//! every [`Defense`] polarity on 1- and 4-core machines.
//!
//! The oracle is *positive evidence of an isolation break*, never "the
//! program exited cleanly": a direct-access or gate-abuse attack
//! escapes only by exiting with a victim-domain secret planted before
//! protection, a sanitizer attack only by exiting with a marker that
//! sits *behind* a forbidden instruction in the injected payload, a
//! layout probe only by exiting with the *real* (not fake) physical
//! root of a domain table, and a stale-alias attack only when a remote
//! core's post-flip probe executes the attacker's freshly written
//! payload. Decoy steps (legal loads/stores in the attacker's own
//! scratch page) therefore cannot masquerade as escapes, which keeps
//! the ddmin shrink from reducing an exploit to a benign program.
//!
//! The harness asserts the two-sided contract: with all defenses on,
//! **zero** candidates escape; with a single security-relevant defense
//! ablated (`remote_shootdown`, `gate_check_phase`, `randomize_phys`),
//! at least [`ESCAPE_FLOOR`] *distinct* attacks escape — proving the
//! corpus has teeth against that exact mechanism, not vacuously
//! passing. The purely cost-model ablations (`eager_stage2`,
//! `retain_hcr_vttbr`, `shared_pt_regs`, `deferred_sysreg_page`) do
//! not weaken the isolation boundary, so escapes under them are also
//! asserted to be zero; their load-bearing-ness is proven by the
//! cycle-delta tests in `tests/ablation.rs` instead.
//!
//! Every escaping `(attack, defense)` pair is shrunk with
//! [`crate::soak::ddmin_set`] over the candidate's step list to a
//! 1-minimal exploit. The whole run is a pure function of
//! [`SynthConfig`], so [`AttackCorpusReport::to_json`] is
//! byte-deterministic — the CI gate re-runs and compares.

use crate::attacks::{
    self, forged_gate_call, inert_sensitive_payload, kernel_page_exec, kernel_page_store, load_ttbrtab_entry,
    mid_gate_jump, movz_word, pan_base_with_secrets, ttbr_base_with_secrets, wx_views, ARENA, CODE, JIT, WX_GATE_EXEC,
    WX_GATE_HOME, WX_GATE_REEXEC, WX_GATE_WRITER,
};
use crate::soak::ddmin_set;
use lightzone::api::{LzAsm, LzProgramBuilder, SAN_TTBR};
use lightzone::gate::layout;
use lightzone::sanitizer::WxState;
use lightzone::{AblationConfig, Defense, LightZone, LzProgram, ALL_DEFENSES};
use lz_arch::insn::{Insn, MemSize};
use lz_arch::pstate::PState;
use lz_arch::sysreg::{ttbr, SysReg};
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::{Event, VmProt};
use lz_machine::fields;
use lz_machine::json::{Json, Object};
use lz_machine::rng::splitmix64;
use std::collections::BTreeSet;

/// Scratch page for decoy steps (legal attacker-owned memory).
const DECOY: u64 = 0x70_0000;
/// Exit marker of the sanitizer family: only reachable by executing the
/// injected payload *past* its forbidden first word.
const WX_MARKER: u16 = 0xA110;
/// Exit marker of the kernel-context family's epilogue.
const KERNEL_MARKER: i64 = 0x6A11;
/// Distinct escaping attacks required per ablated security defense.
pub const ESCAPE_FLOOR: usize = 2;

/// The defenses whose ablation actually weakens the isolation boundary
/// (the others are cost-model knobs — see the module docs).
pub const SECURITY_DEFENSES: [Defense; 3] = [Defense::RemoteShootdown, Defense::GateCheckPhase, Defense::RandomizePhys];

// ---------------------------------------------------------------------
// Attack families and steps
// ---------------------------------------------------------------------

/// The synthesized attack families (DESIGN.md §12 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    DirectAccess,
    GateAbuse,
    SanitizerWx,
    StaleAlias,
    PhysProbe,
    KernelContext,
}

pub const ALL_FAMILIES: [Family; 6] = [
    Family::DirectAccess,
    Family::GateAbuse,
    Family::SanitizerWx,
    Family::StaleAlias,
    Family::PhysProbe,
    Family::KernelContext,
];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::DirectAccess => "direct_access",
            Family::GateAbuse => "gate_abuse",
            Family::SanitizerWx => "sanitizer_wx",
            Family::StaleAlias => "stale_alias",
            Family::PhysProbe => "phys_probe",
            Family::KernelContext => "kernel_context",
        }
    }
}

/// One composable attack step. The ddmin shrink operates on the step
/// list; the family prelude and the exit epilogue are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Legal store+load in the attacker's own scratch page (x5/x6).
    Decoy { val: u16 },
    /// EL1 load from a PAN-protected domain page into x0.
    PanLoad { domain: u64 },
    /// EL1 store into a PAN-protected domain page, then read back.
    PanStore { domain: u64, val: u16 },
    /// Store from pgt 0 into a page owned exclusively by another table.
    TtbrStore { domain: u64, val: u16 },
    /// `blr` to a gate's entry point with a forged return address.
    ForgedGateCall { gate: u16 },
    /// Jump onto the gate's phase-① `msr` with attacker-chosen x13.
    MidGateJump { gate: u16 },
    /// Jump straight into the gate's check phase ②.
    CheckPhaseJump { gate: u16 },
    /// Call a gate VA that was never registered (unmapped stub).
    UnregisteredGateCall { gate: u16 },
    /// Execute the JIT page through the executor view (clean scan).
    WxExecClean,
    /// Store the sensitive payload through the RW writer view; with
    /// `read_fault_first` the flip is provoked by a *read* fault.
    WxWritePayload { read_fault_first: bool },
    /// Re-execute the JIT page through the second executor gate.
    WxReexec,
    /// Branch to a statically injected sensitive payload.
    ExecInjected,
    /// Read `TTBRTab[pgt]` into x0 (layout probe).
    ProbeTtbrTab { pgt: u64 },
    /// Store to a TTBR1-mapped kernel-context page.
    KernelStore { va: u64 },
    /// Branch to a TTBR1-mapped kernel data page.
    KernelExec { va: u64 },
    /// Store the stale-alias payload through the writer view.
    StaleFlip,
}

/// One candidate exploit: a family prelude, a shrinkable step list, and
/// the family's escape oracle parameters.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub family: Family,
    pub index: usize,
    pub steps: Vec<Step>,
    /// Exit codes that prove the break (exit-oracle families).
    escape_exits: Vec<i64>,
    /// Gate-abuse epilogue target domain (its arena page holds the
    /// secret the epilogue tries to read).
    victim_domain: u64,
    /// Stale-alias payload immediate (`movz x17, #imm`).
    payload_imm: u16,
    /// Per-candidate secret derivation seed.
    secret_seed: u64,
}

impl Candidate {
    pub fn id(&self) -> String {
        format!("{}/{}", self.family.name(), self.index)
    }

    fn secret(&self, domain: u64) -> u64 {
        0x5EC0_0000 | (splitmix64(self.secret_seed ^ domain) & 0xFFFF)
    }

    fn all_steps(&self) -> BTreeSet<usize> {
        (0..self.steps.len()).collect()
    }
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// Sweep configuration. Everything downstream — candidate parameters,
/// run matrix, report — is a pure function of this value.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    pub seed: u64,
    pub platform: Platform,
    pub cores: Vec<usize>,
    pub pan_domains: u64,
    pub ttbr_domains: u64,
    /// ddmin-shrink escaping attacks (the expensive part).
    pub shrink: bool,
}

impl SynthConfig {
    /// The release matrix (`repro attacks`): 1- and 4-core, on the
    /// process-default engine (`LZ_ACCEL`; the differential suite proves
    /// both engines equivalent).
    pub fn full(seed: u64) -> Self {
        SynthConfig {
            seed,
            platform: Platform::CortexA55,
            cores: vec![1, 4],
            pan_domains: 8,
            ttbr_domains: 6,
            shrink: true,
        }
    }
}

/// Generate the deterministic candidate corpus for `cfg`.
pub fn generate(cfg: &SynthConfig) -> Vec<Candidate> {
    let mut out = Vec::new();
    let d = |i: u64, m: u64| splitmix64(cfg.seed ^ (i << 12)) % m;
    let v = |i: u64| 0x4000 | (splitmix64(cfg.seed ^ (i << 20)) & 0xFFF) as u16;
    let mut push = |family: Family,
                    index: usize,
                    steps: Vec<Step>,
                    escape_exits: Vec<i64>,
                    victim_domain: u64,
                    payload_imm: u16| {
        out.push(Candidate {
            family,
            index,
            steps,
            escape_exits,
            victim_domain,
            payload_imm,
            secret_seed: splitmix64(cfg.seed ^ ((family as u64) << 32) ^ index as u64),
        });
    };

    // direct_access: loads/stores across a PAN or TTBR domain boundary.
    let pd0 = d(0, cfg.pan_domains);
    let pd1 = d(1, cfg.pan_domains);
    let td2 = d(2, cfg.ttbr_domains);
    let sec = |seed: u64, dom: u64| (0x5EC0_0000 | (splitmix64(seed ^ dom) & 0xFFFF)) as i64;
    let da_seed = |i: usize| splitmix64(cfg.seed ^ ((Family::DirectAccess as u64) << 32) ^ i as u64);
    push(
        Family::DirectAccess,
        0,
        vec![Step::Decoy { val: v(0) }, Step::PanLoad { domain: pd0 }],
        vec![sec(da_seed(0), pd0)],
        pd0,
        0,
    );
    push(
        Family::DirectAccess,
        1,
        vec![Step::PanStore { domain: pd1, val: v(1) }, Step::Decoy { val: v(2) }],
        vec![v(1) as i64],
        pd1,
        0,
    );
    push(
        Family::DirectAccess,
        2,
        vec![Step::Decoy { val: v(3) }, Step::TtbrStore { domain: td2, val: v(4) }],
        vec![v(4) as i64],
        td2,
        0,
    );

    // gate_abuse: forged calls and mid-gate jumps. Gate g is wired to
    // pgt g+1 by the shared ttbr base, so the victim domain is the gate
    // index itself.
    let ga_seed = |i: usize| splitmix64(cfg.seed ^ ((Family::GateAbuse as u64) << 32) ^ i as u64);
    let g0 = d(10, cfg.ttbr_domains) as u16;
    let g1 = d(11, cfg.ttbr_domains) as u16;
    let g2 = d(12, cfg.ttbr_domains) as u16;
    push(
        Family::GateAbuse,
        0,
        vec![Step::Decoy { val: v(5) }, Step::ForgedGateCall { gate: g0 }],
        vec![sec(ga_seed(0), g0 as u64)],
        g0 as u64,
        0,
    );
    push(
        Family::GateAbuse,
        1,
        vec![Step::Decoy { val: v(6) }, Step::Decoy { val: v(7) }, Step::MidGateJump { gate: g1 }],
        vec![sec(ga_seed(1), g1 as u64)],
        g1 as u64,
        0,
    );
    push(Family::GateAbuse, 2, vec![Step::CheckPhaseJump { gate: g2 }], vec![sec(ga_seed(2), g2 as u64)], g2 as u64, 0);
    push(
        Family::GateAbuse,
        3,
        vec![Step::UnregisteredGateCall { gate: cfg.ttbr_domains as u16 + 5 }],
        vec![sec(ga_seed(3), g2 as u64)],
        g2 as u64,
        0,
    );

    // sanitizer_wx: double-view payload smuggling and static injection.
    push(
        Family::SanitizerWx,
        0,
        vec![Step::WxExecClean, Step::WxWritePayload { read_fault_first: false }, Step::WxReexec],
        vec![WX_MARKER as i64],
        0,
        0,
    );
    push(
        Family::SanitizerWx,
        1,
        vec![Step::WxExecClean, Step::WxWritePayload { read_fault_first: true }, Step::WxReexec],
        vec![WX_MARKER as i64],
        0,
        0,
    );
    push(Family::SanitizerWx, 2, vec![Step::Decoy { val: v(8) }, Step::ExecInjected], vec![WX_MARKER as i64], 0, 0);

    // stale_alias: break-before-make against a warmed remote TLB.
    for i in 0..3usize {
        push(
            Family::StaleAlias,
            i,
            vec![Step::WxExecClean, Step::StaleFlip],
            vec![],
            0,
            0xBE00 | (splitmix64(cfg.seed ^ i as u64) & 0xFF) as u16,
        );
    }

    // phys_probe: TTBRTab reads hunting real table roots.
    push(Family::PhysProbe, 0, vec![Step::Decoy { val: v(9) }, Step::ProbeTtbrTab { pgt: 1 }], vec![], 0, 0);
    push(Family::PhysProbe, 1, vec![Step::ProbeTtbrTab { pgt: 2 }, Step::Decoy { val: v(10) }], vec![], 0, 0);
    push(Family::PhysProbe, 2, vec![Step::ProbeTtbrTab { pgt: 1 + d(13, cfg.ttbr_domains - 1) }], vec![], 0, 0);

    // kernel_context: Garmr-class writes/jumps into the TTBR1-mapped
    // stub, tables, and gate stubs.
    push(Family::KernelContext, 0, vec![Step::KernelStore { va: layout::STUB_VA }], vec![KERNEL_MARKER], 0, 0);
    push(Family::KernelContext, 1, vec![Step::KernelStore { va: layout::TTBRTAB_VA }], vec![KERNEL_MARKER], 0, 0);
    push(Family::KernelContext, 2, vec![Step::KernelExec { va: layout::GATETAB_VA }], vec![KERNEL_MARKER], 0, 0);
    push(Family::KernelContext, 3, vec![Step::KernelStore { va: layout::gate_va(0) }], vec![KERNEL_MARKER], 0, 0);

    out
}

// ---------------------------------------------------------------------
// Materializer
// ---------------------------------------------------------------------

fn emit_exit_x0(b: &mut LzProgramBuilder) {
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);
}

/// Build the concrete program for `(candidate, step subset)`.
fn materialize(c: &Candidate, subset: &BTreeSet<usize>, cfg: &SynthConfig) -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(DECOY, PAGE_SIZE, VmProt::RW);

    // Family prelude.
    match c.family {
        Family::DirectAccess => {
            let uses_pan = c.steps.iter().any(|s| matches!(s, Step::PanLoad { .. } | Step::PanStore { .. }));
            if uses_pan {
                pan_base_with_secrets(&mut b, cfg.pan_domains, |d| c.secret(d));
            } else {
                ttbr_base_with_secrets(&mut b, cfg.ttbr_domains, |d| c.secret(d));
            }
            b.asm.mov_imm64(0, 1); // neutral exit value for decoy-only subsets
        }
        Family::GateAbuse => {
            // Register the attack gates' designated entries (the program
            // base — never an actual call site) so their stubs exist.
            let mut gates = BTreeSet::new();
            for s in &c.steps {
                match s {
                    Step::ForgedGateCall { gate } | Step::MidGateJump { gate } | Step::CheckPhaseJump { gate } => {
                        gates.insert(*gate);
                    }
                    _ => {}
                }
            }
            for g in gates {
                b.register_gate_entry(g, CODE);
            }
            ttbr_base_with_secrets(&mut b, cfg.ttbr_domains, |d| c.secret(d));
        }
        Family::SanitizerWx => {
            let injected = c.steps.iter().any(|s| matches!(s, Step::ExecInjected));
            if injected {
                let mut body = Vec::new();
                body.extend_from_slice(&inert_sensitive_payload().to_le_bytes());
                body.extend_from_slice(&movz_word(0, WX_MARKER).to_le_bytes());
                body.extend_from_slice(&ret_word().to_le_bytes());
                b.with_segment(JIT, body, VmProt::RX);
                b.asm.lz_enter(true, SAN_TTBR);
                b.asm.mov_imm64(0, 1);
            } else {
                // Clean 3-word seed: `movz x0, #0x11; nop; ret`.
                let mut seed = lz_arch::asm::Asm::new(JIT);
                seed.movz(0, 0x11, 0);
                seed.nop();
                seed.ret();
                wx_views(&mut b, &seed.bytes());
                b.asm.mov_imm64(0, 1);
            }
        }
        Family::StaleAlias => {
            let mut seed = lz_arch::asm::Asm::new(JIT);
            seed.movz(17, 0x1111, 0);
            seed.ret();
            wx_views(&mut b, &seed.bytes());
        }
        Family::PhysProbe => {
            ttbr_base_with_secrets(&mut b, cfg.ttbr_domains, |d| c.secret(d));
            // x0 poisoned with an address that can never be a table
            // root, so probe-free subsets cannot fake a leak.
            b.asm.mov_imm64(0, 0xDEAD_0000_0001);
        }
        Family::KernelContext => {
            ttbr_base_with_secrets(&mut b, 2, |d| c.secret(d));
        }
    }

    // Steps (the shrinkable part).
    for (i, step) in c.steps.iter().enumerate() {
        if !subset.contains(&i) {
            continue;
        }
        emit_step(&mut b, step, c);
    }

    // Family epilogue.
    match c.family {
        Family::GateAbuse => {
            // Read the victim domain's secret from wherever we ended up.
            b.asm.mov_imm64(7, ARENA + c.victim_domain * PAGE_SIZE);
            b.asm.ldr(0, 7, 0);
            emit_exit_x0(&mut b);
        }
        Family::KernelContext => {
            b.asm.mov_imm64(0, KERNEL_MARKER as u64);
            emit_exit_x0(&mut b);
        }
        Family::StaleAlias => {
            b.asm.exit_imm(0);
        }
        _ => emit_exit_x0(&mut b),
    }
    b.build()
}

fn ret_word() -> u32 {
    let mut a = lz_arch::asm::Asm::new(0);
    a.ret();
    let bytes = a.bytes();
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn emit_step(b: &mut LzProgramBuilder, step: &Step, c: &Candidate) {
    match *step {
        Step::Decoy { val } => {
            b.asm.mov_imm64(5, DECOY);
            b.asm.mov_imm64(6, val as u64);
            b.asm.str(6, 5, 0);
            b.asm.ldr(6, 5, 0);
        }
        Step::PanLoad { domain } => {
            b.asm.mov_imm64(7, ARENA + domain * PAGE_SIZE);
            b.asm.ldr(0, 7, 0);
        }
        Step::PanStore { domain, val } | Step::TtbrStore { domain, val } => {
            b.asm.mov_imm64(7, ARENA + domain * PAGE_SIZE);
            b.asm.mov_imm64(6, val as u64);
            b.asm.str(6, 7, 0);
            b.asm.ldr(0, 7, 0);
        }
        Step::ForgedGateCall { gate } => forged_gate_call(&mut b.asm, gate),
        Step::MidGateJump { gate } => mid_gate_jump(&mut b.asm, gate, gate as u64 + 1),
        Step::CheckPhaseJump { gate } => attacks::check_phase_jump(&mut b.asm, gate),
        Step::UnregisteredGateCall { gate } => forged_gate_call(&mut b.asm, gate),
        Step::WxExecClean => {
            b.lz_switch_to_ttbr_gate(WX_GATE_EXEC);
            b.asm.mov_imm64(17, JIT);
            b.asm.blr(17);
            b.lz_switch_to_ttbr_gate(WX_GATE_HOME);
        }
        Step::WxWritePayload { read_fault_first } => {
            b.lz_switch_to_ttbr_gate(WX_GATE_WRITER);
            b.asm.mov_imm64(1, JIT);
            if read_fault_first {
                b.asm.ldr(2, 1, 0);
            }
            b.asm.mov_imm64(2, inert_sensitive_payload() as u64);
            b.asm.emit(Insn::StrImm { rt: 2, rn: 1, offset: 0, size: MemSize::W });
            b.asm.mov_imm64(2, movz_word(0, WX_MARKER) as u64);
            b.asm.emit(Insn::StrImm { rt: 2, rn: 1, offset: 4, size: MemSize::W });
        }
        Step::WxReexec => {
            b.lz_switch_to_ttbr_gate(WX_GATE_REEXEC);
            b.asm.mov_imm64(17, JIT);
            b.asm.blr(17);
        }
        Step::ExecInjected => {
            b.asm.mov_imm64(16, JIT);
            b.asm.blr(16);
        }
        Step::ProbeTtbrTab { pgt } => load_ttbrtab_entry(&mut b.asm, 0, pgt),
        Step::KernelStore { va } => kernel_page_store(&mut b.asm, va, 0x4242_4242),
        Step::KernelExec { va } => kernel_page_exec(&mut b.asm, va),
        Step::StaleFlip => {
            b.lz_switch_to_ttbr_gate(WX_GATE_WRITER);
            b.asm.mov_imm64(1, JIT);
            b.asm.mov_imm64(2, movz_word(17, c.payload_imm) as u64);
            b.asm.emit(Insn::StrImm { rt: 2, rn: 1, offset: 0, size: MemSize::W });
        }
    }
}

// ---------------------------------------------------------------------
// Runners and oracles
// ---------------------------------------------------------------------

fn run_bounded(lz: &mut LightZone) -> Option<i64> {
    match lz.run(20_000_000) {
        Event::Exited(code) => Some(code),
        _ => None,
    }
}

/// Step by small quanta until `cond` holds. Returns false (defeated)
/// if the program exits, faults, or stalls first — shrunk candidates
/// routinely never reach the condition and must not panic.
fn try_step_until(lz: &mut LightZone, cond: impl Fn(&LightZone) -> bool) -> bool {
    for _ in 0..200_000 {
        if cond(lz) {
            return true;
        }
        match lz.run(2) {
            Event::Limit => {}
            _ => return false,
        }
    }
    false
}

/// Execute the JIT page on `core` through the executor view; returns
/// x17 (0 = the fetch faulted, the seed/payload marker otherwise).
fn probe_jit_on_core(m: &mut lz_machine::Machine, core: usize, executor_ttbr0: u64) -> u64 {
    let home = 0;
    m.switch_core(core);
    m.set_sysreg(SysReg::TTBR0_EL1, executor_ttbr0);
    m.cpu.x[17] = 0;
    m.cpu.x[30] = 0;
    m.enter(PState::reset(), JIT);
    let _ = m.run(4);
    let hit = m.cpu.x[17];
    m.switch_core(home);
    hit
}

/// Exit-code oracle families: run to completion, escaped iff the exit
/// code is one of the candidate's break-evidence values.
fn run_exit_oracle(
    prog: &LzProgram,
    c: &Candidate,
    ablation: AblationConfig,
    cores: usize,
    platform: Platform,
) -> bool {
    let mut lz = LightZone::with_ablation(platform, false, ablation);
    let pid = lz.spawn(prog);
    lz.enter_process(pid);
    if cores > 1 {
        lz.kernel.machine.configure_smp(cores);
    }
    match run_bounded(&mut lz) {
        Some(code) => c.escape_exits.contains(&code),
        None => false,
    }
}

/// Layout-probe oracle: escaped iff the exit value's table-root field
/// names a *real* physical root of one of the process's domain tables
/// (captured while the process is live — randomized fake roots are
/// sequential low addresses that can never collide with real frames).
fn run_phys_oracle(prog: &LzProgram, ablation: AblationConfig, cores: usize, platform: Platform) -> bool {
    let mut lz = LightZone::with_ablation(platform, false, ablation);
    let pid = lz.spawn(prog);
    lz.enter_process(pid);
    if cores > 1 {
        lz.kernel.machine.configure_smp(cores);
    }
    // The tiny quantum matters: `LightZone::run` resolves syscalls
    // internally with a fresh budget each time, so a large quantum
    // would run the whole program to exit in one call and the mid-run
    // capture of the (randomization-independent) real roots below
    // would never observe the live tables.
    let mut roots: BTreeSet<u64> = BTreeSet::new();
    let mut exit = None;
    for _ in 0..200_000 {
        if let Some(p) = lz.module.proc(pid) {
            for t in p.tables.iter().flatten() {
                roots.insert(t.root_real);
            }
        }
        match lz.run(2) {
            Event::Limit => {}
            Event::Exited(code) => {
                exit = Some(code);
                break;
            }
            _ => break,
        }
    }
    match exit {
        Some(code) => roots.contains(&ttbr::baddr(code as u64)),
        None => false,
    }
}

/// Stale-alias oracle: host-driven break-before-make race. A probe core
/// re-executes the JIT page after the W^X flip; escaped iff it ran the
/// attacker's payload (possible only through a stale TLB entry).
fn run_stale_oracle(
    prog: &LzProgram,
    c: &Candidate,
    ablation: AblationConfig,
    cores: usize,
    platform: Platform,
) -> bool {
    let mut lz = LightZone::with_ablation(platform, false, ablation);
    let pid = lz.spawn(prog);
    lz.enter_process(pid);

    // Phase 1: the JIT page goes executable (clean scan).
    if !try_step_until(&mut lz, |lz| lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Executable)))
    {
        return false;
    }
    lz.kernel.machine.configure_smp(cores);
    let Some(executor_ttbr0) =
        lz.module.proc(pid).and_then(|p| p.tables.get(2)).and_then(|t| t.as_ref()).map(|t| t.ttbr0())
    else {
        return false;
    };
    // On a multi-core machine the race uses a remote core (warming its
    // private TLB first); on one core the probe reuses core 0, whose
    // TLB the local break-before-make always invalidates.
    let probe_core = if cores > 1 { 1 } else { 0 };
    if cores > 1 {
        let _ = probe_jit_on_core(&mut lz.kernel.machine, probe_core, executor_ttbr0);
    }
    // Phase 2: the flip happened and the payload landed in memory.
    let payload = movz_word(17, c.payload_imm);
    let Some(jit_pa) = lz.kernel.process(pid).mm.page_at(JIT) else {
        return false;
    };
    if !try_step_until(&mut lz, |lz| {
        lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Writable))
            && lz.kernel.machine.mem.read_u32(jit_pa) == Some(payload)
    }) {
        return false;
    }
    // Phase 3: the probe. Only a stale alias can still translate JIT.
    probe_jit_on_core(&mut lz.kernel.machine, probe_core, executor_ttbr0) == c.payload_imm as u64
}

/// Run one candidate (with the given step subset) in one matrix cell.
pub fn run_candidate(
    c: &Candidate,
    subset: &BTreeSet<usize>,
    ablation: AblationConfig,
    cores: usize,
    cfg: &SynthConfig,
) -> bool {
    let prog = materialize(c, subset, cfg);
    match c.family {
        Family::StaleAlias => run_stale_oracle(&prog, c, ablation, cores, cfg.platform),
        Family::PhysProbe => run_phys_oracle(&prog, ablation, cores, cfg.platform),
        _ => run_exit_oracle(&prog, c, ablation, cores, cfg.platform),
    }
}

// ---------------------------------------------------------------------
// Sweep and report
// ---------------------------------------------------------------------

/// A shrunk escaping attack.
#[derive(Debug, Clone)]
pub struct ShrunkAttack {
    pub attack: String,
    pub steps: usize,
    pub shrunk_steps: usize,
}

/// Aggregate outcome of one ablation column (or the all-on baseline).
#[derive(Debug, Clone, Default)]
pub struct AblationOutcome {
    pub defense: &'static str,
    pub runs: u64,
    pub escapes: u64,
    pub distinct_attacks: Vec<String>,
    pub shrunk: Vec<ShrunkAttack>,
}

/// The full corpus report (`BENCH_attack_corpus.json`).
#[derive(Debug, Clone)]
pub struct AttackCorpusReport {
    pub seed: u64,
    pub candidates: usize,
    pub runs: u64,
    pub families: Vec<(&'static str, usize)>,
    pub defenses_on: AblationOutcome,
    pub ablations: Vec<AblationOutcome>,
}

impl AttackCorpusReport {
    /// Contract violations: any escape with defenses on, a family count
    /// under 5, or fewer than [`ESCAPE_FLOOR`] distinct escapes under an
    /// ablated *security* defense (cost-model ablations must stay at
    /// zero escapes like the baseline).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.defenses_on.distinct_attacks {
            out.push(format!("escape with all defenses on: {a}"));
        }
        if self.families.len() < 5 {
            out.push(format!("only {} attack families generated", self.families.len()));
        }
        let security: Vec<&str> = SECURITY_DEFENSES.iter().map(|d| d.name()).collect();
        for col in &self.ablations {
            if security.contains(&col.defense) {
                if col.distinct_attacks.len() < ESCAPE_FLOOR {
                    out.push(format!(
                        "only {} distinct attacks escape with `{}` ablated (need ≥{})",
                        col.distinct_attacks.len(),
                        col.defense,
                        ESCAPE_FLOOR
                    ));
                }
            } else if col.escapes != 0 {
                out.push(format!("{} escapes under cost-model ablation `{}` (must be 0)", col.escapes, col.defense));
            }
        }
        out
    }

    pub fn ok(&self) -> bool {
        self.problems().is_empty()
    }
}

/// Single-line JSON, byte-deterministic for a given config (fixed family
/// and defense ordering, sorted attack ids — no hash-map iteration
/// anywhere).
impl Json for AttackCorpusReport {
    fn write_json(&self, out: &mut String) {
        let families: Vec<Object> =
            self.families.iter().map(|(name, n)| Object::new().field("name", name).field("candidates", n)).collect();
        let obj = fields!(Object::new().field("benchmark", "attack_corpus"), self; seed, candidates, runs)
            .field("families", &families);
        fields!(obj, self; defenses_on, ablations).field("problems", &self.problems().len()).write_json(out)
    }
}

impl Json for AblationOutcome {
    fn write_json(&self, out: &mut String) {
        fields!(Object::new(), self; defense, runs, escapes, distinct_attacks, shrunk).write_json(out)
    }
}

impl Json for ShrunkAttack {
    fn write_json(&self, out: &mut String) {
        fields!(Object::new(), self; attack, steps, shrunk_steps).write_json(out)
    }
}

/// Run the full synthesis sweep: every candidate under the all-on
/// baseline and every single-defense-off ablation, across the
/// core counts, ddmin-shrinking every escape.
pub fn run_synthesis(cfg: &SynthConfig) -> AttackCorpusReport {
    let candidates = generate(cfg);
    let mut runs = 0u64;

    let sweep = |ablation: AblationConfig, defense: &'static str, shrink: bool| -> AblationOutcome {
        let mut col = AblationOutcome { defense, ..AblationOutcome::default() };
        let mut distinct: BTreeSet<String> = BTreeSet::new();
        for c in &candidates {
            let mut escaping_cores: Option<usize> = None;
            for &cores in &cfg.cores {
                col.runs += 1;
                if run_candidate(c, &c.all_steps(), ablation, cores, cfg) {
                    col.escapes += 1;
                    distinct.insert(c.id());
                    escaping_cores.get_or_insert(cores);
                }
            }
            if shrink {
                if let Some(cores) = escaping_cores {
                    let shrunk = ddmin_set(&c.all_steps(), |s| run_candidate(c, s, ablation, cores, cfg).then_some(()));
                    if let Some((minimal, ())) = shrunk {
                        col.shrunk.push(ShrunkAttack {
                            attack: c.id(),
                            steps: c.steps.len(),
                            shrunk_steps: minimal.len(),
                        });
                    }
                }
            }
        }
        col.distinct_attacks = distinct.into_iter().collect();
        col.shrunk.sort_by(|a, b| a.attack.cmp(&b.attack));
        col
    };

    let defenses_on = sweep(AblationConfig::default(), "none", false);
    runs += defenses_on.runs;
    let mut ablations = Vec::new();
    for d in ALL_DEFENSES {
        let col = sweep(AblationConfig::with_defense_off(d), d.name(), cfg.shrink);
        runs += col.runs;
        ablations.push(col);
    }

    let mut families: Vec<(&'static str, usize)> = Vec::new();
    for f in ALL_FAMILIES {
        families.push((f.name(), candidates.iter().filter(|c| c.family == f).count()));
    }

    AttackCorpusReport { seed: cfg.seed, candidates: candidates.len(), runs, families, defenses_on, ablations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_diverse() {
        let cfg = SynthConfig::full(0xFEED);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.steps, y.steps);
            assert_eq!(x.id(), y.id());
        }
        let fams: BTreeSet<&str> = a.iter().map(|c| c.family.name()).collect();
        assert!(fams.len() >= 5, "need ≥5 families, got {fams:?}");
    }

    #[test]
    fn forged_gate_call_killed_with_check_phase_on() {
        let cfg = SynthConfig::full(1);
        let c = generate(&cfg).into_iter().find(|c| c.family == Family::GateAbuse).expect("gate candidate");
        assert!(
            !run_candidate(&c, &c.all_steps(), AblationConfig::default(), 1, &cfg),
            "gate abuse must be defeated with the check phase on"
        );
    }

    #[test]
    fn forged_gate_call_escapes_without_check_phase() {
        let cfg = SynthConfig::full(1);
        let c = generate(&cfg).into_iter().find(|c| c.family == Family::GateAbuse).expect("gate candidate");
        assert!(
            run_candidate(&c, &c.all_steps(), AblationConfig::with_defense_off(Defense::GateCheckPhase), 1, &cfg),
            "forged gate call must land in the victim domain without the check phase"
        );
    }

    #[test]
    fn phys_probe_polarity() {
        let cfg = SynthConfig::full(2);
        let c = generate(&cfg).into_iter().find(|c| c.family == Family::PhysProbe).expect("probe candidate");
        assert!(
            !run_candidate(&c, &c.all_steps(), AblationConfig::default(), 1, &cfg),
            "randomized fake roots must not leak the real layout"
        );
        assert!(
            run_candidate(&c, &c.all_steps(), AblationConfig::with_defense_off(Defense::RandomizePhys), 1, &cfg),
            "identity fake-phys must leak a real table root"
        );
    }

    #[test]
    fn stale_alias_polarity() {
        let cfg = SynthConfig::full(3);
        let c = generate(&cfg).into_iter().find(|c| c.family == Family::StaleAlias).expect("stale candidate");
        assert!(
            !run_candidate(&c, &c.all_steps(), AblationConfig::default(), 4, &cfg),
            "IPI shootdown must kill the stale alias"
        );
        assert!(
            run_candidate(&c, &c.all_steps(), AblationConfig::with_defense_off(Defense::RemoteShootdown), 4, &cfg),
            "skipping the remote shootdown must leave the stale alias live"
        );
        assert!(
            !run_candidate(&c, &c.all_steps(), AblationConfig::with_defense_off(Defense::RemoteShootdown), 1, &cfg),
            "on one core the local invalidate alone must defeat the attack"
        );
    }
}
