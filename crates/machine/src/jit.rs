//! Template-JIT block engine: a lowered IR of pre-specialized host
//! closures for the chainable ALU subset, the immediate-offset
//! loads/stores, and the direct branches.
//!
//! Every block the accelerated engine runs is a [`CompiledBlock`],
//! lowered once from the straight-line code at its start address in the
//! code frame of an armed fetch-cache page entry (see `lower`) and
//! stored in that page entry: runs of
//! pure-ALU *templates* — function pointers selected at lowering time
//! with register slots resolved, immediates constant-folded (including
//! fully PC-folded `ADR`/`ADRP`, since a block's virtual address is fixed
//! by its icache key), and flag-setting variants split into their own
//! entry points — separated by `Mem` segments for `LDR`/`STR` (immediate
//! offset, every size) and `Slow` segments for anything else that needs
//! full interpreter bookkeeping (pair and unprivileged accesses, and
//! non-branch terminals). `B.cond`, `CBZ` and `CBNZ` lower to PC-writing
//! templates that end their ALU run: a *side exit*, after which lowering
//! continues at the fall-through word. A block ending in `B` lowers it
//! to a PC-writing template at the end of the last ALU run. A block with
//! a branch back to its own first instruction loops
//! (`CompiledBlock::loops`), and `Machine::step_jit` re-enters it in place when that branch is
//! taken. A run with nothing to template lowers to all-`Slow` segments,
//! which execute exactly as stepping would.
//!
//! # Why per-segment revalidation is exact
//!
//! A block is entered only while its page entry is armed at the current
//! `Tlb::generation` and its code frame still holds the content version
//! the block was lowered from (`PhysMem::write_gen`/`frame_version`):
//! then every word of the block is what stepping would fetch, through a
//! free L1 TLB hit on the same entry. An ALU template touches only `Cpu`
//! registers, NZCV, and the cycle/instruction counters: it cannot insert
//! or promote a TLB entry, write memory, or fault, and it moves the PC
//! off the fall-through path only as a branch, which is always the last
//! op of its run. Both facts therefore hold throughout an ALU run, and
//! checking them once per segment boundary observes exactly the states
//! stepping would. A taken branch leaves the block, unless it lands on
//! the block's own start with the budget for a whole block left, where
//! the block is exactly what the next dispatch would serve: it re-enters
//! past the same boundary check. `Mem` and `Slow` segments are segment
//! boundaries: a store that bumps `write_gen` (self-modifying code) or a
//! load that promotes a TLB entry ends the compiled block at the same
//! boundary at which the next fetch would have noticed it.
//!
//! # Why batched cycle charging is cycle-invariant
//!
//! Each ALU run's modelled cost (`n × insn_base` plus fixed
//! multiply/divide latencies) is summed at lowering time and charged in
//! one `cycles +=`. The only observers of intermediate cycle values are
//! journal events (`Machine::record_event` stamps `cpu.cycles`) and
//! traps — and ALU and branch templates emit neither, so no observation
//! point can distinguish batched from per-instruction charging. Trace
//! entries are `(pc, word, EL)` tuples without a cycle stamp and are
//! replayed per-op when tracing is enabled. `Mem` and `Slow` segments
//! charge per instruction, in the interpreter's order, because they can
//! fault.

use crate::cpu::Cpu;
use lz_arch::insn::{Cond, Insn, LogicOp, MemSize};
use lz_arch::pstate::Nzcv;

/// Upper bound on instructions per compiled block. A block is entered
/// only with at least `total` instructions of budget left, so the engine
/// single-steps fewer than this many instructions before a quantum edge.
pub(crate) const SUPERBLOCK_MAX: usize = 64;

/// Extra modelled latency of `MADD` beyond `insn_base` (shared with the
/// interpreter's `execute`).
pub(crate) const MADD_EXTRA_CYCLES: u64 = 2;
/// Extra modelled latency of `UDIV` beyond `insn_base`.
pub(crate) const UDIV_EXTRA_CYCLES: u64 = 8;

/// One lowered ALU instruction: a template function plus its resolved
/// operands. `run` is selected at lowering time (flag-setting and
/// add/sub variants get distinct entry points), register slots are plain
/// indices (`x31` semantics live in [`Cpu::reg`]/[`Cpu::set_reg`]), and
/// `a`/`b` carry folded immediates — a shift amount, a pre-shifted
/// imm12, a MOVK keep-mask, a fully PC-folded `ADR`/`ADRP` result, or a
/// branch terminal's taken and fall-through targets. `word` is kept for
/// trace replay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tmpl {
    run: fn(&mut Cpu, &Tmpl),
    a: u64,
    b: u64,
    rd: u8,
    rn: u8,
    rm: u8,
    ra: u8,
    cond: Cond,
    pub(crate) word: u32,
}

impl Tmpl {
    /// Execute this template against `cpu`.
    #[inline(always)]
    pub(crate) fn exec(&self, cpu: &mut Cpu) {
        (self.run)(cpu, self)
    }
}

/// A compiled block segment.
#[derive(Debug)]
pub(crate) enum Segment {
    /// A run of pure-ALU templates, possibly ending in a branch (a side
    /// exit or the block's trailing `B`); `cycles` is the run's total
    /// modelled cost (`ops.len() × insn_base` plus fixed latencies),
    /// charged once.
    Alu { ops: Box<[Tmpl]>, cycles: u64 },
    /// `LDR`/`STR` (immediate offset) of `size` at `base_reg(rn) +
    /// offset`. Executed by `Machine::jit_mem`: inline on an armed
    /// micro-DTLB hit, through the interpreter's `data_access` otherwise.
    Mem { word: u32, rt: u8, rn: u8, offset: u64, size: MemSize, write: bool },
    /// An instruction that needs full interpreter bookkeeping: a pair or
    /// unprivileged load/store (may fault, self-modify, or perturb the
    /// TLB) or the block's trailing non-branch terminal.
    Slow { word: u32, insn: Insn },
}

/// A straight-line run of code lowered to ALU-template runs and
/// `Mem`/`Slow` segments. Stored in the icache page entry whose code
/// frame it was lowered from, and therefore dropped by exactly the
/// invalidation scopes (TLBI, ASID/VMID maintenance, content staleness,
/// capacity) that drop the entry; serve-time and per-segment
/// revalidation check what the entry's arm proved.
#[derive(Debug)]
pub struct CompiledBlock {
    pub(crate) segs: Box<[Segment]>,
    /// Total instruction count across all segments — equals the lowered
    /// run's length, and bounds what one entry can retire (the dispatcher
    /// refuses entry, and `Machine::step_jit` re-entry, when this exceeds
    /// the remaining quantum budget).
    pub(crate) total: u32,
    /// Some branch's taken target is the block's own first instruction.
    pub(crate) loops: bool,
}

// --- template library ---------------------------------------------------

fn t_mov_const(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, t.a);
}

fn t_movk(cpu: &mut Cpu, t: &Tmpl) {
    let old = cpu.reg(t.rd);
    cpu.set_reg(t.rd, (old & t.a) | t.b);
}

fn t_add_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, false, false);
}

fn t_adds_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, false, true);
}

fn t_sub_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, true, false);
}

fn t_subs_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, true, true);
}

fn t_add_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, false, false);
}

fn t_adds_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, false, true);
}

fn t_sub_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, true, false);
}

fn t_subs_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, true, true);
}

fn t_and(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) & (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_orr(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) | (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_eor(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) ^ (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_ands(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) & (cpu.reg(t.rm) << t.a);
    cpu.pstate.nzcv = Nzcv { n: r >> 63 == 1, z: r == 0, c: false, v: false };
    cpu.set_reg(t.rd, r);
}

fn t_lsr(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, cpu.reg(t.rn) >> t.a);
}

fn t_lsl(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, cpu.reg(t.rn) << t.a);
}

fn t_madd(cpu: &mut Cpu, t: &Tmpl) {
    let v = cpu.reg(t.ra).wrapping_add(cpu.reg(t.rn).wrapping_mul(cpu.reg(t.rm)));
    cpu.set_reg(t.rd, v);
}

fn t_udiv(cpu: &mut Cpu, t: &Tmpl) {
    let v = cpu.reg(t.rn).checked_div(cpu.reg(t.rm)).unwrap_or(0);
    cpu.set_reg(t.rd, v);
}

fn t_csel(cpu: &mut Cpu, t: &Tmpl) {
    let v = if t.cond.holds(cpu.pstate.nzcv) { cpu.reg(t.rn) } else { cpu.reg(t.rm) };
    cpu.set_reg(t.rd, v);
}

fn t_csinc(cpu: &mut Cpu, t: &Tmpl) {
    let v = if t.cond.holds(cpu.pstate.nzcv) { cpu.reg(t.rn) } else { cpu.reg(t.rm).wrapping_add(1) };
    cpu.set_reg(t.rd, v);
}

fn t_nop(_cpu: &mut Cpu, _t: &Tmpl) {}

// Branch terminals: `a` is the taken target, `b` the fall-through PC.

fn t_b(cpu: &mut Cpu, t: &Tmpl) {
    cpu.pc = t.a;
}

fn t_bcond(cpu: &mut Cpu, t: &Tmpl) {
    cpu.pc = if t.cond.holds(cpu.pstate.nzcv) { t.a } else { t.b };
}

fn t_cbz(cpu: &mut Cpu, t: &Tmpl) {
    cpu.pc = if cpu.reg(t.rn) == 0 { t.a } else { t.b };
}

fn t_cbnz(cpu: &mut Cpu, t: &Tmpl) {
    cpu.pc = if cpu.reg(t.rn) != 0 { t.a } else { t.b };
}

// --- lowering -----------------------------------------------------------

const BLANK: Tmpl = Tmpl { run: t_nop, a: 0, b: 0, rd: 31, rn: 31, rm: 31, ra: 31, cond: Cond::Al, word: 0 };

/// Lower one instruction to an ALU template, or `None` when it needs a
/// `Slow` segment. Returns the template plus its extra modelled latency
/// beyond `insn_base`. `pc` is the instruction's virtual address (fixed
/// by the block's icache key), letting `ADR`/`ADRP` fold completely.
fn lower_alu(pc: u64, word: u32, insn: Insn) -> Option<(Tmpl, u64)> {
    let t = match insn {
        Insn::Movz { rd, imm16, hw } => Tmpl { run: t_mov_const, a: (imm16 as u64) << (16 * hw), rd, word, ..BLANK },
        Insn::Movn { rd, imm16, hw } => Tmpl { run: t_mov_const, a: !((imm16 as u64) << (16 * hw)), rd, word, ..BLANK },
        Insn::Movk { rd, imm16, hw } => {
            let mask = 0xffffu64 << (16 * hw);
            Tmpl { run: t_movk, a: !mask, b: (imm16 as u64) << (16 * hw), rd, word, ..BLANK }
        }
        Insn::AddImm { rd, rn, imm12, shift12, sub, set_flags } => {
            let run = match (sub, set_flags) {
                (false, false) => t_add_imm,
                (false, true) => t_adds_imm,
                (true, false) => t_sub_imm,
                (true, true) => t_subs_imm,
            };
            let b = (imm12 as u64) << if shift12 { 12 } else { 0 };
            Tmpl { run, a: b, rd, rn, word, ..BLANK }
        }
        Insn::AddReg { rd, rn, rm, shift, sub, set_flags } => {
            let run = match (sub, set_flags) {
                (false, false) => t_add_reg,
                (false, true) => t_adds_reg,
                (true, false) => t_sub_reg,
                (true, true) => t_subs_reg,
            };
            Tmpl { run, a: shift as u64, rd, rn, rm, word, ..BLANK }
        }
        Insn::LogicReg { rd, rn, rm, shift, op } => {
            let run = match op {
                LogicOp::And => t_and,
                LogicOp::Orr => t_orr,
                LogicOp::Eor => t_eor,
                LogicOp::Ands => t_ands,
            };
            Tmpl { run, a: shift as u64, rd, rn, rm, word, ..BLANK }
        }
        Insn::LsrImm { rd, rn, shift } => Tmpl { run: t_lsr, a: shift as u64, rd, rn, word, ..BLANK },
        Insn::LslImm { rd, rn, shift } => Tmpl { run: t_lsl, a: shift as u64, rd, rn, word, ..BLANK },
        Insn::Adr { rd, offset } => Tmpl { run: t_mov_const, a: pc.wrapping_add_signed(offset), rd, word, ..BLANK },
        Insn::Adrp { rd, offset } => {
            Tmpl { run: t_mov_const, a: (pc & !0xfff).wrapping_add_signed(offset), rd, word, ..BLANK }
        }
        Insn::Madd { rd, rn, rm, ra } => {
            return Some((Tmpl { run: t_madd, rd, rn, rm, ra, word, ..BLANK }, MADD_EXTRA_CYCLES));
        }
        Insn::Udiv { rd, rn, rm } => {
            return Some((Tmpl { run: t_udiv, rd, rn, rm, word, ..BLANK }, UDIV_EXTRA_CYCLES));
        }
        Insn::Csel { rd, rn, rm, cond } => Tmpl { run: t_csel, rd, rn, rm, cond, word, ..BLANK },
        Insn::Csinc { rd, rn, rm, cond } => Tmpl { run: t_csinc, rd, rn, rm, cond, word, ..BLANK },
        Insn::Nop => Tmpl { run: t_nop, word, ..BLANK },
        _ => return None,
    };
    Some((t, 0))
}

/// Lower a direct branch to a PC-writing template. `B`, `B.cond` and
/// `CBZ`/`CBNZ` emit no events and charge only `insn_base`, so they
/// join the preceding ALU run's batched charge, and end it.
fn lower_branch(pc: u64, word: u32, insn: Insn) -> Option<Tmpl> {
    let next = pc.wrapping_add(4);
    let t = match insn {
        Insn::B { offset } => Tmpl { run: t_b, a: pc.wrapping_add_signed(offset), word, ..BLANK },
        Insn::BCond { cond, offset } => {
            Tmpl { run: t_bcond, a: pc.wrapping_add_signed(offset), b: next, cond, word, ..BLANK }
        }
        Insn::Cbz { rt, offset, nonzero } => {
            let run = if nonzero { t_cbnz } else { t_cbz };
            Tmpl { run, a: pc.wrapping_add_signed(offset), b: next, rn: rt, word, ..BLANK }
        }
        _ => return None,
    };
    Some(t)
}

/// Lower an immediate-offset load/store to a `Mem` segment.
fn lower_mem(word: u32, insn: Insn) -> Option<Segment> {
    match insn {
        Insn::LdrImm { rt, rn, offset, size } => Some(Segment::Mem { word, rt, rn, offset, size, write: false }),
        Insn::StrImm { rt, rn, offset, size } => Some(Segment::Mem { word, rt, rn, offset, size, write: true }),
        _ => None,
    }
}

/// Lower the straight-line run at the start of `code` (the bytes of a
/// code frame from the word at virtual address `va` to the end of its
/// page, at least one word) into a [`CompiledBlock`], decoding each word
/// as it goes. The run extends while each instruction is [`chainable`],
/// up to [`SUPERBLOCK_MAX`] instructions and the end of `code`, and
/// includes one trailing non-chainable instruction, since nothing
/// executes after it inside the block. A conditional branch is
/// chainable: it ends its ALU run as a side exit, and the run continues
/// at its fall-through word. `B` is not, so an unconditional branch is
/// always a block's last instruction. Every run lowers, an all-`Slow`
/// one included.
pub(crate) fn lower(va: u64, code: &[u8], insn_base: u64) -> CompiledBlock {
    let mut segs: Vec<Segment> = Vec::new();
    let mut run: Vec<Tmpl> = Vec::new();
    let mut run_cycles = 0u64;
    let mut total = 0u32;
    let mut loops = false;
    let words = code.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
    for (k, word) in words.take(SUPERBLOCK_MAX).enumerate() {
        let insn = Insn::decode(word);
        let pc_k = va + 4 * k as u64;
        total += 1;
        if let Some((t, extra)) = lower_alu(pc_k, word, insn) {
            run.push(t);
            run_cycles += insn_base + extra;
        } else if let Some(t) = lower_branch(pc_k, word, insn) {
            loops |= t.a == va;
            run.push(t);
            run_cycles += insn_base;
            close_run(&mut segs, &mut run, &mut run_cycles);
        } else {
            close_run(&mut segs, &mut run, &mut run_cycles);
            segs.push(lower_mem(word, insn).unwrap_or(Segment::Slow { word, insn }));
        }
        if !chainable(&insn) {
            break;
        }
    }
    debug_assert!(total > 0, "lowered an empty run");
    close_run(&mut segs, &mut run, &mut run_cycles);
    CompiledBlock { segs: segs.into_boxed_slice(), total, loops }
}

/// Close the open ALU run, if any, as a segment.
fn close_run(segs: &mut Vec<Segment>, run: &mut Vec<Tmpl>, cycles: &mut u64) {
    if !run.is_empty() {
        segs.push(Segment::Alu { ops: std::mem::take(run).into_boxed_slice(), cycles: std::mem::take(cycles) });
    }
}

/// Can a block continue past this instruction?
///
/// Chainable instructions fall through to `pc + 4` when they do not fault
/// or branch, and cannot by themselves change the exception level,
/// PSTATE, a system register, or TLB *structure beyond ordinary inserts*
/// — loads and stores may still fault or self-modify code, which
/// `Machine::step_jit` catches by revalidating the TLB generation, the
/// code frame version, and the PC after every `Mem` and `Slow` segment,
/// and a taken conditional branch leaves the block through the PC check
/// after its ALU run. Unconditional and indirect branches, exception
/// generators, barriers, and system-register traffic all end the block.
fn chainable(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Movz { .. }
            | Insn::Movk { .. }
            | Insn::Movn { .. }
            | Insn::AddImm { .. }
            | Insn::AddReg { .. }
            | Insn::LogicReg { .. }
            | Insn::LsrImm { .. }
            | Insn::LslImm { .. }
            | Insn::Adr { .. }
            | Insn::Adrp { .. }
            | Insn::Ldp { .. }
            | Insn::Stp { .. }
            | Insn::Madd { .. }
            | Insn::Udiv { .. }
            | Insn::Csel { .. }
            | Insn::Csinc { .. }
            | Insn::LdrImm { .. }
            | Insn::StrImm { .. }
            | Insn::Ldtr { .. }
            | Insn::Sttr { .. }
            | Insn::BCond { .. }
            | Insn::Cbz { .. }
            | Insn::Nop
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::asm::Asm;

    fn code(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn pure_alu_block_lowers_to_one_run() {
        // movz x0, #7 ; add x0, x0, #1 ; nop
        let buf = code(&[0xD280_00E0, 0x9100_0400, 0xD503_201F]);
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.total, 3);
        assert_eq!(b.segs.len(), 1);
        match &b.segs[0] {
            Segment::Alu { ops, cycles } => {
                assert_eq!(ops.len(), 3);
                assert_eq!(*cycles, 3);
            }
            s => panic!("expected ALU run, got {s:?}"),
        }
    }

    #[test]
    fn memory_ops_split_runs() {
        // movz x0, #7 ; ldr x1, [x2] ; movz x3, #9
        let buf = code(&[0xD280_00E0, 0xF940_0041, 0xD280_0123]);
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.segs.len(), 3);
        assert!(matches!(b.segs[0], Segment::Alu { .. }));
        assert!(matches!(b.segs[1], Segment::Mem { rt: 1, rn: 2, offset: 0, size: MemSize::X, write: false, .. }));
        assert!(matches!(b.segs[2], Segment::Alu { .. }));
    }

    #[test]
    fn loads_and_stores_of_every_size_lower_to_mem() {
        let mut a = Asm::new(0x40_0000);
        for size in [MemSize::B, MemSize::H, MemSize::W, MemSize::X] {
            let off = 2 * size.bytes();
            a.emit(Insn::LdrImm { rt: 3, rn: 4, offset: off, size });
            a.emit(Insn::StrImm { rt: 5, rn: 31, offset: off, size });
        }
        let buf = code(&a.words());
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.total, 8);
        assert_eq!(b.segs.len(), 8, "each access is its own segment");
        for (i, size) in [MemSize::B, MemSize::H, MemSize::W, MemSize::X].into_iter().enumerate() {
            let off = 2 * size.bytes();
            match (&b.segs[2 * i], &b.segs[2 * i + 1]) {
                (
                    Segment::Mem { rt: 3, rn: 4, offset: lo, size: ls, write: false, .. },
                    Segment::Mem { rt: 5, rn: 31, offset: so, size: ss, write: true, .. },
                ) => {
                    assert_eq!((*lo, *ls, *so, *ss), (off, size, off, size));
                }
                s => panic!("expected load then store of {size:?}, got {s:?}"),
            }
        }
    }

    #[test]
    fn pair_and_unprivileged_accesses_stay_slow() {
        let mut a = Asm::new(0x40_0000);
        a.ldp(1, 2, 3, 16).ldtr(4, 5, 0).movz(0, 1, 0);
        let b = lower(0x40_0000, &code(&a.words()), 1);
        assert!(matches!(b.segs[0], Segment::Slow { insn: Insn::Ldp { .. }, .. }));
        assert!(matches!(b.segs[1], Segment::Slow { insn: Insn::Ldtr { .. }, .. }));
        assert!(matches!(b.segs[2], Segment::Alu { .. }));
    }

    #[test]
    fn all_slow_run_lowers_to_slow_segments() {
        // ldp x1, x2, [x3] ; svc #0 — nothing to template, still a block.
        let mut a = Asm::new(0x40_0000);
        a.ldp(1, 2, 3, 0).svc(0);
        let b = lower(0x40_0000, &code(&a.words()), 1);
        assert_eq!(b.total, 2);
        assert_eq!(b.segs.len(), 2);
        assert!(matches!(b.segs[0], Segment::Slow { insn: Insn::Ldp { .. }, .. }));
        assert!(matches!(b.segs[1], Segment::Slow { insn: Insn::Svc { .. }, .. }));
    }

    #[test]
    fn runs_end_at_the_code_end_and_at_the_length_bound() {
        const NOP: u32 = 0xD503_201F;
        assert_eq!(lower(0x40_0000, &code(&[NOP]), 1).total, 1);
        assert_eq!(lower(0x40_0000, &code(&[NOP, NOP, NOP]), 1).total, 3);
        // A trailing partial word is not code.
        assert_eq!(lower(0x40_0000, &code(&[NOP, NOP])[..7], 1).total, 1);
        let long = code(&vec![NOP; 2 * SUPERBLOCK_MAX]);
        assert_eq!(lower(0x40_0000, &long, 1).total as usize, SUPERBLOCK_MAX);
    }

    #[test]
    fn scan_loop_blocks_lower_without_slow_segments() {
        // The NVM search loop: ldrb ; add ; cmp ; b.eq | subs ; b.ne,
        // then the tail the `b.eq` exits to.
        let mut a = Asm::new(0x40_0000);
        let top = a.label();
        let found = a.label();
        a.bind(top);
        a.ldrb(26, 25, 0).add_imm(25, 25, 1).cmp_imm(26, 0xff).b_eq(found);
        a.subs_imm(24, 24, 1).b_ne(top);
        a.bind(found);
        a.movz(0, 1, 0).svc(0);
        let words = a.words();
        let b = lower(0x40_0000, &code(&words), 1);
        assert_eq!(b.total, 8);
        assert!(b.loops, "b.ne lands on the block's first instruction");
        assert_eq!(b.segs.len(), 5);
        assert!(matches!(b.segs[0], Segment::Mem { size: MemSize::B, write: false, .. }));
        let runs: Vec<(usize, u64)> = b.segs[1..4]
            .iter()
            .map(|s| match s {
                Segment::Alu { ops, cycles } => (ops.len(), *cycles),
                s => panic!("expected ALU run, got {s:?}"),
            })
            .collect();
        assert_eq!(runs, [(3, 3), (2, 2), (1, 1)], "each side exit ends its run");
        assert!(matches!(b.segs[4], Segment::Slow { insn: Insn::Svc { .. }, .. }));
        // Lowered from the b.eq's fall-through, the block does not loop:
        // its b.ne lands before it.
        assert!(!lower(0x40_0010, &code(&words[4..]), 1).loops);
    }

    /// Run a one-segment lowered block's ALU ops on `cpu` the way
    /// `step_jit` does: fall-through PC first, then the templates.
    fn run_alu(b: &CompiledBlock, cpu: &mut Cpu, end: u64) {
        let Segment::Alu { ops, .. } = &b.segs[0] else { panic!("expected ALU run") };
        cpu.pc = end;
        for op in ops.iter() {
            op.exec(cpu);
        }
    }

    #[test]
    fn branch_terminals_write_taken_and_fall_through_pcs() {
        let va = 0x40_0100;
        for name in ["b.eq", "cbz", "cbnz", "b"] {
            let mut a = Asm::new(va);
            let target = a.label();
            a.subs_imm(0, 1, 0);
            match name {
                "b.eq" => a.b_eq(target),
                "cbz" => a.cbz(0, target),
                "cbnz" => a.cbnz(0, target),
                _ => a.b(target),
            };
            a.nop().nop();
            a.bind(target);
            let b = lower(va, &code(&a.words()[..2]), 1);
            assert_eq!(b.segs.len(), 1, "{name}: branch joins the ALU run");
            assert!(matches!(&b.segs[0], Segment::Alu { ops, cycles: 2 } if ops.len() == 2), "{name}");
            for x1 in [0u64, 5] {
                let mut cpu = Cpu::new();
                cpu.x[1] = x1;
                run_alu(&b, &mut cpu, va + 8);
                let taken = match name {
                    "b.eq" | "cbz" => x1 == 0,
                    "cbnz" => x1 != 0,
                    _ => true,
                };
                let want = if taken { va + 16 } else { va + 8 };
                assert_eq!(cpu.pc, want, "{name} with x1 = {x1}");
            }
        }
    }

    #[test]
    fn only_an_unconditional_branch_ends_the_block() {
        // b.ne ; nop — a side exit, so the nop is the same block's.
        let mut a = Asm::new(0x40_0000);
        let l = a.label();
        a.b_ne(l).nop();
        a.bind(l);
        let b = lower(0x40_0000, &code(&a.words()), 1);
        assert_eq!(b.total, 2);
        assert!(
            matches!(&b.segs[..], [Segment::Alu { ops: x, cycles: 1 }, Segment::Alu { ops: y, cycles: 1 }] if x.len() == 1 && y.len() == 1)
        );
        assert!(!b.loops);
        // b ; nop — the nop is the next block's.
        let mut a = Asm::new(0x40_0000);
        let l = a.label();
        a.b(l).nop();
        a.bind(l);
        let b = lower(0x40_0000, &code(&a.words()), 1);
        assert_eq!(b.total, 1);
        assert!(matches!(&b.segs[..], [Segment::Alu { ops, cycles: 1 }] if ops.len() == 1));
    }

    #[test]
    fn lone_branch_block_lowers() {
        let mut a = Asm::new(0x40_0000);
        let l = a.label();
        a.bind(l);
        a.b(l);
        let b = lower(0x40_0000, &code(&a.words()), 1);
        assert!(b.loops);
        let mut cpu = Cpu::new();
        run_alu(&b, &mut cpu, 0x40_0004);
        assert_eq!(cpu.pc, 0x40_0000);
    }

    #[test]
    fn madd_and_udiv_latencies_are_batched() {
        // mul x0, x1, x2 ; udiv x3, x4, x5
        let buf = code(&[0x9B02_7C20, 0x9AC5_0883]);
        let b = lower(0x40_0000, &buf, 1);
        match &b.segs[0] {
            Segment::Alu { cycles, .. } => {
                assert_eq!(*cycles, 2 + MADD_EXTRA_CYCLES + UDIV_EXTRA_CYCLES);
            }
            s => panic!("expected ALU run, got {s:?}"),
        }
    }

    #[test]
    fn adr_folds_to_block_va() {
        // adr x0, #+16 at va 0x40_0100
        let buf = code(&[0x1000_0080]);
        // Single ADR is still an ALU run.
        let b = lower(0x40_0100, &buf, 1);
        let Segment::Alu { ops, .. } = &b.segs[0] else { panic!("expected ALU run") };
        let mut cpu = Cpu::new();
        ops[0].exec(&mut cpu);
        assert_eq!(cpu.reg(0), 0x40_0100 + 16);
    }
}
