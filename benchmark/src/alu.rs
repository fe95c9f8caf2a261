//! `alu_jit`: the 16-instruction ALU hot loop of `sim_throughput` on a
//! bare Cortex-A55 machine at EL0, with a seeded 14-op body. It never
//! exits, so only the machine layer works: the template JIT's best case.

use crate::clock::Bench;
use crate::harness;
use crate::trace::Boundary;
use crate::Round;
use lz_arch::asm::Asm;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page};
use lz_machine::{Exit, Machine};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CODE: u64 = 0x40_0000;
const BODY: usize = 14;
/// Loop iterations the program asks for: more than any run retires.
const ITERS: u64 = 1 << 60;

#[derive(Debug, Clone, Copy)]
pub struct AluConfig {
    /// Instructions per op (one `Machine::run` slice).
    pub slice: u64,
    /// Slices run during set-up, untimed: they fill the decode cache
    /// and compile the loop's blocks.
    pub warm: usize,
    pub ops: usize,
}

impl AluConfig {
    pub const BENCH: AluConfig = AluConfig { slice: 1 << 14, warm: 512, ops: 24_576 };
}

/// One body instruction. Slot `i` draws from the same template class
/// as `sim_throughput`'s `i % 4` pattern, so every seed costs the host
/// the same: immediate add/sub, a logic op, a logic op, register
/// add/sub.
#[derive(Debug, Clone, Copy)]
enum Op {
    AddImm(u8, u16),
    SubImm(u8, u16),
    Eor(u8, u8),
    Orr(u8, u8),
    And(u8, u8),
    AddReg(u8, u8),
    SubReg(u8, u8),
}

impl Op {
    fn emit(self, a: &mut Asm) {
        match self {
            Op::AddImm(d, i) => a.add_imm(d, d, i),
            Op::SubImm(d, i) => a.sub_imm(d, d, i),
            Op::Eor(d, m) => a.eor_reg(d, d, m),
            Op::Orr(d, m) => a.orr_reg(d, d, m),
            Op::And(d, m) => a.and_reg(d, d, m),
            Op::AddReg(d, m) => a.add_reg(d, d, m),
            Op::SubReg(d, m) => a.sub_reg(d, d, m),
        };
    }

    /// The reference semantics the guest's result is checked against.
    fn apply(self, x: &mut [u64; 31]) {
        match self {
            Op::AddImm(d, i) => x[d as usize] = x[d as usize].wrapping_add(i as u64),
            Op::SubImm(d, i) => x[d as usize] = x[d as usize].wrapping_sub(i as u64),
            Op::Eor(d, m) => x[d as usize] ^= x[m as usize],
            Op::Orr(d, m) => x[d as usize] |= x[m as usize],
            Op::And(d, m) => x[d as usize] &= x[m as usize],
            Op::AddReg(d, m) => x[d as usize] = x[d as usize].wrapping_add(x[m as usize]),
            Op::SubReg(d, m) => x[d as usize] = x[d as usize].wrapping_sub(x[m as usize]),
        }
    }
}

/// The seeded program: initial x1–x10 and the loop body.
#[derive(Debug, Clone)]
pub struct AluProgram {
    init: [u64; 31],
    body: [Op; BODY],
}

impl AluProgram {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(harness::mix(seed, 1));
        let mut init = [0u64; 31];
        init[0] = ITERS;
        for r in init.iter_mut().take(11).skip(1) {
            *r = rng.next_u64();
        }
        let body = std::array::from_fn(|i| {
            let d = rng.random_range(1..8u8);
            let m = rng.random_range(8..11u8);
            let flip = rng.random_bool();
            match i % 4 {
                0 if flip => Op::AddImm(d, rng.random_range(1..4096u16)),
                0 => Op::SubImm(d, rng.random_range(1..4096u16)),
                1 if flip => Op::Eor(d, m),
                1 => Op::And(d, m),
                2 if flip => Op::Orr(d, m),
                2 => Op::Eor(d, m),
                _ if flip => Op::AddReg(d, m),
                _ => Op::SubReg(d, m),
            }
        });
        AluProgram { init, body }
    }

    /// Machine code, and the number of prologue instructions before
    /// the loop's first body instruction.
    fn assemble(&self) -> (Vec<u8>, u64) {
        let mut a = Asm::new(CODE);
        for r in 0..=10u8 {
            a.mov_imm64(r, self.init[r as usize]);
        }
        let prologue = (a.here() - CODE) / 4;
        let top = a.label();
        a.bind(top);
        for op in self.body {
            op.emit(&mut a);
        }
        a.subs_imm(0, 0, 1);
        a.b_ne(top);
        a.svc(0);
        (a.bytes(), prologue)
    }

    /// Registers after `insns` retired instructions, and the pc.
    fn reference(&self, insns: u64, prologue: u64) -> ([u64; 31], u64) {
        let mut x = self.init;
        let looped = insns - prologue;
        let per = BODY as u64 + 2;
        for _ in 0..looped / per {
            for op in self.body {
                op.apply(&mut x);
            }
            x[0] -= 1;
        }
        let rem = (looped % per) as usize;
        for op in &self.body[..rem.min(BODY)] {
            op.apply(&mut x);
        }
        if rem > BODY {
            x[0] -= 1;
        }
        (x, CODE + 4 * (prologue + rem as u64))
    }

    /// An EL0 machine about to run the program.
    fn machine(&self, accel: bool) -> (Machine, u64) {
        let (code, prologue) = self.assemble();
        let mut m = Machine::new(Platform::CortexA55);
        harness::pin_engine(&mut m);
        if !accel {
            // The reference interpreter: every acceleration layer off.
            m.set_fetch_cache(false);
            m.set_fastpath(false);
            m.set_jit(false);
        }
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        m.mem.write_bytes(code_pa, &code);
        let perms = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut m.mem, root, CODE, code_pa, perms);
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.cpu.pstate = PState::user();
        m.cpu.pc = CODE;
        (m, prologue)
    }
}

pub fn run(cfg: &AluConfig, seed: u64, bench: &mut Bench) -> Round {
    let prog = AluProgram::new(seed);
    let (mut m, prologue) = prog.machine(true);
    let mut round = Round::default();
    let mut first = None;
    // The guest's registers are checked against the reference semantics
    // where the warm-up ends: cheap to recompute, and every later slice
    // must agree across rounds and with golden.json.
    let mut checkpoint = None;
    let mut before = None;
    for i in 0..cfg.warm + cfg.ops {
        let timed = i >= cfg.warm;
        if timed {
            checkpoint.get_or_insert((m.cpu.insns, m.cpu.x, m.cpu.pc));
            before.get_or_insert_with(|| (harness::raw_machine(&m), harness::entries(&bench.tr)));
            bench.op_begin(m.cpu.insns);
        }
        let exit = bench.tr.span(Boundary::MachineRun, || m.run(cfg.slice));
        if timed {
            bench.op_end(m.cpu.insns);
        }
        if exit != Exit::Limit {
            round.fail(format!("slice ended with {exit:?}, not the instruction limit"));
            return round;
        }
        first.get_or_insert((m.cpu.cycles, m.cpu.x));
    }
    if let Some((raw, entries0)) = before {
        round.counters =
            harness::layer_counters(&raw, &harness::raw_machine(&m), harness::entries(&bench.tr) - entries0);
    }

    let insns = m.cpu.insns;
    let want = cfg.slice * (cfg.warm + cfg.ops) as u64;
    if insns != want {
        round.fail(format!("retired {insns} instructions, expected {want}"));
    }
    if let Some((at, x, pc)) = checkpoint {
        if (x, pc) != prog.reference(at, prologue) {
            round.fail("registers differ from the reference semantics".into());
        }
    }
    // The accelerated engines must not change a modelled cycle: the
    // first slice again on the plain interpreter.
    let (mut plain, _) = prog.machine(false);
    plain.run(cfg.slice);
    if first != Some((plain.cpu.cycles, plain.cpu.x)) {
        round.fail("first slice differs between the accelerated engines and the plain interpreter".into());
    }
    round.output("insns", insns);
    round.output("cycles", m.cpu.cycles);
    round.output("regs", harness::fnv(m.cpu.x));
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tracks_partial_iterations() {
        let prog = AluProgram::new(7);
        let (mut m, prologue) = prog.machine(true);
        for n in [prologue, prologue + 1, prologue + 14, prologue + 15, prologue + 16, prologue + 1000] {
            m.run(n - m.cpu.insns);
            assert_eq!(m.cpu.insns, n);
            assert_eq!((m.cpu.x, m.cpu.pc), prog.reference(n, prologue), "after {n} instructions");
        }
    }
}
