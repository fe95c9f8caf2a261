//! `sim_throughput`: host-side simulation speed (instructions per
//! second) of the two execution engines: compiled blocks (`LZ_ACCEL` on)
//! and the reference interpreter (off).
//!
//! Two workloads are measured:
//!
//! * a straight-line **ALU hot loop** (the compiled-block engine's best
//!   case);
//! * a **mixed ALU + load/store loop** that keeps the micro-DTLB and the
//!   data-access path honest.
//!
//! This measures *wall-clock* simulator throughput, not modelled cycles —
//! the acceleration layer's whole contract is that modelled cycles are
//! identical in both modes, which [`ThroughputResult::cycles_match`]
//! re-checks for both workloads.

use lz_arch::asm::Asm;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page};
use lz_machine::{Exit, Machine};
use std::time::Instant;

const CODE: u64 = 0x40_0000;
const DATA: u64 = 0x50_0000;
/// ALU instructions per loop iteration, besides the `subs`/`b.ne` pair.
const UNROLL: u64 = 14;
/// Nominal seed field for the unified bench JSON schema: both workloads
/// are fully deterministic, so the seed is fixed.
const SEED: u64 = 0;

/// One on/off measurement pair for a single workload.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    pub insns: u64,
    pub cycles_on: u64,
    pub cycles_off: u64,
    pub secs_on: f64,
    pub secs_off: f64,
}

impl Leg {
    pub fn mips_on(&self) -> f64 {
        self.insns as f64 / self.secs_on / 1e6
    }

    pub fn mips_off(&self) -> f64 {
        self.insns as f64 / self.secs_off / 1e6
    }

    pub fn speedup(&self) -> f64 {
        self.secs_off / self.secs_on
    }

    pub fn cycles_match(&self) -> bool {
        self.cycles_on == self.cycles_off
    }
}

/// The ALU-loop and mixed-loop measurements.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    pub alu: Leg,
    pub mem: Leg,
}

impl ThroughputResult {
    /// Headline numbers (the ALU hot loop, as in the seed benchmark).
    pub fn insns(&self) -> u64 {
        self.alu.insns
    }

    pub fn mips_on(&self) -> f64 {
        self.alu.mips_on()
    }

    pub fn mips_off(&self) -> f64 {
        self.alu.mips_off()
    }

    /// Host speedup from the acceleration layer (≥ 2.0 is the bar).
    pub fn speedup(&self) -> f64 {
        self.alu.speedup()
    }

    /// Modelled cycle counts must not depend on the layer — both loops.
    pub fn cycles_match(&self) -> bool {
        self.alu.cycles_match() && self.mem.cycles_match()
    }

    /// One-line JSON for `BENCH_sim_throughput.json`, in the unified
    /// bench schema (`benchmark` + `seed`, like `BENCH_smp_scaling.json`).
    pub fn json(&self) -> String {
        format!(
            concat!(
                "{{\"benchmark\":\"sim_throughput\",\"seed\":{},\"insns\":{},",
                "\"insns_per_sec_cache_on\":{:.0},\"insns_per_sec_cache_off\":{:.0},",
                "\"mips_cache_on\":{:.2},\"mips_cache_off\":{:.2},",
                "\"speedup\":{:.2},\"cycles_cache_on\":{},\"cycles_cache_off\":{},",
                "\"mem_insns\":{},\"mips_mem_on\":{:.2},\"mips_mem_off\":{:.2},",
                "\"mem_speedup\":{:.2},\"cycles_mem_on\":{},\"cycles_mem_off\":{},",
                "\"cycles_match\":{}}}"
            ),
            SEED,
            self.alu.insns,
            self.alu.insns as f64 / self.alu.secs_on,
            self.alu.insns as f64 / self.alu.secs_off,
            self.alu.mips_on(),
            self.alu.mips_off(),
            self.alu.speedup(),
            self.alu.cycles_on,
            self.alu.cycles_off,
            self.mem.insns,
            self.mem.mips_on(),
            self.mem.mips_off(),
            self.mem.speedup(),
            self.mem.cycles_on,
            self.mem.cycles_off,
            self.cycles_match(),
        )
    }
}

/// Which workload a machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Straight-line ALU loop.
    Alu,
    /// ALU mixed with loads/stores to a data page (micro-DTLB traffic).
    Mixed,
}

/// A machine whose EL0 program is a counted loop sized to retire roughly
/// `insns_target` instructions, on the accelerated engine (`accel`) or
/// the reference interpreter.
fn hot_loop_machine(insns_target: u64, accel: bool, workload: Workload) -> (Machine, u64) {
    let iters = (insns_target / (UNROLL + 2)).max(1);
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, iters);
    a.mov_imm64(11, DATA);
    let top = a.label();
    a.bind(top);
    for i in 0..UNROLL {
        let rd = 1 + (i % 7) as u8;
        match workload {
            Workload::Alu => {
                match i % 4 {
                    0 => a.add_imm(rd, rd, 1),
                    1 => a.eor_reg(rd, rd, 8),
                    2 => a.orr_reg(rd, rd, 9),
                    _ => a.add_reg(rd, rd, 10),
                };
            }
            Workload::Mixed => {
                match i % 4 {
                    0 => a.str(rd, 11, 8 * (i % 8)),
                    1 => a.ldr(rd, 11, 8 * ((i + 1) % 8)),
                    2 => a.add_imm(rd, rd, 1),
                    _ => a.eor_reg(rd, rd, 8),
                };
            }
        }
    }
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);

    let mut m = Machine::new(Platform::CortexA55);
    m.set_accel(accel);
    let root = alloc_table(&mut m.mem);
    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, &a.bytes());
    let perms = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
    s1_map_page(&mut m.mem, root, CODE, code_pa, perms);
    if workload == Workload::Mixed {
        let data_pa = m.mem.alloc_frame();
        let data_perms =
            S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
        s1_map_page(&mut m.mem, root, DATA, data_pa, data_perms);
    }
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.cpu.pstate = PState::user();
    m.cpu.pc = CODE;
    (m, iters * (UNROLL + 2) + 4)
}

fn timed_run(insns_target: u64, accel: bool, workload: Workload) -> (u64, u64, f64) {
    let (mut m, limit) = hot_loop_machine(insns_target, accel, workload);
    let start = Instant::now();
    let exit = m.run(limit + 100);
    let secs = start.elapsed().as_secs_f64();
    assert!(matches!(exit, Exit::El2(_)), "hot loop must run to its svc, got {exit:?}");
    (m.cpu.insns, m.cpu.cycles, secs)
}

fn measure(insns_target: u64, workload: Workload) -> Leg {
    // Warm-up both paths (JIT-less, but touches the allocator and heap).
    timed_run(insns_target / 10 + 1, false, workload);
    timed_run(insns_target / 10 + 1, true, workload);
    // The accelerated run goes last so a warm host (page tables,
    // allocator) biases *against* the layer being measured.
    let (insns_off, cycles_off, secs_off) = timed_run(insns_target, false, workload);
    let (insns_on, cycles_on, secs_on) = timed_run(insns_target, true, workload);
    assert_eq!(insns_on, insns_off, "instruction counts must not depend on the acceleration layer");
    Leg { insns: insns_on, cycles_on, cycles_off, secs_on, secs_off }
}

/// Measure both workloads in both modes.
pub fn run(insns_target: u64) -> ThroughputResult {
    let alu = measure(insns_target, Workload::Alu);
    // The mixed loop simulates slower per instruction; a quarter of the
    // budget keeps total bench time in the same ballpark.
    let mem = measure(insns_target / 4, Workload::Mixed);
    ThroughputResult { alu, mem }
}
