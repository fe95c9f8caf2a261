//! `nvm_scan`: the Figure 5 cell "Carmel host, LightZone TTBR, 16
//! buffers" (`lz_workloads::nvm`), with a seeded search sequence. Every
//! search gates into the domain of one 2 MiB huge-page buffer, scans 700
//! bytes with `ldrb`, and gates back out. The warm-up pass, which faults
//! every page in, ends at a marker syscall; the measured phase repeats
//! the same pass, each pass ending at a marker too.

use crate::clock::Bench;
use crate::harness;
use crate::trace::{Boundary, Tracer};
use crate::Round;
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::gate::layout::{GATE_BASE, GATE_STRIDE};
use lightzone::LightZone;
use lz_arch::asm::Asm;
use lz_arch::Platform;
use lz_kernel::{Event, Sysno, VmProt};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const CODE: u64 = 0x40_0000;
const SEQ_BASE: u64 = 0x2000_0000;
const BUF_BASE: u64 = 0x8000_0000;
const BUF_BYTES: u64 = 2 << 20;
const STRINGS_PER_BUF: u64 = 64;
pub const BUFFERS: usize = 16;
pub const PLATFORM: Platform = Platform::Carmel;
const RUN_LIMIT: u64 = 3_000_000_000;
const MARKER: u64 = Sysno::Gettid.nr();

#[derive(Debug, Clone, Copy)]
pub struct NvmConfig {
    /// Searches per pass: the sequence length, and the warm-up.
    pub pass: usize,
    /// Measured passes.
    pub passes: usize,
    /// Instructions per op.
    pub slice: u64,
}

impl NvmConfig {
    pub const BENCH: NvmConfig = NvmConfig { pass: 2_000, passes: 8, slice: 1 << 13 };
}

/// `pass` seeded `(buffer index, scan address)` pairs, drawn exactly as
/// `lz_workloads::nvm` draws its fixed sequence.
pub fn sequence(rng_seed: u64, pass: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let slot_bytes = BUF_BYTES / STRINGS_PER_BUF;
    let mut bytes = Vec::with_capacity(pass * 16);
    for _ in 0..pass {
        let b = rng.random_range(0..BUFFERS);
        let slot = rng.random_range(0..STRINGS_PER_BUF);
        bytes.extend_from_slice(&(b as u64).to_le_bytes());
        bytes.extend_from_slice(&(BUF_BASE + b as u64 * BUF_BYTES + slot * slot_bytes).to_le_bytes());
    }
    bytes
}

fn emit_search(a: &mut Asm) {
    a.mov_imm64(24, lz_workloads::nvm::scan_bytes(PLATFORM));
    a.mov_reg(25, 19);
    let found = a.label();
    let scan = a.label();
    a.bind(scan);
    a.ldrb(26, 25, 0);
    a.add_imm(25, 25, 1);
    a.cmp_imm(26, 0xff);
    a.b_eq(found);
    a.subs_imm(24, 24, 1);
    a.b_ne(scan);
    a.bind(found);
}

/// The guest program: `lz_workloads::nvm`'s TTBR variant with a marker
/// syscall after the warm-up pass (over the whole sequence) and after
/// each of `passes` measured passes over its first `measured` entries.
pub fn program(seq: Vec<u8>, measured: usize, passes: u64) -> LzProgram {
    let warm = seq.len() / 16;
    let buffers = BUFFERS as u64;
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, seq, VmProt::R);
    b.with_huge_segment(BUF_BASE, buffers * BUF_BYTES, VmProt::RW);
    // Two call sites (warm-up, measured) need disjoint gate sets; the
    // last gate of each set leads back to the default table.
    let set = buffers + 1;
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..buffers {
        b.asm.lz_alloc();
        b.asm.lz_prot_imm(BUF_BASE + d * BUF_BYTES, BUF_BYTES, d + 1, RW);
        for pass in 0..2 {
            b.asm.lz_map_gate_pgt_imm(d + 1, pass * set + d);
        }
    }
    for pass in 0..2 {
        b.asm.lz_map_gate_pgt_imm(0, pass * set + buffers);
    }
    let shift = GATE_STRIDE.trailing_zeros() as u8;
    let mut enter = [0u64; 2];
    let mut leave = [0u64; 2];
    let a = &mut b.asm;
    for (pass, n) in [(0u64, warm), (1, measured)] {
        let outer = a.label();
        if pass == 1 {
            a.mov_imm64(22, passes);
            a.bind(outer);
        }
        a.mov_imm64(21, SEQ_BASE);
        a.mov_imm64(23, n as u64);
        let top = a.label();
        a.bind(top);
        a.ldr(18, 21, 0);
        a.ldr(19, 21, 8);
        a.add_imm(21, 21, 16);
        a.mov_imm64(17, GATE_BASE + pass * set * GATE_STRIDE);
        a.lsl_imm(16, 18, shift);
        a.add_reg(17, 17, 16);
        a.blr(17);
        enter[pass as usize] = a.here();
        emit_search(a);
        a.mov_imm64(17, GATE_BASE + (pass * set + buffers) * GATE_STRIDE);
        a.blr(17);
        leave[pass as usize] = a.here();
        a.subs_imm(23, 23, 1);
        a.b_ne(top);
        a.mov_imm64(8, MARKER);
        a.svc(0);
        if pass == 1 {
            a.subs_imm(22, 22, 1);
            a.b_ne(outer);
        }
    }
    a.exit_imm(0);
    for pass in 0..2u64 {
        for g in 0..buffers {
            b.register_gate_entry((pass * set + g) as u16, enter[pass as usize]);
        }
        b.register_gate_entry((pass * set + buffers) as u16, leave[pass as usize]);
    }
    b.build()
}

/// A host LightZone with `prog` spawned and entered, as
/// `lz_workloads::nvm` starts it.
fn boot(prog: &LzProgram, tr: &mut Tracer) -> LightZone {
    let mut lz = LightZone::new_host(PLATFORM);
    harness::pin_engine(&mut lz.kernel.machine);
    let pid = harness::spawn(&mut lz, tr, prog);
    lz.enter_process(pid);
    lz
}

/// One machine entry of at most `limit` instructions and its dispatch,
/// stamping the cycle counter at a marker. `Some` only for an event
/// that ends the guest.
fn step(lz: &mut LightZone, tr: &mut Tracer, limit: u64, marks: &mut Vec<u64>) -> Option<Event> {
    let exit = tr.span(Boundary::MachineRun, || lz.kernel.machine.run(limit));
    if harness::is_ve_syscall(&lz.kernel.machine, exit, MARKER) {
        marks.push(lz.kernel.machine.cpu.cycles);
    }
    match harness::dispatch(lz, tr, exit) {
        None | Some(Event::Limit) => None,
        ev => ev,
    }
}

/// Run `prog` to its end in machine entries of at most `slice`
/// instructions; returns the ending event, the cycle stamp of every
/// marker, and the final machine state.
pub fn run_sliced(prog: &LzProgram, slice: u64) -> (Event, Vec<u64>, LightZone) {
    let mut tr = Tracer::new(false, Instant::now());
    let mut lz = boot(prog, &mut tr);
    let mut marks = Vec::new();
    loop {
        if let Some(ev) = step(&mut lz, &mut tr, slice, &mut marks) {
            return (ev, marks, lz);
        }
    }
}

pub fn run(cfg: &NvmConfig, seed: u64, bench: &mut Bench) -> Round {
    let prog = program(sequence(harness::mix(seed, 2), cfg.pass), cfg.pass, cfg.passes as u64);
    let mut lz = boot(&prog, &mut bench.tr);
    let mut round = Round::default();

    // Set-up: lz_enter, domains and gates, and the warm-up pass.
    let mut marks = Vec::new();
    let mut end = None;
    while marks.is_empty() && end.is_none() {
        end = step(&mut lz, &mut bench.tr, RUN_LIMIT, &mut marks);
    }

    let before = harness::raw_lz(&lz);
    let entries0 = harness::entries(&bench.tr);
    while end.is_none() {
        let start = lz.kernel.machine.cpu.insns;
        bench.op_begin(start);
        while end.is_none() && lz.kernel.machine.cpu.insns - start < cfg.slice {
            let left = cfg.slice - (lz.kernel.machine.cpu.insns - start);
            end = step(&mut lz, &mut bench.tr, left, &mut marks);
        }
        bench.op_end(lz.kernel.machine.cpu.insns);
    }
    let after = harness::raw_lz(&lz);
    round.counters = harness::layer_counters(&before, &after, harness::entries(&bench.tr) - entries0);

    if end != Some(Event::Exited(0)) {
        round.fail(format!("guest ended with {end:?}"));
    }
    if marks.len() != cfg.passes + 1 {
        round.fail(format!("{} marker syscalls, expected {}", marks.len(), cfg.passes + 1));
    }
    // Passes over the same warm working set cost the same to within TLB
    // replacement noise.
    let per_pass: Vec<u64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    let (lo, hi) = (per_pass.iter().min(), per_pass.iter().max());
    if let (Some(&lo), Some(&hi)) = (lo, hi) {
        if (hi - lo) * 1000 > lo {
            round.fail(format!("warm passes differ by more than 0.1% in modelled cycles: {per_pass:?}"));
        }
    }
    for key in ["page_faults", "stage2_faults"] {
        if after[key] != before[key] {
            round.fail(format!("{key} during the warm measured phase"));
        }
    }
    let m = &lz.kernel.machine;
    round.output("setup_cycles", marks.first().copied().unwrap_or(0));
    round.output("pass_cycles", per_pass.first().copied().unwrap_or(0));
    round.output("searches", (cfg.pass * cfg.passes) as u64);
    round.output("insns", m.cpu.insns);
    round.output("cycles", m.cpu.cycles);
    round
}
