//! `ve_churn`: minimal VEs through their whole life — spawn,
//! `schedule_to`, `lz_enter`, a seeded number of syscalls, exit, reap —
//! one after another on a host kernel, enough of them to roll the 16-bit
//! VMID space over once. One op is one lifecycle.

use crate::clock::Bench;
use crate::harness;
use crate::trace::Boundary;
use crate::Round;
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, SAN_PAN};
use lightzone::LightZone;
use lz_arch::Platform;
use lz_kernel::{Event, Sysno};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const PLATFORM: Platform = Platform::Carmel;
const CODE: u64 = 0x40_0000;
const RUN_LIMIT: u64 = 1_000_000;
/// Program variants: a VE makes 0, 1 or 2 syscalls before it exits.
const VARIANTS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Lifecycles run during set-up, untimed.
    pub warm: usize,
    /// Timed lifecycles. With `warm`, more than 65,535 roll the VMID
    /// space over.
    pub ves: usize,
}

impl ChurnConfig {
    pub const BENCH: ChurnConfig = ChurnConfig { warm: 512, ves: 66_000 };
}

fn program(syscalls: usize) -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(false, SAN_PAN);
    for _ in 0..syscalls {
        b.asm.mov_imm64(8, Sysno::Gettid.nr());
        b.asm.svc(0);
    }
    b.asm.exit_imm(0);
    b.build()
}

/// One lifecycle; `Err` says what went wrong.
fn lifecycle(lz: &mut LightZone, bench: &mut Bench, prog: &LzProgram) -> Result<(), String> {
    let tr = &mut bench.tr;
    let pid = harness::spawn(lz, tr, prog);
    tr.span(Boundary::LzScheduleTo, || lz.schedule_to(pid));
    match harness::run_to_event(lz, tr, RUN_LIMIT) {
        Event::Exited(0) => {}
        ev => return Err(format!("VE {pid} ended with {ev:?}")),
    }
    if !tr.span(Boundary::KernelReap, || lz.kernel.reap(pid)) {
        return Err(format!("kernel could not reap VE {pid}"));
    }
    if !tr.span(Boundary::LzReap, || lz.module.reap(&mut lz.kernel, pid)) {
        return Err(format!("module could not reap VE {pid}"));
    }
    Ok(())
}

pub fn run(cfg: &ChurnConfig, seed: u64, bench: &mut Bench) -> Round {
    let progs: Vec<LzProgram> = (0..VARIANTS).map(program).collect();
    let mut rng = StdRng::seed_from_u64(harness::mix(seed, 4));
    let picks: Vec<u8> = (0..cfg.warm + cfg.ves).map(|_| rng.random_range(0..VARIANTS as u8)).collect();
    let mut lz = LightZone::new_host(PLATFORM);
    harness::pin_engine(&mut lz.kernel.machine);
    let mut round = Round::default();
    for &p in &picks[..cfg.warm] {
        if let Err(e) = lifecycle(&mut lz, bench, &progs[p as usize]) {
            round.fail(e);
            return round;
        }
    }

    let before = harness::raw_lz(&lz);
    let entries0 = harness::entries(&bench.tr);
    for &p in &picks[cfg.warm..] {
        bench.op_begin(lz.kernel.machine.cpu.insns);
        let r = lifecycle(&mut lz, bench, &progs[p as usize]);
        bench.op_end(lz.kernel.machine.cpu.insns);
        if let Err(e) = r {
            round.fail(e);
            break;
        }
    }
    let after = harness::raw_lz(&lz);
    round.counters = harness::layer_counters(&before, &after, harness::entries(&bench.tr) - entries0);

    let total = (cfg.warm + cfg.ves) as u64;
    let (recycles, shootdowns) = (after["vmid_recycles"], after["rollover_shootdowns"]);
    if total > u16::MAX as u64 && after["vmid_rollovers"] == 0 {
        round.fail(format!("{total} VEs did not roll the VMID space over"));
    }
    if shootdowns < recycles {
        round.fail(format!("{recycles} recycled VMIDs but only {shootdowns} shoot-downs"));
    }
    if after["ve_reaps"] != total || after["domains"] != 0 || after["processes"] != 0 {
        round.fail("VEs left behind after reaping every one".into());
    }
    round.output("ve_reaps", after["ve_reaps"]);
    round.output("vmid_recycles", recycles);
    round.output("vmid_rollovers", after["vmid_rollovers"]);
    round.output("rollover_shootdowns", shootdowns);
    round.output("insns", lz.kernel.machine.cpu.insns);
    round.output("cycles", lz.kernel.machine.cpu.cycles);
    round
}
