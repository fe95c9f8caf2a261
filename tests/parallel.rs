//! Parallel-executor equivalence: the epoch scheduler must produce
//! byte-identical runs with parallel epochs (`LZ_PARALLEL=1`: the
//! calling thread runs the first shell, the machine's helper threads
//! claim the others) and with sequential deterministic replay
//! (`LZ_PARALLEL=0`: the caller runs every shell in core order).
//!
//! "Byte-identical" is taken literally: exit codes, total steps,
//! per-core instruction and cycle tables, the SMP counters (epochs,
//! waits, barrier stalls, merge conflicts, shootdown/IPI traffic), the
//! kernel's context-switch count, and the *full JSON dump of the event
//! journal* are compared as values and strings. Random SMP programs
//! (clone/futex-join workers with optional munmap shootdown traffic
//! plus independent compute processes) are swept via proptest across
//! core counts, quanta, seeds, and both execution engines.
//!
//! This file is also the data-race smoke: the CI runs it in a debug
//! build, where the caller and the machine's parked helper threads
//! claim and run shells with debug assertions on (the closest in-tree
//! stand-in for TSan — the shells share nothing mutable, so a race
//! would show up as divergence here). The tiny-quantum stress test
//! makes nearly every epoch a race between the caller and a waking
//! helper, and the thread census checks that helpers never outlive
//! their machine.

use lz_arch::asm::Asm;
use lz_arch::Platform;
use lz_kernel::syscall::futex;
use lz_kernel::{Kernel, Program, SmpConfig, Sysno, VmProt};
use proptest::prelude::*;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// The host's thread count is process-wide, and libtest runs tests on
/// parallel threads. Every test here that runs epochs holds this lock
/// shared; the thread census holds it exclusively, so no other test
/// starts or joins threads while it counts.
static HOST_THREADS: RwLock<()> = RwLock::new(());

fn shared_host() -> RwLockReadGuard<'static, ()> {
    HOST_THREADS.read().unwrap_or_else(PoisonError::into_inner)
}

const CODE: u64 = 0x40_0000;
const SHARED: u64 = 0x50_0000;
const ARENA: u64 = 0x5100_0000;
const STACKS: u64 = 0x7000_0000;

/// A join-safe SMP program: `workers` cloned threads each pound a
/// private arena page `iters` times, optionally munmap it (IPI
/// shootdown traffic), post a flag word, and futex-wake the main
/// thread, which joins every flag. Every thread exits with the worker
/// count, so the process exit code is schedule-independent.
fn fan_out_prog(workers: u64, iters: u16, munmap: bool) -> Program {
    let mut a = Asm::new(CODE);
    let worker = a.label();
    for i in 0..workers {
        a.adr(0, worker);
        a.mov_imm64(1, STACKS + (i + 1) * 0x4000);
        a.mov_imm64(2, i);
        a.mov_imm64(8, Sysno::Clone.nr());
        a.svc(0);
    }
    for i in 0..workers {
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
    a.movz(0, workers as u16, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.mov_reg(19, 0);
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
    if munmap {
        a.mov_reg(0, 9);
        a.mov_imm64(1, 4096);
        a.mov_imm64(8, Sysno::Munmap.nr());
        a.svc(0);
    }
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
    a.movz(0, workers as u16, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    Program::from_code(CODE, a.bytes())
        .with_anon_segment(SHARED, lz_arch::PAGE_SIZE, VmProt::RW)
        .with_anon_segment(ARENA, workers.max(1) * 4096, VmProt::RW)
        .with_anon_segment(STACKS, (workers + 1) * 0x4000, VmProt::RW)
}

/// A single-thread compute loop (keeps extra cores busy between the
/// fan-out program's epochs).
fn compute_prog(iters: u16) -> Program {
    let mut a = Asm::new(CODE);
    a.movz(1, iters, 0);
    let top = a.label();
    a.bind(top);
    a.add_imm(2, 2, 3);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, top);
    a.movz(0, 0x2a, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    Program::from_code(CODE, a.bytes())
}

/// Everything a run can observe, as comparable values plus the raw
/// journal JSON.
#[derive(Debug, PartialEq)]
struct RunImage {
    exited: Vec<(u32, i64)>,
    steps: u64,
    stalled: bool,
    per_core: Vec<(u64, u64)>,
    ctx_switches: u64,
    epochs: u64,
    epoch_waits: u64,
    barrier_stalls: u64,
    merge_conflicts: u64,
    shootdowns: (u64, u64, u64),
    tlbi_broadcasts: u64,
    journal_json: String,
}

fn run_image(progs: &[Program], cores: usize, quantum: u64, seed: u64, accel: bool, parallel: bool) -> RunImage {
    let mut k = Kernel::new_host(Platform::CortexA55);
    k.machine.set_metrics(true);
    k.machine.set_accel(accel);
    k.machine.set_parallel(parallel);
    for p in progs {
        k.spawn(p);
    }
    let run = k.run_smp(SmpConfig { cores, quantum, seed }, 10_000_000);
    let m = &k.machine;
    RunImage {
        exited: run.exited,
        steps: run.steps,
        stalled: run.stalled,
        per_core: (0..m.num_cores()).map(|i| (m.core_cpu(i).insns, m.core_cpu(i).cycles)).collect(),
        ctx_switches: k.stats.ctx_switches,
        epochs: m.smp().epochs,
        epoch_waits: m.smp().epoch_waits,
        barrier_stalls: m.smp().barrier_stalls,
        merge_conflicts: m.smp().phys_merge_conflicts,
        shootdowns: (m.smp().shootdowns_sent, m.smp().shootdowns_acked, m.smp().ipis_sent),
        tlbi_broadcasts: m.smp().tlbi_broadcasts,
        journal_json: m.journal.dump_json(),
    }
}

/// The fixed-workload sweep: both engines, on 2 and 4 cores, must be
/// byte-identical across backends.
#[test]
fn feature_matrix_parallel_matches_replay() {
    let _host = shared_host();
    let progs = vec![fan_out_prog(3, 200, true), compute_prog(300)];
    for cores in [2usize, 4] {
        for accel in [false, true] {
            let par = run_image(&progs, cores, 48, 0x5eed, accel, true);
            let rep = run_image(&progs, cores, 48, 0x5eed, accel, false);
            assert!(!par.stalled, "stalled at cores={cores} accel={accel}");
            assert_eq!(par, rep, "parallel and replay diverged at cores={cores} accel={accel}");
        }
    }
}

/// An 8-core run exercises the full `MAX_CORES` shell fan-out.
#[test]
fn eight_core_parallel_matches_replay() {
    let _host = shared_host();
    let progs = vec![fan_out_prog(3, 150, true), fan_out_prog(2, 100, false), compute_prog(400)];
    let par = run_image(&progs, 8, 32, 0xfeed, true, true);
    let rep = run_image(&progs, 8, 32, 0xfeed, true, false);
    assert!(!par.stalled);
    assert_eq!(par, rep, "8-core parallel and replay diverged");
}

/// Helper stress: quanta of 1–64 instructions make most epochs shorter
/// than a helper's wake-up, so the caller and a helper race to claim
/// the same shell on nearly every epoch. At least 10,000 epochs on 2
/// and on 8 cores must each replay byte-identically.
#[test]
fn tiny_quanta_stress_parallel_matches_replay() {
    let _host = shared_host();
    let progs = vec![fan_out_prog(3, 300, true), compute_prog(2_000), compute_prog(1_500)];
    for cores in [2usize, 8] {
        let mut epochs = 0;
        for quantum in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 64] {
            let par = run_image(&progs, cores, quantum, 0xc1a1 ^ quantum, true, true);
            let rep = run_image(&progs, cores, quantum, 0xc1a1 ^ quantum, true, false);
            assert!(!par.stalled, "stalled at cores={cores} quantum={quantum}");
            assert_eq!(par, rep, "parallel and replay diverged at cores={cores} quantum={quantum}");
            epochs += par.epochs;
        }
        assert!(epochs >= 10_000, "{cores} cores ran only {epochs} epochs");
    }
}

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn host_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("status has a Threads line");
    line.trim().parse().expect("Threads is a count")
}

/// Helpers never outlive their machine: 64 two-core machines that ran
/// parallel epochs and were dropped leave no thread behind, and
/// `configure_smp` joins the helpers of the SMP state it replaces.
#[cfg(target_os = "linux")]
#[test]
fn epoch_helpers_never_outlive_their_machine() {
    let _alone = HOST_THREADS.write().unwrap_or_else(PoisonError::into_inner);
    let start = host_threads();
    let progs = vec![compute_prog(300), compute_prog(300)];
    for seed in 0..64 {
        let image = run_image(&progs, 2, 32, seed, true, true);
        assert!(image.epochs > 0 && !image.stalled);
    }
    assert_eq!(host_threads(), start, "a dropped machine left helper threads behind");

    let mut k = Kernel::new_host(Platform::CortexA55);
    k.machine.set_parallel(true);
    for p in &progs {
        k.spawn(p);
    }
    assert!(!k.run_smp(SmpConfig { cores: 2, quantum: 32, seed: 7 }, 1_000_000).stalled);
    assert_eq!(host_threads(), start + 1, "two-shell epochs run with one helper");
    k.machine.configure_smp(2);
    assert_eq!(host_threads(), start, "configure_smp left the old helpers running");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random SMP programs, core counts, quanta, seeds, and engines: the
    /// parallel backend must replay byte-identically.
    #[test]
    fn random_smp_runs_parallel_matches_replay(
        cores in 2usize..9,
        quantum in 16u64..129,
        seed in 0u64..1_000_000,
        workers in 1u64..4,
        iters in 50u16..501,
        compute_iters in 50u16..901,
        munmap in any::<bool>(),
        accel in any::<bool>(),
    ) {
        let _host = shared_host();
        let progs = vec![fan_out_prog(workers, iters, munmap), compute_prog(compute_iters)];
        let par = run_image(&progs, cores, quantum, seed, accel, true);
        let rep = run_image(&progs, cores, quantum, seed, accel, false);
        prop_assert!(!par.stalled, "stalled: cores={} quantum={} seed={}", cores, quantum, seed);
        prop_assert_eq!(par, rep);
    }
}
