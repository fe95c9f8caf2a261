//! SMP integration tests: cross-core W^X security, IPI shootdown
//! traffic, the per-core scheduler, and multi-core differentials.
//!
//! The centrepiece is the cross-core break-before-make penetration
//! test: core 1 warms its TLB with the executable alias of a JIT page,
//! core 0 flips the page writable through the writer domain (W^X
//! break-before-make), and core 1 then tries to execute the page
//! again. With the IPI shootdown in place the stale translation is
//! gone and the fetch faults; with the deliberately-broken
//! `skip_remote_shootdown` ablation the stale TLB entry survives and
//! core 1 executes the attacker-written payload — proving the test
//! would catch a kernel that forgets remote TLB invalidation.

use lightzone::api::{LzAsm, LzProgramBuilder, RW};
use lightzone::sanitizer::WxState;
use lightzone::{AblationConfig, LightZone, LzProgram};
use lz_arch::asm::Asm;
use lz_arch::insn::{Insn, MemSize};
use lz_arch::pstate::PState;
use lz_arch::sysreg::SysReg;
use lz_arch::Platform;
use lz_kernel::syscall::futex;
use lz_kernel::{Event, Kernel, Program, SmpConfig, Sysno, VmProt};
use lz_machine::{EventKind, Machine};

const CODE: u64 = 0x40_0000;
const JIT: u64 = 0x61_0000;
const SHARED: u64 = 0x50_0000;
const STACKS: u64 = 0x7000_0000;
const SAN_TTBR: u64 = 0;
const READ_EXEC: u64 = 1 | 4;

// ---------------------------------------------------------------------
// Cross-core W^X penetration test
// ---------------------------------------------------------------------

/// Encode `movz x17, #imm` — the attacker payload / JIT seed.
fn movz_x17(imm: u16) -> u32 {
    let mut a = Asm::new(0);
    a.movz(17, imm, 0);
    u32::from_le_bytes(a.bytes()[..4].try_into().unwrap())
}

/// The JIT double-view program: a writer domain (pgt 1, RW) and an
/// executor domain (pgt 2, R+X) over the same page. It executes the
/// page once through the executor view, then stores `payload` through
/// the writer view — the W^X flip whose break-before-make must shoot
/// down every core's TLB.
fn wx_flip_prog(payload: u32) -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    let mut seed = Asm::new(JIT);
    seed.movz(17, 0x1111, 0);
    seed.ret();
    b.with_segment(JIT, seed.bytes(), VmProt::RWX);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.lz_alloc(); // 1: writer view
    b.asm.lz_alloc(); // 2: executor view
    b.asm.lz_map_gate_pgt_imm(1, 0);
    b.asm.lz_map_gate_pgt_imm(2, 1);
    b.asm.lz_map_gate_pgt_imm(0, 2);
    b.asm.lz_prot_imm(JIT, 4096, 1, RW);
    b.asm.lz_prot_imm(JIT, 4096, 2, READ_EXEC);
    // Execute once through the executor view (scanned clean).
    b.lz_switch_to_ttbr_gate(1);
    b.asm.mov_imm64(16, JIT);
    b.asm.blr(16);
    b.lz_switch_to_ttbr_gate(2); // back to default
                                 // Store the payload through the writer view: the write fault flips
                                 // the page out of the Executable state (break-before-make).
    b.lz_switch_to_ttbr_gate(0);
    b.asm.mov_imm64(1, JIT);
    b.asm.mov_imm64(2, payload as u64);
    b.asm.emit(Insn::StrImm { rt: 2, rn: 1, offset: 0, size: MemSize::W });
    b.asm.exit_imm(0);
    b.build()
}

/// Step the LightZone run by small instruction quanta until `cond`
/// holds, panicking on any event other than the limit.
fn step_until(lz: &mut LightZone, chunk: u64, mut cond: impl FnMut(&LightZone) -> bool) {
    for _ in 0..200_000 {
        if cond(lz) {
            return;
        }
        match lz.run(chunk) {
            Event::Limit => {}
            other => panic!("unexpected event while stepping: {other:?}"),
        }
    }
    panic!("condition never became true");
}

/// On core 1, attempt to execute the JIT page through the executor
/// domain and report what landed in x17 (0 = the fetch faulted, the
/// seed/payload marker otherwise). Restores core 0 as active.
fn probe_jit_on_core1(m: &mut Machine, executor_ttbr0: u64) -> u64 {
    m.switch_core(1);
    m.set_sysreg(SysReg::TTBR0_EL1, executor_ttbr0);
    m.cpu.x[17] = 0;
    m.cpu.x[30] = 0; // the JIT stub's `ret` then faults, ending the run
    m.enter(PState::reset(), JIT);
    let _ = m.run(4);
    let hit = m.cpu.x[17];
    m.switch_core(0);
    hit
}

/// Drive the cross-core attack on `cores` cores. Returns
/// `(warm, after, shootdowns_sent)`: x17 from core 1's pre-flip warm-up
/// execution and from its post-flip probe, plus the IPI counter.
fn run_cross_core_attack(cores: usize, skip_remote_shootdown: bool) -> (u64, u64, u64) {
    run_cross_core_attack_on(cores, skip_remote_shootdown, lz_machine::default_accel())
}

/// Same attack pinned to one engine: on the accelerated one, core 1's
/// warm-up leaves a hot compiled block over the JIT page, which must
/// behave exactly like the reference interpreter's TLB under the flip —
/// in both ablation polarities. (The single-core armed-DTLB variant
/// lives in `tests/differential.rs`.)
fn run_cross_core_attack_on(cores: usize, skip_remote_shootdown: bool, accel: bool) -> (u64, u64, u64) {
    let ablation = AblationConfig { skip_remote_shootdown, ..AblationConfig::default() };
    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, ablation);
    lz.kernel.machine.set_accel(accel);
    let payload = movz_x17(0xbeef);
    let pid = lz.spawn(&wx_flip_prog(payload));
    lz.enter_process(pid);

    // Phase 1: run until the JIT page went executable (the first blr's
    // fetch fault scanned it clean). The tiny quantum pauses the run
    // within a couple of instructions of the transition.
    step_until(&mut lz, 2, |lz| lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Executable)));

    // Bring the secondary cores online *inside* the VE so they inherit
    // the full VE translation regime (stage 2, TTBR1, SCTLR, HCR), as
    // firmware-booted cores sharing the VE would.
    lz.kernel.machine.configure_smp(cores);
    let executor_ttbr0 = lz.module.proc(pid).unwrap().tables[2].as_ref().unwrap().ttbr0();

    // Core 1 executes the clean JIT stub, warming its private TLB with
    // the executable translation.
    let warm = probe_jit_on_core1(&mut lz.kernel.machine, executor_ttbr0);

    // Phase 2: resume core 0 until the W^X flip happened and the
    // attacker's store actually landed in physical memory.
    let jit_pa = lz.kernel.process(pid).mm.page_at(JIT).expect("JIT page faulted in");
    step_until(&mut lz, 2, |lz| {
        lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Writable))
            && lz.kernel.machine.mem.read_u32(jit_pa) == Some(payload)
    });

    // Phase 3: core 1 re-executes the JIT page. Only a stale TLB entry
    // can still translate it — the flip unmapped the page from every
    // domain table.
    let after = probe_jit_on_core1(&mut lz.kernel.machine, executor_ttbr0);
    (warm, after, lz.kernel.machine.smp().shootdowns_sent)
}

#[test]
fn cross_core_wx_flip_is_shot_down() {
    let (warm, after, sent) = run_cross_core_attack(2, false);
    assert_eq!(warm, 0x1111, "core 1 executed the clean JIT stub before the flip");
    assert_eq!(after, 0, "stale executable alias must be gone after the BBM flip");
    assert_eq!(sent, 1, "one IPI shootdown to the one remote core");
}

#[test]
fn cross_core_wx_flip_leaks_without_shootdown() {
    // Negative assertion: with the IPI deliberately skipped, the very
    // same attack *succeeds* — core 1's stale TLB entry still
    // translates the unmapped page and it executes the attacker's
    // freshly-written payload. This proves the positive test above is
    // actually sensitive to the shootdown, not vacuously passing.
    let (warm, after, sent) = run_cross_core_attack(2, true);
    assert_eq!(warm, 0x1111);
    assert_eq!(after, 0xbeef, "broken kernel: core 1 ran attacker-written bytes");
    assert_eq!(sent, 0, "no IPIs were sent by the broken kernel");
}

#[test]
fn bbm_flip_shoots_down_every_remote_core() {
    let (warm, after, sent) = run_cross_core_attack(4, false);
    assert_eq!(warm, 0x1111);
    assert_eq!(after, 0);
    assert_eq!(sent, 3, "exactly one IPI per remote core for the single flip");
}

#[test]
fn cross_core_wx_flip_shot_down_in_both_fastpath_polarities() {
    // The fix and the engine must be independent: with the shootdown in
    // place the stale translation dies whether or not core 1's hot
    // compiled block / micro-TLB state exists, with identical observables.
    let on = run_cross_core_attack_on(2, false, true);
    let off = run_cross_core_attack_on(2, false, false);
    assert_eq!(on, off, "the engine changed the shootdown outcome");
    assert_eq!(on, (0x1111, 0, 1));
}

#[test]
fn cross_core_wx_flip_leak_is_fastpath_invariant() {
    // Equivalence, not freshness: the deliberately-broken kernel leaks
    // the stale executable alias *identically* on both engines — the
    // accelerated engine may only reproduce the reference interpreter's
    // staleness, never add to it or hide it.
    let on = run_cross_core_attack_on(2, true, true);
    let off = run_cross_core_attack_on(2, true, false);
    assert_eq!(on, off, "the engine changed the broken kernel's leak");
    assert_eq!(on, (0x1111, 0xbeef, 0), "broken kernel: core 1 ran attacker-written bytes");
}

#[test]
fn cross_core_wx_flip_shot_down_in_both_jit_polarities() {
    // The same equivalence with three remote cores: the compiled block
    // over the JIT page dies with the shootdown on every core it ran on,
    // with the observables of the reference interpreter.
    let on = run_cross_core_attack_on(4, false, true);
    let off = run_cross_core_attack_on(4, false, false);
    assert_eq!(on, off, "the engine changed the four-core shootdown outcome");
    assert_eq!(on, (0x1111, 0, 3));
}

#[test]
fn cross_core_wx_flip_leak_is_jit_invariant() {
    // Equivalence under the deliberately-broken kernel on four cores:
    // compiled blocks may only reproduce the reference interpreter's
    // staleness, never add to it or hide it.
    let on = run_cross_core_attack_on(4, true, true);
    let off = run_cross_core_attack_on(4, true, false);
    assert_eq!(on, off, "the engine changed the broken kernel's four-core leak");
    assert_eq!(on, (0x1111, 0xbeef, 0), "broken kernel: core 1 ran attacker-written bytes");
}

#[test]
fn shootdown_emits_journal_events() {
    let ablation = AblationConfig::default();
    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, ablation);
    lz.kernel.machine.set_metrics(true);
    let payload = movz_x17(0xbeef);
    let pid = lz.spawn(&wx_flip_prog(payload));
    lz.enter_process(pid);
    step_until(&mut lz, 2, |lz| lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Executable)));
    lz.kernel.machine.configure_smp(3);
    step_until(&mut lz, 2, |lz| lz.module.proc(pid).is_some_and(|p| p.wx.state(JIT) == Some(WxState::Writable)));
    let j = &lz.kernel.machine.journal;
    assert_eq!(j.count(|e| matches!(e, EventKind::Ipi { .. })), 2, "one Ipi event per remote core");
    assert_eq!(j.count(|e| matches!(e, EventKind::Shootdown { targets: 2, .. })), 1);
}

// ---------------------------------------------------------------------
// SMP scheduler
// ---------------------------------------------------------------------

/// A two-thread program joined by a futex: the worker adds its argument
/// into a shared cell and wakes the main thread, which exits with the
/// sum.
///
/// The main thread deposits its own contribution *before* cloning the
/// worker: `clone` commits at an epoch barrier, so the store is merged
/// before the worker's first snapshot and the read-modify-write chain
/// is race-free under the epoch commit model (two cores incrementing
/// the same word inside one epoch would be a genuine data race on real
/// SMP hardware too).
fn futex_join_prog() -> Program {
    let mut a = Asm::new(CODE);
    let worker = a.label();
    a.mov_imm64(9, SHARED);
    a.ldr(3, 9, 0);
    a.add_imm(3, 3, 10);
    a.str(3, 9, 0);
    a.adr(0, worker);
    a.mov_imm64(1, STACKS + 0x4000);
    a.mov_imm64(2, 5);
    a.mov_imm64(8, Sysno::Clone.nr());
    a.svc(0);
    let wait = a.label();
    let done = a.label();
    a.bind(wait);
    a.ldr(4, 9, 8);
    a.cbnz(4, done);
    a.mov_imm64(0, SHARED + 8);
    a.mov_imm64(1, futex::WAIT);
    a.movz(2, 0, 0);
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    a.b(wait);
    a.bind(done);
    a.ldr(0, 9, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.mov_imm64(9, SHARED);
    a.ldr(3, 9, 0);
    a.add_reg(3, 3, 0);
    a.str(3, 9, 0);
    a.movz(4, 1, 0);
    a.str(4, 9, 8);
    a.mov_imm64(0, SHARED + 8);
    a.mov_imm64(1, futex::WAKE);
    a.movz(2, 1, 0);
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    // The worker exits with the sum it computed: the process exit code
    // is the last thread's code, and under epoch scheduling the worker's
    // post-wake exit can commit after the main thread's.
    a.mov_reg(0, 3);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    Program::from_code(CODE, a.bytes()).with_anon_segment(SHARED, lz_arch::PAGE_SIZE, VmProt::RW).with_anon_segment(
        STACKS,
        0x8000,
        VmProt::RW,
    )
}

/// A single-thread compute loop that exits with `0x2a`.
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

/// Everything observable about one `run_smp` invocation.
#[derive(Debug, PartialEq)]
struct SmpSnapshot {
    exited: Vec<(u32, i64)>,
    steps: u64,
    stalled: bool,
    per_core: Vec<(u64, u64)>, // (insns, cycles) per core
    shootdowns: (u64, u64, u64),
    ctx_switches: u64,
}

/// Run `progs` under `run_smp` on the accelerated engine (`accel`) or
/// the reference interpreter. `configure_smp` inside `run_smp` must
/// propagate the engine to every secondary core.
fn run_smp_snapshot(progs: &[Program], cfg: SmpConfig, accel: bool) -> SmpSnapshot {
    let mut k = Kernel::new_host(Platform::CortexA55);
    k.machine.set_accel(accel);
    for p in progs {
        k.spawn(p);
    }
    let run = k.run_smp(cfg, 10_000_000);
    let m = &k.machine;
    SmpSnapshot {
        exited: run.exited,
        steps: run.steps,
        stalled: run.stalled,
        per_core: (0..m.num_cores()).map(|i| (m.core_cpu(i).insns, m.core_cpu(i).cycles)).collect(),
        shootdowns: (m.smp().shootdowns_sent, m.smp().shootdowns_acked, m.smp().ipis_sent),
        ctx_switches: k.stats.ctx_switches,
    }
}

#[test]
fn run_smp_futex_join_completes() {
    let snap = run_smp_snapshot(&[futex_join_prog()], SmpConfig::default(), true);
    assert!(!snap.stalled);
    assert_eq!(snap.exited, vec![(1, 15)], "both threads contributed to the sum");
}

#[test]
fn clone_places_threads_on_distinct_cores() {
    let snap = run_smp_snapshot(&[futex_join_prog()], SmpConfig { cores: 2, ..SmpConfig::default() }, true);
    assert_eq!(snap.exited, vec![(1, 15)]);
    assert!(snap.per_core[0].0 > 0, "core 0 retired instructions");
    assert!(snap.per_core[1].0 > 0, "cloned worker ran on the other core");
}

#[test]
fn run_smp_is_deterministic() {
    let cfg = SmpConfig { cores: 4, quantum: 32, seed: 0xfeed };
    let progs = || vec![futex_join_prog(), compute_prog(400), compute_prog(90)];
    let a = run_smp_snapshot(&progs(), cfg, true);
    let b = run_smp_snapshot(&progs(), cfg, true);
    assert_eq!(a, b, "same config must reproduce byte-identical runs");
    assert!(!a.stalled);
    assert_eq!(a.exited.len(), 3);
}

#[test]
fn run_smp_seeds_vary_schedule_not_results() {
    let progs = || vec![futex_join_prog(), compute_prog(300)];
    let mut a = run_smp_snapshot(&progs(), SmpConfig { cores: 2, quantum: 32, seed: 1 }, true);
    let mut b = run_smp_snapshot(&progs(), SmpConfig { cores: 2, quantum: 32, seed: 99 }, true);
    a.exited.sort_unstable();
    b.exited.sort_unstable();
    assert_eq!(a.exited, b.exited, "exit codes are schedule-independent");
}

/// A main thread that clones `workers` compute workers (each pounds its
/// own arena page then posts a futex slot) and joins them all — the
/// shape of the `repro smp` workload, where initial placement plus
/// lone-entry queues used to leave core 0 nearly idle.
fn multi_worker_prog(workers: u64, iters: u16) -> Program {
    const ARENA: u64 = 0x5100_0000;
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
    a.movz(3, 0, 0);
    for i in 0..workers {
        a.mov_imm64(11, SHARED + i * 8);
        a.ldr(4, 11, 0);
        a.add_reg(3, 3, 4);
    }
    a.mov_reg(0, 3);
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
    // Exit with the expected join sum (see futex_join_prog on why every
    // thread exits with the intended process code).
    a.movz(0, workers as u16, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    Program::from_code(CODE, a.bytes())
        .with_anon_segment(SHARED, lz_arch::PAGE_SIZE, VmProt::RW)
        .with_anon_segment(ARENA, workers * 0x1000, VmProt::RW)
        .with_anon_segment(STACKS, (workers + 1) * 0x4000, VmProt::RW)
}

#[test]
fn four_core_load_is_roughly_balanced() {
    // Regression for the `repro smp` imbalance where core 0 retired 63
    // of ~9000 instructions at 4 cores: work stealing must be willing
    // to take a queued thread from a queue of one while several threads
    // are runnable system-wide, so no core sits idle through the run.
    let snap = run_smp_snapshot(&[multi_worker_prog(3, 600)], SmpConfig { cores: 4, quantum: 64, seed: 0x5eed }, true);
    assert!(!snap.stalled);
    assert_eq!(snap.exited, vec![(1, 3)], "all workers joined");
    let insns: Vec<u64> = snap.per_core.iter().map(|&(i, _)| i).collect();
    let mean = insns.iter().sum::<u64>() / insns.len() as u64;
    let min = *insns.iter().min().unwrap();
    assert!(min * 3 >= mean, "per-core load is badly imbalanced: {insns:?} (min {min}, mean {mean})");
}

#[test]
fn work_stealing_drains_imbalanced_queues() {
    // Three single-thread processes on two cores: initial placement is
    // round-robin (two on core 0), so core 1 must steal the third
    // process to finish the run.
    let progs = || vec![compute_prog(500), compute_prog(10), compute_prog(500)];
    let snap = run_smp_snapshot(&progs(), SmpConfig { cores: 2, quantum: 64, seed: 7 }, true);
    assert!(!snap.stalled);
    assert_eq!(snap.exited.len(), 3);
    assert!(snap.per_core[0].0 > 0 && snap.per_core[1].0 > 0);
}

// ---------------------------------------------------------------------
// SMP differentials
// ---------------------------------------------------------------------

#[test]
fn smp_run_fetch_cache_on_off_identical() {
    let cfg = SmpConfig { cores: 2, quantum: 48, seed: 0x5eed };
    let progs = || vec![futex_join_prog(), compute_prog(200)];
    let on = run_smp_snapshot(&progs(), cfg, true);
    let off = run_smp_snapshot(&progs(), cfg, false);
    assert_eq!(on, off, "the engine must not change SMP-observable state");
}

#[test]
fn smp_run_fastpath_on_off_identical() {
    // The full SMP differential: quantum interleaving, cross-core
    // shootdowns, futex traffic — compiled blocks must observe the exact
    // same instruction boundaries the stepper does, or slices (and thus
    // the whole schedule) shift.
    for cores in [2usize, 4] {
        let cfg = SmpConfig { cores, quantum: 48, seed: 0x5eed };
        let progs = || vec![multi_worker_prog(3, 200), compute_prog(200)];
        let on = run_smp_snapshot(&progs(), cfg, true);
        let off = run_smp_snapshot(&progs(), cfg, false);
        assert_eq!(on, off, "the engine changed SMP-observable state at {cores} cores");
        assert!(!on.stalled);
    }
}

#[test]
fn idle_extra_cores_do_not_change_cycles() {
    // A single-threaded workload must retire the same instructions and
    // cycles whether it runs on a 1-core or a 4-core machine: the extra
    // cores stay idle and cost nothing.
    let one = run_smp_snapshot(&[compute_prog(700)], SmpConfig { cores: 1, quantum: 64, seed: 3 }, true);
    let four = run_smp_snapshot(&[compute_prog(700)], SmpConfig { cores: 4, quantum: 64, seed: 3 }, true);
    assert_eq!(one.exited, four.exited);
    assert_eq!(one.steps, four.steps);
    assert_eq!(one.per_core[0], four.per_core[0], "the busy core's insns/cycles match exactly");
    assert!(four.per_core[1..].iter().all(|&(i, _)| i == 0), "extra cores stayed idle");
}

#[test]
fn smp_metrics_on_off_identical() {
    let cfg = SmpConfig { cores: 2, quantum: 48, seed: 0x5eed };
    let run = |metrics: bool| {
        let mut k = Kernel::new_host(Platform::CortexA55);
        k.machine.set_metrics(metrics);
        k.spawn(&futex_join_prog());
        let r = k.run_smp(cfg, 10_000_000);
        (r.exited, r.steps, k.machine.cpu.cycles, k.machine.journal.is_empty())
    };
    let (ex_on, st_on, cy_on, empty_on) = run(true);
    let (ex_off, st_off, cy_off, empty_off) = run(false);
    assert_eq!((ex_on, st_on, cy_on), (ex_off, st_off, cy_off), "journal changed modelled state");
    assert!(!empty_on, "enabled journal observed the run");
    assert!(empty_off, "disabled journal recorded events");
}
