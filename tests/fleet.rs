//! Fleet-scale churn regressions: per-process ASID exhaustion must be a
//! denied allocation (not a host panic), `lz_free` must return table
//! ASIDs to the recycling pool with reuse-time invalidation, reaping an
//! exited VE must return every frame it pinned, and the fleet counters
//! plus the smoke-scale fleet run must stay byte-deterministic.

use lightzone::api::{LzAsm, LzProgramBuilder, SAN_PAN, SAN_TTBR};
use lightzone::{LightZone, SECURITY_KILL};
use lz_arch::Platform;
use lz_fleet::{run_fleet, FleetConfig};
use lz_kernel::{Event, Pid, Sysno};
use lz_machine::json::Json;
use lz_machine::{EventKind, Exit, LzFault};

const CODE: u64 = 0x40_0000;

/// Emit one `lz_alloc` and route its result into the counters:
/// `x20 += 1` on success, `x21 += 1` when the call returns `u64::MAX`.
/// (`x0 + 1 == 0` exactly when `x0 == u64::MAX`, so the wrapped sum
/// doubles as the failure predicate without needing a 64-bit compare.)
fn counted_alloc(b: &mut LzProgramBuilder) {
    b.asm.lz_alloc();
    b.asm.add_imm(9, 0, 1);
    let fail = b.asm.label();
    let done = b.asm.label();
    b.asm.cbz(9, fail);
    b.asm.add_imm(20, 20, 1);
    b.asm.b(done);
    b.asm.bind(fail);
    b.asm.add_imm(21, 21, 1);
    b.asm.bind(done);
}

fn exit_with_x0(b: &mut LzProgramBuilder) {
    b.asm.mov_imm64(8, Sysno::Exit.nr());
    b.asm.svc(0);
}

/// A scalable VE that attempts `attempts` table allocations and exits
/// with `successes | failures << 8`.
fn alloc_burst(attempts: usize) -> lightzone::LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.movz(20, 0, 0);
    b.asm.movz(21, 0, 0);
    for _ in 0..attempts {
        counted_alloc(&mut b);
    }
    b.asm.lsl_imm(9, 21, 8);
    b.asm.add_reg(0, 20, 9);
    exit_with_x0(&mut b);
    b.build()
}

#[test]
fn asid_exhaustion_denies_alloc_gracefully() {
    // Shrink the per-process table-ASID space to 4: pgt0 takes the
    // first ASID at lz_enter, so exactly 3 of 6 lz_allocs can succeed.
    // The remaining 3 must come back as u64::MAX — a denied syscall the
    // guest observes and survives, never a kill or a host panic.
    let mut lz = LightZone::new_host(Platform::Carmel);
    lz.module.asid_space = 4;
    let pid = lz.spawn(&alloc_burst(6));
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    assert_eq!(code & 0xff, 3, "successes before exhaustion");
    assert_eq!(code >> 8, 3, "denied allocations after exhaustion");
    // Denials are not recycles: nothing was freed, so nothing rolled.
    assert_eq!(lz.module.asid_recycles(), 0);
    assert_eq!(lz.module.rollover_shootdowns, 0);
}

#[test]
fn lz_free_returns_asids_to_the_recycling_pool() {
    // Space 4 again: allocs land pgts 1..=3 (ASIDs 2..=4), a 4th is
    // denied, then freeing pgt 1 returns its ASID and the next alloc
    // succeeds on the recycled-ID path. Exit code packs
    // `successes | free_ret << 4 | new_pgt << 8`.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.movz(20, 0, 0);
    b.asm.movz(21, 0, 0);
    for _ in 0..4 {
        counted_alloc(&mut b);
    }
    b.asm.lz_free_imm(1);
    b.asm.mov_reg(22, 0); // lz_free result (0 on success)
    b.asm.lz_alloc();
    b.asm.mov_reg(23, 0); // recycled-ASID table's pgt id
    b.asm.lsl_imm(9, 22, 4);
    b.asm.add_reg(0, 20, 9);
    b.asm.lsl_imm(9, 23, 8);
    b.asm.add_reg(0, 0, 9);
    exit_with_x0(&mut b);
    let prog = b.build();

    let mut lz = LightZone::new_host(Platform::Carmel);
    lz.module.asid_space = 4;
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    assert_eq!(code & 0xf, 3, "initial successes");
    assert_eq!((code >> 4) & 0xf, 0, "lz_free succeeded");
    // Freed table slots are not reused — the new table gets a fresh
    // pgt id (4) over a recycled ASID.
    assert_eq!(code >> 8, 4, "post-free alloc succeeded with a new pgt id");
    assert_eq!(lz.module.asid_recycles(), 1);
    // The recycled grant forced a (vmid, asid)-scoped reuse shoot-down.
    assert!(lz.module.rollover_shootdowns >= 1);
}

#[test]
fn asid_denial_then_free_recovers() {
    // The exhaustion-recovery contract on the per-process table-ASID
    // allocator: drive it to an observed `IdExhausted` denial, free one
    // table, and the very next alloc must be granted again (on the
    // recycled-ID path). Exit code packs
    // `successes | denials << 4 | free_ret << 8`.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.movz(20, 0, 0);
    b.asm.movz(21, 0, 0);
    for _ in 0..4 {
        counted_alloc(&mut b); // pgt0 holds ASID 1, so the 4th is denied
    }
    b.asm.lz_free_imm(1);
    b.asm.mov_reg(22, 0); // lz_free result (0 on success)
    counted_alloc(&mut b); // the post-denial grant under test
    b.asm.lsl_imm(9, 21, 4);
    b.asm.add_reg(0, 20, 9);
    b.asm.lsl_imm(9, 22, 8);
    b.asm.add_reg(0, 0, 9);
    exit_with_x0(&mut b);
    let prog = b.build();

    let mut lz = LightZone::new_host(Platform::Carmel);
    lz.module.asid_space = 4;
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    assert_eq!(code & 0xf, 4, "the freed ASID was granted again");
    assert_eq!((code >> 4) & 0xf, 1, "exactly one denial before the free");
    assert_eq!(code >> 8, 0, "lz_free succeeded");
    assert_eq!(lz.module.asid_recycles(), 1, "recovery went through recycling");
}

#[test]
fn vmid_exhaustion_denial_then_reap_recovers() {
    // Same contract one layer up, on the VMID allocator: with every
    // VMID simultaneously live `lz_enter` is a typed denial the guest
    // observes (u64::MAX, exiting 0 here) — not a kill or host panic —
    // and reaping one dead VE un-wedges the allocator, with the next
    // grant taking the generation-tagged recycled path.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    // lz_enter leaves 0 in x0 on success, u64::MAX on denial; +1 turns
    // that into exit code 1 (entered) / 0 (denied).
    b.asm.add_imm(0, 0, 1);
    exit_with_x0(&mut b);
    let prog = b.build();

    let mut lz = LightZone::new_host(Platform::Carmel);
    lz.kernel.vmids = lz_kernel::IdAlloc::with_space(2);
    let run = |lz: &mut LightZone| {
        let pid = lz.spawn(&prog);
        lz.schedule_to(pid); // restores the host regime after a VE exit
        (pid, lz.run_to_exit())
    };
    let (first, code) = run(&mut lz);
    assert_eq!(code, 1, "first enter granted");
    let (_, code) = run(&mut lz);
    assert_eq!(code, 1, "second enter granted");
    // The space is fully live (exited VEs hold their VMID until reaped).
    let (_, code) = run(&mut lz);
    assert_eq!(code, 0, "exhausted space denies lz_enter");
    assert_eq!(lz.kernel.vmids.recycles(), 0, "denial is not a recycle");

    assert!(lz.reap(first), "reaping returns the VMID");
    let (_, code) = run(&mut lz);
    assert_eq!(code, 1, "post-reap enter granted again");
    assert_eq!(lz.kernel.vmids.recycles(), 1, "recovery reused the freed VMID");
}

#[test]
fn reap_returns_every_frame_to_the_allocator() {
    // Spawn/run/reap one VE to absorb any one-time allocations, then
    // measure: a second full cycle must return the frame count exactly
    // to the post-warmup baseline (stage-1 trees, stage-2 tree, stub,
    // gate pages, table frames — everything).
    let prog = alloc_burst(3);
    let mut lz = LightZone::new_host(Platform::Carmel);
    let warm = lz.spawn(&prog);
    lz.enter_process(warm);
    lz.run_to_exit();
    assert!(lz.reap(warm));
    let baseline = lz.kernel.machine.mem.allocated_frames();

    let pid = lz.spawn(&prog);
    lz.schedule_to(pid);
    lz.run_to_exit();
    let peak = lz.kernel.machine.mem.allocated_frames();
    assert!(peak > baseline, "the VE pinned frames while alive");
    assert!(lz.reap(pid));
    assert_eq!(lz.kernel.machine.mem.allocated_frames(), baseline, "reap leaked frames");
}

#[test]
fn fleet_counters_survive_reap() {
    // Counters must aggregate retired VEs: after the only process is
    // reaped, domains_live drops to zero but ve_reaps and the ASID
    // recycling traffic it generated remain visible.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.movz(20, 0, 0);
    b.asm.movz(21, 0, 0);
    for _ in 0..3 {
        counted_alloc(&mut b);
    }
    b.asm.lz_free_imm(1);
    counted_alloc(&mut b); // recycled-ASID grant
    b.asm.mov_reg(0, 20);
    exit_with_x0(&mut b);
    let prog = b.build();

    let mut lz = LightZone::new_host(Platform::Carmel);
    lz.module.asid_space = 4;
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    lz.run_to_exit();

    let live = lz.fleet_section();
    assert_eq!(live.get("domains_live"), Some(4));
    assert_eq!(live.get("vmid_live"), Some(1));
    assert_eq!(live.get("asid_recycles"), Some(1));

    assert!(lz.reap(pid));
    let reaped = lz.fleet_section();
    assert_eq!(reaped.get("domains_live"), Some(0));
    assert_eq!(reaped.get("vmid_live"), Some(0));
    assert_eq!(reaped.get("ve_reaps"), Some(1));
    assert_eq!(reaped.get("asid_recycles"), Some(1), "retired counters survive");
    assert!(reaped.get("rollover_shootdowns").unwrap_or(0) >= 1);

    // The registry exposes the same section by name.
    let report = lz.metrics_report();
    let section = report.section("fleet").expect("fleet section registered");
    assert_eq!(section.get("ve_reaps"), Some(1));
}

#[test]
fn non_scalable_ve_cannot_alloc_tables() {
    // PAN-mode VEs opt out of scalable zones at lz_enter; every
    // lz_alloc is denied, and the ASID pool is untouched.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.movz(20, 0, 0);
    b.asm.movz(21, 0, 0);
    counted_alloc(&mut b);
    b.asm.lsl_imm(9, 21, 8);
    b.asm.add_reg(0, 20, 9);
    exit_with_x0(&mut b);
    let prog = b.build();

    let mut lz = LightZone::new_host(Platform::Carmel);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();
    assert_eq!(code & 0xff, 0, "no allocation succeeds");
    assert_eq!(code >> 8, 1, "the call is denied, not fatal");
}

/// An infinite VE compute loop (never exits on its own).
fn looper() -> lightzone::LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    let top = b.asm.label();
    b.asm.bind(top);
    b.asm.add_imm(20, 20, 1);
    b.asm.b(top);
    b.build()
}

/// Everything the panic-containment run observes, for the
/// parallel-vs-replay byte compare.
#[derive(Debug, PartialEq)]
struct PanicImage {
    panic_epoch: Vec<(Exit, u64)>,
    kill_event: Option<Event>,
    shell_panics: u64,
    violation_events: u64,
    survivor_insns: u64,
    journal_json: String,
}

/// Run two-shell epochs (servicing stage-2 faults barrier-side) until
/// both cores' VEs retire a full unfaulted quantum: past demand paging.
fn warm_up(lz: &mut LightZone, pids: &[Pid]) {
    for _ in 0..64 {
        let results = lz.kernel.machine.run_epoch(&[2_000, 2_000]);
        for core in 0..2 {
            let (exit, _) = results[core];
            if exit != Exit::Limit {
                assert!(lz.dispatch_on(core, pids[core], exit).is_none(), "warm-up trap killed a VE");
            }
        }
        if results.iter().all(|&(exit, used)| exit == Exit::Limit && used == 2_000) {
            return;
        }
    }
    panic!("VEs never reached steady state");
}

/// Spawn a `looper` VE on `core` and leave it scheduled there.
fn spawn_on(lz: &mut LightZone, core: usize) -> Pid {
    lz.kernel.machine.switch_core(core);
    let pid = lz.spawn(&looper());
    lz.schedule_to(pid);
    lz.kernel.clear_current();
    pid
}

/// Two cores, two tenant VEs; the host-panic hook fires inside the
/// `victim` core's epoch shell only. The blast radius must stop at that
/// shell: the victim's VE dies with a typed `SECURITY_KILL`, the
/// neighbour's VE commits its full quantum in the same epoch and keeps
/// running afterwards, and a replacement VE on the victim's core then
/// serves further two-shell epochs beside it.
///
/// Core 0's shell always runs on the calling thread. The neighbour's
/// panic-epoch quantum is long (100k instructions), so when the victim
/// is core 1 a helper wakes and claims its shell long before the
/// caller is free: the panic is contained on a helper thread. The
/// assertions hold whichever thread runs it.
fn contained_panic_run(parallel: bool, victim: usize) -> PanicImage {
    let neighbour = 1 - victim;
    let mut lz = LightZone::new_host(Platform::Carmel);
    // The journal is checked below, so record it whatever LZ_METRICS says.
    lz.kernel.machine.set_metrics(true);
    lz.kernel.machine.set_parallel(parallel);
    lz.kernel.machine.configure_smp(2);
    let mut pids: Vec<Pid> = (0..2).map(|core| spawn_on(&mut lz, core)).collect();
    warm_up(&mut lz, &pids);

    // Give the victim a lead, then arm the hook 1,000 instructions past
    // it: only the victim can cross it, even on the neighbour's long
    // quantum.
    let mut lead = [0; 2];
    lead[victim] = 200_000;
    assert_eq!(lz.kernel.machine.run_epoch(&lead)[victim], (Exit::Limit, 200_000));
    let i_victim = lz.kernel.machine.core_cpu(victim).insns;
    let threshold = i_victim + 1_000;
    assert!(lz.kernel.machine.core_cpu(neighbour).insns + 100_000 < threshold);
    lz.kernel.machine.set_panic_after(Some(threshold));
    let mut budgets = [0; 2];
    budgets[victim] = 4_000;
    budgets[neighbour] = 100_000;
    let results = lz.kernel.machine.run_epoch(&budgets);
    lz.kernel.machine.set_panic_after(None);
    assert_eq!(results[victim].0, Exit::HostPanic, "the victim's shell must trip the hook");
    assert_eq!(results[victim].1, threshold - i_victim, "panic point is insn-deterministic");
    assert_eq!(results[neighbour], (Exit::Limit, 100_000), "the neighbour shell commits its quantum");

    // Barrier-side the panic becomes a typed kill of exactly that VE.
    let kill_event = lz.dispatch_on(victim, pids[victim], Exit::HostPanic);
    assert!(lz.reap(pids[victim]), "the killed VE reaps cleanly");

    // The survivor keeps serving: one more full quantum on its core.
    let mut budgets = [0; 2];
    budgets[neighbour] = 800;
    let after = lz.kernel.machine.run_epoch(&budgets);
    assert_eq!(after[neighbour], (Exit::Limit, 800), "survivor wedged after the panic");

    // Later two-shell epochs complete, on whichever threads claim them.
    pids[victim] = spawn_on(&mut lz, victim);
    warm_up(&mut lz, &pids);
    for _ in 0..16 {
        let later = lz.kernel.machine.run_epoch(&[3_000, 3_000]);
        assert_eq!(later, [(Exit::Limit, 3_000); 2], "an epoch after the panic did not complete");
    }

    PanicImage {
        panic_epoch: results,
        kill_event,
        shell_panics: lz.kernel.machine.smp().shell_panics,
        violation_events: lz
            .kernel
            .machine
            .journal
            .count(|e| matches!(e, EventKind::Violation { reason } if *reason == LzFault::HostPanic.reason())),
        survivor_insns: lz.kernel.machine.core_cpu(neighbour).insns,
        journal_json: lz.kernel.machine.journal.dump_json(),
    }
}

fn assert_contained(image: &PanicImage) {
    assert_eq!(image.kill_event, Some(Event::Exited(SECURITY_KILL)));
    assert_eq!(image.shell_panics, 1, "exactly one shell panicked");
    // The shell journals the priority violation at the catch point and
    // the module journals the typed kill: both must be present.
    assert!(image.violation_events >= 2, "host-panic violations journalled");
}

#[test]
fn host_panic_is_contained_to_the_offending_ve() {
    assert_contained(&contained_panic_run(true, 0));
}

#[test]
fn host_panic_containment_matches_replay() {
    // The injected panic fires at a fixed retired-instruction count, so
    // parallel epochs and sequential replay must agree byte-for-byte —
    // including the journal dump.
    let par = contained_panic_run(true, 0);
    let rep = contained_panic_run(false, 0);
    assert_eq!(par, rep, "containment diverged between parallel epochs and replay");
}

#[test]
fn host_panic_on_a_helper_thread_is_contained_and_matches_replay() {
    // The mirror case: core 1's shell panics, on a helper thread.
    let par = contained_panic_run(true, 1);
    assert_contained(&par);
    let rep = contained_panic_run(false, 1);
    assert_eq!(par, rep, "helper-thread containment diverged from replay");
}

#[test]
fn smoke_fleet_run_is_deterministic_and_rolls_the_vmid_space() {
    // The integration-level contract behind BENCH_fleet.json: two runs
    // of the same seeded open-loop config are *equal* (and serialise to
    // identical bytes), the shrunken VMID space rolls over under churn,
    // and the churn bookkeeping is exact.
    let cfg = FleetConfig::smoke(1);
    let a = run_fleet(&cfg);
    let b = run_fleet(&cfg);
    assert_eq!(a, b, "fleet runs must be deterministic");
    assert_eq!(a.to_json(), b.to_json());

    assert_eq!(a.tenants, 6);
    assert_eq!(a.domains_live_peak, 6 * 5, "tenants x (domains + pgt0)");
    assert_eq!(a.ve_reaps, 40, "every churn VE reaped");
    assert!(a.vmid_recycles >= 1, "churn crossed the shrunken VMID space");
    assert!(a.vmid_rollovers >= 1);
    assert!(a.rollover_shootdowns >= a.vmid_recycles);
    assert!(a.switch_cycles.p50 > 0 && a.switch_cycles.p50 <= a.switch_cycles.p999);
    assert!(a.request_latency.p50 <= a.request_latency.p99);
    assert!(a.request_latency.p99 <= a.request_latency.p999);
}
