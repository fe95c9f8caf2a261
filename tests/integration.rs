//! Cross-crate integration tests: multi-process isolation, scheduling
//! into and out of virtual environments, memory accounting, lz_free, and
//! cost-model sanity across the full stack.

use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR, USER};
use lightzone::pgt::PGT_ALL;
use lightzone::{LightZone, SECURITY_KILL};
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::{Event, VmProt};

const CODE: u64 = 0x40_0000;
const DATA: u64 = 0x50_0000;

/// A program that enters LightZone (PAN), protects its secret page
/// (pre-filled with `fill`), and alternates long compute stretches with
/// `yield` syscalls; reads its secret legally each round. The compute
/// stretch (~60k instructions) guarantees an instruction-budget
/// preemption can land mid-round.
fn tenant(fill: u8, rounds: u16) -> lightzone::LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(DATA, vec![fill; 4096], VmProt::RW);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.lz_prot_imm(DATA, PAGE_SIZE, PGT_ALL, RW | USER);
    b.asm.movz(22, 0, 0);
    b.asm.movz(24, rounds, 0);
    let top = b.asm.label();
    b.asm.bind(top);
    // Legal read of own secret.
    b.asm.set_pan(0);
    b.asm.mov_imm64(1, DATA);
    b.asm.ldrb(2, 1, 0);
    b.asm.set_pan(1);
    b.asm.add_reg(22, 22, 2);
    // Compute stretch: ~20k iterations of a 3-instruction loop.
    b.asm.mov_imm64(25, 20_000);
    let busy = b.asm.label();
    b.asm.bind(busy);
    b.asm.add_imm(26, 26, 1);
    b.asm.subs_imm(25, 25, 1);
    b.asm.b_ne(busy);
    // Yield to let the harness schedule someone else.
    b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
    b.asm.svc(0);
    b.asm.subs_imm(24, 24, 1);
    b.asm.b_ne(top);
    b.asm.mov_reg(0, 22);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);
    b.build()
}

#[test]
fn two_ve_processes_round_robin() {
    // Two LightZone processes, interleaved by the scheduler; both must
    // complete with their own secrets intact (inter-process isolation
    // through VMIDs + per-process VEs, §5.1).
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let a = lz.spawn(&tenant(3, 4));
    let b = lz.spawn(&tenant(5, 4));
    lz.enter_process(a);
    let mut exits = std::collections::HashMap::new();
    let mut cur = a;
    // Drive both to completion, switching after every run() event.
    for _ in 0..64 {
        match lz.run(1_000_000) {
            Event::Exited(code) => {
                exits.insert(cur, code);
                let other = if cur == a { b } else { a };
                if exits.contains_key(&other) {
                    break;
                }
                cur = other;
                lz.schedule_to(cur);
            }
            Event::Limit => {
                // Preempt: switch to the other process.
                cur = if cur == a { b } else { a };
                lz.schedule_to(cur);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(exits.get(&a), Some(&(4 * 3)), "tenant A checksum");
    assert_eq!(exits.get(&b), Some(&(4 * 5)), "tenant B checksum");
}

#[test]
fn ve_process_and_normal_process_coexist() {
    let mut lz = LightZone::new_host(Platform::CortexA55);
    // Each round's compute stretch exceeds the 40k budget below, so the
    // preemption lands mid-round.
    let ve = lz.spawn(&tenant(7, 3));
    // A plain process that exits 9.
    let mut a = lz_arch::asm::Asm::new(CODE);
    a.movz(0, 9, 0);
    a.movz(8, lz_kernel::Sysno::Exit.nr() as u16, 0);
    a.svc(0);
    let plain = lz.kernel.spawn(&lz_kernel::Program::from_code(CODE, a.bytes()));

    lz.enter_process(ve);
    // Run the VE until its first Limit, then hop to the plain process.
    let ev = lz.run(40_000);
    assert_eq!(ev, Event::Limit);
    lz.schedule_to(plain);
    assert_eq!(lz.run(1_000_000), Event::Exited(9));
    // Back to the VE, which must finish correctly.
    lz.schedule_to(ve);
    assert_eq!(lz.run(10_000_000), Event::Exited(3 * 7));
}

#[test]
fn lz_free_then_gate_switch_is_fatal() {
    // After lz_free, the gate's TTBRTab entry is zeroed: switching
    // through it must terminate, not grant stale access.
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(DATA, PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.lz_alloc(); // pgt 1
    b.asm.lz_map_gate_pgt_imm(1, 0);
    b.asm.lz_prot_imm(DATA, PAGE_SIZE, 1, RW);
    b.asm.lz_free_imm(1);
    b.lz_switch_to_ttbr_gate(0); // stale gate
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), SECURITY_KILL);
}

#[test]
fn lz_free_releases_table_frames() {
    // Destroying a table returns its frames to the allocator: the same
    // program with an lz_free ends with fewer allocated frames than
    // without it.
    let build = |free: bool| {
        let mut b = LzProgramBuilder::new(CODE);
        b.with_anon_segment(DATA, 8 * PAGE_SIZE, VmProt::RW);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.lz_alloc(); // pgt 1
        b.asm.lz_map_gate_pgt_imm(1, 0); // gate 0 -> pgt 1
        b.asm.lz_map_gate_pgt_imm(0, 1); // gate 1 -> default table
        b.asm.lz_prot_imm(DATA, 8 * PAGE_SIZE, 1, RW);
        b.lz_switch_to_ttbr_gate(0); // into pgt 1
        b.asm.mov_imm64(1, DATA);
        b.asm.ldr(2, 1, 0); // populate the tree
        b.lz_switch_to_ttbr_gate(1); // back to the default view
        if free {
            b.asm.lz_free_imm(1);
        }
        b.asm.exit_imm(0);
        b.build()
    };
    let run = |free: bool| {
        let mut lz = LightZone::new_host(Platform::CortexA55);
        let pid = lz.spawn(&build(free));
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), 0);
        assert_eq!(lz.module.proc(pid).unwrap().tables[1].is_none(), free);
        lz.kernel.machine.mem.allocated_frames()
    };
    let kept = run(false);
    let freed = run(true);
    assert!(freed + 3 < kept, "freeing the tree returns frames: {freed} < {kept}");
}

#[test]
fn lz_free_invalid_ids_rejected() {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.lz_free_imm(0); // default table is not freeable
    b.asm.mov_reg(20, 0);
    b.asm.lz_free_imm(99); // never allocated
    b.asm.mov_reg(21, 0);
    // exit(2) if both returned -1.
    let bad = b.asm.label();
    b.asm.cmp_imm(20, 0);
    b.asm.b_eq(bad);
    b.asm.cmp_imm(21, 0);
    b.asm.b_eq(bad);
    b.asm.exit_imm(2);
    b.asm.bind(bad);
    b.asm.exit_imm(1);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 2);
}

#[test]
fn page_table_memory_accounting_grows_with_domains() {
    // §9: scalable isolation costs page-table memory per domain.
    let measure = |domains: u64| {
        let mut b = LzProgramBuilder::new(CODE);
        b.with_anon_segment(DATA, domains * PAGE_SIZE, VmProt::RW);
        b.asm.lz_enter(true, SAN_TTBR);
        for d in 0..domains {
            b.asm.lz_alloc();
            b.asm.lz_map_gate_pgt_imm(d + 1, d);
            b.asm.lz_prot_imm(DATA + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
        }
        // Touch every domain so its tree is populated.
        for d in 0..domains {
            b.lz_switch_to_ttbr_gate(d as u16);
            b.asm.mov_imm64(1, DATA + d * PAGE_SIZE);
            b.asm.ldr(2, 1, 0);
        }
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = LightZone::new_host(Platform::CortexA55);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), 0);
        lz.module.proc(pid).unwrap().table_bytes()
    };
    let small = measure(2);
    let big = measure(32);
    assert!(big > small + 30 * PAGE_SIZE, "32 domains need more table pages: {small} -> {big}");
}

#[test]
fn fakephys_hides_real_frames_from_ptes() {
    // Read back an LZ leaf PTE and confirm it holds a fake (sequential,
    // low) address, not the real frame (§5.1.2 randomization layer).
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(DATA, vec![1; 4096], VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.mov_imm64(1, DATA);
    b.asm.ldr(2, 1, 0); // fault the page in
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 0);
    let proc = lz.module.proc(pid).unwrap();
    let table = proc.tables[0].as_ref().unwrap();
    let (leaf_fake, _) = table.lookup(&lz.kernel.machine.mem, &proc.fake, DATA).expect("page mapped");
    let real = lz.kernel.process(pid).mm.page_at(DATA).expect("resident");
    assert_ne!(leaf_fake, real, "PTE must hold the fake address");
    assert!(leaf_fake < 1 << 24, "fake addresses are small and sequential");
    assert_eq!(proc.fake.real_of(leaf_fake), Some(real));
}

#[test]
fn identity_ablation_exposes_real_frames() {
    // With randomization off (ablation), PTEs hold real frames — the
    // attack surface the paper's design closes.
    let abl = lightzone::AblationConfig { randomize_phys: false, ..Default::default() };
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(DATA, vec![1; 4096], VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.mov_imm64(1, DATA);
    b.asm.ldr(2, 1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, abl);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 0);
    let proc = lz.module.proc(pid).unwrap();
    let table = proc.tables[0].as_ref().unwrap();
    let (leaf, _) = table.lookup(&lz.kernel.machine.mem, &proc.fake, DATA).expect("page mapped");
    let real = lz.kernel.process(pid).mm.page_at(DATA).expect("resident");
    assert_eq!(leaf, real, "identity ablation maps real frames");
}

#[test]
fn vanilla_workloads_unaffected_by_lightzone_presence() {
    // A plain process under the LightZone facade behaves exactly like
    // one under the bare kernel (same syscalls, same exit, same cycles).
    let mut a = lz_arch::asm::Asm::new(CODE);
    a.movz(23, 100, 0);
    a.movz(8, lz_kernel::Sysno::Yield.nr() as u16, 0);
    let top = a.label();
    a.bind(top);
    a.svc(0);
    a.subs_imm(23, 23, 1);
    a.b_ne(top);
    a.movz(0, 0, 0);
    a.movz(8, lz_kernel::Sysno::Exit.nr() as u16, 0);
    a.svc(0);
    let prog = lz_kernel::Program::from_code(CODE, a.bytes());

    let mut bare = lz_kernel::Kernel::new_host(Platform::CortexA55);
    let pid = bare.spawn(&prog);
    bare.enter_process(pid);
    assert_eq!(bare.run(10_000_000), Event::Exited(0));
    let bare_cycles = bare.machine.cpu.cycles;

    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.kernel.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run(10_000_000), Event::Exited(0));
    assert_eq!(lz.kernel.machine.cpu.cycles, bare_cycles);
}

#[test]
fn guest_and_host_same_security_different_cost() {
    let prog = tenant(4, 8);
    let mut costs = vec![];
    for guest in [false, true] {
        let mut lz = if guest { LightZone::new_guest(Platform::Carmel) } else { LightZone::new_host(Platform::Carmel) };
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), 32);
        costs.push(lz.kernel.machine.cpu.cycles);
    }
    assert!(costs[1] > costs[0], "guest costs more: {costs:?}");
}

/// Regression: `munmap` from inside a VE must tear down the stage-1
/// mapping, the W^X tracking, and the fake-phys/stage-2 state for the
/// dropped range — not just the kernel-side VMA. Before the fix, the
/// module never saw Munmap (it was forwarded straight to the kernel),
/// so the VE kept a live translation for freed memory and the second
/// access read a stale (potentially reused) frame instead of faulting.
#[test]
fn ve_munmap_revokes_stale_mapping() {
    const DATA2: u64 = 0x58_0000;
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(DATA, PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    // Fault the page in (maps it in the current domain's table).
    b.asm.mov_imm64(1, DATA);
    b.asm.mov_imm64(2, 0x77);
    b.asm.str(2, 1, 0);
    // munmap(DATA, PAGE_SIZE)
    b.asm.mov_imm64(0, DATA);
    b.asm.mov_imm64(1, PAGE_SIZE);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Munmap.nr());
    b.asm.svc(0);
    // mmap a fresh page and store a secret: the frame allocator reuses
    // the frame just freed by munmap (LIFO free list).
    b.asm.mov_imm64(0, DATA2);
    b.asm.mov_imm64(1, PAGE_SIZE);
    b.asm.mov_imm64(2, 3); // PROT_READ | PROT_WRITE
    b.asm.mov_imm64(8, lz_kernel::Sysno::Mmap.nr());
    b.asm.svc(0);
    b.asm.mov_imm64(1, DATA2);
    b.asm.mov_imm64(2, 66);
    b.asm.str(2, 1, 0);
    // Read through the unmapped VA. A stale stage-1 mapping would hit
    // the reused frame and leak the secret as the exit code; the fixed
    // module tore the leaf down at munmap, so this faults fatally.
    b.asm.mov_imm64(1, DATA);
    b.asm.ldr(0, 1, 0);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let exit = lz.run_to_exit();
    assert_ne!(exit, 66, "stale mapping leaked the reused frame");
    assert_eq!(exit, -11, "access after munmap must be fatal");
}

/// Regression: `mprotect` from inside a VE must also be seen by the
/// module, for the same reason as munmap — revoking write on a mapped
/// page has to invalidate the old writable stage-1 leaf so the next
/// store refaults against the new, tighter VMA permissions.
#[test]
fn ve_mprotect_revokes_stale_write_permission() {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(DATA, PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.mov_imm64(1, DATA);
    b.asm.mov_imm64(2, 0x77);
    b.asm.str(2, 1, 0);
    // mprotect(DATA, PAGE_SIZE, READ)
    b.asm.mov_imm64(0, DATA);
    b.asm.mov_imm64(1, PAGE_SIZE);
    b.asm.mov_imm64(2, 1);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Mprotect.nr());
    b.asm.svc(0);
    // Reads must still work through the refaulted read-only mapping…
    b.asm.mov_imm64(1, DATA);
    b.asm.ldr(2, 1, 0);
    // …but the store must now be fatal instead of hitting the stale
    // writable leaf.
    b.asm.str(2, 1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert!(lz.run_to_exit() != 0, "store after mprotect(READ) must be fatal");
}

/// A process that branches to a misaligned PC: a plain process dies of
/// SIGBUS (exit -7) under the host and the guest kernel; inside a VE the
/// alignment fault is forwarded to the module, which kills the VE as an
/// unexpected trap class. The run must never panic the host.
#[test]
fn misaligned_pc_kills_plain_process_and_ve() {
    use lz_machine::EventKind;
    for target in [CODE + 2, CODE + PAGE_SIZE - 2] {
        for guest in [false, true] {
            let mut lz =
                if guest { LightZone::new_guest(Platform::Carmel) } else { LightZone::new_host(Platform::Carmel) };
            let mut a = lz_arch::asm::Asm::new(CODE);
            a.mov_imm64(9, target);
            a.br(9);
            let plain = lz.kernel.spawn(&lz_kernel::Program::from_code(CODE, a.bytes()));
            lz.enter_process(plain);
            assert_eq!(lz.run(1_000), Event::Exited(-7), "plain process, target {target:#x}, guest {guest}");
        }

        let mut lz = LightZone::new_host(Platform::Carmel);
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(false, SAN_PAN);
        b.asm.mov_imm64(9, target);
        b.asm.br(9);
        let ve = lz.spawn(&b.build());
        lz.machine().set_metrics(true);
        lz.enter_process(ve);
        assert_eq!(lz.run_to_exit(), SECURITY_KILL, "VE, target {target:#x}");
        let killed = lz
            .machine()
            .journal
            .count(|e| matches!(e, EventKind::Violation { reason } if *reason == "unexpected trap class in VE"));
        assert_eq!(killed, 1, "VE, target {target:#x}: kill reason");
    }
}
