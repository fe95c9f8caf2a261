//! Thread support across the stack: kernel threads, and LightZone
//! per-thread domains ("threads in a process are assigned specific
//! access permissions to protected memory domains", §4.1 — the MySQL
//! per-connection-stack scenario of §9.2).

use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::{LightZone, SECURITY_KILL};
use lz_arch::asm::Asm;
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::syscall::futex;
use lz_kernel::{Event, Kernel, Program, Sysno, VmProt};

const CODE: u64 = 0x40_0000;
const SHARED: u64 = 0x50_0000;
const STACKS: u64 = 0x7000_0000;
const STACK1: u64 = 0x5100_0000;
const STACK2: u64 = 0x5200_0000;

#[test]
fn kernel_threads_interleave() {
    // Main thread spawns a worker; both add to a shared counter via
    // yields; main waits for the worker's flag then exits with the sum.
    let mut a = Asm::new(CODE);
    let worker = a.label();
    // main:
    a.mov_imm64(9, SHARED);
    // clone(worker, stack, arg=5)
    a.adr(0, worker);
    a.mov_imm64(1, STACKS + 0x4000);
    a.mov_imm64(2, 5);
    a.mov_imm64(8, Sysno::Clone.nr());
    a.svc(0);
    // main adds 10 to shared.
    a.ldr(3, 9, 0);
    a.add_imm(3, 3, 10);
    a.str(3, 9, 0);
    // Sleep until the worker sets the flag at SHARED+8: re-check the
    // flag, futex-wait on it while it is still 0, repeat (the kernel may
    // wake us spuriously when nothing else is runnable).
    let wait = a.label();
    let done = a.label();
    a.bind(wait);
    a.ldr(4, 9, 8);
    a.cbnz(4, done);
    a.mov_imm64(0, SHARED + 8);
    a.mov_imm64(1, futex::WAIT);
    a.movz(2, 0, 0); // expected value: flag still clear
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    a.b(wait);
    a.bind(done);
    a.ldr(0, 9, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    // worker(arg in x0): shared += arg; flag = 1; futex_wake; exit(0).
    a.bind(worker);
    a.mov_imm64(9, SHARED);
    a.ldr(3, 9, 0);
    a.add_reg(3, 3, 0);
    a.str(3, 9, 0);
    a.movz(4, 1, 0);
    a.str(4, 9, 8);
    a.mov_imm64(0, SHARED + 8);
    a.mov_imm64(1, futex::WAKE);
    a.movz(2, 1, 0); // wake one waiter
    a.mov_imm64(8, Sysno::Futex.nr());
    a.svc(0);
    a.movz(0, 0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);

    let prog = Program::from_code(CODE, a.bytes()).with_anon_segment(SHARED, PAGE_SIZE, VmProt::RW).with_anon_segment(
        STACKS,
        0x8000,
        VmProt::RW,
    );
    let mut k = Kernel::new_host(Platform::CortexA55);
    let pid = k.spawn(&prog);
    k.enter_process(pid);
    assert_eq!(k.run(10_000_000), Event::Exited(15), "both threads contributed");
}

#[test]
fn gettid_distinguishes_threads() {
    let mut a = Asm::new(CODE);
    let worker = a.label();
    a.adr(0, worker);
    a.mov_imm64(1, STACKS + 0x4000);
    a.movz(2, 0, 0);
    a.mov_imm64(8, Sysno::Clone.nr());
    a.svc(0);
    a.mov_reg(20, 0); // new tid (2)
                      // Let the worker run to completion first: the process exit code is
                      // the *last* thread's code, which must be main's.
    a.mov_imm64(8, Sysno::Yield.nr());
    a.svc(0);
    a.mov_imm64(8, Sysno::Gettid.nr());
    a.svc(0); // own tid (1)
              // exit(new_tid * 16 + own_tid)
    a.lsl_imm(20, 20, 4);
    a.add_reg(0, 20, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.movz(0, 0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    let prog = Program::from_code(CODE, a.bytes()).with_anon_segment(STACKS, 0x8000, VmProt::RW);
    let mut k = Kernel::new_host(Platform::CortexA55);
    let pid = k.spawn(&prog);
    k.enter_process(pid);
    assert_eq!(k.run(10_000_000), Event::Exited(0x21), "tid 2 spawned by tid 1");
}

/// A cloned thread keeps its stack across a switch away and back: it
/// stores 42 at `[sp]`, yields to main, and after main exits reloads the
/// value and exits with it. The saved context must hold the thread's
/// `SP_EL0`, not the stack pointer of the EL the yield trapped to (EL2
/// on the host kernel, EL1 on a guest kernel).
#[test]
fn yielding_thread_keeps_its_stack() {
    let mut a = Asm::new(CODE);
    let worker = a.label();
    a.adr(0, worker);
    a.mov_imm64(1, STACKS + 0x4000);
    a.movz(2, 0, 0);
    a.mov_imm64(8, Sysno::Clone.nr());
    a.svc(0);
    // Run the worker until it yields back, then end main's thread: the
    // worker resumes from its saved context.
    a.mov_imm64(8, Sysno::Yield.nr());
    a.svc(0);
    a.movz(0, 0, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    a.bind(worker);
    a.movz(3, 42, 0);
    a.str(3, 31, 0);
    a.mov_imm64(8, Sysno::Yield.nr());
    a.svc(0);
    a.ldr(0, 31, 0);
    a.mov_imm64(8, Sysno::Exit.nr());
    a.svc(0);
    let prog = Program::from_code(CODE, a.bytes()).with_anon_segment(STACKS, 0x8000, VmProt::RW);
    for guest in [false, true] {
        let mut k = if guest { Kernel::new_guest(Platform::CortexA55) } else { Kernel::new_host(Platform::CortexA55) };
        let pid = k.spawn(&prog);
        k.enter_process(pid);
        assert_eq!(k.run(10_000_000), Event::Exited(42), "guest kernel: {guest}");
    }
}

/// A VE runs on the stack it called `lz_enter` with: `SP_EL1` inherits
/// the process's `SP_EL0`, so `[sp]` is the top of its stack VMA.
#[test]
fn ve_keeps_its_stack_across_lz_enter() {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.movz(3, 42, 0);
    b.asm.str(3, 31, 0);
    b.asm.ldr(0, 31, 0);
    b.asm.mov_imm64(8, Sysno::Exit.nr());
    b.asm.svc(0);
    let prog = b.build();
    for guest in [false, true] {
        let mut lz =
            if guest { LightZone::new_guest(Platform::CortexA55) } else { LightZone::new_host(Platform::CortexA55) };
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), 42, "guest kernel: {guest}");
        assert_eq!(lz.kernel.machine.cpu.sp_el1, 0x7ffe_fff0, "the VE ran on the process's stack");
    }
}

/// LightZone per-thread stack domains (the §9.2 MySQL pattern): each
/// worker attaches its own stack region to its own page table via a
/// gate, then optionally pokes at the other worker's stack.
fn lz_thread_prog(evil: bool) -> lightzone::LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(STACK1, PAGE_SIZE, VmProt::RW);
    b.with_anon_segment(STACK2, PAGE_SIZE, VmProt::RW);
    b.with_anon_segment(SHARED, PAGE_SIZE, VmProt::RW);
    b.with_anon_segment(STACKS, 0x8000, VmProt::RW);

    let worker = b.asm.label();
    b.asm.lz_enter(true, SAN_TTBR);
    // Domain 1 = main's stack region; domain 2 = worker's.
    b.asm.lz_alloc();
    b.asm.lz_map_gate_pgt_imm(1, 0);
    b.asm.lz_prot_imm(STACK1, PAGE_SIZE, 1, RW);
    b.asm.lz_alloc();
    b.asm.lz_map_gate_pgt_imm(2, 1);
    b.asm.lz_prot_imm(STACK2, PAGE_SIZE, 2, RW);
    // Spawn the worker.
    {
        let a = &mut b.asm;
        a.adr(0, worker);
        a.mov_imm64(1, STACKS + 0x4000);
        a.movz(2, 0, 0);
        a.mov_imm64(8, Sysno::Clone.nr());
        a.svc(0);
    }
    // Main enters its own stack domain and uses it.
    b.lz_switch_to_ttbr_gate(0);
    {
        let a = &mut b.asm;
        a.mov_imm64(9, STACK1);
        a.mov_imm64(3, 0x11);
        a.str(3, 9, 0);
        // Let the worker run (its domain is restored per thread on each
        // switch back).
        a.mov_imm64(8, Sysno::Yield.nr());
        a.svc(0);
        // Back in main's thread: its domain must still be active.
        a.ldr(4, 9, 0);
        // Futex-wait for the worker's done flag (re-check on every
        // return: wakeups may be spurious).
        a.mov_imm64(10, SHARED);
        let wait = a.label();
        let done = a.label();
        a.bind(wait);
        a.ldr(5, 10, 0);
        a.cbnz(5, done);
        a.mov_imm64(0, SHARED);
        a.mov_imm64(1, futex::WAIT);
        a.movz(2, 0, 0);
        a.mov_imm64(8, Sysno::Futex.nr());
        a.svc(0);
        a.b(wait);
        a.bind(done);
        a.mov_reg(0, 4); // 0x11 if per-thread domain survived
        a.mov_imm64(8, Sysno::Exit.nr());
        a.svc(0);
    }
    // Worker thread: enter its own domain via gate 1.
    b.asm.bind(worker);
    b.lz_switch_to_ttbr_gate(1);
    {
        let a = &mut b.asm;
        a.mov_imm64(9, STACK2);
        a.mov_imm64(3, 0x22);
        a.str(3, 9, 0);
        if evil {
            // Poke the other thread's stack domain: must be fatal.
            a.mov_imm64(9, STACK1);
            a.ldr(3, 9, 0);
        }
        a.mov_imm64(10, SHARED);
        a.movz(5, 1, 0);
        a.str(5, 10, 0);
        a.mov_imm64(0, SHARED);
        a.mov_imm64(1, futex::WAKE);
        a.movz(2, 1, 0);
        a.mov_imm64(8, Sysno::Futex.nr());
        a.svc(0);
        a.movz(0, 0, 0);
        a.mov_imm64(8, Sysno::Exit.nr());
        a.svc(0);
    }
    b.build()
}

#[test]
fn lz_per_thread_domains_roundtrip() {
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&lz_thread_prog(false));
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 0x11, "main's domain restored across thread switches");
}

#[test]
fn lz_cross_thread_stack_access_killed() {
    let mut lz = LightZone::new_host(Platform::CortexA55);
    let pid = lz.spawn(&lz_thread_prog(true));
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), SECURITY_KILL);
    let stats = &lz.module.proc(pid).unwrap().stats;
    assert!(stats.violations >= 1);
}

#[test]
fn lz_threads_in_guest_deployment() {
    let mut lz = LightZone::new_guest(Platform::CortexA55);
    let pid = lz.spawn(&lz_thread_prog(false));
    lz.enter_process(pid);
    assert_eq!(lz.run_to_exit(), 0x11);
}
