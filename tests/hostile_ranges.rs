//! Hostile memory-syscall ranges fail closed.
//!
//! `mmap`, `munmap`, `mprotect` and `lz_prot` take a guest-supplied
//! `(addr, len)`. Every range with an unaligned start, a zero length, a
//! wrapping end, or an end above the TTBR0 half (2^48) — and an `mmap`
//! over an existing mapping — must return `u64::MAX` without panicking
//! the host or changing anything, from a plain process and from a VE
//! (whose calls reach the kernel through the module's `ve_syscall`).
//! The process must then run on. Tier-1 runs this in a debug build,
//! with overflow checks on; the workspace legs run it in release.

use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::pgt::PGT_ALL;
use lightzone::LightZone;
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::syscall::custom;
use lz_kernel::vma::USER_VA_END;
use lz_kernel::{Sysno, VmProt};

const CODE: u64 = 0x40_0000;
/// Two mapped pages: the target of the overlapping `mmap`.
const DATA: u64 = 0x50_0000;
/// Unmapped until the final, legal `mmap`.
const FRESH: u64 = 0x60_0000;

/// Every refused `(addr, len)` shape.
const SHAPES: [(u64, u64); 6] = [
    (FRESH + 8, PAGE_SIZE),                   // unaligned start
    (FRESH, 0),                               // zero length
    (FRESH, u64::MAX - 0xfff),                // wrapping length
    (u64::MAX - 0xfff, 2 * PAGE_SIZE),        // wrapping start
    (0xffff_0000_0000_0000, PAGE_SIZE),       // in the TTBR1 half
    (USER_VA_END - PAGE_SIZE, 2 * PAGE_SIZE), // ends past the TTBR0 half
];

/// A program that makes every hostile call in turn and exits with the
/// 1-based index of the first one that does not return `u64::MAX`, or
/// with 0 once a legal `mmap` after them works.
fn hostile_program(ve: bool) -> (lightzone::LzProgram, usize) {
    let mut calls: Vec<(u64, u64, u64)> = Vec::new();
    for nr in [Sysno::Mmap, Sysno::Munmap, Sysno::Mprotect] {
        calls.extend(SHAPES.map(|(addr, len)| (nr.nr(), addr, len)));
    }
    calls.push((Sysno::Mmap.nr(), DATA + PAGE_SIZE, PAGE_SIZE)); // overlap
    calls.extend(SHAPES.map(|(addr, len)| (custom::LZ_PROT, addr, len)));

    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(DATA, 2 * PAGE_SIZE, VmProt::RW);
    if ve {
        b.asm.lz_enter(true, SAN_TTBR);
    }
    let fail = b.asm.label();
    for (i, &(nr, addr, len)) in calls.iter().enumerate() {
        // mmap/mprotect read x2 as PROT_READ | PROT_WRITE; lz_prot reads
        // x2 as the table and x3 as the permission.
        let args = if nr == custom::LZ_PROT { [addr, len, PGT_ALL, RW] } else { [addr, len, 3, 0] };
        b.asm.syscall_imm(nr, &args);
        b.asm.mov_imm64(21, i as u64 + 1);
        b.asm.add_imm(9, 0, 1); // zero exactly when x0 is u64::MAX
        b.asm.cbnz(9, fail);
    }
    // The process runs on: a legal mmap, then a store and a load
    // through it.
    b.asm.syscall_imm(Sysno::Mmap.nr(), &[FRESH, PAGE_SIZE, 3]);
    b.asm.mov_imm64(21, calls.len() as u64 + 1);
    b.asm.mov_imm64(9, FRESH);
    b.asm.cmp_reg(0, 9);
    b.asm.b_ne(fail);
    b.asm.mov_imm64(10, 0x5a);
    b.asm.str(10, 9, 0);
    b.asm.ldr(11, 9, 0);
    b.asm.cmp_reg(11, 10);
    b.asm.b_ne(fail);
    b.asm.exit_imm(0);
    b.asm.bind(fail);
    b.asm.mov_reg(0, 21);
    b.asm.mov_imm64(8, Sysno::Exit.nr());
    b.asm.svc(0);
    (b.build(), calls.len())
}

#[test]
fn hostile_memory_syscall_ranges_fail_closed() {
    for ve in [false, true] {
        let (prog, calls) = hostile_program(ve);
        let mut lz = LightZone::new_host(Platform::CortexA55);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        let who = if ve { "VE" } else { "plain process" };
        match lz.run_to_exit() {
            0 => {}
            code if (1..=calls as i64).contains(&code) => panic!("{who}: hostile call {code} did not fail closed"),
            code if code == calls as i64 + 1 => panic!("{who}: the legal mmap after the hostile calls failed"),
            code => panic!("{who}: the process died with {code}"),
        }
    }
}
