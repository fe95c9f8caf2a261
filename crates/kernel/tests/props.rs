//! Property-based tests for the kernel substrate: VMA bookkeeping and
//! demand paging under arbitrary operation sequences.

use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::{Mm, VmProt, Vma, VmaSource};
use lz_machine::PhysMem;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Map { slot: u8, pages: u8, prot_w: bool },
    Touch { slot: u8, write: bool },
    Unmap { slot: u8 },
    Protect { slot: u8, prot_w: bool },
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 1u8..5, any::<bool>()).prop_map(|(slot, pages, prot_w)| Op::Map { slot, pages, prot_w }),
        (0u8..8, any::<bool>()).prop_map(|(slot, write)| Op::Touch { slot, write }),
        (0u8..8).prop_map(|slot| Op::Unmap { slot }),
        (0u8..8, any::<bool>()).prop_map(|(slot, prot_w)| Op::Protect { slot, prot_w }),
    ]
}

/// 8 fixed, disjoint VMA slots, 16 pages apart.
fn slot_base(slot: u8) -> u64 {
    0x1000_0000 + slot as u64 * 16 * PAGE_SIZE
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VMA model (a shadow map) and the real Mm agree after any
    /// operation sequence: residency, permissions, frame reuse.
    #[test]
    fn mm_matches_shadow(ops in proptest::collection::vec(any_op(), 1..60)) {
        let mut mem = PhysMem::new();
        let mut mm = Mm::new(&mut mem, 1);
        // shadow: slot -> (pages, writable, resident_pages)
        let mut shadow: std::collections::HashMap<u8, (u8, bool, std::collections::HashSet<u64>)> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Map { slot, pages, prot_w } => {
                    if shadow.contains_key(&slot) {
                        continue;
                    }
                    let start = slot_base(slot);
                    prop_assert!(mm
                        .add_vma(Vma {
                            start,
                            end: start + pages as u64 * PAGE_SIZE,
                            prot: if prot_w { VmProt::RW } else { VmProt::R },
                            source: VmaSource::Anon,
                        })
                        .is_ok());
                    shadow.insert(slot, (pages, prot_w, Default::default()));
                }
                Op::Touch { slot, write } => {
                    let Some(&mut (pages, writable, ref mut resident)) = shadow.get_mut(&slot) else {
                        // Untracked slot: fault must fail.
                        prop_assert!(mm.fault_in(&mut mem, slot_base(slot), write, false).is_none());
                        continue;
                    };
                    let va = slot_base(slot) + (pages as u64 - 1) * PAGE_SIZE;
                    let got = mm.fault_in(&mut mem, va, write, false);
                    if write && !writable {
                        prop_assert!(got.is_none(), "write to RO VMA must fail");
                    } else {
                        prop_assert!(got.is_some());
                        resident.insert(va);
                    }
                }
                Op::Unmap { slot } => {
                    let Some((pages, _, _)) = shadow.remove(&slot) else { continue };
                    mm.unmap(&mut mem, slot_base(slot)..slot_base(slot) + pages as u64 * PAGE_SIZE);
                }
                Op::Protect { slot, prot_w } => {
                    let Some(&mut (pages, ref mut writable, _)) = shadow.get_mut(&slot) else { continue };
                    let range = slot_base(slot)..slot_base(slot) + pages as u64 * PAGE_SIZE;
                    mm.protect(&mut mem, range, if prot_w { VmProt::RW } else { VmProt::R });
                    *writable = prot_w;
                }
            }
        }
        // Final agreement: every shadow-resident page is resident in the
        // Mm and mapped with the right writability.
        for (&slot, &(pages, writable, ref resident)) in &shadow {
            prop_assert!(mm.vma_at(slot_base(slot)).is_some());
            let _ = pages;
            for &va in resident {
                prop_assert!(mm.page_at(va).is_some(), "slot {slot} page {va:#x} resident");
                let (_, perms, _) = lz_machine::walk::s1_lookup(&mem, mm.root, va).expect("mapped");
                prop_assert_eq!(perms.write, writable);
            }
        }
        // And nothing outside the shadow is resident.
        let live: u64 = shadow.values().map(|(_, _, r)| r.len() as u64).sum();
        prop_assert!(mm.resident_bytes() / PAGE_SIZE >= live);
    }

    /// Demand paging never hands out the same frame to two live pages.
    #[test]
    fn frames_never_aliased(pages in proptest::collection::vec(0u64..64, 1..40)) {
        let mut mem = PhysMem::new();
        let mut mm = Mm::new(&mut mem, 1);
        prop_assert!(mm
            .add_vma(Vma { start: 0x2000_0000, end: 0x2000_0000 + 64 * PAGE_SIZE, prot: VmProt::RW, source: VmaSource::Anon })
            .is_ok());
        for p in pages {
            mm.fault_in(&mut mem, 0x2000_0000 + p * PAGE_SIZE, true, false);
        }
        let mut frames = std::collections::HashSet::new();
        for (_, pa) in mm.resident() {
            prop_assert!(frames.insert(pa), "frame {pa:#x} aliased");
        }
    }

    /// Kernel scheduling fairness: a process with N compute-bound threads
    /// retires work on all of them.
    #[test]
    fn all_threads_make_progress(nthreads in 2u8..5) {
        use lz_arch::asm::Asm;
        use lz_kernel::{Kernel, Program, Sysno};
        const CODE: u64 = 0x40_0000;
        const OUT: u64 = 0x5000_0000;
        const STACKS: u64 = 0x6000_0000;
        let mut a = Asm::new(CODE);
        let worker = a.label();
        // main: spawn workers with arg = i, then loop-yield until every
        // worker wrote its flag; exit with the flag sum.
        for i in 0..nthreads as u64 - 1 {
            a.adr(0, worker);
            a.mov_imm64(1, STACKS + (i + 1) * 0x2000);
            a.mov_imm64(2, i + 1);
            a.mov_imm64(8, Sysno::Clone.nr());
            a.svc(0);
        }
        a.mov_imm64(9, OUT);
        let wait = a.label();
        a.bind(wait);
        a.mov_imm64(8, Sysno::Yield.nr());
        a.svc(0);
        a.movz(4, 0, 0);
        for i in 0..nthreads as u64 - 1 {
            a.ldr(5, 9, (i + 1) * 8);
            a.add_reg(4, 4, 5);
        }
        a.cmp_imm(4, nthreads as u16 - 1);
        a.b_ne(wait);
        a.mov_reg(0, 4);
        a.mov_imm64(8, Sysno::Exit.nr());
        a.svc(0);
        // worker: flag[arg] = 1, exit.
        a.bind(worker);
        a.mov_imm64(9, OUT);
        a.lsl_imm(10, 0, 3);
        a.add_reg(9, 9, 10);
        a.movz(3, 1, 0);
        a.str(3, 9, 0);
        a.movz(0, 0, 0);
        a.mov_imm64(8, Sysno::Exit.nr());
        a.svc(0);
        let prog = Program::from_code(CODE, a.bytes())
            .with_anon_segment(OUT, PAGE_SIZE, VmProt::RW)
            .with_anon_segment(STACKS, nthreads as u64 * 0x2000, VmProt::RW);
        let mut k = Kernel::new_host(Platform::CortexA55);
        let pid = k.spawn(&prog);
        k.enter_process(pid);
        prop_assert_eq!(k.run(50_000_000), lz_kernel::Event::Exited(nthreads as i64 - 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Observability invariant: with the event journal enabled, every
    /// syscall the kernel dispatches appears as exactly one `Trap(Svc)`
    /// event, and the per-class trap counter agrees with both — for any
    /// number of yields before exit.
    #[test]
    fn journal_svc_traps_match_syscall_counter(nyields in 1u16..24) {
        use lz_arch::asm::Asm;
        use lz_arch::esr::ExceptionClass;
        use lz_kernel::{Kernel, Program, Sysno};
        use lz_machine::EventKind;
        const CODE: u64 = 0x40_0000;
        let mut a = Asm::new(CODE);
        for _ in 0..nyields {
            a.movz(8, Sysno::Yield.nr() as u16, 0);
            a.svc(0);
        }
        a.movz(0, 0, 0);
        a.movz(8, Sysno::Exit.nr() as u16, 0);
        a.svc(0);
        let prog = Program::from_code(CODE, a.bytes());
        let mut k = Kernel::new_host(Platform::CortexA55);
        k.machine.set_metrics(true);
        let pid = k.spawn(&prog);
        k.enter_process(pid);
        k.run(10_000_000);
        let expect = nyields as u64 + 1; // yields + exit
        prop_assert_eq!(k.stats.syscalls, expect);
        let journaled = k.machine.journal.count(|e| matches!(e, EventKind::Trap { class: ExceptionClass::Svc }));
        prop_assert_eq!(journaled, expect);
        prop_assert_eq!(k.machine.metrics.trap_count(ExceptionClass::Svc), expect);
    }
}
