//! Differential testing of the two execution engines.
//!
//! Every test here builds identical machines, runs one on the
//! accelerated engine — compiled blocks from the fetch cache plus the
//! micro-DTLB (DESIGN.md §7, §10, §13) —
//! and one on the per-step reference interpreter (`LZ_ACCEL=0`), drives
//! both through the same program and the same host-side operations, and
//! asserts the complete observable state is identical: exit reason,
//! registers, PC, cycle and instruction counts, TLB statistics, the
//! retired-instruction trace and, where enabled, the metric journal. The
//! accelerated engine is allowed to skip host-side work only — any
//! divergence is a coherence or accounting bug.
//!
//! Coverage: seeded random programs (ALU, loads/stores, forward branches,
//! trap-and-resume via `svc`, self-modifying stores into an executed-twice
//! patch area), plus deterministic scenarios for break-before-make code
//! remapping, stage-1 and stage-2 code-leaf rewrites without TLBI whose
//! TLB entry is then evicted by capacity, physical code patching without
//! TLBI, spurious TLBIs that force re-walks of unedited tables, a store
//! into a later word of the running block, cold straight-line code,
//! TTBR/ASID domain switching over global and non-global pages, gate
//! switches with and without a TLBI per switch, SMP
//! quantum interleaving, compiled loads/stores and branch terminals, the
//! invalidation sources the compiled-block lookup must honour, one code
//! VA and one data VA each mapped global for one ASID and non-global for
//! another in both fill orders, gate switches over 32 domains, quantum
//! edges at every offset inside a block, and hot loops that stay in one
//! block: side exits, in-place re-entry, and the self-patching and
//! page-walking loops that must refuse it.

use lightzone::gate::GateFlavor;
use lz_arch::asm::Asm;
use lz_arch::esr::{esr_abort_info, ExceptionClass};
use lz_arch::insn::Insn;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, vttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::{S1Perms, S2Perms};
use lz_machine::walk::{alloc_table, s1_map_page, s1_unmap, s2_map_page, s2_unmap};
use lz_machine::{Exit, Machine};

// The generators and the bare-machine harness are shared with the
// chaos soak (`lz-chaos`): the differential suite and the
// fault-injection suite must drive the *same* programs.
use lz_chaos::programs::{
    build_machine, patch_area, random_program, run_to_completion, snapshot, user_rwx, Snapshot, CODE, DATA, PATCH,
};

fn assert_identical(on: Snapshot, off: Snapshot, ctx: &str) {
    assert_eq!(on, off, "accelerated and reference runs diverged ({ctx})");
}

fn differential_run(seed: u64) {
    let (code, patch) = random_program(seed, 400, 64);
    let mut on = build_machine(&code, &patch, true);
    let mut off = build_machine(&code, &patch, false);
    let (exit_on, res_on) = run_to_completion(&mut on);
    let (exit_off, res_off) = run_to_completion(&mut off);
    assert_identical(
        snapshot(&on, exit_on, res_on),
        snapshot(&off, exit_off, res_off),
        &format!("random program, seed {seed}"),
    );
    // The cache must actually have been exercised, or this test proves
    // nothing: the patch area alone is fetched twice.
    let (hits, _) = on.tlb.icache().stats();
    assert!(hits > 0, "seed {seed}: fetch cache never hit");
}

#[test]
fn random_programs_agree() {
    for seed in 0..24u64 {
        differential_run(seed);
    }
}

/// Build the accelerated/reference machine pair for one program, with
/// the metrics journal enabled so journal equality is part of the
/// assertion.
fn build_pair(code: &[u8], patch: &[u8]) -> (Machine, Machine) {
    let mut on = build_machine(code, patch, true);
    on.set_metrics(true);
    let mut off = build_machine(code, patch, false);
    off.set_metrics(true);
    (on, off)
}

fn assert_journals_identical(on: &Machine, off: &Machine, ctx: &str) {
    assert_eq!(on.journal.dump_json(), off.journal.dump_json(), "metric journals diverged ({ctx})");
}

/// The random-program differential with the metric journals compared
/// too, and with the accelerated engine's layers — micro-DTLB, compiled
/// blocks — required to have engaged.
#[test]
fn fastpath_random_programs_agree() {
    let mut total = lz_machine::metrics::FastStats::default();
    for seed in 0..16u64 {
        let (code, patch) = random_program(seed, 400, 64);
        let (mut on, mut off) = build_pair(&code, &patch);
        let (e_on, r_on) = run_to_completion(&mut on);
        let (e_off, r_off) = run_to_completion(&mut off);
        let ctx = format!("random program with journals, seed {seed}");
        assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), &ctx);
        assert_journals_identical(&on, &off, &ctx);
        let fast = on.tlb.fast_stats();
        total.dtlb_hits += fast.dtlb_hits;
        total.superblock_exits += fast.superblock_exits;
        total.jit_compiled += fast.jit_compiled;
        total.jit_blocks += fast.jit_blocks;
        assert_eq!(off.tlb.fast_stats(), Default::default(), "seed {seed}: the reference engine recorded activity");
    }
    // The comparison proves nothing unless the accelerated layers ran.
    assert!(total.dtlb_hits > 0, "micro-DTLB never hit across any seed");
    assert!(total.superblock_exits > 0, "no compiled block completed across any seed");
    assert!(total.jit_compiled > 0, "no block was ever compiled across any seed");
    assert!(total.jit_blocks > 0, "no compiled block ever executed across any seed");
}

/// Engine differential over TTBR/ASID domain switching: two address
/// spaces, different code at the same VA, a shared global data page.
/// The micro-DTLB's vmid/asid/el/pan tags must keep armed entries from
/// leaking across domains.
#[test]
fn fastpath_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        // Several reads and writes to the same page: the first access
        // arms the micro-DTLB entry, the rest should hit it (while the
        // domain is live — switching must tag it out).
        a.ldr(1, 19, 0);
        a.ldr(2, 19, 8);
        a.ldr(3, 19, 16);
        a.add_reg(1, 1, 0);
        a.str(1, 19, 0);
        a.str(2, 19, 8);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        let mut last = Exit::Limit;
        for round in 0..9u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(&mut m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        let counter = {
            let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, roots[0], DATA).unwrap();
            m.mem.read_u32(pa).unwrap() as u64
        };
        (snapshot(&m, last, 0), counter, m.tlb.fast_stats())
    };
    let (snap_on, counter_on, fast) = run(true);
    let (snap_off, counter_off, _) = run(false);
    assert_identical(snap_on, snap_off, "micro-DTLB domain switch");
    // 9 rounds alternating: 5 × tag 1, 4 × tag 1000.
    assert_eq!(counter_on, 5 + 4 * 1000, "shared counter must accumulate across domains");
    assert_eq!(counter_on, counter_off);
    assert!(fast.dtlb_hits > 0, "domain-switch loads never hit the micro-DTLB");
}

/// Spurious TLBI (no page-table change) differential: each round's two
/// TLBIs drop the code and data pages' TLB entries, so the next round
/// walks both again over tables nothing edited, on either engine.
#[test]
fn spurious_tlbi_rewalks_agree() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.ldr(1, 19, 0);
    a.add_imm(1, 1, 1);
    a.str(1, 19, 0);
    a.svc(0);
    let code = a.bytes();
    let patch = patch_area(4);
    let drive = |m: &mut Machine| {
        let mut last = Exit::Limit;
        for round in 0..6 {
            let walks = m.tlb.walk_stats().s1_walks;
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            let walked = m.tlb.walk_stats().s1_walks - walks;
            assert!(walked >= 2, "round {round} walked {walked} times, not the code and data pages");
            // TLBI with no page-table write: the next round's code fetch
            // and data access both miss the TLB and walk.
            m.tlb.invalidate_va(0, DATA);
            m.tlb.invalidate_va(0, CODE);
            last = exit;
        }
        last
    };
    let (mut on, mut off) = build_pair(&code, &patch);
    let e_on = drive(&mut on);
    let e_off = drive(&mut off);
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "spurious TLBI");
    assert_eq!(on.tlb.walk_stats(), off.tlb.walk_stats(), "walk counters diverged after spurious TLBIs");
}

/// Single-core penetration test (mirrors the cross-core one in
/// `tests/smp.rs`): a JIT page covered by a *hot compiled block* and an
/// *armed micro-DTLB entry* is remapped via break-before-make. Neither
/// the stale compiled block nor the stale data translation may survive —
/// re-entry must execute and load the fresh frame's bytes, identically
/// on both engines.
#[test]
fn fastpath_bbm_with_hot_superblock_and_dtlb_agrees() {
    // The JIT stub at PATCH both executes and is read as data: it arms
    // an instruction-side compiled block and a data-side DTLB entry for
    // the same page. x21 = PATCH (set by the warm-up loop below).
    let stub = |marker: u16| {
        let mut a = Asm::new(PATCH);
        a.movz(17, marker, 0);
        a.ldr(18, 21, 0); // first stub word, through the data side
        a.ret();
        a.bytes()
    };
    let first_dword = |bytes: &[u8]| u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let mut warm = Asm::new(CODE);
    warm.mov_imm64(21, PATCH);
    warm.mov_imm64(10, PATCH);
    warm.mov_imm64(11, 8);
    let top = warm.label();
    warm.bind(top);
    warm.blr(10);
    warm.subs_imm(11, 11, 1);
    warm.b_ne(top);
    warm.svc(0);
    let run = |m: &mut Machine| {
        // Phase 1: heat the compiled block + DTLB entry over the stub page.
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(17), 0x1111);
        // Phase 2: break-before-make remap of the stub page.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        s1_unmap(&mut m.mem, root, PATCH);
        m.tlb.invalidate_va(0, PATCH);
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &stub(0x2222));
        s1_map_page(&mut m.mem, root, PATCH, fresh, user_rwx());
        // Phase 3: straight into the stub; `ret` to 0 ends the run.
        m.cpu.x[30] = 0;
        m.enter(PState::user(), PATCH);
        let _ = m.run(8);
        (m.cpu.reg(17), m.cpu.reg(18))
    };
    let code = warm.bytes();
    let (mut on, mut off) = build_pair(&code, &stub(0x1111));
    let (x17_on, x18_on) = run(&mut on);
    let (x17_off, x18_off) = run(&mut off);
    let fresh_word = first_dword(&stub(0x2222));
    assert_eq!(x17_on, 0x2222, "stale compiled block executed old code");
    assert_eq!(x18_on, fresh_word, "stale micro-DTLB entry served old data");
    assert_eq!((x17_on, x18_on), (x17_off, x18_off), "the engine changed the BBM outcome");
    assert_eq!(
        (on.cpu.cycles, on.cpu.insns, on.tlb.stats()),
        (off.cpu.cycles, off.cpu.insns, off.tlb.stats()),
        "the engine changed BBM accounting"
    );
    assert!(on.tlb.fast_stats().jit_blocks > 0, "warm-up never executed a compiled block");
}

/// A counted loop around one of the two 14-instruction bodies the
/// engine's host speed was first timed on: the ALU body (`add`, `eor`,
/// `orr`, `add` by `i % 4`, the pattern `alu_jit` seeds its body from)
/// or the mixed body (`str`, `ldr`, `add`, `eor` over the first data
/// page).
fn timed_loop(mixed: bool, iters: u64) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, iters);
    a.mov_imm64(11, DATA);
    let top = a.label();
    a.bind(top);
    for i in 0..14u64 {
        let rd = 1 + (i % 7) as u8;
        match (mixed, i % 4) {
            (false, 0) => a.add_imm(rd, rd, 1),
            (false, 1) => a.eor_reg(rd, rd, 8),
            (false, 2) => a.orr_reg(rd, rd, 9),
            (false, _) => a.add_reg(rd, rd, 10),
            (true, 0) => a.str(rd, 11, 8 * (i % 8)),
            (true, 1) => a.ldr(rd, 11, 8 * ((i + 1) % 8)),
            (true, 2) => a.add_imm(rd, rd, 1),
            (true, _) => a.eor_reg(rd, rd, 8),
        };
    }
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    a.bytes()
}

#[test]
fn hot_loop_agrees_and_hits() {
    // Straight-line loops: the cache's bread and butter.
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 5_000);
    a.movz(1, 0, 0);
    let top = a.label();
    a.bind(top);
    a.add_imm(1, 1, 3);
    a.eor_reg(2, 1, 0);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    for (ctx, code) in
        [("hot loop", a.bytes()), ("ALU loop", timed_loop(false, 2_000)), ("mixed loop", timed_loop(true, 2_000))]
    {
        let (mut on, mut off) = build_pair(&code, &patch_area(4));
        let (e_on, r_on) = run_to_completion(&mut on);
        let (e_off, r_off) = run_to_completion(&mut off);
        assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), ctx);
        assert_journals_identical(&on, &off, ctx);
        let (hits, misses) = on.tlb.icache().stats();
        assert!(hits > 10 * misses, "{ctx} should be cache-dominated: {hits} hits / {misses} misses");
        let fast = on.tlb.fast_stats();
        assert!(fast.jit_blocks > 0, "{ctx}: no compiled block ran");
        assert_eq!(fast.dtlb_hits > 0, ctx == "mixed loop", "{ctx}: micro-DTLB use must match the body");
    }
}

/// Break-before-make code remap: unmap, TLBI, write fresh frame, remap.
/// Both machines must observe the new code on re-entry.
#[test]
fn break_before_make_remap_agrees() {
    let body = |ret: u16| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, ret as u64);
        a.svc(0);
        a.bytes()
    };
    let run_pair = |m: &mut Machine| {
        // First pass: original code.
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(0), 111);
        // Break-before-make: unmap + TLBI, then map new frame.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        s1_unmap(&mut m.mem, root, CODE);
        m.tlb.invalidate_va(0, CODE); // VMID 0: stage 1 only, no VTTBR
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &body(222));
        s1_map_page(&mut m.mem, root, CODE, fresh, user_rwx());
        m.enter(PState::user(), CODE);
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        exit
    };
    let mut on = build_machine(&body(111), &patch_area(4), true);
    let mut off = build_machine(&body(111), &patch_area(4), false);
    let e_on = run_pair(&mut on);
    let e_off = run_pair(&mut off);
    assert_eq!(on.cpu.reg(0), 222, "remapped code must execute (cache on)");
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "break-before-make");
}

/// Physical patch of the live code frame with no TLBI at all: the frame
/// version check must retire the stale compiled blocks.
#[test]
fn physical_code_patch_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 5);
    a.movz(1, 7, 0); // patched to movz(1, 9, 0) below
    a.svc(0);
    let code = a.bytes();
    let patched_word = Insn::Movz { rd: 1, imm16: 9, hw: 0 }.encode();
    let run_pair = |m: &mut Machine| {
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(1), 7);
        // Overwrite the movz in place — same frame, no TLB maintenance.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, CODE).expect("code mapped");
        m.mem.write(pa + 4, patched_word as u64, 4);
        m.enter(PState::user(), CODE);
        let (exit, _) = run_to_completion(m);
        exit
    };
    let mut on = build_machine(&code, &patch_area(4), true);
    let mut off = build_machine(&code, &patch_area(4), false);
    let e_on = run_pair(&mut on);
    let e_off = run_pair(&mut off);
    assert_eq!(on.cpu.reg(1), 9, "patched word must be fetched fresh (cache on)");
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "physical patch");
}

/// Cortex-A55's main TLB holds 512 entries: one load from each of more
/// data pages than that evicts every older translation by capacity.
const TOUCH_PAGES: u64 = 600;
const TOUCH_BASE: u64 = 0x200_0000;

/// `mov x0, #tag; svc 0`, at `CODE`.
fn tag_body(tag: u16) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    a.movz(0, tag, 0);
    a.svc(0);
    a.bytes()
}

/// A machine running `tag_body(1)` at `CODE`, with a toucher at
/// `CODE + 0x1000` that loads once from each of the `TOUCH_PAGES` data
/// pages (all aliasing one frame) and then branches to `CODE`.
fn toucher_machine(accel: bool) -> Machine {
    let mut code = tag_body(1);
    code.resize(0x1000, 0);
    let mut a = Asm::new(CODE + 0x1000);
    a.mov_imm64(19, TOUCH_BASE);
    a.mov_imm64(20, TOUCH_PAGES);
    a.mov_imm64(21, 0x1000);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.add_reg(19, 19, 21);
    a.subs_imm(20, 20, 1);
    a.b_ne(top);
    a.mov_imm64(9, CODE);
    a.br(9);
    code.extend(a.bytes());
    let mut m = build_machine(&code, &patch_area(4), accel);
    let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
    let data = m.mem.alloc_frame();
    for page in 0..TOUCH_PAGES {
        s1_map_page(&mut m.mem, root, TOUCH_BASE + page * 0x1000, data, user_rwx());
    }
    m
}

/// Run the code page once, let `rewrite` point its leaf at a new frame
/// holding `tag_body(2)` with no TLBI, then re-enter through the toucher,
/// whose loads evict the code page's TLB entry before it branches back.
/// The code page's translation must then be walked afresh: the run ends
/// with `x0 == 2` on both engines.
fn leaf_rewrite_agrees(ctx: &str, build: impl Fn(bool) -> Machine, rewrite: impl Fn(&mut Machine, u64)) {
    let run = |accel: bool| {
        let mut m = build(accel);
        run_to_completion(&mut m);
        assert_eq!(m.cpu.reg(0), 1, "{ctx}: first run");
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &tag_body(2));
        rewrite(&mut m, fresh);
        m.enter(PState::user(), CODE + 0x1000);
        let (exit, _) = run_to_completion(&mut m);
        snapshot(&m, exit, 0)
    };
    let (on, off) = (run(true), run(false));
    assert_eq!((on.regs[0], off.regs[0]), (2, 2), "{ctx}: the rewritten leaf's frame must run");
    assert_identical(on, off, ctx);
}

#[test]
fn stage1_leaf_rewrite_then_tlb_eviction_agrees() {
    leaf_rewrite_agrees("stage-1 leaf rewrite", toucher_machine, |m, fresh| {
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        s1_unmap(&mut m.mem, root, CODE);
        s1_map_page(&mut m.mem, root, CODE, fresh, user_rwx());
    });
}

#[test]
fn stage2_leaf_rewrite_then_tlb_eviction_agrees() {
    // The same machine under HCR.VM, with stage 2 identity-mapping every
    // frame allocated so far; EL0's `svc` exits to modelled EL1.
    let build = |accel: bool| {
        let mut m = toucher_machine(accel);
        let frames = m.mem.allocated_frames() as u64;
        let s2_root = alloc_table(&mut m.mem);
        for pa in (0..frames).map(|f| (1 << 20) + f * 0x1000) {
            assert!(m.mem.is_mapped(pa), "frames are allocated contiguously from 1 MiB");
            s2_map_page(&mut m.mem, s2_root, pa, pa, S2Perms::rwx());
        }
        m.set_sysreg(SysReg::VTTBR_EL2, vttbr::pack(1, s2_root));
        m.set_sysreg(SysReg::HCR_EL2, hcr::VM);
        m.set_el1_external(true);
        m
    };
    leaf_rewrite_agrees("stage-2 leaf rewrite", build, |m, fresh| {
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let s2_root = vttbr::baddr(m.sysreg(SysReg::VTTBR_EL2));
        let (ipa, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, CODE).expect("code mapped");
        s2_unmap(&mut m.mem, s2_root, ipa);
        s2_map_page(&mut m.mem, s2_root, ipa, fresh, S2Perms::rwx());
    });
}

/// TTBR/ASID domain switching: two address spaces with different code at
/// the same VA plus a shared global data page; the host switches TTBR0
/// back and forth. ASID tagging must keep the compiled blocks separate
/// while global data entries persist.
#[test]
fn ttbr_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        a.ldr(1, 19, 0);
        a.add_reg(1, 1, 0);
        a.str(1, 19, 0);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let build = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.trace.set_enabled(true);
        (m, roots)
    };
    let drive = |m: &mut Machine, roots: [u64; 2]| {
        let mut last = Exit::Limit;
        for round in 0..7u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        last
    };
    let (mut on, roots_on) = build(true);
    let (mut off, roots_off) = build(false);
    let e_on = drive(&mut on, roots_on);
    let e_off = drive(&mut off, roots_off);
    // 7 rounds alternating: 4 × tag 1, 3 × tag 1000.
    let expect = 4 + 3 * 1000;
    assert_eq!(
        on.mem
            .read_u32({
                let (pa, _, _) = lz_machine::walk::s1_lookup(&on.mem, roots_on[0], DATA).unwrap();
                pa
            })
            .unwrap() as u64,
        expect,
        "shared counter must accumulate across domains"
    );
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "domain switch");
}

/// The full LightZone stack (gate, kernel, traps) on both engines: a
/// guest syscall loop must produce identical cycles, instructions, and
/// metric journals.
#[test]
fn lightzone_syscall_loop_agrees() {
    use lightzone::api::{LzAsm, LzProgramBuilder, SAN_TTBR};
    let run = |accel: bool| {
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.mov_imm64(23, 200);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.svc(0);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = lightzone::LightZone::new_host(Platform::CortexA55);
        lz.kernel.machine.set_accel(accel);
        lz.kernel.machine.set_metrics(true);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(400_000_000), lz_kernel::Event::Exited(0));
        (lz.kernel.machine.cpu.cycles, lz.kernel.machine.cpu.insns, lz.kernel.machine.journal.dump_json())
    };
    assert_eq!(run(true), run(false), "LightZone syscall loop diverged");
}

/// [`Machine::walk_config`] follows the live registers: after every way
/// the translation regime can change — a host-side `set_sysreg`, an
/// interpreted EL1 `MSR TTBR0_EL1`, an `ERET`, and a `switch_core` in
/// both directions — the next translation uses the new regime, and a
/// parked core's regime returns intact. Runs on the reference
/// interpreter, so no fetch cache is in play. (The name predates the
/// indexed register file: `walk_config` once memoised its result.)
#[test]
fn walk_config_memo_never_stale() {
    // Read-only: EL0-*writable* pages are never privileged-executable
    // (check_s1), and the EL1 probe must fetch from this page.
    let exec_rw = S1Perms { read: true, write: false, user_exec: true, priv_exec: true, el0: true, global: false };
    let data_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    let mut m = Machine::new(Platform::CortexA55);
    m.set_accel(false);

    // EL0 probe at CODE: load the data page, exit. EL1 probe at
    // CODE+0x100: interpreted MSR domain switch, load, ERET to EL0.
    let mut a = Asm::new(CODE);
    a.ldr(1, 19, 0);
    a.svc(0);
    let el0_probe = a.bytes();
    let mut a = Asm::new(CODE + 0x100);
    a.msr(SysReg::TTBR0_EL1, 20);
    a.ldr(2, 19, 0);
    a.eret();
    let el1_probe = a.bytes();

    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, &el0_probe);
    m.mem.write_bytes(code_pa + 0x100, &el1_probe);
    let mut ttbrs = [0u64; 2];
    for (i, value) in [0xAAAAu64, 0xBBBB].iter().enumerate() {
        let root = alloc_table(&mut m.mem);
        let data_pa = m.mem.alloc_frame();
        m.mem.write(data_pa, *value, 8);
        s1_map_page(&mut m.mem, root, CODE, code_pa, exec_rw);
        s1_map_page(&mut m.mem, root, DATA, data_pa, data_rw);
        ttbrs[i] = ttbr::pack(i as u16 + 1, root);
    }
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    let probe_el0 = |m: &mut Machine| {
        m.cpu.x[19] = DATA;
        m.enter(PState::user(), CODE);
        assert_eq!(m.run(4), Exit::El2(ExceptionClass::Svc));
        m.cpu.reg(1)
    };

    // 1. Host-side set_sysreg: warm the memo on domain A, switch to B.
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[0]);
    assert_eq!(probe_el0(&mut m), 0xAAAA);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[1]);
    assert_eq!(m.walk_config().ttbr0, ttbrs[1], "host set_sysreg left the memo stale");
    assert_eq!(probe_el0(&mut m), 0xBBBB);

    // 2. Interpreted MSR + ERET: EL1 switches back to domain A and loads
    // through the *new* regime, then ERETs to the EL0 probe.
    m.cpu.x[19] = DATA;
    m.cpu.x[20] = ttbrs[0];
    m.set_sysreg(SysReg::SPSR_EL1, PState::user().to_spsr());
    m.set_sysreg(SysReg::ELR_EL1, CODE);
    m.enter(PState::reset(), CODE + 0x100);
    assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
    assert_eq!(m.cpu.reg(2), 0xAAAA, "interpreted MSR TTBR0_EL1 left the memo stale");
    assert_eq!(m.cpu.reg(1), 0xAAAA, "post-ERET EL0 load used a stale regime");
    assert_eq!(m.walk_config().ttbr0, ttbrs[0]);

    // 3. switch_core: the secondary core's (fresh) registers must become
    // the live regime immediately, and each core's must return intact.
    m.configure_smp(2);
    let core0_cfg = m.walk_config();
    m.switch_core(1);
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[1]);
    assert_eq!(probe_el0(&mut m), 0xBBBB, "switch_core(1) left core 0's regime live");
    m.switch_core(0);
    assert_eq!(m.walk_config().ttbr0, ttbrs[0], "switch_core(0) left core 1's regime live");
    assert_eq!(m.walk_config(), core0_cfg, "core 0's regime did not survive the round trip");
    assert_eq!(probe_el0(&mut m), 0xAAAA);
    m.switch_core(1);
    assert_eq!(probe_el0(&mut m), 0xBBBB, "core 1's regime was lost");
}

/// `SP_EL0` has one home: at EL1, `MRS`/`MSR SP_EL0` read and write the
/// stack pointer EL0 runs on, on both engines. The EL1 code reads the
/// EL0 stack pointer, points it into a scratch frame and `ERET`s; EL0
/// then stores through `[sp]`. The MMU is off, so the store lands at
/// the frame address EL1 wrote.
#[test]
fn el1_msr_sp_el0_moves_the_el0_stack_on_every_engine() {
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        let code = m.mem.alloc_frame();
        let stack = m.mem.alloc_frame();
        let mut a = Asm::new(code);
        a.mrs(3, SysReg::SP_EL0);
        a.msr(SysReg::SP_EL0, 1);
        a.eret();
        a.str(2, 31, 0); // EL0, at `code + 12`
        a.svc(0);
        m.mem.write_bytes(code, &a.bytes());
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.set_sysreg(SysReg::SPSR_EL1, PState::user().to_spsr());
        m.set_sysreg(SysReg::ELR_EL1, code + 12);
        m.cpu.sp_el0 = 0x1230;
        m.cpu.x[1] = stack + 0x80;
        m.cpu.x[2] = 0x5EED;
        m.enter(PState::reset(), code);
        assert_eq!(m.run(16), Exit::El2(ExceptionClass::Svc), "accel {accel}: the EL0 store did not complete");
        assert_eq!(m.cpu.reg(3), 0x1230, "accel {accel}: MRS SP_EL0 did not read the EL0 stack pointer");
        let moved = (m.cpu.sp_el0, m.mem.read(stack + 0x80, 8));
        assert_eq!(moved, (stack + 0x80, Some(0x5EED)), "accel {accel}: MSR SP_EL0 missed the EL0 stack");
        (m.cpu.cycles, m.cpu.insns)
    };
    assert_eq!(run(true), run(false), "the engine changed the SP_EL0 probe's cost");
}

/// Metrics must be observation-only: a machine with the event journal
/// enabled and one with it disabled run byte-identically — same exit,
/// registers, cycle/instruction counts, TLB statistics, and trace.
/// (Raw counters are always on; `set_metrics` gates the journal.)
#[test]
fn metrics_on_off_agree() {
    for seed in 0..8u64 {
        let (code, patch) = random_program(seed, 400, 64);
        let mut on = build_machine(&code, &patch, true);
        on.set_metrics(true);
        let mut off = build_machine(&code, &patch, true);
        off.set_metrics(false);
        let (e_on, r_on) = run_to_completion(&mut on);
        let (e_off, r_off) = run_to_completion(&mut off);
        assert_identical(
            snapshot(&on, e_on, r_on),
            snapshot(&off, e_off, r_off),
            &format!("metrics on/off, seed {seed}"),
        );
        // The journal must actually have observed the run on one side and
        // stayed silent on the other, or the comparison proves nothing.
        assert!(!on.journal.is_empty(), "seed {seed}: journal recorded nothing");
        assert!(off.journal.is_empty(), "seed {seed}: disabled journal recorded events");
    }
}

/// Same property through the full LightZone stack: enabling the journal
/// must not change a single modelled cycle, and the `Violation` events it
/// records must agree exactly with the module's violation counter. Each
/// program ends in one violation: a PAN-protected load with PAN set, or a
/// store into the VE's own TTBR1 stub page (a VE-fault kill the module
/// once journaled without counting).
#[test]
fn lightzone_metrics_on_off_agree_and_violations_match() {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, USER};
    use lightzone::gate::layout;
    use lightzone::pgt::PGT_ALL;
    const ARENA: u64 = 0x5000_0000;
    let build = |stub_store: bool| {
        let mut b = LzProgramBuilder::new(CODE);
        b.with_anon_segment(ARENA, 0x1000, lz_kernel::VmProt::RW);
        b.asm.lz_enter(false, SAN_PAN);
        b.asm.lz_prot_imm(ARENA, 0x1000, PGT_ALL, RW | USER);
        // A legal round, then the illegal access.
        b.asm.set_pan(0);
        b.asm.mov_imm64(1, ARENA);
        b.asm.ldr(2, 1, 0);
        if stub_store {
            b.asm.mov_imm64(1, layout::STUB_VA);
            b.asm.str(2, 1, 0); // store into the TTBR1 stub: violation
        } else {
            b.asm.set_pan(1);
            b.asm.ldr(2, 1, 0); // PAN set: violation
        }
        b.asm.exit_imm(0);
        b.build()
    };
    let run = |stub_store: bool, metrics_on: bool| {
        let prog = build(stub_store);
        let mut lz = lightzone::LightZone::new_host(Platform::CortexA55);
        lz.kernel.machine.set_metrics(metrics_on);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), lightzone::SECURITY_KILL);
        let report = lz.metrics_report();
        let violations = report.section("lz").unwrap().get("violations").unwrap();
        let journaled = lz.kernel.machine.journal.count(|e| matches!(e, lz_machine::EventKind::Violation { .. }));
        (lz.kernel.machine.cpu.cycles, lz.kernel.machine.cpu.insns, violations, journaled)
    };
    for stub_store in [false, true] {
        let (cy_on, in_on, viol_on, j_on) = run(stub_store, true);
        let (cy_off, in_off, viol_off, j_off) = run(stub_store, false);
        let ctx = if stub_store { "stub-page store" } else { "PAN-protected load" };
        assert_eq!((cy_on, in_on), (cy_off, in_off), "journal changed modelled state ({ctx})");
        assert_eq!(viol_on, viol_off, "violation counter must not depend on the journal ({ctx})");
        assert_eq!(j_on, viol_on, "journaled Violation events must match the counter ({ctx})");
        assert_eq!(viol_on, 1, "one violation kills the VE ({ctx})");
        assert_eq!(j_off, 0, "disabled journal recorded events ({ctx})");
    }
}

// ---------------------------------------------------------------------
// Compiled blocks (DESIGN.md §13)
// ---------------------------------------------------------------------

/// Compiled-block differential over TTBR/ASID domain switching: compiled
/// blocks are keyed by the same `(vmid, asid, el, page)` tags as the
/// decoded words they were lowered from, so switching domains must never
/// serve a block compiled for the other address space.
#[test]
fn jit_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        a.ldr(1, 19, 0);
        a.add_reg(1, 1, 0);
        a.eor_reg(2, 1, 0);
        a.orr_reg(3, 2, 1);
        a.str(1, 19, 0);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        let mut last = Exit::Limit;
        for round in 0..9u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(&mut m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        let counter = {
            let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, roots[0], DATA).unwrap();
            m.mem.read_u32(pa).unwrap() as u64
        };
        (snapshot(&m, last, 0), counter, m.tlb.fast_stats())
    };
    let (snap_on, counter_on, fast) = run(true);
    let (snap_off, counter_off, _) = run(false);
    assert_identical(snap_on, snap_off, "compiled-block domain switch");
    assert_eq!(counter_on, 5 + 4 * 1000, "shared counter must accumulate across domains");
    assert_eq!(counter_on, counter_off);
    assert!(fast.jit_blocks > 0, "domain-switch rounds never executed a compiled block");
}

/// Cross-core code-byte flip on a bare SMP machine: core 0 compiles a
/// hot block over its code page, core 1 patches the code *frame*
/// physically (no TLBI, no IPI — the frame-version check is the only
/// defence), and core 0 re-enters. The stale compiled block must not
/// serve, identically on both engines.
#[test]
fn jit_cross_core_code_flip_agrees() {
    let body = |tag: u16| {
        let mut a = Asm::new(CODE);
        a.movz(17, tag, 0);
        a.add_imm(17, 17, 0);
        a.svc(0);
        a.bytes()
    };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        m.mem.write_bytes(code_pa, &body(0x1111));
        s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
        m.configure_smp(2);
        // Warm: core 0 executes the block enough times to compile and
        // then serve it from the block cache.
        for _ in 0..4 {
            m.enter(PState::user(), CODE);
            assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
            assert_eq!(m.cpu.reg(17), 0x1111);
        }
        // Core 1 flips the code bytes in physical memory.
        m.switch_core(1);
        m.mem.write_bytes(code_pa, &body(0x2222));
        m.switch_core(0);
        m.enter(PState::user(), CODE);
        assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
        (m.cpu.reg(17), m.cpu.cycles, m.cpu.insns, m.tlb.fast_stats().jit_blocks)
    };
    let (x17_on, cy_on, in_on, blocks_on) = run(true);
    let (x17_off, cy_off, in_off, _) = run(false);
    assert_eq!(x17_on, 0x2222, "stale compiled block survived a cross-core code flip");
    assert_eq!((x17_on, cy_on, in_on), (x17_off, cy_off, in_off), "the engine changed the cross-core flip outcome");
    assert!(blocks_on > 0, "warm-up never executed a compiled block");
}

/// Two cores run in epochs of a quantum *smaller* than the hot block:
/// compiled blocks must honor the per-epoch instruction budget exactly
/// (the dispatcher refuses entry when the block's footprint exceeds the
/// remaining budget and single-steps), so per-core cycles, instruction
/// counts, and the exits are identical on both engines.
#[test]
fn jit_smp_interleaved_quantum_agrees() {
    let run = |accel: bool, quantum: u64| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, 300);
        let top = a.label();
        a.bind(top);
        a.add_imm(1, 1, 3);
        a.eor_reg(2, 1, 0);
        a.orr_reg(3, 2, 1);
        a.add_reg(4, 3, 2);
        a.subs_imm(0, 0, 1);
        a.b_ne(top);
        a.svc(0);
        m.mem.write_bytes(code_pa, &a.bytes());
        s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
        m.configure_smp(2);
        for core in [0usize, 1] {
            m.switch_core(core);
            m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
            m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
            m.enter(PState::user(), CODE);
        }
        m.switch_core(0);
        // One epoch per round, each running core with a full quantum,
        // until both cores exit.
        let mut exits = [None; 2];
        let mut retired = 0;
        while exits.contains(&None) {
            assert!(retired < 100_000, "quantum {quantum}: the cores never exited");
            let budgets = exits.map(|e| if e.is_none() { quantum } else { 0 });
            for (c, (exit, used)) in m.run_epoch(&budgets).into_iter().enumerate() {
                retired += used;
                if budgets[c] > 0 && exit != Exit::Limit {
                    exits[c] = Some(exit);
                }
            }
        }
        let per_core: Vec<(u64, u64)> =
            (0..m.num_cores()).map(|i| (m.core_cpu(i).insns, m.core_cpu(i).cycles)).collect();
        let mut jit_blocks = 0u64;
        for i in 0..m.num_cores() {
            m.switch_core(i);
            jit_blocks += m.tlb.fast_stats().jit_blocks;
        }
        (exits, per_core, jit_blocks)
    };
    // Quantum 7 ends most slices mid-block (the loop body is 6
    // instructions plus the terminal), so the budget check — not the
    // block length — decides where execution pauses. Quantum 64 lets
    // whole blocks run; both must agree with the interpreter.
    for quantum in [7u64, 64] {
        let (exits_on, per_core_on, jit_blocks) = run(true, quantum);
        let (exits_off, per_core_off, _) = run(false, quantum);
        assert_eq!(exits_on, exits_off, "quantum {quantum}: the engine changed the exits");
        assert_eq!(per_core_on, per_core_off, "quantum {quantum}: the engine changed per-core accounting");
        assert!(jit_blocks > 0, "quantum {quantum}: no compiled block ever executed");
    }
}

// ---------------------------------------------------------------------
// Compiled loads/stores, branch terminals and block invalidation
// (DESIGN.md §13.1–§13.3)
// ---------------------------------------------------------------------

/// Build and drive one machine per engine, with the journal and the
/// trace on; the reference interpreter must reproduce the accelerated
/// engine's run byte for byte — snapshot, journal, and whatever else the
/// scenario reads back. Returns the accelerated machine's fast-path
/// counters after asserting that compiled blocks ran and the micro-DTLB
/// hit, so the comparison cannot pass vacuously.
fn both_engines<R: PartialEq + std::fmt::Debug>(
    ctx: &str,
    build: impl Fn() -> Machine,
    drive: impl Fn(&mut Machine) -> (Exit, R),
) -> lz_machine::metrics::FastStats {
    let run = |accel: bool| {
        let mut m = build();
        m.set_accel(accel);
        m.set_metrics(true);
        m.trace.set_enabled(true);
        let (exit, extra) = drive(&mut m);
        ((snapshot(&m, exit, 0), m.journal.dump_json(), extra), m.tlb.fast_stats())
    };
    let (accel, fast) = run(true);
    let (reference, _) = run(false);
    assert_eq!(reference, accel, "{ctx}: the reference interpreter diverged from the accelerated engine");
    assert!(fast.jit_blocks > 0, "{ctx}: no compiled block ran");
    assert!(fast.dtlb_hits > 0, "{ctx}: the micro-DTLB never hit");
    fast
}

/// Read `len` bytes of guest memory at `va` through the live stage-1
/// tables (host-side, no TLB interaction).
fn guest_bytes(m: &Machine, va: u64, len: u64) -> Vec<u8> {
    let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
    (va..va + len)
        .map(|a| {
            let (page, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, a).expect("mapped");
            m.mem.read(page | (a & 0xfff), 1).expect("backed") as u8
        })
        .collect()
}

/// Run the program to its final `svc #0` and read back both data pages.
fn run_and_read_data(m: &mut Machine) -> (Exit, Vec<u8>) {
    let (exit, _) = run_to_completion(m);
    (exit, guest_bytes(m, DATA, 0x2000))
}

/// Emit one `nvm_scan` search: scan `window` bytes from `x19 + start`
/// for a 0xff byte with the Figure 5 loop (`ldrb ; add ; cmp ; b.eq` and
/// `subs ; b.ne`), leaving the address after the hit (or the window) in
/// x25.
fn emit_scan(a: &mut Asm, start: u16, window: u64) {
    a.mov_imm64(24, window);
    a.add_imm(25, 19, start);
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

/// The Figure 5 search loop across both data pages: one scan finds a
/// planted needle in the second page (a micro-DTLB miss at the page
/// boundary, then hits), one starts past it, one ends inside its window
/// without a hit — so `b.eq` and `b.ne` both go both ways.
#[test]
fn jit_nvm_scan_loop_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(1, 0xff, 0);
    a.mov_imm64(2, DATA + 0x1300);
    a.strb(1, 2, 0); // the needle
    for (i, (start, window)) in [(0u16, 0x1f00u64), (0x400, 0x1f00), (0x10, 0x600)].into_iter().enumerate() {
        emit_scan(&mut a, start, window);
        a.mov_reg(20 + i as u8, 25);
    }
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines("nvm scan loop", || build_machine(&code, &patch_area(4), true), run_and_read_data);
    assert!(fast.dtlb_hits > 1000, "the scan should be micro-DTLB dominated: {fast:?}");
}

/// Loads and stores of every size through `Mem` segments, aligned and
/// page-crossing (the crossing ones take the interpreter's split path),
/// repeated so later rounds hit the micro-DTLB entries earlier ones armed.
#[test]
fn jit_loads_and_stores_of_every_size_agree() {
    use lz_arch::insn::MemSize;
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.mov_imm64(5, 0x0123_4567_89ab_cdef);
    a.movz(0, 4, 0);
    let top = a.label();
    a.bind(top);
    for (i, size) in [MemSize::B, MemSize::H, MemSize::W, MemSize::X].into_iter().enumerate() {
        let off = 8 * size.bytes() * (i as u64 + 1);
        a.emit(Insn::StrImm { rt: 5, rn: 19, offset: off, size });
        a.emit(Insn::LdrImm { rt: 6 + i as u8, rn: 19, offset: off, size });
        a.add_reg(5, 5, 0);
        // Page-crossing: the access starts `bytes - 1` before the page end.
        a.mov_imm64(20, DATA + 0x1000 - (size.bytes() - 1).max(1));
        a.emit(Insn::StrImm { rt: 5, rn: 20, offset: 0, size });
        a.emit(Insn::LdrImm { rt: 10 + i as u8, rn: 20, offset: 0, size });
    }
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    both_engines("every size", || build_machine(&code, &patch_area(4), true), run_and_read_data);
}

/// A store into the running block's own code page: once the block is
/// compiled, one round aims its store at the very next instruction, so
/// the compiled block must end at the store and fetch the new word
/// exactly as stepping does.
#[test]
fn jit_store_into_own_code_page_agrees() {
    use lz_arch::insn::{Cond, MemSize};
    let mut a = Asm::new(CODE);
    a.mov_imm64(21, CODE + 0x40);
    a.mov_imm64(22, DATA + 0x100);
    a.mov_imm64(5, Insn::Movz { rd: 17, imm16: 0x2222, hw: 0 }.encode() as u64);
    a.movz(0, 6, 0);
    while a.here() < CODE + 0x34 {
        a.nop();
    }
    let top = a.label();
    a.bind(top);
    a.cmp_imm(0, 2);
    a.csel(20, 21, 22, Cond::Eq); // the code page in round 2 only
    a.emit(Insn::StrImm { rt: 5, rn: 20, offset: 0, size: MemSize::W }); // CODE + 0x3c
    assert_eq!(a.here(), CODE + 0x40);
    a.movz(17, 0x1111, 0); // patched by the store above
    a.ldr(18, 22, 0);
    a.add_reg(16, 16, 17);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    both_engines(
        "store into own code page",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!(m.cpu.reg(16), 4 * 0x1111 + 2 * 0x2222, "the patched word runs from the patching round on");
            (exit, data)
        },
    );
}

/// A loop that loads from `DATA` and stores into an unexecuted word of
/// its own code page, 1 MiB below: the two pages share `vpn & 63`, so a
/// direct-mapped micro-DTLB gives them one slot and never hits, while a
/// set-associative one keeps both armed. Each code store changes the
/// code frame's version, so the loop re-validates its blocks every
/// iteration.
#[test]
fn jit_load_beside_a_store_into_own_code_page_hits_the_micro_dtlb() {
    const ROUNDS: u64 = 100;
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.mov_imm64(21, CODE + 0x800);
    a.mov_imm64(0, ROUNDS);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.add_imm(1, 1, 3);
    a.str(1, 19, 0);
    a.str(1, 21, 0);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    assert!(code.len() < 0x800, "the stored word is never executed");
    let fast = both_engines(
        "load beside a store into own code page",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!(guest_bytes(m, CODE + 0x800, 8), (3 * ROUNDS).to_le_bytes(), "the code-page word");
            (exit, (data, m.tlb.walk_stats()))
        },
    );
    assert!(fast.dtlb_hits >= 2 * ROUNDS, "{} micro-DTLB hits over {ROUNDS} rounds", fast.dtlb_hits);
}

/// A compiled load, and then a compiled store, through an armed
/// micro-DTLB slot whose frame was freed with `PhysMem::try_free_frame`
/// and no TLBI. The slot still hits and the frame lookup fails, so the
/// access raises the bus error the reference engine raises through its
/// stale L1 TLB entry: the same exit, ESR, FAR, cycles and journal on
/// both engines, with the ESR's `WnR` set for the store.
#[test]
fn jit_access_through_a_freed_frame_raises_the_reference_bus_error() {
    for write in [false, true] {
        let mut a = Asm::new(CODE);
        a.mov_imm64(19, DATA);
        a.movz(0, 8, 0);
        let top = a.label();
        a.bind(top);
        let access = a.here();
        if write {
            a.str(1, 19, 0x10);
        } else {
            a.ldr(1, 19, 0x10);
        }
        a.subs_imm(0, 0, 1);
        a.b_ne(top);
        a.svc(0);
        let code = a.bytes();
        let ctx = if write { "compiled store through a freed frame" } else { "compiled load through a freed frame" };
        both_engines(
            ctx,
            || build_machine(&code, &patch_area(4), true),
            |m| {
                assert_eq!(run_to_completion(m).0, Exit::El2(ExceptionClass::Svc), "{ctx}: the warm-up loop");
                let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
                let (frame, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, DATA).expect("mapped");
                assert!(m.mem.try_free_frame(frame));
                let before = m.tlb.fast_stats();
                m.enter(PState::user(), access);
                let exit = m.run(100);
                let after = m.tlb.fast_stats();
                if m.tlb.accel() {
                    let moved = (after.jit_blocks - before.jit_blocks, after.dtlb_hits - before.dtlb_hits);
                    assert_eq!(moved, (1, 1), "{ctx}: one compiled block, whose access hit its armed slot");
                }
                assert_eq!(exit, Exit::El2(ExceptionClass::DataAbortLower), "{ctx}");
                assert_eq!(m.sysreg(SysReg::FAR_EL2), DATA + 0x10, "{ctx}");
                let (_, wnr, _) = esr_abort_info(m.sysreg(SysReg::ESR_EL2)).expect("an abort ESR");
                assert_eq!(wnr, write, "{ctx}: WnR");
                (exit, [SysReg::ESR_EL2, SysReg::FAR_EL2, SysReg::ELR_EL2].map(|r| m.sysreg(r)))
            },
        );
    }
}

/// A loop that, each iteration, computes `movz x0, #k` and stores it
/// into a later word of the block it is running, before reaching that
/// word. The block was lowered from the code frame before the store, so
/// it must end at the store, and the patched word must run: x0 ends at
/// the last k. The loop runs from compiled blocks nonetheless — every
/// iteration single-steps once after the store, which records the
/// rewritten page and re-arms it.
#[test]
fn jit_store_into_a_later_word_of_the_running_block_agrees() {
    use lz_arch::insn::MemSize;
    const ROUNDS: u64 = 300;
    const TOP: u64 = CODE + 0x40;
    const SITE: u64 = TOP + 0x1c;
    let mut a = Asm::new(CODE);
    // The second data page: its micro-DTLB slot is not the code page's.
    a.mov_imm64(19, DATA + 0x1000);
    a.mov_imm64(21, SITE);
    a.mov_imm64(5, Insn::Movz { rd: 0, imm16: 0, hw: 0 }.encode() as u64);
    a.movz(6, 0, 0);
    a.mov_imm64(7, ROUNDS);
    while a.here() < TOP {
        a.nop();
    }
    let top = a.label();
    a.bind(top);
    a.add_imm(6, 6, 1); // k
    a.lsl_imm(8, 6, 5);
    a.orr_reg(8, 8, 5); // movz x0, #k
    a.ldr(1, 19, 0);
    a.emit(Insn::StrImm { rt: 8, rn: 21, offset: 0, size: MemSize::W });
    a.nop().nop();
    assert_eq!(a.here(), SITE);
    a.movz(0, 0xffff, 0); // patched by the store above
    a.add_reg(2, 2, 0);
    a.subs_imm(7, 7, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines(
        "store into a later word of the running block",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!(m.cpu.reg(0), ROUNDS, "x0 holds the last k");
            assert_eq!(m.cpu.reg(2), ROUNDS * (ROUNDS + 1) / 2, "every patched word ran");
            (exit, data)
        },
    );
    assert!(fast.jit_blocks >= ROUNDS, "the loop must run from compiled blocks: {fast:?}");
}

/// Cold straight-line code, run once: the first fetch records the page
/// and arms it, and every later dispatch compiles from the code frame,
/// so the accelerated engine single-steps at most once per page.
#[test]
fn cold_straight_line_code_compiles_after_one_step() {
    let mut a = Asm::new(CODE);
    for i in 0..200u16 {
        a.movz(1, i, 0);
        a.add_reg(2, 2, 1);
    }
    a.svc(0);
    let code = a.bytes();
    let run = |accel: bool| {
        let mut m = build_machine(&code, &patch_area(4), accel);
        m.trace.set_enabled(true);
        let (exit, resumes) = run_to_completion(&mut m);
        assert_eq!(m.cpu.reg(2), 199 * 200 / 2);
        (snapshot(&m, exit, resumes), m.tlb.fast_stats())
    };
    let (on, fast) = run(true);
    let (off, _) = run(false);
    assert_identical(on, off, "cold straight-line code");
    assert!(fast.jit_stepped <= 2, "cold code single-stepped {} times", fast.jit_stepped);
    assert!(fast.jit_blocks > 0, "no compiled block ran");
}

/// EL0 watchpoints armed: every `Mem` access takes the interpreter path
/// (which still probes the micro-DTLB). The compiled loop walks a load
/// and a store through the data page; unwatched accesses retire, and the
/// load that reaches the watched doubleword traps with the same syndrome
/// on every engine.
#[test]
fn jit_with_watchpoints_armed_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.mov_imm64(20, DATA);
    a.movz(0, 50, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 20, 0); // reaches the watched DATA + 0x100 in round 33
    a.str(1, 19, 0x800);
    a.add_imm(20, 20, 8);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let build = || {
        let mut m = build_machine(&code, &patch_area(4), true);
        m.cpu.watchpoints[0] =
            Some(lz_machine::cpu::Watchpoint { addr: DATA + 0x100, len: 8, on_read: true, on_write: false });
        m.cpu.watchpoints_enabled = true;
        m
    };
    both_engines("watchpoints armed", build, |m| {
        let (exit, data) = run_and_read_data(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::WatchpointLower));
        assert_eq!(m.cpu.reg(0), 50 - 32, "the trap lands in round 33");
        (exit, (data, m.sysreg(SysReg::FAR_EL2), m.sysreg(SysReg::ESR_EL2)))
    });
}

/// A bare EL1 machine: priv-exec code at `CODE`, one user page at `DATA`,
/// one ASID-tagged root per entry of `roots_data` (each mapping `DATA` to
/// its own frame, pre-filled with the given byte), EL1 exceptions exiting
/// the interpreter.
fn build_el1_machine(code: &[u8], data_fill: &[u8]) -> (Machine, Vec<u64>) {
    build_el1_machine_with(code, data_fill, true)
}

/// [`build_el1_machine`], with the code page mapped global or, when
/// `global_code` is false, non-global in every root.
fn build_el1_machine_with(code: &[u8], data_fill: &[u8], global_code: bool) -> (Machine, Vec<u64>) {
    let mut m = Machine::new(Platform::CortexA55);
    let el1_code =
        S1Perms { read: true, write: false, user_exec: false, priv_exec: true, el0: false, global: global_code };
    let user_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, code);
    let mut roots = Vec::new();
    for &fill in data_fill {
        let root = alloc_table(&mut m.mem);
        s1_map_page(&mut m.mem, root, CODE, code_pa, el1_code);
        let pa = m.mem.alloc_frame();
        m.mem.write_bytes(pa, &[fill; 0x1000]);
        s1_map_page(&mut m.mem, root, DATA, pa, user_rw);
        roots.push(root);
    }
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, roots[0]));
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_el1_external(true);
    m.cpu.pstate = PState::reset();
    m.cpu.pc = CODE;
    (m, roots)
}

/// PAN-on EL1 access to a user page: a compiled loop arms micro-DTLB
/// entries with PAN clear, the host sets PSTATE.PAN on the return from
/// the second round's `svc`, and the same compiled loop's next load of
/// that page must permission-fault instead of hitting an entry. (Every
/// instruction is decoded in the first round, since a first fetch in a
/// page drops the page's compiled blocks.)
#[test]
fn jit_pan_on_el1_access_to_user_page_agrees() {
    let mut a = Asm::new(CODE);
    let scan = a.label();
    a.mov_imm64(19, DATA);
    a.movz(5, 3, 0);
    let outer = a.label();
    a.bind(outer);
    a.movz(0, 40, 0);
    a.bl(scan); // third round: the first load must fault
    a.svc(1);
    a.subs_imm(5, 5, 1);
    a.b_ne(outer);
    a.svc(0);
    a.bind(scan);
    a.ldr(1, 19, 8);
    a.add_reg(2, 2, 1);
    a.subs_imm(0, 0, 1);
    a.b_ne(scan);
    a.ret();
    let code = a.bytes();
    both_engines(
        "PAN-on EL1 access",
        || build_el1_machine(&code, &[7]).0,
        |m| {
            for pan in [false, true] {
                assert_eq!(m.run(100_000), Exit::El1(ExceptionClass::Svc));
                m.enter_from_el1(PState { pan, ..PState::reset() }, m.sysreg(SysReg::ELR_EL1));
            }
            let exit = m.run(100_000);
            assert_eq!(exit, Exit::El1(ExceptionClass::DataAbortSame));
            assert_eq!((m.cpu.reg(5), m.cpu.reg(0)), (1, 40), "the fault is the third call's first load");
            (exit, (m.sysreg(SysReg::ESR_EL1), m.sysreg(SysReg::FAR_EL1), m.sysreg(SysReg::ELR_EL1)))
        },
    );
}

/// A micro-DTLB miss after an ASID switch: the same EL1 loop reads `DATA`
/// under ASID 1, then under ASID 2 (another frame behind the same VA);
/// the entries armed for ASID 1 must miss and the values must follow the
/// live ASID.
#[test]
fn jit_dtlb_miss_after_asid_switch_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(0, 30, 0);
    let top = a.label();
    a.bind(top);
    a.ldrb(1, 19, 0);
    a.add_reg(2, 2, 1);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    // Frame allocation is deterministic, so every engine's machine gets
    // these same two roots.
    let roots = build_el1_machine(&code, &[1, 2]).1;
    both_engines(
        "ASID switch",
        || build_el1_machine(&code, &[1, 2]).0,
        |m| {
            let mut sums = Vec::new();
            let mut exit = Exit::Limit;
            for asid in [1u16, 2, 1] {
                m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(asid, roots[asid as usize - 1]));
                m.cpu.x[2] = 0;
                m.cpu.pstate = PState::reset();
                m.cpu.pc = CODE;
                exit = m.run(100_000);
                assert_eq!(exit, Exit::El1(ExceptionClass::Svc));
                sums.push(m.cpu.reg(2));
            }
            assert_eq!(sums, [30, 60, 30], "loads must follow the live ASID");
            (exit, sums)
        },
    );
}

/// `B`, `B.cond`, `CBZ` and `CBNZ` terminals, each taken on some rounds
/// and not taken on others, behind a `Mem` load.
#[test]
fn jit_branch_terminals_taken_and_not_taken_agree() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(3, 1, 0);
    a.movz(0, 9, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.and_reg(2, 0, 3); // odd round?
    let even = a.label();
    a.cbz(2, even);
    a.add_imm(4, 4, 1);
    a.bind(even);
    let skip = a.label();
    a.cbnz(2, skip);
    a.add_imm(5, 5, 1);
    a.bind(skip);
    a.cmp_imm(2, 0);
    let odd = a.label();
    a.b_ne(odd);
    a.add_imm(6, 6, 1);
    let join = a.label();
    a.b(join);
    a.bind(odd);
    a.add_imm(7, 7, 1);
    a.bind(join);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    both_engines(
        "branch terminals",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!([m.cpu.reg(4), m.cpu.reg(5), m.cpu.reg(6), m.cpu.reg(7)], [5, 4, 4, 5]);
            (exit, data)
        },
    );
}

/// Quantum edges at every offset: a loop whose hot path holds an ALU
/// run, `Mem` segments, an inner looping block with a side exit (four
/// iterations per round, the side exit taken on every eighth), an
/// all-`Slow` block (a pair load and a trap the host resumes from), a
/// one-instruction `Slow` block and a branch terminal, driven by
/// `run(limit)` for every limit from 1 to 70 — past the whole program's
/// length. A block longer than the remaining budget is never entered,
/// nor re-entered; the accelerated engine single-steps to the edge
/// instead, and that fallback is the only code that places a quantum
/// edge inside a block, a re-entered iteration included. Both engines
/// are compared after every call.
#[test]
fn quantum_edges_inside_blocks_agree() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(0, 6, 0);
    a.movz(11, 7, 0);
    let top = a.label();
    let inner = a.label();
    let rejoin = a.label();
    let spill = a.label();
    let slow = a.label();
    a.bind(top);
    a.add_imm(1, 1, 3); // ALU run
    a.eor_reg(2, 1, 0);
    a.ldr(3, 19, 0); // Mem
    a.add_reg(4, 4, 1);
    a.str(4, 19, 8); // Mem
    a.movz(7, 4, 0);
    a.bind(inner); // the looping block
    a.add_imm(9, 9, 1);
    a.and_reg(10, 9, 11);
    a.cbz(10, spill); // side exit
    a.bind(rejoin);
    a.subs_imm(7, 7, 1);
    a.b_ne(inner); // back edge: re-entry
    a.bl(slow); // Slow terminal
    a.subs_imm(0, 0, 1);
    a.b_ne(top); // branch terminal
    a.svc(0);
    a.bind(spill);
    a.add_imm(12, 12, 1);
    a.b(rejoin);
    a.bind(slow);
    a.ldp(5, 6, 19, 0); // the all-Slow block: pair load, trap
    a.svc(1);
    a.ret(); // a one-instruction block
    let code = a.bytes();
    let mut loops = 0;
    for limit in 1..=70u64 {
        let mut ms = [true, false].map(|accel| {
            let mut m = build_machine(&code, &patch_area(4), accel);
            m.set_metrics(true);
            m.trace.set_enabled(true);
            m
        });
        for call in 1.. {
            let exits = ms.each_mut().map(|m| m.run(limit));
            let ctx = format!("limit {limit}, call {call}");
            assert_identical(snapshot(&ms[0], exits[0], 0), snapshot(&ms[1], exits[1], 0), &ctx);
            assert_journals_identical(&ms[0], &ms[1], &ctx);
            match exits[0] {
                Exit::Limit => {}
                Exit::El2(ExceptionClass::Svc) if lz_arch::esr::esr_imm(ms[0].sysreg(SysReg::ESR_EL2)) == 1 => {
                    for m in &mut ms {
                        let elr = m.sysreg(SysReg::ELR_EL2);
                        m.enter(PState::user(), elr);
                    }
                }
                Exit::El2(ExceptionClass::Svc) => break,
                other => panic!("{ctx}: unexpected exit {other:?}"),
            }
        }
        assert_eq!(ms[0].cpu.reg(4), 3 + 6 + 9 + 12 + 15 + 18, "limit {limit}: the loop ran to completion");
        assert_eq!((ms[0].cpu.reg(9), ms[0].cpu.reg(12)), (24, 3), "limit {limit}: the inner loop ran to completion");
        let fast = ms[0].tlb.fast_stats();
        assert!(fast.jit_blocks > 0, "limit {limit}: no compiled block ran");
        loops += fast.jit_loops;
    }
    assert!(loops > 0, "no block was re-entered in place at any limit");
}

// --- hot loops in one block: side exits and in-place re-entry ----------

/// The Figure 5 search loop over 1,000 bytes without a needle: the block
/// at its top holds the load, the `b.eq` side exit and the `b.ne` back
/// edge, and re-enters in place on all but the first few iterations, so
/// the whole search costs a handful of dispatches.
#[test]
fn search_loop_reenters_its_block_in_place() {
    const WINDOW: u64 = 1_000;
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    emit_scan(&mut a, 0, WINDOW);
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines(
        "1,000-iteration search",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!(m.cpu.reg(25), DATA + WINDOW, "no needle: the scan ends at its window");
            (exit, data)
        },
    );
    assert!(fast.jit_loops >= 990, "the search must re-enter its block in place: {fast:?}");
    assert!(fast.jit_blocks - fast.jit_loops < 10, "the search must not dispatch per iteration: {fast:?}");
}

/// A looping block whose store rewrites the block's own first word on
/// one iteration: the store ends the block at the boundary after it, so
/// the stale lowering is never re-entered, and every later iteration
/// runs the new word — from a block lowered anew, re-entered in place.
#[test]
fn loop_patching_its_own_first_word_stops_reentering() {
    use lz_arch::insn::{Cond, MemSize};
    const TOP: u64 = CODE + 0x40;
    const ROUNDS: u16 = 40;
    const PATCHED: u16 = 25;
    let mut a = Asm::new(CODE);
    a.mov_imm64(21, TOP);
    // The second data page: its micro-DTLB slot is not the code page's.
    a.mov_imm64(22, DATA + 0x1000);
    a.mov_imm64(5, Insn::Movz { rd: 17, imm16: 0x2222, hw: 0 }.encode() as u64);
    a.movz(0, ROUNDS, 0);
    while a.here() < TOP {
        a.nop();
    }
    let top = a.label();
    a.bind(top);
    a.movz(17, 0x1111, 0); // patched on the round x0 == PATCHED
    a.add_reg(16, 16, 17);
    a.cmp_imm(0, PATCHED);
    a.csel(20, 21, 22, Cond::Eq);
    a.emit(Insn::StrImm { rt: 5, rn: 20, offset: 0, size: MemSize::W });
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines(
        "loop patching its own first word",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            let (old, new) = (u64::from(ROUNDS - PATCHED + 1), u64::from(PATCHED - 1));
            assert_eq!(m.cpu.reg(16), old * 0x1111 + new * 0x2222, "the patched word runs from the next round on");
            (exit, data)
        },
    );
    assert!(fast.jit_loops >= u64::from(ROUNDS) - 8, "both lowerings must re-enter in place: {fast:?}");
}

/// A loop whose first load reaches a new page every iteration, 64 pages
/// in all: each walk inserts a TLB entry and moves the generation, so the
/// block ends at the boundary after that load and never reaches its back
/// edge — and past the L1 TLB's capacity the code page's own entry is
/// evicted, so a block run on a stale generation would miscount the
/// fetches that follow.
#[test]
fn loop_walking_a_new_page_each_iteration_never_reenters() {
    const FRESH: u64 = 0x100_0000;
    const PAGES: u16 = 64;
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, FRESH);
    a.mov_imm64(22, DATA + 0x1000);
    a.mov_imm64(23, 0x1000);
    a.movz(0, PAGES, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0); // a new page: TLB miss, walk, insert
    a.ldr(3, 22, 0);
    a.ldr(4, 22, 8); // a micro-DTLB hit on the page the load above armed
    a.add_reg(2, 2, 1);
    a.add_reg(19, 19, 23);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let build = || {
        let mut m = build_machine(&code, &patch_area(4), true);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        for page in 0..u64::from(PAGES) {
            let pa = m.mem.alloc_frame();
            m.mem.write_bytes(pa, &(page + 1).to_le_bytes());
            s1_map_page(&mut m.mem, root, FRESH + page * 0x1000, pa, lz_chaos::programs::user_rw());
        }
        m
    };
    let fast = both_engines("a new page each iteration", build, |m| {
        let (exit, data) = run_and_read_data(m);
        let n = u64::from(PAGES);
        assert_eq!(m.cpu.reg(2), n * (n + 1) / 2, "every page was read");
        (exit, data)
    });
    assert_eq!(fast.jit_loops, 0, "a walk in every iteration must refuse re-entry: {fast:?}");
}

/// Two side exits in one looping block, each taken on its own phase of
/// a four-iteration cycle (`b.eq` on phase 1, `cbz` on phase 0), and the
/// back edge re-entering in place on the other two.
#[test]
fn two_side_exits_in_one_looping_block_agree() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(11, 3, 0);
    a.movz(0, 40, 0);
    let top = a.label();
    let one = a.label();
    let zero = a.label();
    let rejoin = a.label();
    a.bind(top);
    a.ldr(13, 19, 0);
    a.add_imm(9, 9, 1);
    a.and_reg(10, 9, 11); // the phase, x9 % 4
    a.cmp_imm(10, 1);
    a.b_eq(one); // side exit on phase 1
    a.cbz(10, zero); // side exit on phase 0
    a.add_imm(4, 4, 1);
    a.bind(rejoin);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    a.bind(one);
    a.add_imm(5, 5, 1);
    a.b(rejoin);
    a.bind(zero);
    a.add_imm(6, 6, 1);
    a.b(rejoin);
    let code = a.bytes();
    let fast = both_engines(
        "two side exits",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!([m.cpu.reg(4), m.cpu.reg(5), m.cpu.reg(6)], [20, 10, 10], "each exit takes its phase");
            (exit, data)
        },
    );
    assert!(fast.jit_loops >= 15, "phases 2 and 3 re-enter in place: {fast:?}");
}

// --- barriers and system-register moves mid-block ----------------------

/// Run `m` to its next exit. On the accelerated engine, also assert the
/// run's dispatches: `blocks` compiled-block executions (in-place
/// re-entries included) and `steps` single steps.
fn run_dispatching(m: &mut Machine, blocks: u64, steps: u64, ctx: &str) -> Exit {
    let before = m.tlb.fast_stats();
    let exit = m.run(100_000);
    if m.accel() {
        let after = m.tlb.fast_stats();
        let ran = (after.jit_blocks - before.jit_blocks, after.jit_stepped - before.jit_stepped);
        assert_eq!(ran, (blocks, steps), "{ctx}: (compiled blocks, single steps) of the warm run");
    }
    exit
}

/// `isb`, `dsb`, `dmb`, an `mrs` and an `msr` outside the regime inside
/// a loop: the looping block holds all of them, re-enters in place, and
/// charges each barrier and register move as stepping does.
#[test]
fn barriers_and_system_register_moves_run_mid_block() {
    use lz_arch::insn::Barrier;
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(0, 40, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.isb();
    a.add_imm(2, 2, 1);
    a.emit(Insn::Barrier(Barrier::Dsb)).emit(Insn::Barrier(Barrier::Dmb));
    a.mrs(3, SysReg::TPIDR_EL0);
    a.add_reg(4, 4, 3);
    a.msr(SysReg::TPIDR_EL0, 2);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines(
        "barriers and register moves",
        || build_machine(&code, &patch_area(4), true),
        |m| {
            let (exit, data) = run_and_read_data(m);
            assert_eq!(m.cpu.reg(4), 40 * 39 / 2, "each mrs reads the previous iteration's msr");
            (exit, data)
        },
    );
    assert!(fast.jit_loops >= 35, "the looping block holds the barriers and register moves: {fast:?}");
}

/// Emit a 20-iteration loop (a load and an add), then `access` and
/// `svc #0`; returns the code and the address of `access`'s last word.
/// The back edge's fall-through is in the looping block, so the block's
/// last iteration runs `access`.
fn emit_access_loop(access: impl Fn(&mut Asm)) -> (Vec<u8>, u64) {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(0, 20, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.add_imm(2, 2, 1);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    access(&mut a);
    let at = a.here() - 4;
    a.svc(0);
    (a.bytes(), at)
}

/// Run an [`emit_access_loop`] program from `CODE` three times on each
/// engine (at EL1 on [`build_el1_machine`], else at EL0), calling
/// `before_last` before the third run. The third run is warm: it must
/// run in compiled blocks alone, one dispatch and 19 in-place re-entries,
/// so a compiled block runs the access. Returns that run's exit, ESR_EL2
/// and ELR_EL2, which both engines agree on.
fn access_loop_runs(ctx: &str, code: &[u8], el1: bool, before_last: impl Fn(&mut Machine)) -> (Exit, u64, u64) {
    let build = || if el1 { build_el1_machine(code, &[7]).0 } else { build_machine(code, &patch_area(4), true) };
    let restart = |m: &mut Machine| {
        m.cpu.pstate = if el1 { PState::reset() } else { PState::user() };
        m.cpu.pc = CODE;
    };
    let (exit, [esr, elr]) = engines_agree(ctx, build, |m| {
        for _ in 0..2 {
            restart(m);
            m.run(100_000);
        }
        restart(m);
        before_last(m);
        let exit = run_dispatching(m, 20, 0, ctx);
        (exit, [SysReg::ESR_EL2, SysReg::ELR_EL2].map(|r| m.sysreg(r)))
    });
    (exit, esr, elr)
}

/// `mrs ttbr0_el1` at EL1 under `HCR_EL2.TRVM`, run by a compiled block:
/// the same trap to EL2, ESR and ELR as stepping.
#[test]
fn jit_mrs_under_trvm_traps_as_stepping_does() {
    let mrs = Insn::MrsReg { enc: SysReg::TTBR0_EL1.encoding(), rt: 5 };
    let (code, at) = emit_access_loop(|a| {
        a.emit(mrs);
    });
    let (exit, esr, elr) = access_loop_runs("mrs under TRVM", &code, true, |m| {
        m.set_sysreg(SysReg::HCR_EL2, hcr::TRVM);
    });
    assert_eq!(exit, Exit::El2(ExceptionClass::TrappedSysreg));
    assert_eq!((esr, elr), (lz_arch::esr::esr_trapped_sysreg(mrs.encode()), at));
}

/// `msr ttbr0_el1` at EL1 under `HCR_EL2.TVM`, run by a compiled block:
/// the same trap as stepping, before the write. Untrapped, the `msr`
/// rewrites the value the `mrs` before it read, which leaves the regime
/// as it was and the block running.
#[test]
fn jit_msr_ttbr0_under_tvm_traps_as_stepping_does() {
    let msr = Insn::MsrReg { enc: SysReg::TTBR0_EL1.encoding(), rt: 5 };
    let (code, at) = emit_access_loop(|a| {
        a.mrs(5, SysReg::TTBR0_EL1).emit(msr);
    });
    let (exit, esr, elr) = access_loop_runs("msr under TVM", &code, true, |m| {
        m.set_sysreg(SysReg::HCR_EL2, hcr::TVM);
    });
    assert_eq!(exit, Exit::El2(ExceptionClass::TrappedSysreg));
    assert_eq!((esr, elr), (lz_arch::esr::esr_trapped_sysreg(msr.encode()), at));
}

/// An EL1-only `mrs` at EL0, run by a compiled block: the same
/// undefined-instruction trap as stepping.
#[test]
fn jit_el1_only_mrs_at_el0_is_undefined_as_stepping_does() {
    let (code, at) = emit_access_loop(|a| {
        a.mrs(5, SysReg::SCTLR_EL1);
    });
    let (exit, esr, elr) = access_loop_runs("EL1-only mrs at EL0", &code, false, |_| {});
    assert_eq!(exit, Exit::El2(ExceptionClass::Unknown));
    assert_eq!((esr, elr), (ExceptionClass::Unknown.ec() << 26, at));
}

/// An `msr` between two loads of `DATA`, which ASID 1 maps to a frame of
/// 1s and ASID 2 to a frame of 2s, run three times from ASID 1 on each
/// engine. A `TTBR0_EL1` write on global code keeps the block running,
/// and the second load reads the new ASID's frame; on a non-global code
/// page, whose arm covers ASID 1 alone, the block ends at the write. A
/// `TTBR1_EL1` or `SCTLR_EL1.WXN` write ends the block too; after the
/// WXN flip, the page entry (recorded without WXN) also refuses the next
/// dispatch, which single-steps, and the next run's first dispatch.
#[test]
fn jit_regime_writes_mid_block_agree() {
    let roots = build_el1_machine(&[], &[1, 2]).1;
    let asid2 = ttbr::pack(2, roots[1]);
    let wxn = sctlr::M | sctlr::SPAN | sctlr::WXN;
    // (what, register, value, global code page, the warm run's compiled
    // blocks and single steps, the second load)
    let cases = [
        ("ttbr0_el1 on global code", SysReg::TTBR0_EL1, asid2, true, (1, 0), 2),
        ("ttbr0_el1 on non-global code", SysReg::TTBR0_EL1, asid2, false, (2, 0), 2),
        ("ttbr1_el1", SysReg::TTBR1_EL1, roots[1], true, (2, 0), 1),
        ("sctlr_el1.wxn", SysReg::SCTLR_EL1, wxn, true, (2, 2), 1),
    ];
    for (what, reg, value, global, (blocks, steps), second) in cases {
        let mut a = Asm::new(CODE);
        a.mov_imm64(19, DATA).mov_imm64(20, value);
        a.ldrb(1, 19, 0).msr(reg, 20).ldrb(3, 19, 0);
        a.svc(0);
        let code = a.bytes();
        both_engines(
            what,
            || build_el1_machine_with(&code, &[1, 2], global).0,
            |m| {
                let mut exit = Exit::Limit;
                for run in 0..3 {
                    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, roots[0]));
                    m.set_sysreg(SysReg::TTBR1_EL1, 0);
                    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
                    m.cpu.pstate = PState::reset();
                    m.cpu.pc = CODE;
                    exit = if run < 2 { m.run(100_000) } else { run_dispatching(m, blocks, steps, what) };
                    assert_eq!(exit, Exit::El1(ExceptionClass::Svc), "{what}");
                    assert_eq!((m.cpu.reg(1), m.cpu.reg(3)), (1, second), "{what}: the loads' frames");
                }
                (exit, m.sysreg(reg))
            },
        );
    }
}

/// A looping block on global code whose every iteration loads `DATA`,
/// then writes `TTBR0_EL1` to the other ASID: it re-enters in place
/// under the ASID it switched to, and each load reads the live ASID's
/// frame on both engines.
#[test]
fn looping_block_alternating_asids_reenters_in_place() {
    const ROUNDS: u16 = 30;
    let roots = build_el1_machine(&[], &[1, 2]).1;
    let (asid1, asid2) = (ttbr::pack(1, roots[0]), ttbr::pack(2, roots[1]));
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA).mov_imm64(20, asid2).mov_imm64(22, asid1 ^ asid2);
    a.movz(0, ROUNDS, 0);
    let top = a.label();
    a.bind(top);
    a.ldrb(1, 19, 0);
    a.add_reg(2, 2, 1);
    a.msr(SysReg::TTBR0_EL1, 20);
    a.eor_reg(20, 20, 22); // the other ASID's value, for the next write
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let fast = both_engines(
        "alternating ASIDs",
        || build_el1_machine(&code, &[1, 2]).0,
        |m| {
            let exit = m.run(100_000);
            assert_eq!(exit, Exit::El1(ExceptionClass::Svc));
            let half = u64::from(ROUNDS / 2);
            assert_eq!(m.cpu.reg(2), half + 2 * half, "odd rounds read ASID 1's frame, even ones ASID 2's");
            (exit, m.sysreg(SysReg::TTBR0_EL1))
        },
    );
    assert!(fast.jit_loops >= u64::from(ROUNDS) - 8, "the loop re-enters in place across ASIDs: {fast:?}");
}

// --- invalidation sources `jit_block` honours ---------------------------
//
// The `jit_memo_*` names date from a dispatch memo that once sat in front
// of `jit_block`; each scenario now pins one source of invalidation that
// the compiled-block lookup itself must honour.

/// The hot subroutine every invalidation scenario runs before and after
/// the mutation under test: `movz x0, #200` at `HOT`, then the loop at
/// `HOT_TOP` (same page as the main routine).
const HOT: u64 = CODE + 0x800;
const HOT_TOP: u64 = HOT + 4;
/// Guest routines the host runs between the phases, each ending in
/// `svc #2`: `FRESH` is a never-executed `nop` in the hot page (its
/// first dispatch compiles a new block there), `EVICT` calls a `ret`
/// stub in each of `STUB_PAGES` pages at `STUBS`, overflowing the
/// 64-page icache.
const FRESH: u64 = CODE + 0x600;
const EVICT: u64 = CODE + 0x400;
const STUBS: u64 = 0x100_0000;
const STUB_PAGES: u64 = 72;

/// Main routine at `CODE`: two rounds of (call the hot loop, `svc #1`), then
/// `svc #0`; plus the `FRESH` and `EVICT` routines and the hot loop. The
/// first round compiles every block the second one runs, so no block is
/// compiled between the second round's last hot dispatch and the host's
/// mutation at its `svc #1`.
fn hot_page_program() -> Vec<u8> {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(5, 2, 0);
    let round = a.label();
    a.bind(round);
    a.mov_imm64(9, HOT);
    a.blr(9);
    a.svc(1);
    a.subs_imm(5, 5, 1);
    a.b_ne(round);
    a.svc(0);
    while a.here() < EVICT {
        a.nop();
    }
    a.mov_imm64(10, STUBS);
    a.mov_imm64(11, STUB_PAGES);
    a.mov_imm64(12, 0x1000);
    let call = a.label();
    a.bind(call);
    a.blr(10);
    a.add_reg(10, 10, 12);
    a.subs_imm(11, 11, 1);
    a.b_ne(call);
    a.svc(2);
    while a.here() < FRESH {
        a.nop();
    }
    a.nop();
    a.svc(2);
    while a.here() < HOT {
        a.nop();
    }
    a.movz(0, 200, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.add_reg(2, 2, 1);
    a.add_imm(3, 3, 7); // the physical-patch scenario rewrites this immediate
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.ret();
    a.bytes()
}

/// Run the guest routine at `pc` to its `svc #2` (host-side, between the
/// phases of an invalidation scenario).
fn run_routine(m: &mut Machine, pc: u64) {
    m.enter(PState::user(), pc);
    assert_eq!(m.run(100_000), Exit::El2(ExceptionClass::Svc));
    assert_eq!(lz_arch::esr::esr_imm(m.sysreg(SysReg::ESR_EL2)), 2);
}

/// Run one invalidation scenario on both engines: run both main-routine
/// rounds to the second `svc #1`, apply the `host` mutation, then re-enter
/// the hot loop *directly* at `HOT_TOP` (returning into the main routine,
/// which exits), so the first dispatch after the mutation is a PC whose
/// stored block the second round ran. On the accelerated engine compiled
/// blocks must run in every round; `x3` is the loop's expected final sum
/// (200 × its immediate, per round).
fn invalidation_scenario(
    ctx: &str,
    x3: u64,
    build: impl Fn(&[u8]) -> Machine,
    host: impl Fn(&mut Machine),
) -> lz_machine::metrics::FastStats {
    let code = hot_page_program();
    both_engines(
        ctx,
        || build(&code),
        |m| {
            let mut blocks = 0;
            for round in 0..2 {
                assert_eq!(m.run(1_000_000), Exit::El2(ExceptionClass::Svc), "{ctx}: round {round}");
                assert_eq!(lz_arch::esr::esr_imm(m.sysreg(SysReg::ESR_EL2)), 1, "{ctx}: round {round}");
                let now = m.tlb.fast_stats().jit_blocks;
                assert!(!m.accel() || now - blocks > 100, "{ctx}: hot loop not compiled in round {round}");
                blocks = now;
                if round == 0 {
                    m.enter(PState::user(), m.sysreg(SysReg::ELR_EL2));
                }
            }
            let resume = m.sysreg(SysReg::ELR_EL2);
            host(m);
            m.cpu.x[0] = 200;
            m.cpu.x[30] = resume;
            m.enter(PState::user(), HOT_TOP);
            let (exit, _) = run_to_completion(m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc), "{ctx}: after the mutation");
            assert!(!m.accel() || m.tlb.fast_stats().jit_blocks - blocks > 100, "{ctx}: hot loop not compiled after");
            assert_eq!(m.cpu.reg(3), x3, "{ctx}: hot loop result");
            (exit, guest_bytes(m, DATA, 16))
        },
    )
}

fn plain_build(code: &[u8]) -> Machine {
    build_machine(code, &patch_area(4), true)
}

#[test]
fn jit_memo_block_store_agrees() {
    // Lowering a new block in the hot page stores it beside the hot
    // loop's, which `jit_block` keeps serving.
    invalidation_scenario("jit_block: block store", 4200, plain_build, |m| {
        let compiled = m.tlb.fast_stats().jit_compiled;
        run_routine(m, FRESH);
        assert!(!m.accel() || m.tlb.fast_stats().jit_compiled > compiled, "FRESH compiled no block");
    });
}

#[test]
fn jit_memo_eviction_agrees() {
    // Capacity eviction driven by the guest (calls into 72 stub pages,
    // which also fill the TLB), and by host-side icache fills alone
    // (which leave the TLB generation alone, so only the dropped page
    // entry keeps `jit_block` from serving the hot page's blocks).
    let build = |code: &[u8]| {
        let mut m = plain_build(code);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let mut ret = Asm::new(STUBS);
        ret.ret();
        let stub = ret.bytes();
        for i in 0..STUB_PAGES {
            let pa = m.mem.alloc_frame();
            m.mem.write_bytes(pa, &stub);
            s1_map_page(&mut m.mem, root, STUBS + i * 0x1000, pa, user_rwx());
        }
        m
    };
    invalidation_scenario("jit_block: eviction by the guest", 4200, build, |m| {
        let before = m.tlb.icache().eviction_count();
        run_routine(m, EVICT);
        assert!(!m.accel() || m.tlb.icache().eviction_count() > before, "the icache never evicted");
    });
    invalidation_scenario("jit_block: eviction by icache fills", 4200, plain_build, |m| {
        let before = m.tlb.icache().eviction_count();
        let pa = m.mem.alloc_frame();
        for i in 0..STUB_PAGES {
            m.tlb.icache_mut().seed_entry(&m.mem, 0, Some(1), STUBS + i * 0x1000, pa);
        }
        assert!(m.tlb.icache().eviction_count() > before, "the icache never evicted");
    });
}

#[test]
fn jit_memo_tlbi_agrees() {
    // Every TLBI scope, then the same scopes as icache-only maintenance,
    // which leaves the TLB generation alone so that only the dropped
    // page entries keep `jit_block` from serving the hot page's blocks.
    for scope in 0..8 {
        invalidation_scenario(&format!("jit_block: TLBI scope {scope}"), 4200, plain_build, |m| match scope {
            0 => m.tlb.invalidate_va(0, HOT),
            1 => m.tlb.invalidate_asid(0, 1),
            2 => m.tlb.invalidate_vmid(0),
            3 => m.tlb.invalidate_all(),
            4 => m.tlb.icache_mut().invalidate_va(0, HOT),
            5 => m.tlb.icache_mut().invalidate_asid(0, 1),
            6 => m.tlb.icache_mut().invalidate_vmid(0),
            _ => m.tlb.icache_mut().clear(),
        });
    }
}

#[test]
fn jit_memo_tlb_generation_agrees() {
    // A TLB fill for an unrelated page moves the TLB generation without
    // touching the icache: `jit_block` refuses the stale arm, and the
    // fetch re-arms.
    invalidation_scenario("jit_block: TLB generation", 4200, plain_build, |m| {
        let ctx = lz_machine::walk::AccessCtx { el: lz_arch::pstate::ExceptionLevel::El0, pan: false, unpriv: false };
        let gen = m.tlb.generation();
        assert!(m.probe(DATA + 0x1000, lz_machine::Access::Read, &ctx).is_ok());
        assert!(m.tlb.generation() > gen);
    });
}

#[test]
fn jit_memo_rearm_under_new_asid_agrees() {
    // Global pages: one icache entry serves both ASIDs, and every lookup
    // is a global L1 hit, so the TLB generation never moves. The host
    // steps the hot loop once under ASID 2 (missing the micro-DTLB's
    // ASID tag), then returns to ASID 1.
    let global_build = |code: &[u8]| {
        let mut m = plain_build(code);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        for (base, pages) in [(CODE, 4u64), (DATA, 2)] {
            for page in 0..pages {
                let va = base + page * 0x1000;
                let (pa, perms, _) = lz_machine::walk::s1_lookup(&m.mem, root, va).expect("mapped");
                s1_map_page(&mut m.mem, root, va, pa, S1Perms { global: true, ..perms });
            }
        }
        m
    };
    let step_under_asid_2 = |m: &mut Machine| {
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(2, root));
        m.enter(PState::user(), HOT_TOP);
        assert_eq!(m.step(), None);
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
    };
    // The global code entry heads its L1 TLB slot, so it is armed once
    // for every ASID: the step under ASID 2 re-arms nothing, and
    // `jit_block` keeps serving ASID 1 the blocks the first phase stored.
    let every =
        invalidation_scenario("jit_block: ASID switch over an every-ASID arm", 4200, global_build, step_under_asid_2);
    // A host-inserted non-global TLB entry of ASID 3 heads the code
    // page's L1 slot, so ASID 1's global entry lands behind it and the
    // icache entry is armed for one ASID at a time. The step under ASID
    // 2 re-arms it for ASID 2; back under ASID 1, only the arm's ASID
    // keeps `jit_block` from serving the blocks the first phase stored.
    let shadowed_build = |code: &[u8]| {
        let mut m = global_build(code);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (pa, perms, _) = lz_machine::walk::s1_lookup(&m.mem, root, HOT).expect("mapped");
        let entry = lz_machine::tlb::TlbEntry { asid: Some(3), pa_page: pa & !0xfff, s1: perms, s2: None };
        m.tlb.insert(0, HOT, lz_machine::tlb::TlbEntry { s1: S1Perms { global: false, ..perms }, ..entry });
        m
    };
    let rearm = invalidation_scenario("jit_block: re-arm under a new ASID", 4200, shadowed_build, step_under_asid_2);
    assert!(
        rearm.jit_stepped > every.jit_stepped,
        "only the shadowed page re-arms, and single-steps the first dispatch after: {} vs {}",
        rearm.jit_stepped,
        every.jit_stepped
    );
}

/// One step of a shadowed-code scenario (see [`shadowed_code_agrees`]).
#[derive(Debug, Clone, Copy)]
enum Shadow {
    /// Run the loop at `CODE` under this ASID.
    Run(u16),
    /// Evict every TLB entry by capacity: host-side TLB fills of 600
    /// other pages, which leave the icache alone.
    EvictTlb,
}

/// One code VA mapped two ways: non-global for ASID 2 (its loop adds 2
/// per iteration) and global for ASID 1 (adds 1), over a global data
/// page, so that a run under one ASID after the other inserts no TLB
/// entry once the code is resident. Runs `steps` on both engines, which
/// must agree, and checks the loop sums of the runs. The third run in a
/// row under ASID 1 is the first that changes nothing in the icache, so
/// the hot loop's block and arm it leaves are still there when the next
/// run starts.
fn shadowed_code_agrees(steps: &[Shadow], sums: &[u64]) {
    let bodies = [1u16, 2].map(|tag| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(19, DATA);
        a.movz(0, tag, 0);
        a.movz(4, 200, 0);
        let top = a.label();
        a.bind(top);
        a.ldr(1, 19, 0);
        a.add_reg(2, 2, 0);
        a.subs_imm(4, 4, 1);
        a.b_ne(top);
        a.svc(0);
        a.bytes()
    });
    let build = || {
        let mut m = Machine::new(Platform::CortexA55);
        let data = m.mem.alloc_frame();
        let mut ttbrs = [0u64; 2];
        for (i, body) in bodies.iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code = m.mem.alloc_frame();
            m.mem.write_bytes(code, body);
            s1_map_page(&mut m.mem, root, CODE, code, S1Perms { global: i == 0, ..user_rwx() });
            s1_map_page(&mut m.mem, root, DATA, data, S1Perms { global: true, ..lz_chaos::programs::user_rw() });
            ttbrs[i] = ttbr::pack(i as u16 + 1, root);
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        (m, ttbrs)
    };
    // Frame allocation is deterministic, so every engine's machine gets
    // these same two roots.
    let ttbrs = build().1;
    let ctx = format!("shadowed code, {steps:?}");
    both_engines(
        &ctx,
        || build().0,
        |m| {
            let mut exit = Exit::Limit;
            let mut out = Vec::new();
            for step in steps {
                match *step {
                    Shadow::Run(asid) => {
                        m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[asid as usize - 1]);
                        m.cpu.x[2] = 0;
                        m.enter(PState::user(), CODE);
                        exit = m.run(100_000);
                        assert_eq!(exit, Exit::El2(ExceptionClass::Svc), "{ctx}");
                        out.push(m.cpu.reg(2));
                    }
                    Shadow::EvictTlb => {
                        let filler = lz_machine::tlb::TlbEntry { asid: Some(9), pa_page: 0, s1: user_rwx(), s2: None };
                        for i in 0..600 {
                            m.tlb.insert(0, TOUCH_BASE + i * 0x1000, filler);
                        }
                    }
                }
            }
            assert_eq!(out, sums, "{ctx}: loop sums");
            (exit, out)
        },
    );
}

#[test]
fn jit_memo_non_global_entry_ahead_of_global_agrees() {
    use Shadow::*;
    // ASID 2 runs first, so its icache entry and its L1 TLB entry both
    // come before the global ones ASID 1 adds. ASID 1's hot loop is
    // served from an entry armed for ASID 1 alone; back under ASID 2,
    // the fetch finds ASID 2's own entry and runs its own frame.
    shadowed_code_agrees(&[Run(2), Run(1), Run(1), Run(1), Run(2)], &[400, 200, 200, 200, 400]);
    // ASID 2's icache entry behind the global one, its L1 TLB entry
    // ahead: the TLB lookup decides, so ASID 2 still runs its own frame,
    // and the global entry, which does not head its L1 slot, is armed
    // for one ASID at a time.
    shadowed_code_agrees(&[Run(1), EvictTlb, Run(2), Run(1), Run(1), Run(1), Run(2)], &[200, 400, 200, 200, 200, 400]);
}

#[test]
fn jit_memo_global_entry_ahead_of_non_global_agrees() {
    use Shadow::*;
    // The reverse fill order: ASID 1's global entry heads the L1 slot
    // and its icache page, is armed for every ASID, and its hot loop is
    // served to every ASID. ASID 2's TLB lookup then hits that global
    // entry, so both engines run the global frame under ASID 2 too — the
    // architectural outcome of a global mapping shadowing a non-global
    // one, until a TLBI drops it.
    shadowed_code_agrees(&[Run(1), Run(1), Run(1), Run(2)], &[200, 200, 200, 200]);
    // The global L1 entry ahead, ASID 2's icache entry ahead of the
    // global one: ASID 2's fetch finds its own entry, whose snapshot the
    // TLB no longer returns, and walks to the global frame. The global
    // entry is armed for one ASID at a time, so `jit_block` never serves
    // its blocks under ASID 2 before a fetch under ASID 2 re-arms it.
    shadowed_code_agrees(&[Run(2), EvictTlb, Run(1), Run(1), Run(1), Run(2)], &[400, 200, 200, 200, 200]);
}

/// One data VA mapped two ways, under global code: global for ASID 1
/// (a frame of 1s) and non-global for ASID 2 (a frame of 2s), so that a
/// run under one ASID after the other inserts no TLB entry once both
/// translations are resident. Runs `steps` on both engines, which must
/// agree, and checks the loop sums of the runs: 200 loads of one byte
/// each. The micro-DTLB may serve the global translation to every ASID
/// only while it heads its L1 slot.
fn shadowed_data_agrees(steps: &[Shadow], sums: &[u64]) {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.movz(4, 200, 0);
    let top = a.label();
    a.bind(top);
    a.ldrb(1, 19, 0);
    a.add_reg(2, 2, 1);
    a.subs_imm(4, 4, 1);
    a.b_ne(top);
    a.svc(0);
    let body = a.bytes();
    let build = || {
        let mut m = Machine::new(Platform::CortexA55);
        let code = m.mem.alloc_frame();
        m.mem.write_bytes(code, &body);
        let mut ttbrs = [0u64; 2];
        for (i, fill) in [1u8, 2].into_iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let data = m.mem.alloc_frame();
            m.mem.write_bytes(data, &[fill; 0x1000]);
            s1_map_page(&mut m.mem, root, CODE, code, S1Perms { global: true, ..user_rwx() });
            s1_map_page(&mut m.mem, root, DATA, data, S1Perms { global: i == 0, ..lz_chaos::programs::user_rw() });
            ttbrs[i] = ttbr::pack(i as u16 + 1, root);
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        (m, ttbrs)
    };
    // Frame allocation is deterministic, so every engine's machine gets
    // these same two roots.
    let ttbrs = build().1;
    let ctx = format!("shadowed data, {steps:?}");
    both_engines(
        &ctx,
        || build().0,
        |m| {
            let mut exit = Exit::Limit;
            let mut out = Vec::new();
            for step in steps {
                match *step {
                    Shadow::Run(asid) => {
                        m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[asid as usize - 1]);
                        m.cpu.x[2] = 0;
                        m.enter(PState::user(), CODE);
                        exit = m.run(100_000);
                        assert_eq!(exit, Exit::El2(ExceptionClass::Svc), "{ctx}");
                        out.push(m.cpu.reg(2));
                    }
                    Shadow::EvictTlb => {
                        let filler = lz_machine::tlb::TlbEntry { asid: Some(9), pa_page: 0, s1: user_rwx(), s2: None };
                        for i in 0..600 {
                            m.tlb.insert(0, TOUCH_BASE + i * 0x1000, filler);
                        }
                    }
                }
            }
            assert_eq!(out, sums, "{ctx}: loop sums");
            (exit, (out, m.tlb.walk_stats()))
        },
    );
}

#[test]
fn dtlb_non_global_entry_ahead_of_global_agrees() {
    use Shadow::*;
    // ASID 2 fills the data page's L1 slot first, so ASID 1's global
    // entry lands behind it and is armed for ASID 1 alone: back under
    // ASID 2 the probe misses, and the L1 lookup returns ASID 2's own
    // frame.
    shadowed_data_agrees(&[Run(2), Run(1), Run(2), Run(1), Run(2)], &[400, 200, 400, 200, 400]);
}

#[test]
fn dtlb_global_entry_ahead_of_non_global_agrees() {
    use Shadow::*;
    // The reverse fill order: ASID 1's global entry heads the L1 slot and
    // is armed for every ASID, so ASID 2 reads the global frame on both
    // engines — the architectural outcome of a global mapping shadowing
    // a non-global one — until the TLB drops it. After an eviction ASID
    // 2 fills first, and the order above holds.
    shadowed_data_agrees(&[Run(1), Run(2), EvictTlb, Run(2), Run(1), Run(2)], &[200, 200, 400, 200, 400]);
}

/// What a gate-switch loop leaves that both engines must agree on.
#[derive(Debug, PartialEq)]
struct GateLoopOutcome {
    cycles: u64,
    insns: u64,
    tlb: (u64, u64),
    walk: lz_machine::metrics::WalkStats,
    journal: String,
}

/// Run a LightZone process that visits `domains` TTBR domains in turn
/// `rounds` times — one gate switch per visit, each changing the ASID —
/// with the whole loop and the gate page in global mappings, through
/// gates of the given flavor. Each visit increments a word of the
/// domain's own page (protected, so non-global) and reads a shared page
/// (unprotected, so global). Returns the modelled outcome, the gate
/// switches, and the accelerated engine's host-side counters.
fn gate_switch_loop(
    accel: bool,
    rounds: u64,
    domains: u16,
    flavor: GateFlavor,
) -> (GateLoopOutcome, u64, lz_machine::metrics::FastStats) {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
    const DOMAINS: u64 = 0x5000_0000;
    let shared = DOMAINS + u64::from(domains) * 0x1000;
    let mut b = LzProgramBuilder::new(CODE);
    let mut pages = vec![0u8; usize::from(domains) * 0x1000];
    pages.extend([1u8; 0x1000]);
    b.with_segment(DOMAINS, pages, lz_kernel::VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..u64::from(domains) {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(DOMAINS + d * 0x1000, 0x1000, d + 1, RW);
    }
    b.asm.mov_imm64(20, shared);
    b.asm.mov_imm64(23, rounds);
    let top = b.asm.label();
    b.asm.bind(top);
    for d in 0..domains {
        b.lz_switch_to_ttbr_gate(d);
        b.asm.mov_imm64(19, DOMAINS + u64::from(d) * 0x1000);
        b.asm.ldr(1, 19, 0);
        b.asm.add_imm(1, 1, 1);
        b.asm.str(1, 19, 0);
        b.asm.ldrb(2, 20, 0);
        b.asm.add_reg(24, 24, 2);
    }
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(top);
    b.asm.exit_imm(0);
    let prog = b.build();
    let ablation = lightzone::AblationConfig { gate_flavor: flavor, ..Default::default() };
    let mut lz = lightzone::LightZone::with_ablation(Platform::CortexA55, false, ablation);
    lz.kernel.machine.set_accel(accel);
    lz.kernel.machine.set_metrics(true);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    assert_eq!(lz.run(400_000_000), lz_kernel::Event::Exited(0));
    let m = &lz.kernel.machine;
    let outcome = GateLoopOutcome {
        cycles: m.cpu.cycles,
        insns: m.cpu.insns,
        tlb: m.tlb.stats(),
        walk: m.tlb.walk_stats(),
        journal: m.journal.dump_json(),
    };
    (outcome, m.metrics.domain_switches, m.tlb.fast_stats())
}

/// Gate switches between two domains over global code: both engines
/// agree, and once the loop is warm the accelerated engine runs it from
/// compiled blocks. Global code (the gate page, the loop) is armed for
/// every ASID, so a switch neither single-steps nor re-arms it; an arm
/// that covers one ASID at a time single-steps two dispatches per
/// switch here. The gate's switch and check phases run as one block,
/// through its `msr ttbr0_el1`, `isb` and `mrs`, so a warm switch costs
/// at most three compiled dispatches: the call, the gate, and the
/// visit's code after it. Ending a block at each of the three reads
/// about 5.5.
#[test]
fn gate_switch_loop_over_global_code_stays_compiled() {
    let flavor = GateFlavor::default();
    let [short, long] = [50, 250].map(|rounds| {
        let (outcome, switches, fast) = gate_switch_loop(true, rounds, 2, flavor);
        assert_eq!(outcome, gate_switch_loop(false, rounds, 2, flavor).0, "{rounds} rounds");
        (switches, fast.jit_stepped, fast.jit_blocks)
    });
    let (switches, stepped, blocks) = (long.0 - short.0, long.1 - short.1, long.2 - short.2);
    assert_eq!(switches, 400, "two gate switches per round");
    assert!(stepped * 10 < switches, "{stepped} single steps over {switches} warm gate switches");
    assert!(blocks <= 3 * switches, "{blocks} compiled dispatches over {switches} warm gate switches");
}

/// The same loop through the TLBI-per-switch gates of the ASID ablation
/// (paper §4.1.2, `repro ablation`): each switch runs `tlbi vmalle1`, so
/// the code and domain pages walk again after every switch over tables
/// nothing edited. Both engines agree on every modelled counter.
#[test]
fn tlbi_per_switch_gate_loop_agrees() {
    let flavor = GateFlavor { check_phase: true, tlbi_after_switch: true };
    let rounds = 50;
    let (on, switches, _) = gate_switch_loop(true, rounds, 2, flavor);
    let (off, _, _) = gate_switch_loop(false, rounds, 2, flavor);
    assert_eq!(on, off, "TLBI-per-switch gate loop diverged");
    assert_eq!(switches, 2 * rounds, "two gate switches per round");
    assert!(on.walk.s1_walks > switches, "{} walks over {switches} flushing switches", on.walk.s1_walks);
}

/// Gate switches over 32 domains: both engines agree on every modelled
/// counter, and the micro-DTLB keeps its translations across switches.
/// A visit makes eight data accesses: the gate's five, the domain page's
/// load and store, and the shared page's load. The gate's tables and the
/// shared page are global and head their L1 slots, so their arms serve
/// every ASID; each domain page's arm serves its own ASID and outlives
/// the other 31 visits. Once warm, nothing walks and every access hits.
/// Arming each slot for one ASID alone serves about three per visit.
#[test]
fn gate_switch_loop_over_32_domains_keeps_data_translations() {
    const DOMAINS: u16 = 32;
    let flavor = GateFlavor::default();
    let [short, long] = [4, 12].map(|rounds| {
        let (outcome, switches, fast) = gate_switch_loop(true, rounds, DOMAINS, flavor);
        assert_eq!(outcome, gate_switch_loop(false, rounds, DOMAINS, flavor).0, "{rounds} rounds");
        assert_eq!(switches, u64::from(DOMAINS) * rounds, "one gate switch per visit");
        (outcome.walk.s1_walks, fast.dtlb_hits)
    });
    let visits = u64::from(DOMAINS) * 8;
    let (walks, hits) = (long.0 - short.0, long.1 - short.1);
    assert_eq!(walks, 0, "the warm rounds walk nothing");
    assert!(hits >= 6 * visits, "{hits} micro-DTLB hits over {visits} warm visits");
}

#[test]
fn jit_memo_physical_code_patch_agrees() {
    invalidation_scenario("jit_block: physical code patch", 2 * 1400 + 200 * 11, plain_build, |m| {
        // Rewrite the hot loop's `add x3, x3, #7` in place: same frame,
        // no TLB maintenance.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, HOT).expect("mapped");
        let add = |imm12| Insn::AddImm { rd: 3, rn: 3, imm12, shift12: false, sub: false, set_flags: false }.encode();
        let at = (0..0x1000u64).step_by(4).find(|&o| m.mem.read_u32(pa + o) == Some(add(7))).expect("patch site");
        m.mem.write(pa + at, add(11) as u64, 4);
    });
}

// ---------------------------------------------------------------------
// Guest-reachable edge cases: misaligned PCs and the top of the VA space
// ---------------------------------------------------------------------

/// Run `drive` on a fresh `build()` machine on each engine. Both must
/// return the same value and leave the same snapshot.
fn engines_agree<R: PartialEq + std::fmt::Debug>(
    ctx: &str,
    build: impl Fn() -> Machine,
    drive: impl Fn(&mut Machine) -> (Exit, R),
) -> (Exit, R) {
    let run = |accel: bool| {
        let mut m = build();
        m.set_accel(accel);
        let (exit, extra) = drive(&mut m);
        (snapshot(&m, exit, 0), (exit, extra))
    };
    let accel = run(true);
    assert_eq!(run(false), accel, "{ctx}: the reference interpreter diverged from the accelerated engine");
    accel.1
}

/// A hot ALU + load loop, so the fetch cache, the micro-DTLB and compiled
/// blocks are all warm (slot 0 of the code page included) before the edge
/// case runs.
fn emit_warm_loop(a: &mut Asm) {
    a.mov_imm64(19, DATA);
    a.movz(0, 40, 0);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 19, 0);
    a.add_reg(2, 2, 1);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
}

/// `br`/`blr`/`ret` to a PC two bytes into a word — mid-page, where the
/// icache's `va >> 2` slot index would alias the aligned word, and two
/// bytes before a page end, where an uncached fetch would straddle two
/// frames — must raise a PC alignment fault (FAR = ELR = the PC) on
/// both engines, never panic or run on.
#[test]
fn misaligned_pc_faults_identically_on_every_engine() {
    for target in [CODE + 2, CODE + 0x1000 - 2] {
        for jump in ["br", "blr", "ret"] {
            let mut a = Asm::new(CODE);
            emit_warm_loop(&mut a);
            a.mov_imm64(9, target);
            match jump {
                "br" => a.br(9),
                "blr" => a.blr(9),
                _ => a.ret_reg(9),
            };
            a.svc(0);
            let code = a.bytes();
            let ctx = format!("{jump} to {target:#x}");
            let (exit, regs) = engines_agree(
                &ctx,
                || build_machine(&code, &patch_area(4), true),
                |m| {
                    let exit = m.run(100_000);
                    (exit, [SysReg::ESR_EL2, SysReg::FAR_EL2, SysReg::ELR_EL2].map(|r| m.sysreg(r)))
                },
            );
            assert_eq!(exit, Exit::El2(ExceptionClass::PcAlignment), "{ctx}");
            assert_eq!(regs, [ExceptionClass::PcAlignment.ec() << 26, target, target], "{ctx}: ESR/FAR/ELR");
        }
    }
}

/// `eret` from EL1 to a misaligned EL0 PC faults at EL1 the same way.
#[test]
fn misaligned_eret_target_faults_identically_on_every_engine() {
    let target = CODE + 0x1000 - 2;
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, target);
    a.msr(SysReg::ELR_EL1, 0);
    a.mov_imm64(1, PState::user().to_spsr());
    a.msr(SysReg::SPSR_EL1, 1);
    a.eret();
    let code = a.bytes();
    let (exit, regs) = engines_agree(
        "eret",
        || build_el1_machine(&code, &[0]).0,
        |m| {
            let exit = m.run(1_000);
            (exit, [SysReg::ESR_EL1, SysReg::FAR_EL1, SysReg::ELR_EL1].map(|r| m.sysreg(r)))
        },
    );
    assert_eq!(exit, Exit::El1(ExceptionClass::PcAlignment));
    assert_eq!(regs, [ExceptionClass::PcAlignment.ec() << 26, target, target]);
}

/// Data accesses at the very top of the VA space: the page-split and
/// watchpoint-overlap sums wrap instead of overflowing (a debug-build
/// panic before), and every engine reports the same fault.
#[test]
fn top_of_va_space_accesses_do_not_overflow() {
    use lz_arch::insn::MemSize;
    use lz_machine::cpu::Watchpoint;
    let cases = [
        (u64::MAX, MemSize::B, false, false),
        (u64::MAX, MemSize::B, false, true),
        (u64::MAX - 3, MemSize::X, false, false),
        (u64::MAX - 1, MemSize::W, true, true),
    ];
    for (va, size, write, watched) in cases {
        let mut a = Asm::new(CODE);
        emit_warm_loop(&mut a);
        a.mov_imm64(9, va);
        if write {
            a.emit(Insn::StrImm { rt: 2, rn: 9, offset: 0, size });
        } else {
            a.emit(Insn::LdrImm { rt: 3, rn: 9, offset: 0, size });
        }
        a.svc(0);
        let code = a.bytes();
        let build = || {
            let mut m = build_machine(&code, &patch_area(4), true);
            if watched {
                // One watchpoint that ends exactly at the top of the VA
                // space, one elsewhere.
                m.cpu.watchpoints[0] = Some(Watchpoint { addr: u64::MAX - 7, len: 8, on_read: false, on_write: false });
                m.cpu.watchpoints[1] = Some(Watchpoint { addr: DATA + 0x800, len: 8, on_read: true, on_write: true });
                m.cpu.watchpoints_enabled = true;
            }
            m
        };
        let ctx = format!("{size:?} {} at {va:#x}, watched: {watched}", if write { "store" } else { "load" });
        let (exit, far) = engines_agree(&ctx, build, |m| (m.run(100_000), m.sysreg(SysReg::FAR_EL2)));
        assert_eq!(exit, Exit::El2(ExceptionClass::DataAbortLower), "{ctx}");
        assert_eq!(far, va, "{ctx}: FAR");
    }
}
