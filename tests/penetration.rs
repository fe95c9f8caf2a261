//! §7.2 penetration tests: "a random illegal memory access program with
//! 128 protected memory domains", exercised through every attack vector
//! the paper names — direct access, control-flow hijacking, and
//! sensitive-instruction injection — plus the PANIC-style W+X aliasing
//! attack from §3.2. Every attack must end in process termination.
//!
//! The attack bodies live in [`lz_chaos::attacks`], shared with the
//! attack synthesizer (`lz_chaos::synth`): the hand-written suite and
//! the synthesized corpus exercise one source of truth.

use lightzone::api::{LzAsm, LzProgramBuilder, SAN_BOTH, SAN_PAN, SAN_TTBR};
use lightzone::{AblationConfig, LightZone, SECURITY_KILL};
use lz_arch::asm::Asm;
use lz_arch::{Platform, PAGE_SIZE};
use lz_chaos::attacks::{
    self, injected_words, pan_128_base, run, ttbr_128_base, wx_alias_attack_prog, wx_read_fault_flip_prog, ARENA, CODE,
    DOMAINS,
};
use lz_kernel::VmProt;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Mutex, PoisonError};

#[test]
fn pan_direct_access_random_domains_killed() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let victim = rng.random_range(0..DOMAINS);
        let mut b = LzProgramBuilder::new(CODE);
        pan_128_base(&mut b);
        b.asm.mov_imm64(1, ARENA + victim * PAGE_SIZE);
        b.asm.ldr(2, 1, 0); // PAN set: illegal
        b.asm.exit_imm(0);
        let prog = b.build();
        assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL, "domain {victim}");
    }
}

#[test]
fn pan_write_attack_killed() {
    let mut b = LzProgramBuilder::new(CODE);
    pan_128_base(&mut b);
    b.asm.mov_imm64(1, ARENA + 31 * PAGE_SIZE);
    b.asm.mov_imm64(2, 0x4141_4141);
    b.asm.str(2, 1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    for platform in Platform::ALL {
        assert_eq!(run(&prog, platform, false), SECURITY_KILL);
    }
}

#[test]
fn ttbr_cross_domain_random_killed() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..3 {
        let inside = rng.random_range(0..DOMAINS);
        let victim = (inside + 1 + rng.random_range(0..DOMAINS - 1)) % DOMAINS;
        let mut b = LzProgramBuilder::new(CODE);
        ttbr_128_base(&mut b);
        b.lz_switch_to_ttbr_gate(inside as u16);
        b.asm.mov_imm64(1, ARENA + victim * PAGE_SIZE);
        b.asm.ldr(2, 1, 0);
        b.asm.exit_imm(0);
        let prog = b.build();
        assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL, "{inside} -> {victim}");
    }
}

#[test]
fn ttbr_legal_access_survives_control() {
    // Control: the same program accessing its *own* domain must succeed.
    let mut b = LzProgramBuilder::new(CODE);
    ttbr_128_base(&mut b);
    b.lz_switch_to_ttbr_gate(42);
    b.asm.mov_imm64(1, ARENA + 42 * PAGE_SIZE);
    b.asm.mov_imm64(2, 0x77);
    b.asm.str(2, 1, 0);
    b.asm.ldr(0, 1, 0);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);
    let prog = b.build();
    assert_eq!(run(&prog, Platform::CortexA55, false), 0x77);
}

#[test]
fn hijack_gate_with_forged_lr_killed() {
    // Control-flow hijack: jump to a gate with a wrong return address so
    // access would be granted at attacker-chosen code. Phase 2 compares
    // lr with the registered ENTRY and kills.
    let mut b = LzProgramBuilder::new(CODE);
    ttbr_128_base(&mut b);
    b.lz_switch_to_ttbr_gate(5); // legal use, registers gate 5
                                 // Attack: call gate 5 again from a *different* site (lr mismatch).
    attacks::forged_gate_call(&mut b.asm, 5);
    b.asm.exit_imm(0);
    let prog = b.build();
    for platform in Platform::ALL {
        assert_eq!(run(&prog, platform, false), SECURITY_KILL);
    }
}

#[test]
fn hijack_unregistered_gate_killed() {
    // Jumping to a gate that was never associated with a table: GateTab
    // holds PGTID = u64::MAX, the TTBRTab re-query fails.
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.lz_alloc();
    b.lz_switch_to_ttbr_gate(0); // registered but never mapped via lz_map_gate_pgt
    b.asm.exit_imm(0);
    let prog = b.build();
    assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL);
}

#[test]
fn hijack_mid_gate_jump_killed() {
    // Garmr-class hijack: land directly on the gate's phase-① `msr` with
    // an attacker-chosen x13 (the legitimate TTBRTab entry of the victim
    // table), skipping the GateTab lookup. Check phase ② still kills.
    let mut b = LzProgramBuilder::new(CODE);
    ttbr_128_base(&mut b);
    b.lz_switch_to_ttbr_gate(9); // registers gate 9 legally
    attacks::mid_gate_jump(&mut b.asm, 9, 42);
    b.asm.exit_imm(0);
    let prog = b.build();
    // The primitive zeroes x10 so the skipped phase ①'s GateTab pointer
    // is gone: the check phase's re-query faults fail-closed (-11) before
    // the lr compare can even raise the SECURITY_KILL brk.
    let exit = run(&prog, Platform::CortexA55, false);
    assert!(exit == SECURITY_KILL || exit == -11, "mid-gate jump must die, got {exit}");
}

#[test]
fn sensitive_injection_killed_both_modes() {
    for (name, word) in injected_words() {
        for san in [SAN_TTBR, SAN_PAN, SAN_BOTH] {
            let mut b = LzProgramBuilder::new(CODE);
            b.asm.lz_enter(san != SAN_PAN, san);
            b.asm.raw(word);
            b.asm.exit_imm(0);
            let prog = b.build();
            assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL, "{name} under san={san}");
        }
    }
}

#[test]
fn ttbr0_write_outside_gate_killed() {
    // The gate-only instruction in application code (Table 3 last row).
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.mov_imm64(0, 0x1234_5000);
    b.asm.msr(lz_arch::sysreg::SysReg::TTBR0_EL1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    for guest in [false, true] {
        assert_eq!(run(&prog, Platform::CortexA55, guest), SECURITY_KILL);
    }
}

#[test]
fn wx_alias_attack_contained() {
    // The PANIC break (§3.2): map one frame at two VAs, one X one W,
    // write a sensitive instruction through the W alias and execute the
    // X alias. In LightZone the two views live in different page tables
    // (the JIT pattern); the write revokes exec everywhere (break-before-
    // make) and the re-scan finds the injected instruction.
    let prog = wx_alias_attack_prog();
    for platform in Platform::ALL {
        assert_eq!(run(&prog, platform, false), SECURITY_KILL, "{platform:?}");
    }
}

#[test]
fn wx_read_fault_flip_contained() {
    // Regression for the read-fault W^X flip: a *read* fault on a W+X
    // VMA also comes back as `Map { write: true, .. }`, so the writer
    // view becomes writable without the faulting access being a write.
    // The module used to break-before-make only for write faults (`wnr`),
    // leaving the executor view's X mapping and TLB entry alive on the
    // now-writable page: the payload store then hits silently and the
    // stale alias executes it without a rescan. The read-fault flip must
    // revoke exec everywhere just like the write-fault flip does. The
    // payload (`dc civac`) is forbidden by the sanitizer but semantically
    // inert when it actually executes, so a successful attack runs to a
    // clean exit instead of being caught downstream.
    let prog = wx_read_fault_flip_prog();
    for platform in Platform::ALL {
        assert_eq!(run(&prog, platform, false), SECURITY_KILL, "{platform:?}");
    }
}

#[test]
fn kernel_context_pages_unwritable() {
    // Garmr-class kernel-context abuse: stores into the TTBR1-mapped
    // stub, gate-table and TTBR-table pages must all die.
    use lightzone::gate::layout;
    for va in [layout::STUB_VA, layout::TTBRTAB_VA, layout::GATETAB_VA, layout::gate_va(0)] {
        let mut b = LzProgramBuilder::new(CODE);
        ttbr_128_base(&mut b);
        attacks::kernel_page_store(&mut b.asm, va, 0x4141_4141);
        b.asm.exit_imm(0);
        let prog = b.build();
        assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL, "store to {va:#x}");
    }
}

#[test]
fn unprivileged_loadstore_cannot_leak_pan_domain() {
    // PANIC's weakness: LDTR/STTR ignore PAN. Under LightZone's PAN
    // sanitization these encodings never reach execution.
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(ARENA, PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.lz_prot_imm(ARENA, PAGE_SIZE, lightzone::pgt::PGT_ALL, lightzone::api::RW | lightzone::api::USER);
    b.asm.mov_imm64(1, ARENA);
    b.asm.ldtr(2, 1, 0); // would bypass PAN if it ever executed
    b.asm.exit_imm(0);
    let prog = b.build();
    assert_eq!(run(&prog, Platform::CortexA55, false), SECURITY_KILL);
}

#[test]
fn guest_deployments_kill_equally() {
    // The Lowvisor path enforces the same policies for guest VEs.
    let mut b = LzProgramBuilder::new(CODE);
    pan_128_base(&mut b);
    b.asm.mov_imm64(1, ARENA + 9 * PAGE_SIZE);
    b.asm.ldr(2, 1, 0);
    b.asm.exit_imm(0);
    let prog = b.build();
    for platform in Platform::ALL {
        assert_eq!(run(&prog, platform, true), SECURITY_KILL, "{platform:?} guest");
    }
}

// ---------------------------------------------------------------------
// VMID rollover: recycled IDs vs stale TLB entries
// ---------------------------------------------------------------------

#[test]
fn rollover_recycled_vmid_cannot_read_dead_ve() {
    // A victim VE dies with its secret's translation still in the TLB;
    // after the VMID space rolls over, an attacker VE is granted the
    // same VMID. The reuse-time shootdown must have cleared the stale
    // entry, so the attacker's probe of the never-mapped VA dies.
    let out = attacks::rollover_attack(Platform::CortexA55, AblationConfig::default(), 1);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64, "victim planted and warmed the secret");
    assert!(out.vmid_recycles >= 1, "the attack never reached rollover: {out:?}");
    assert!(out.rollover_shootdowns >= 1, "recycled grant must have forced an invalidation");
    assert!(out.attacker_exit < 0, "attacker must die, got {}", out.attacker_exit);
    assert_ne!(out.attacker_exit, attacks::ROLLOVER_SECRET as i64, "dead VE's secret leaked");
}

#[test]
fn rollover_without_reuse_shootdown_leaks_dead_ve_secret() {
    // Negative control proving the shootdown is load-bearing: with the
    // reuse-time invalidation ablated the very same attack *succeeds* —
    // the stale TLB entry translates the dead VE's page and the attacker
    // exits with its secret.
    let ablation = AblationConfig { skip_rollover_shootdown: true, ..AblationConfig::default() };
    let out = attacks::rollover_attack(Platform::CortexA55, ablation, 1);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert!(out.vmid_recycles >= 1);
    assert_eq!(out.rollover_shootdowns, 0, "broken kernel performed no reuse invalidation");
    assert_eq!(out.attacker_exit, attacks::ROLLOVER_SECRET as i64, "broken kernel: stale entry must leak");
}

#[test]
fn rollover_smp_broadcast_clears_remote_core() {
    // SMP: the victim warmed core 1's TLB; the attacker's lz_enter runs
    // on core 0 and must *broadcast* the reuse invalidation, so the
    // migrated attacker's probe on core 1 still faults.
    let out = attacks::rollover_attack(Platform::CortexA55, AblationConfig::default(), 2);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert!(out.vmid_recycles >= 1);
    assert!(out.attacker_exit < 0, "attacker must die on the remote core, got {}", out.attacker_exit);
}

#[test]
fn rollover_smp_local_only_invalidate_leaks_on_remote_core() {
    // With the remote half of the shootdown ablated the reuse path only
    // invalidates the core running lz_enter (core 0): the victim's stale
    // entry survives on core 1 and the migrated attacker reads the dead
    // VE's secret through it.
    let ablation = AblationConfig { skip_remote_shootdown: true, ..AblationConfig::default() };
    let out = attacks::rollover_attack(Platform::CortexA55, ablation, 2);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert!(out.vmid_recycles >= 1);
    assert!(out.rollover_shootdowns >= 1, "the broken kernel still invalidates locally");
    assert_eq!(out.attacker_exit, attacks::ROLLOVER_SECRET as i64, "remote stale entry must leak");
}

/// Serialises the tests that flip the process-wide engine default.
static ENGINE_DEFAULT: Mutex<()> = Mutex::new(());

/// Run `attack` on each engine — accelerated, then the reference
/// interpreter — by flipping the process-wide default that the attack
/// harness builds its machines with.
fn on_both_engines<R>(attack: impl Fn() -> R) -> [R; 2] {
    let _guard = ENGINE_DEFAULT.lock().unwrap_or_else(PoisonError::into_inner);
    let saved = lz_machine::default_accel();
    let out = [true, false].map(|accel| {
        lz_machine::set_default_accel(accel);
        attack()
    });
    lz_machine::set_default_accel(saved);
    out
}

#[test]
fn rollover_outcomes_are_fastpath_and_jit_invariant() {
    // The accelerated engine may only reproduce the reference
    // interpreter's TLB semantics — defended runs kill identically and
    // the ablated runs leak identically on both engines.
    let [on, off] = on_both_engines(|| attacks::rollover_attack(Platform::CortexA55, AblationConfig::default(), 1));
    assert_eq!(on, off, "the engine changed the defended rollover outcome");
    assert!(on.attacker_exit < 0);
    let ablation = AblationConfig { skip_rollover_shootdown: true, ..AblationConfig::default() };
    let [on, off] = on_both_engines(|| attacks::rollover_attack(Platform::CortexA55, ablation, 1));
    assert_eq!(on, off, "the engine changed the broken kernel's leak");
    assert_eq!(on.attacker_exit, attacks::ROLLOVER_SECRET as i64);
}

// ---------------------------------------------------------------------
// Snapshot/restore: warm restarts vs stale TLB state
// ---------------------------------------------------------------------

#[test]
fn restore_rebuilt_ve_cannot_read_dead_ve() {
    // A warm restart hands the restored VE a recycled VMID whose dead
    // previous owner still has TLB entries. The restore path rebuilds
    // through the normal lz_enter, so the reuse-time shootdown must run
    // and the restored VE's probe of the never-mapped VA dies.
    let out = attacks::restore_attack(Platform::CortexA55, AblationConfig::default(), 1);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64, "victim planted and warmed the secret");
    assert_eq!(out.restores, 1, "the snapshot must restore exactly once: {out:?}");
    assert!(out.vmid_recycles >= 1, "the restore never hit recycling: {out:?}");
    assert!(out.rollover_shootdowns >= 1, "recycled grant must have forced an invalidation");
    assert!(out.probe_exit < 0, "restored VE must die, got {}", out.probe_exit);
    assert_ne!(out.probe_exit, attacks::ROLLOVER_SECRET as i64, "dead VE's secret leaked");
}

#[test]
fn restore_without_reuse_shootdown_leaks_dead_ve_secret() {
    // Negative control proving the restart-time invalidation is
    // load-bearing: with it ablated, the restored VE's first fetch
    // resumes into the dead victim's gadget page and exfiltrates the
    // secret through the stale data entry.
    let ablation = AblationConfig { skip_rollover_shootdown: true, ..AblationConfig::default() };
    let out = attacks::restore_attack(Platform::CortexA55, ablation, 1);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert_eq!(out.restores, 1);
    assert!(out.vmid_recycles >= 1);
    assert_eq!(out.rollover_shootdowns, 0, "broken kernel performed no reuse invalidation");
    assert_eq!(out.probe_exit, attacks::ROLLOVER_SECRET as i64, "broken kernel: stale entry must leak");
}

#[test]
fn restore_smp_broadcast_clears_remote_core() {
    // SMP: the victim warmed the last core's TLB; the restore runs on
    // core 0 and must *broadcast* the reuse invalidation, so the
    // restored VE scheduled onto the victim's core still faults.
    let out = attacks::restore_attack(Platform::CortexA55, AblationConfig::default(), 2);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert_eq!(out.restores, 1);
    assert!(out.vmid_recycles >= 1);
    assert!(out.probe_exit < 0, "restored VE must die on the remote core, got {}", out.probe_exit);
}

#[test]
fn restore_smp_local_only_invalidate_leaks_on_remote_core() {
    // With the remote half of the shootdown ablated the restore only
    // invalidates core 0: the victim's stale entries survive on its own
    // core and the restored VE reads the dead secret through them.
    let ablation = AblationConfig { skip_remote_shootdown: true, ..AblationConfig::default() };
    let out = attacks::restore_attack(Platform::CortexA55, ablation, 2);
    assert_eq!(out.victim_exit, attacks::ROLLOVER_SECRET as i64);
    assert_eq!(out.restores, 1);
    assert!(out.vmid_recycles >= 1);
    assert!(out.rollover_shootdowns >= 1, "the broken kernel still invalidates locally");
    assert_eq!(out.probe_exit, attacks::ROLLOVER_SECRET as i64, "remote stale entry must leak");
}

#[test]
fn restore_outcomes_are_fastpath_and_jit_invariant() {
    // The accelerated engine may only reproduce the reference
    // interpreter's restart semantics: defended restores kill
    // identically and ablated restores leak identically on both engines.
    let [on, off] = on_both_engines(|| attacks::restore_attack(Platform::CortexA55, AblationConfig::default(), 1));
    assert_eq!(on, off, "the engine changed the defended restore outcome");
    assert!(on.probe_exit < 0);
    let ablation = AblationConfig { skip_rollover_shootdown: true, ..AblationConfig::default() };
    let [on, off] = on_both_engines(|| attacks::restore_attack(Platform::CortexA55, ablation, 1));
    assert_eq!(on, off, "the engine changed the broken kernel's leak");
    assert_eq!(on.probe_exit, attacks::ROLLOVER_SECRET as i64);
}

#[test]
fn restore_rejects_corrupt_and_wrong_version_images() {
    // The digest/version admission check is fail-closed: a flipped byte
    // or a future version must be refused outright, with no half-built
    // VE left behind (frame accounting returns to the pre-call level).
    let mut lz = LightZone::with_ablation(Platform::CortexA55, false, AblationConfig::default());
    let prog = attacks::restore_donor_prog();
    let donor = lz.spawn(&prog);
    lz.schedule_to(donor);
    let mut steps = 0u32;
    while lz.kernel.machine.cpu.x[21] != 1 {
        match lz.run(2) {
            lz_kernel::Event::Limit => {}
            other => panic!("donor died before its boundary: {other:?}"),
        }
        steps += 1;
        assert!(steps < 1_000_000, "donor never reached its request boundary");
    }
    lz.kernel.save_current();
    lz.kernel.clear_current();
    let snap = lz.snapshot_ve(donor).expect("donor snapshots");
    lz.kernel.set_current(donor);
    lz.kernel.kill_current(SECURITY_KILL);
    assert!(lz.reap(donor));

    let frames_before = lz.kernel.machine.mem.allocated_frames();
    let mut corrupt = snap.clone();
    corrupt.x[7] ^= 1;
    assert_eq!(lz.restore_ve(&prog, &corrupt), None, "flipped byte must be refused");
    let mut wrong_version = snap.clone();
    wrong_version.version += 1;
    wrong_version.seal();
    assert_eq!(lz.restore_ve(&prog, &wrong_version), None, "unknown version must be refused");
    assert_eq!(lz.kernel.machine.mem.allocated_frames(), frames_before, "rejects must leak no frames");
    assert_eq!(lz.fleet_section().get("snapshot_rejects"), Some(2));

    // The pristine image still restores and runs to a clean exit... the
    // donor probes an unmapped VA, so the restored run ends in the kill
    // that proves it executed its own (restored) code.
    let restored = lz.restore_ve(&prog, &snap).expect("pristine image restores");
    lz.schedule_to(restored);
    let mut exit = i64::MIN;
    for _ in 0..1_000 {
        match lz.run(64) {
            lz_kernel::Event::Limit => {}
            lz_kernel::Event::Exited(code) => {
                exit = code;
                break;
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(exit < 0, "restored donor probes the unmapped VA and dies, got {exit}");
}

#[test]
fn watchpoint_baseline_detects_too() {
    // The Watchpoint baseline also catches direct illegal accesses (its
    // security column in Table 1 is a check mark) — just never beyond 16
    // domains.
    use lz_baselines::Baselines;
    use lz_kernel::syscall::custom;
    let mut a = Asm::new(CODE);
    a.mov_imm64(8, custom::WP_ENTER);
    a.svc(0);
    for d in 0..16u64 {
        a.mov_imm64(0, ARENA + d * PAGE_SIZE);
        a.mov_imm64(1, PAGE_SIZE);
        a.mov_imm64(8, custom::WP_PROT);
        a.svc(0);
    }
    a.movz(0, 3, 0);
    a.mov_imm64(8, custom::WP_SWITCH);
    a.svc(0); // domain 3 active
    a.mov_imm64(1, ARENA + 7 * PAGE_SIZE); // domain 7: protected
    a.ldr(2, 1, 0);
    a.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    a.svc(0);
    let prog = lz_kernel::Program::from_code(CODE, a.bytes()).with_anon_segment(ARENA, 16 * PAGE_SIZE, VmProt::RW);
    let mut bl = Baselines::new_host(Platform::CortexA55);
    let pid = bl.spawn(&prog);
    bl.enter_process(pid);
    assert_eq!(bl.run_to_exit(), lz_baselines::watchpoint::WP_KILL);
}
