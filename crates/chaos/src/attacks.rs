//! Shared attack-primitive library: the §7.2 penetration-test bodies and
//! the composable exploit building blocks the attack synthesizer
//! ([`crate::synth`]) assembles into candidate programs.
//!
//! `tests/penetration.rs` and the synthesizer are built on the *same*
//! primitives, so a hand-written pen test and a synthesized attack
//! exercise one source of truth: if a primitive rots, both suites fail.
//!
//! Primitive taxonomy (DESIGN.md §12):
//!
//! * **direct access** — loads/stores into a PAN- or TTBR-protected
//!   victim domain from outside it;
//! * **gate abuse** — forged-`lr` gate calls, jumps into the *middle* of
//!   a gate stub (onto the phase-① `msr` with attacker-chosen x13, or
//!   straight into check phase ②), unregistered-gate calls;
//! * **sensitive-instruction injection** — Table 3 encodings planted in
//!   executable pages, including W^X double-view (PANIC-style) aliases
//!   that write the payload after the clean scan;
//! * **kernel-context abuse** — Garmr-class writes/executes against the
//!   TTBR1-mapped stub, gate-table and TTBR-table pages;
//! * **layout probes** — reads of `TTBRTab` entries trying to recover
//!   *real* physical frame addresses (defeated by fake-phys
//!   randomization).

use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, SAN_TTBR, USER};
use lightzone::gate::{check_phase_offset, layout, switch_msr_offset};
use lightzone::pgt::{perm, PGT_ALL};
use lightzone::{AblationConfig, LightZone, LzProgram};
use lz_arch::asm::Asm;
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::{Event, IdAlloc, VmProt};

/// Program text base (shared with the chaos program generators).
pub const CODE: u64 = 0x40_0000;
/// Protected-domain arena base (§7.2: 128 protected memory domains).
pub const ARENA: u64 = 0x5000_0000;
/// JIT page used by the W^X double-view attacks.
pub const JIT: u64 = 0x61_0000;
/// Domain count of the §7.2 penetration configuration.
pub const DOMAINS: u64 = 128;
/// READ | EXEC — the executor view's permissions.
pub const READ_EXEC: u64 = perm::READ | perm::EXEC;

/// Spawn `prog` under the paper-default config and run it to exit.
pub fn run(prog: &LzProgram, platform: Platform, guest: bool) -> i64 {
    let mut lz = if guest { LightZone::new_guest(platform) } else { LightZone::new_host(platform) };
    let pid = lz.spawn(prog);
    lz.enter_process(pid);
    lz.run_to_exit()
}

// ---------------------------------------------------------------------
// Base environments (the §7.2 "128 protected memory domains" setups)
// ---------------------------------------------------------------------

/// Build a process with `domains` PAN-protected domains.
pub fn pan_base(b: &mut LzProgramBuilder, domains: u64) {
    b.with_anon_segment(ARENA, domains * PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.lz_prot_imm(ARENA, domains * PAGE_SIZE, PGT_ALL, RW | USER);
}

/// [`pan_base`] with a per-domain secret planted in each arena page
/// *before* protection: the synthesizer's escape oracle for
/// direct-access attacks is "the program exited with a victim secret",
/// which only an actual isolation break can produce. Clobbers x5/x6.
pub fn pan_base_with_secrets(b: &mut LzProgramBuilder, domains: u64, secret: impl Fn(u64) -> u64) {
    b.with_anon_segment(ARENA, domains * PAGE_SIZE, VmProt::RW);
    for d in 0..domains {
        b.asm.mov_imm64(5, ARENA + d * PAGE_SIZE);
        b.asm.mov_imm64(6, secret(d));
        b.asm.str(6, 5, 0);
    }
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.lz_prot_imm(ARENA, domains * PAGE_SIZE, PGT_ALL, RW | USER);
}

/// Build a process with 128 PAN-protected domains (first test of §7.2).
pub fn pan_128_base(b: &mut LzProgramBuilder) {
    pan_base(b, DOMAINS);
}

/// Build a process with `domains` TTBR domains: one stage-1 table and
/// one call gate (gate `d` → pgt `d + 1`) per domain, each owning one
/// arena page.
pub fn ttbr_base(b: &mut LzProgramBuilder, domains: u64) {
    b.with_anon_segment(ARENA, domains * PAGE_SIZE, VmProt::RW);
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..domains {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
}

/// Build a process with 128 TTBR domains (second test of §7.2).
pub fn ttbr_128_base(b: &mut LzProgramBuilder) {
    ttbr_base(b, DOMAINS);
}

/// [`ttbr_base`] with a per-domain secret planted in each arena page
/// before the page is moved into its domain table — the escape oracle
/// for gate-abuse attacks. Clobbers x5/x6.
pub fn ttbr_base_with_secrets(b: &mut LzProgramBuilder, domains: u64, secret: impl Fn(u64) -> u64) {
    b.with_anon_segment(ARENA, domains * PAGE_SIZE, VmProt::RW);
    for d in 0..domains {
        b.asm.mov_imm64(5, ARENA + d * PAGE_SIZE);
        b.asm.mov_imm64(6, secret(d));
        b.asm.str(6, 5, 0);
    }
    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..domains {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
}

/// Encode `movz xRD, #imm` — attacker payloads and JIT seed bodies.
pub fn movz_word(rd: u8, imm: u16) -> u32 {
    let mut a = Asm::new(0);
    a.movz(rd, imm, 0);
    let bytes = a.bytes();
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

// ---------------------------------------------------------------------
// Sensitive-instruction payloads (Table 3)
// ---------------------------------------------------------------------

/// All the sensitive encodings of Table 3 that a malicious binary might
/// inject, each of which the sanitizer must reject before execution.
pub fn injected_words() -> Vec<(&'static str, u32)> {
    use lz_arch::insn::Insn;
    use lz_arch::sysreg::SysReg;
    vec![
        ("eret", Insn::Eret.encode()),
        ("msr ttbr1_el1", Insn::MsrReg { enc: SysReg::TTBR1_EL1.encoding(), rt: 0 }.encode()),
        ("msr vbar_el1", Insn::MsrReg { enc: SysReg::VBAR_EL1.encoding(), rt: 0 }.encode()),
        ("msr elr_el1", Insn::MsrReg { enc: SysReg::ELR_EL1.encoding(), rt: 0 }.encode()),
        ("msr spsel", Insn::MsrImm { op1: 0b000, crm: 1, op2: 0b101 }.encode()),
        ("dc civac", 0xD50B_7E20),
    ]
}

/// `dc civac`-class payload: forbidden by the sanitizer yet semantically
/// inert if it ever executes — a successful injection therefore runs to
/// a *clean exit* instead of being caught downstream, which is exactly
/// what the read-fault-flip regression needs to observe.
pub fn inert_sensitive_payload() -> u32 {
    lz_arch::insn::Insn::Sys { l: false, op1: 3, crn: 7, crm: 14, op2: 1, rt: 2 }.encode()
}

// ---------------------------------------------------------------------
// Gate-abuse primitives
// ---------------------------------------------------------------------

/// Call gate `gate` from an unregistered site: `lr` is the instruction
/// after the `blr`, not the gate's designated ENTRY, so check phase ②
/// must kill. Without the check phase the switch goes through and the
/// gate returns to attacker-chosen code *inside the target domain*.
/// Clobbers x16.
pub fn forged_gate_call(a: &mut Asm, gate: u16) {
    a.mov_imm64(16, layout::gate_va(gate));
    a.blr(16);
}

/// Garmr-class mid-gate jump: land directly on the phase-① `msr
/// TTBR0_EL1, x13` with an attacker-chosen x13 — here the *legitimate*
/// `TTBRTab[victim_pgt]` value read straight out of the TTBR1-mapped
/// read-only table — skipping the GateTab lookup that decides which
/// table the gate may install. Check phase ② still compares `lr`
/// against the designated ENTRY and kills; without it the attacker
/// lands in the victim's domain. x10 (the gate's GateTab pointer, which
/// the skipped phase ① would have loaded) is zeroed so the check
/// phase's re-query faults deterministically rather than chasing
/// whatever the register last held. Clobbers x10, x13 and x16.
pub fn mid_gate_jump(a: &mut Asm, gate: u16, victim_pgt: u64) {
    load_ttbrtab_entry(a, 13, victim_pgt);
    a.mov_imm64(10, 0);
    a.mov_imm64(16, layout::gate_va(gate) + switch_msr_offset());
    a.blr(16);
}

/// Jump straight *into* check phase ② without performing the switch:
/// the live TTBR0 cannot match the gate's designated table, so the
/// check kills — in both flavors this never grants access (without the
/// check phase the offset holds the `ret`, a no-op call). Clobbers x16.
pub fn check_phase_jump(a: &mut Asm, gate: u16) {
    a.mov_imm64(16, layout::gate_va(gate) + check_phase_offset());
    a.blr(16);
}

// ---------------------------------------------------------------------
// Kernel-context and layout-probe primitives
// ---------------------------------------------------------------------

/// Read `TTBRTab[pgt]` into `rd` — an architecturally *legal* load (the
/// table is mapped read-only for the gate code), used by layout probes:
/// the entry holds the table root's **fake** physical address, which
/// equals the real one only when `randomize_phys` is ablated.
pub fn load_ttbrtab_entry(a: &mut Asm, rd: u8, pgt: u64) {
    a.mov_imm64(rd, layout::TTBRTAB_VA + pgt * 8);
    a.ldr(rd, rd, 0);
}

/// Store `val` to a TTBR1-mapped kernel-context page (stub, GateTab,
/// TTBRTab, or a gate stub itself). The region is mapped read-only (or
/// read-execute) through a table the process cannot retarget, so the
/// write must fault — and faults in the gate region are always
/// violations. Clobbers x15 and x16.
pub fn kernel_page_store(a: &mut Asm, va: u64, val: u64) {
    a.mov_imm64(15, va);
    a.mov_imm64(16, val);
    a.str(16, 15, 0);
}

/// Branch to a TTBR1-mapped *data* page (TTBRTab/GateTab): mapped
/// non-executable, so the fetch faults in the gate region — a
/// violation. Clobbers x16.
pub fn kernel_page_exec(a: &mut Asm, va: u64) {
    a.mov_imm64(16, va);
    a.blr(16);
}

// ---------------------------------------------------------------------
// W^X double-view (PANIC §3.2 / JIT) attack programs
// ---------------------------------------------------------------------

/// Gate ids of the double-view programs (gate → table):
/// writer gate 0 → pgt 1 (RW view), exec gate 1 → pgt 2 (R+X view),
/// home gate 2 → pgt 0, re-exec gate 3 → pgt 2 again.
pub const WX_GATE_WRITER: u16 = 0;
pub const WX_GATE_EXEC: u16 = 1;
pub const WX_GATE_HOME: u16 = 2;
pub const WX_GATE_REEXEC: u16 = 3;

/// Shared prelude of the double-view attacks: seed the JIT page with
/// `seed_body`, enter TTBR-sanitized LightZone, allocate the writer
/// (pgt 1) and executor (pgt 2) views, wire the four gates, and map the
/// JIT page RW in the writer view and R+X in the executor view.
pub fn wx_views(b: &mut LzProgramBuilder, seed_body: &[u8]) {
    b.with_segment(JIT, seed_body.to_vec(), VmProt::RWX);
    b.asm.lz_enter(true, SAN_TTBR);
    b.asm.lz_alloc(); // 1: writer view
    b.asm.lz_alloc(); // 2: executor view
    b.asm.lz_map_gate_pgt_imm(1, WX_GATE_WRITER as u64);
    b.asm.lz_map_gate_pgt_imm(2, WX_GATE_EXEC as u64);
    b.asm.lz_map_gate_pgt_imm(2, WX_GATE_REEXEC as u64);
    b.asm.lz_map_gate_pgt_imm(0, WX_GATE_HOME as u64);
    b.asm.lz_prot_imm(JIT, PAGE_SIZE, 1, RW);
    b.asm.lz_prot_imm(JIT, PAGE_SIZE, 2, READ_EXEC);
}

/// Execute the JIT page once through the executor view (scanned clean)
/// and switch back to the default table.
pub fn wx_exec_clean(b: &mut LzProgramBuilder) {
    b.lz_switch_to_ttbr_gate(WX_GATE_EXEC);
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
    b.lz_switch_to_ttbr_gate(WX_GATE_HOME);
}

/// Store `payload` through the writer view (leaves the process in the
/// writer domain; the store's write fault flips the page out of the
/// Executable state — break-before-make).
pub fn wx_store_payload(b: &mut LzProgramBuilder, payload: u32) {
    b.lz_switch_to_ttbr_gate(WX_GATE_WRITER);
    b.asm.mov_imm64(1, JIT);
    b.asm.mov_imm64(2, payload as u64);
    b.asm.emit(lz_arch::insn::Insn::StrImm { rt: 2, rn: 1, offset: 0, size: lz_arch::insn::MemSize::W });
}

/// Switch into the writer view and *read*-fault the JIT page (the W+X
/// VMA grants write on a read fault too — the read-fault-flip
/// regression), then store `payload` with no further fault.
pub fn wx_read_fault_then_store(b: &mut LzProgramBuilder, payload: u32) {
    b.lz_switch_to_ttbr_gate(WX_GATE_WRITER);
    b.asm.mov_imm64(1, JIT);
    b.asm.ldr(2, 1, 0);
    b.asm.mov_imm64(2, payload as u64);
    b.asm.emit(lz_arch::insn::Insn::StrImm { rt: 2, rn: 1, offset: 0, size: lz_arch::insn::MemSize::W });
}

/// Re-execute the JIT page through the second executor gate: only a
/// rescan (which must find the payload) stands between the written
/// bytes and execution.
pub fn wx_reexec(b: &mut LzProgramBuilder) {
    b.lz_switch_to_ttbr_gate(WX_GATE_REEXEC);
    b.asm.mov_imm64(17, JIT);
    b.asm.blr(17);
}

/// The full PANIC-style W+X aliasing attack (§3.2): write an ERET
/// through the writer view after a clean scan, then execute the alias.
pub fn wx_alias_attack_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    let mut seed = Asm::new(JIT);
    seed.ret();
    wx_views(&mut b, &seed.bytes());
    wx_exec_clean(&mut b);
    wx_store_payload(&mut b, lz_arch::insn::Insn::Eret.encode());
    wx_reexec(&mut b);
    b.asm.exit_imm(0);
    b.build()
}

/// The read-fault W^X flip regression: a read fault flips the page
/// writable, the payload store hits silently, and only break-before-
/// make on the *read*-fault path forces the rescan that catches it.
pub fn wx_read_fault_flip_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    let mut seed = Asm::new(JIT);
    seed.nop();
    seed.ret();
    wx_views(&mut b, &seed.bytes());
    wx_exec_clean(&mut b);
    wx_read_fault_then_store(&mut b, inert_sensitive_payload());
    wx_reexec(&mut b);
    b.asm.exit_imm(0);
    b.build()
}

// ---------------------------------------------------------------------
// VMID-rollover stale-TLB attack (generation-tagged recycling)
// ---------------------------------------------------------------------

/// VA of the dead victim's secret page. Never mapped by the attacker:
/// only a stale TLB entry left from the victim's life can translate it.
pub const SECRET_VA: u64 = 0x6600_0000;
/// The value the victim plants (and exits with, as the warm-up control).
pub const ROLLOVER_SECRET: u64 = 0x5ec7;
/// Shrunk VMID space: rollover after a handful of VEs instead of 65,535.
pub const ROLLOVER_VMID_SPACE: u16 = 6;

/// Everything a rollover pen test needs to judge one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloverOutcome {
    /// Victim exit code — must be [`ROLLOVER_SECRET`] (the warm-up load
    /// both planted the secret and pulled its translation into the TLB).
    pub victim_exit: i64,
    /// Attacker exit code: a kill under the full defense, the leaked
    /// [`ROLLOVER_SECRET`] when the reuse-time shootdown is ablated.
    pub attacker_exit: i64,
    /// Recycled VMID grants — ≥ 1 or the run never reached rollover.
    pub vmid_recycles: u64,
    /// Reuse-time invalidations the module performed.
    pub rollover_shootdowns: u64,
}

/// Offset of the leak gadget inside the victim's executable page at
/// [`ATTACKER_CODE`]; a nop sled covers every earlier offset, so any
/// stale-fetch entry point slides into the gadget.
pub const GADGET_OFF: u64 = 0xf00;
/// Offset of the lone `ret` the victim calls to warm the page's fetch
/// translation. Exec permission is only granted (and thus only cached)
/// on a *fetch* fault — the sanitizer scans the page first — so a data
/// read would leave a non-executable stale entry behind.
pub const WARM_OFF: u64 = 0xf40;

/// The victim's executable page at [`ATTACKER_CODE`]: a nop sled into a
/// gadget that loads [`SECRET_VA`] into x0, raises x19, and parks, plus
/// the `ret` landing pad at [`WARM_OFF`]. When the recycled-VMID
/// attacker's *instruction fetches* hit this page's stale TLB entry,
/// these dead-VE bytes run in place of the attacker's own binary — the
/// fetch-side half of the stale-TLB escape.
fn gadget_page_bytes() -> Vec<u8> {
    let mut a = Asm::new(ATTACKER_CODE);
    for _ in 0..GADGET_OFF / 4 {
        a.nop();
    }
    a.mov_imm64(1, SECRET_VA);
    a.ldr(0, 1, 0);
    a.movz(19, 1, 0);
    let spin = a.label();
    a.bind(spin);
    a.b(spin);
    while a.here() < ATTACKER_CODE + WARM_OFF {
        a.nop();
    }
    a.ret();
    a.bytes()
}

/// Victim VE: plant the secret and load it back *inside* the VE so the
/// TLB caches the `(vmid, SECRET_VA)` translation, execute the gadget
/// page's `ret` pad so its translation is cached *with* exec permission,
/// and exit with the secret. Both stale entries — data and fetch —
/// outlive the VE until the VMID's reuse-time shootdown clears them.
pub fn rollover_victim_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.with_anon_segment(SECRET_VA, PAGE_SIZE, VmProt::RW);
    b.with_segment(ATTACKER_CODE, gadget_page_bytes(), VmProt::RX);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.mov_imm64(1, SECRET_VA);
    b.asm.mov_imm64(2, ROLLOVER_SECRET);
    b.asm.str(2, 1, 0);
    b.asm.ldr(0, 1, 0);
    b.asm.mov_imm64(3, ATTACKER_CODE + WARM_OFF);
    b.asm.blr(3);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);
    b.build()
}

/// Minimal churn VE: enter LightZone (consuming one fresh VMID) and
/// exit. A fleet of these drains the shrunk fresh space to force the
/// allocator onto its free list.
pub fn rollover_churn_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(CODE);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.exit_imm(0);
    b.build()
}

/// Attacker code base — deliberately disjoint from the victim's
/// [`CODE`]: under the recycled VMID *every* stale translation of the
/// dead VE is live again (code, stub, tables — not just the secret), so
/// an attacker sharing the victim's code VAs would execute the dead
/// process's bytes instead of its own. Real malware would mind the same
/// constraint: probe only VAs it does not itself occupy.
pub const ATTACKER_CODE: u64 = 0x48_0000;

/// Attacker VE: receives the victim's recycled VMID at `lz_enter`, then
/// loads [`SECRET_VA`] — a VA this process never mapped. With the
/// reuse-time shootdown in place the attacker's own code runs and the
/// probe faults (kill). With stale entries still live, the attacker's
/// *fetches* after `lz_enter` hit the dead VE's gadget-page entry at
/// [`ATTACKER_CODE`] instead, and the gadget leaks the secret through
/// the stale data entry. Either escape parks in a spin loop with the
/// loot in x0 and x19 = 1 — no further traps (an exit `svc` would
/// vector through `STUB_VA`, whose stale global entry points at the
/// dead VE's *freed* stub frame), so the harness reads the registers
/// directly. The attacker's own body mirrors the gadget: a nop sled
/// (room for a small-quantum stepper to pause right after the recycled
/// grant — the SMP variant migrates the attacker to the victim's core
/// in that window) into the same probe/park sequence.
pub fn rollover_attacker_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(ATTACKER_CODE);
    b.asm.lz_enter(false, SAN_PAN);
    for _ in 0..8 {
        b.asm.nop();
    }
    b.asm.mov_imm64(1, SECRET_VA);
    b.asm.ldr(0, 1, 0);
    b.asm.movz(19, 1, 0);
    let spin = b.asm.label();
    b.asm.bind(spin);
    b.asm.b(spin);
    b.build()
}

/// Run until `cond` holds, stepping by `chunk`-instruction quanta.
fn run_until(lz: &mut LightZone, chunk: u64, mut cond: impl FnMut(&LightZone) -> bool) {
    for _ in 0..2_000_000 {
        if cond(lz) {
            return;
        }
        match lz.run(chunk) {
            Event::Limit => {}
            other => panic!("unexpected event while stepping: {other:?}"),
        }
    }
    panic!("stepping condition never became true");
}

/// The full VMID-rollover stale-TLB attack, shared by the defended and
/// ablated pen tests (the synthesis matrix keeps `skip_rollover_shootdown`
/// out; this is its dedicated harness):
///
/// 1. Shrink the VMID space to [`ROLLOVER_VMID_SPACE`].
/// 2. A victim VE warms `(vmid_v, SECRET_VA)` into the TLB of the
///    *last* core and exits.
/// 3. Module-only reap: `vmid_v` parks on the free list, but its TLB
///    entries — and the kernel-owned data frame holding the secret —
///    survive (the recycling contract defers invalidation to reuse).
/// 4. Churn VEs exhaust the remaining fresh VMIDs (they stay un-reaped,
///    holding their IDs live).
/// 5. The attacker's `lz_enter` is granted `vmid_v` *recycled*; on SMP
///    the attacker is then migrated to the victim's core before probing.
///
/// With the reuse-time shootdown in place the probe faults (kill); with
/// `skip_rollover_shootdown` — or, cross-core, with only a local
/// invalidate under `skip_remote_shootdown` — the stale entry translates
/// the dead VE's page and the attacker exits with its secret.
pub fn rollover_attack(platform: Platform, ablation: AblationConfig, cores: usize) -> RolloverOutcome {
    let mut lz = LightZone::with_ablation(platform, false, ablation);
    lz.kernel.vmids = IdAlloc::with_space(ROLLOVER_VMID_SPACE);
    if cores > 1 {
        lz.kernel.machine.configure_smp(cores);
    }
    let victim_core = cores - 1;

    // Phase 1: victim VE runs (and warms its TLB) on the last core.
    let victim = lz.spawn(&rollover_victim_prog());
    if cores > 1 {
        lz.kernel.machine.switch_core(victim_core);
    }
    lz.schedule_to(victim);
    let victim_exit = lz.run_to_exit();
    if cores > 1 {
        lz.kernel.machine.switch_core(0);
    }

    // Phase 2: module-only reap parks the VMID with its TLB entries (and
    // the secret's frame) intact — the exact window the reuse-time
    // shootdown exists to close.
    assert!(lz.module.reap(&mut lz.kernel, victim), "victim VE reaps");

    // Phase 3: churn the remaining fresh VMIDs away on core 0.
    for _ in 1..ROLLOVER_VMID_SPACE {
        let pid = lz.spawn(&rollover_churn_prog());
        lz.schedule_to(pid);
        let code = lz.run_to_exit();
        assert_eq!(code, 0, "churn VE exits cleanly");
    }

    // Phase 4: the attacker is granted the victim's VMID, recycled.
    let attacker = lz.spawn(&rollover_attacker_prog());
    lz.schedule_to(attacker);
    if cores > 1 {
        // Pause right after the recycled grant (mid nop sled), then
        // migrate the attacker VE onto the victim's core for the probe.
        run_until(&mut lz, 2, |lz| lz.module.proc(attacker).is_some());
        lz.kernel.save_current();
        lz.kernel.machine.switch_core(victim_core);
        lz.module.enter_ve_process(&mut lz.kernel, attacker);
    }
    // A defended probe faults and kills the attacker; a successful one
    // parks in the spin loop with x19 = 1 and the loot in x0.
    let mut attacker_exit = i64::MIN;
    for _ in 0..1_000 {
        if lz.kernel.machine.cpu.x[19] == 1 {
            attacker_exit = lz.kernel.machine.cpu.x[0] as i64;
            break;
        }
        match lz.run(64) {
            Event::Limit => {}
            Event::Exited(code) => {
                attacker_exit = code;
                break;
            }
            other => panic!("unexpected attacker event: {other:?}"),
        }
    }
    assert_ne!(attacker_exit, i64::MIN, "attacker neither died nor finished its probe");

    RolloverOutcome {
        victim_exit,
        attacker_exit,
        vmid_recycles: lz.kernel.vmids.recycles(),
        rollover_shootdowns: lz.kernel.stats.rollover_shootdowns + lz.module.rollover_shootdowns,
    }
}

// ---------------------------------------------------------------------
// Snapshot/restore stale-state attack (warm-restart recycling)
// ---------------------------------------------------------------------

/// Everything a restore pen test needs to judge one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOutcome {
    /// Victim exit code — must be [`ROLLOVER_SECRET`] (warm-up control).
    pub victim_exit: i64,
    /// Restored VE's probe outcome: a kill under the full defense, the
    /// leaked [`ROLLOVER_SECRET`] when reuse invalidation is ablated.
    pub probe_exit: i64,
    /// Recycled VMID grants — ≥ 1 or the restore never hit recycling.
    pub vmid_recycles: u64,
    /// Reuse-time invalidations the module performed.
    pub rollover_shootdowns: u64,
    /// Successful warm restarts (must be 1: the image verified and the
    /// rebuild reproduced the donor's layout).
    pub restores: u64,
}

/// Snapshot donor / probe body: enter LightZone, raise the x21
/// request-boundary marker (the host parks and snapshots there), then —
/// only after the warm restart resumes it — probe [`SECRET_VA`], a VA
/// this process never mapped, and park with the loot in x0 and x19 = 1.
/// Based at [`ATTACKER_CODE`] so a stale *fetch* entry from the dead
/// victim's gadget page hijacks the resumed sled exactly as in
/// [`rollover_attacker_prog`].
pub fn restore_donor_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(ATTACKER_CODE);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.movz(21, 1, 0);
    for _ in 0..8 {
        b.asm.nop();
    }
    b.asm.mov_imm64(1, SECRET_VA);
    b.asm.ldr(0, 1, 0);
    b.asm.movz(19, 1, 0);
    let spin = b.asm.label();
    b.asm.bind(spin);
    b.asm.b(spin);
    b.build()
}

/// The snapshot/restore stale-state attack, shared by the defended and
/// ablated pen tests. A warm restart hands the restored VE a *recycled*
/// VMID off the free list; the question under test is whether the
/// restore path (which rebuilds through the normal `lz_enter`) performs
/// the reuse-time shoot-down before the restored VE runs:
///
/// 1. Shrink the VMID space to [`ROLLOVER_VMID_SPACE`].
/// 2. A victim VE warms `(vmid_v, SECRET_VA)` data and gadget *fetch*
///    entries into the last core's TLB and exits; a module-only reap
///    parks `vmid_v` on the free list with those entries intact.
/// 3. A donor VE runs to its request boundary; the host parks it,
///    captures a [`VeSnapshot`](lightzone::module::VeSnapshot), then kills and fully reaps it (its own
///    VMID joins the free list *behind* the victim's).
/// 4. Churn VEs exhaust the remaining fresh VMIDs.
/// 5. `restore_ve` rebuilds the donor: its `lz_enter` pops `vmid_v`,
///    recycled. On SMP the restored VE is scheduled onto the victim's
///    core. With the shoot-down in place its probe faults (kill); under
///    `skip_rollover_shootdown` its first *fetch* resumes into the dead
///    victim's gadget page and leaks [`ROLLOVER_SECRET`] through the
///    stale data entry.
pub fn restore_attack(platform: Platform, ablation: AblationConfig, cores: usize) -> RestoreOutcome {
    let mut lz = LightZone::with_ablation(platform, false, ablation);
    lz.kernel.vmids = IdAlloc::with_space(ROLLOVER_VMID_SPACE);
    if cores > 1 {
        lz.kernel.machine.configure_smp(cores);
    }
    let victim_core = cores - 1;

    // Phase 1: victim VE runs (and warms its TLB) on the last core.
    let victim = lz.spawn(&rollover_victim_prog());
    if cores > 1 {
        lz.kernel.machine.switch_core(victim_core);
    }
    lz.schedule_to(victim);
    let victim_exit = lz.run_to_exit();
    let vmid_v = lz.module.proc(victim).expect("victim VE is live").vmid;
    if cores > 1 {
        lz.kernel.machine.switch_core(0);
    }

    // Phase 2: module-only reap parks vmid_v with its TLB entries (and
    // the secret's frame) intact.
    assert!(lz.module.reap(&mut lz.kernel, victim), "victim VE reaps");

    // Phase 3: park the donor at its request boundary, snapshot it,
    // kill it, reap it end to end.
    let prog = restore_donor_prog();
    let donor = lz.spawn(&prog);
    lz.schedule_to(donor);
    run_until(&mut lz, 2, |lz| lz.kernel.machine.cpu.x[21] == 1);
    lz.kernel.save_current();
    lz.kernel.clear_current();
    let snap = lz.snapshot_ve(donor).expect("donor VE snapshots at its request boundary");
    lz.kernel.set_current(donor);
    lz.kernel.kill_current(lightzone::SECURITY_KILL);
    assert!(lz.reap(donor), "donor VE reaps end to end");

    // Phase 4: churn the remaining fresh VMIDs away on core 0.
    for _ in 2..ROLLOVER_VMID_SPACE {
        let pid = lz.spawn(&rollover_churn_prog());
        lz.schedule_to(pid);
        assert_eq!(lz.run_to_exit(), 0, "churn VE exits cleanly");
    }

    // Phase 5: the warm restart is granted the victim's VMID, recycled.
    let restored = lz.restore_ve(&prog, &snap).expect("snapshot restores");
    assert_eq!(
        lz.module.proc(restored).expect("restored VE is live").vmid,
        vmid_v,
        "restored VE received the victim's recycled VMID"
    );
    if cores > 1 {
        lz.kernel.machine.switch_core(victim_core);
    }
    lz.schedule_to(restored);
    // A defended probe faults and kills the restored VE; a successful
    // escape parks in the spin loop with x19 = 1 and the loot in x0.
    let mut probe_exit = i64::MIN;
    for _ in 0..1_000 {
        if lz.kernel.machine.cpu.x[19] == 1 {
            probe_exit = lz.kernel.machine.cpu.x[0] as i64;
            break;
        }
        match lz.run(64) {
            Event::Limit => {}
            Event::Exited(code) => {
                probe_exit = code;
                break;
            }
            other => panic!("unexpected probe event: {other:?}"),
        }
    }
    assert_ne!(probe_exit, i64::MIN, "restored VE neither died nor finished its probe");

    RestoreOutcome {
        victim_exit,
        probe_exit,
        vmid_recycles: lz.kernel.vmids.recycles(),
        rollover_shootdowns: lz.kernel.stats.rollover_shootdowns + lz.module.rollover_shootdowns,
        restores: lz.fleet_section().get("ve_restores").unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightzone::SECURITY_KILL;

    #[test]
    fn shared_wx_attack_bodies_still_die() {
        // The extracted bodies must behave exactly like the pen tests
        // they came from.
        assert_eq!(run(&wx_alias_attack_prog(), Platform::CortexA55, false), SECURITY_KILL);
        assert_eq!(run(&wx_read_fault_flip_prog(), Platform::CortexA55, false), SECURITY_KILL);
    }

    #[test]
    fn ttbr_base_legal_access_survives() {
        let mut b = LzProgramBuilder::new(CODE);
        ttbr_base(&mut b, 8);
        b.lz_switch_to_ttbr_gate(3);
        b.asm.mov_imm64(1, ARENA + 3 * PAGE_SIZE);
        b.asm.mov_imm64(2, 0x5a);
        b.asm.str(2, 1, 0);
        b.asm.ldr(0, 1, 0);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
        b.asm.svc(0);
        assert_eq!(run(&b.build(), Platform::CortexA55, false), 0x5a);
    }

    #[test]
    fn ttbrtab_read_is_legal_and_fake() {
        // The layout-probe primitive itself is a legal load; under the
        // paper default it observes only fake physical addresses.
        let mut b = LzProgramBuilder::new(CODE);
        ttbr_base(&mut b, 4);
        load_ttbrtab_entry(&mut b.asm, 0, 1);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
        b.asm.svc(0);
        let leaked = run(&b.build(), Platform::CortexA55, false);
        assert!(leaked > 0, "TTBRTab read must succeed, got {leaked}");
    }
}
