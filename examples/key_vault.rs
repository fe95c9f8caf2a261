//! Key vault: a multi-tenant service with one TTBR domain per tenant key
//! (the paper's §9.1 scenario, and the motivating "multi-user server"
//! from §3.1).
//!
//! Eight tenants each own a key page in a separate stage-1 page table.
//! The service enters a tenant's domain through that tenant's secure
//! call gate, mixes the key into a response, and leaves through the
//! tenant's own exit gate. Every call site has a gate of its own
//! (paper §6.2), so several gates map to the same table. At the end the
//! program enters tenant 2's domain once more and tries to read tenant
//! 5's key from there — and is terminated.
//!
//! Run with: `cargo run --example key_vault`

use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::{LightZone, SECURITY_KILL};
use lz_arch::Platform;

const CODE: u64 = 0x40_0000;
const KEYS: u64 = 0x5000_0000;
const TENANTS: u64 = 8;
/// Gate ids: `t` enters tenant `t`'s domain, `TENANTS + t` leaves it for
/// the default table, and `ATTACK_GATE` re-enters tenant 2's domain.
const ATTACK_GATE: u64 = 2 * TENANTS;

fn main() {
    let mut b = LzProgramBuilder::new(CODE);
    // Each tenant's 4 KB key page, pre-filled with a per-tenant byte.
    for t in 0..TENANTS {
        b.with_segment(KEYS + t * 4096, vec![0xA0 + t as u8; 4096], lz_kernel::VmProt::RW);
    }

    b.asm.lz_enter(true, SAN_TTBR);
    for t in 0..TENANTS {
        b.asm.lz_alloc(); // page table t+1
        b.asm.lz_map_gate_pgt_imm(t + 1, t); // gate t -> tenant t's table
        b.asm.lz_prot_imm(KEYS + t * 4096, 4096, t + 1, RW);
    }
    // Per-tenant exit gates back to the default table, and the attack's
    // own gate into tenant 2's table.
    for t in 0..TENANTS {
        b.asm.lz_map_gate_pgt_imm(0, TENANTS + t);
    }
    b.asm.lz_map_gate_pgt_imm(3, ATTACK_GATE);

    // Serve one request per tenant: enter the domain, fold the key into
    // the accumulator x22, leave.
    b.asm.movz(22, 0, 0);
    for t in 0..TENANTS {
        b.lz_switch_to_ttbr_gate(t as u16);
        b.asm.mov_imm64(1, KEYS + t * 4096);
        b.asm.ldrb(2, 1, 0);
        b.asm.add_reg(22, 22, 2);
        b.lz_switch_to_ttbr_gate((TENANTS + t) as u16);
    }
    // Attack: from tenant 2's domain, read tenant 5's key.
    b.lz_switch_to_ttbr_gate(ATTACK_GATE as u16);
    b.asm.mov_imm64(1, KEYS + 5 * 4096);
    b.asm.ldrb(2, 1, 0); // cross-tenant read: must be fatal
    b.asm.mov_reg(0, 22);
    b.asm.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
    b.asm.svc(0);

    let prog = b.build();
    let mut lz = LightZone::new_host(Platform::Carmel);
    let pid = lz.spawn(&prog);
    lz.enter_process(pid);
    let code = lz.run_to_exit();

    let expected_sum: u64 = (0..TENANTS).map(|t| 0xA0 + t).sum();
    println!("tenants served: {TENANTS} (key-byte checksum would be {expected_sum:#x})");
    if code == SECURITY_KILL {
        println!("cross-tenant read from the wrong domain: terminated by LightZone ✓");
    } else {
        println!("UNEXPECTED: cross-tenant read survived (exit {code})");
    }
    let stats = &lz.module.proc(pid).unwrap().stats;
    println!(
        "VE traps: {}, pages sanitized: {}, violations: {}, page-table bytes: {}",
        stats.ve_traps,
        stats.sanitized_pages,
        stats.violations,
        lz.module.proc(pid).unwrap().table_bytes(),
    );
    if code != SECURITY_KILL {
        std::process::exit(1);
    }
}
