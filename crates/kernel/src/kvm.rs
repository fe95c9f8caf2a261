//! KVM-like virtualization layer: world-switch cost paths. VMIDs come
//! from [`crate::Kernel::vmids`], an [`crate::IdAlloc`].
//!
//! The *full* world switch modelled here is what a conventional KVM (VHE)
//! hypercall pays — Table 4 row 5. LightZone's optimized partial switches
//! (conditional `HCR_EL2`/`VTTBR_EL2` retention, shared `pt_regs`,
//! deferred system-register pages) live in the `lightzone` crate and are
//! measured against this path by the ablation benchmarks.

use lz_machine::Machine;

/// Number of EL1 system registers a conventional world switch context-
/// switches in each direction (SCTLR, TTBR0/1, TCR, MAIR, VBAR, ESR, FAR,
/// ELR, SPSR, SP_EL0/1, TPIDRs, CONTEXTIDR, CPACR, PAR, AMAIR, AFSR0/1, …).
pub const FULL_SWITCH_SYSREGS: u64 = 14;

/// Charge the cost of saving one EL1 register file to memory
/// (`mrs` + `str` per register).
pub fn charge_sysreg_ctx_save(machine: &mut Machine, n: u64) {
    let m = &machine.model;
    let cost = n * (m.sysreg_read + m.mem_access + m.insn_base * 2);
    machine.charge(cost);
}

/// Charge the cost of restoring one EL1 register file from memory
/// (`ldr` + `msr` per register).
pub fn charge_sysreg_ctx_restore(machine: &mut Machine, n: u64) {
    let m = &machine.model;
    let cost = n * (m.sysreg_write + m.mem_access + m.insn_base * 2);
    machine.charge(cost);
}

/// Charge a *full* KVM world switch out of a guest and back in — what a
/// conventional hypercall costs (Table 4 row 5): save the guest's EL1
/// state, restore the host's, handle, restore the guest's, save the
/// host's, plus vGIC/timer save+restore and the `HCR_EL2`/`VTTBR_EL2`
/// updates LightZone avoids.
pub fn charge_full_world_switch(machine: &mut Machine) {
    // Outbound: save guest, restore host.
    charge_sysreg_ctx_save(machine, FULL_SWITCH_SYSREGS);
    charge_sysreg_ctx_restore(machine, FULL_SWITCH_SYSREGS);
    // Inbound: save host, restore guest.
    charge_sysreg_ctx_save(machine, FULL_SWITCH_SYSREGS);
    charge_sysreg_ctx_restore(machine, FULL_SWITCH_SYSREGS);
    // vGIC + timer state, both directions.
    let vgic = machine.model.vgic_timer_switch;
    machine.charge(vgic);
    // Mode switches: HCR_EL2 (guest<->host mode) and VTTBR_EL2 (VMID)
    // are each written twice (leave + re-enter).
    let m = &machine.model;
    let cost = 2 * (m.hcr_el2_write + m.vttbr_el2_write);
    machine.charge(cost);
    // General-purpose registers both directions.
    let gp = machine.model.gpregs_roundtrip(31) * 2;
    machine.charge(gp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_arch::Platform;

    #[test]
    fn full_switch_is_expensive_on_carmel() {
        let mut carmel = Machine::new(Platform::Carmel);
        charge_full_world_switch(&mut carmel);
        let carmel_cost = carmel.cpu.cycles;
        let mut a55 = Machine::new(Platform::CortexA55);
        charge_full_world_switch(&mut a55);
        let a55_cost = a55.cpu.cycles;
        // Table 4: KVM hypercall is 28,580 (Carmel) vs 1,287 (A55). The
        // switch body (without trap entry/exit) must dominate and sit in
        // the right ballpark.
        assert!(carmel_cost > 20_000 && carmel_cost < 32_000, "carmel switch = {carmel_cost}");
        assert!(a55_cost > 700 && a55_cost < 1_400, "a55 switch = {a55_cost}");
    }
}
