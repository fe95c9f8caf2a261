//! Paper tables rendered to strings.
//!
//! The `repro` binary prints these; the determinism regression tests
//! compare them byte-for-byte across back-to-back runs and across
//! engines (the compiled-block fetch cache must never change a
//! modelled cycle count).

use crate::paper;
use crate::table::{cyc, Table};
use lz_arch::Platform;
use lz_workloads::micro;
use lz_workloads::Deployment;

/// Table 4: trap round-trip cycles, reproduced vs paper.
pub fn table4_report() -> String {
    let mut out = String::from("\n== Table 4: cycles spent on empty trap-and-return round trips ==\n\n");
    let mut t = Table::new(&["round trip", "Carmel", "(paper)", "Cortex A55", "(paper)"]);
    let c = micro::table4(Platform::Carmel);
    let a = micro::table4(Platform::CortexA55);
    let rows: [(&str, f64, f64, f64, f64); 7] = [
        (
            "host user mode -> host hypervisor mode",
            c.host_user_to_host_hyp,
            paper::table4::HOST_USER_TO_HYP.0,
            a.host_user_to_host_hyp,
            paper::table4::HOST_USER_TO_HYP.1,
        ),
        (
            "guest user mode -> guest kernel mode",
            c.guest_user_to_guest_kernel,
            paper::table4::GUEST_USER_TO_KERNEL.0,
            a.guest_user_to_guest_kernel,
            paper::table4::GUEST_USER_TO_KERNEL.1,
        ),
        (
            "LightZone kernel mode -> host hypervisor mode",
            c.lz_to_host_hyp,
            paper::table4::LZ_TO_HOST_HYP.0,
            a.lz_to_host_hyp,
            paper::table4::LZ_TO_HOST_HYP.1,
        ),
        (
            "LightZone kernel mode -> guest kernel mode",
            c.lz_to_guest_kernel,
            (paper::table4::LZ_TO_GUEST_KERNEL_LO.0 + paper::table4::LZ_TO_GUEST_KERNEL_HI.0) / 2.0,
            a.lz_to_guest_kernel,
            (paper::table4::LZ_TO_GUEST_KERNEL_LO.1 + paper::table4::LZ_TO_GUEST_KERNEL_HI.1) / 2.0,
        ),
        (
            "KVM VHE hypercall",
            c.kvm_vhe_hypercall,
            paper::table4::KVM_HYPERCALL.0,
            a.kvm_vhe_hypercall,
            paper::table4::KVM_HYPERCALL.1,
        ),
        (
            "update HCR_EL2",
            c.update_hcr_el2,
            (paper::table4::HCR_WRITE_LO.0 + paper::table4::HCR_WRITE_HI.0) / 2.0,
            a.update_hcr_el2,
            paper::table4::HCR_WRITE_LO.1,
        ),
        (
            "update VTTBR_EL2",
            c.update_vttbr_el2,
            paper::table4::VTTBR_WRITE.0,
            a.update_vttbr_el2,
            paper::table4::VTTBR_WRITE.1,
        ),
    ];
    for (name, cm, cp, am, ap) in rows {
        t.row(&[name.into(), cyc(cm), cyc(cp), cyc(am), cyc(ap)]);
    }
    out.push_str(&t.render());
    out
}

/// One Table 5 cell: name, platform, deployment, and the paper's
/// LightZone and watchpoint rows.
type Table5Cell = (&'static str, Platform, Deployment, &'static [f64; 6], &'static [f64; 3]);

/// Table 5: average cycles per domain switch, reproduced vs paper.
pub fn table5_report(full: bool) -> String {
    let mut out = String::from("\n== Table 5: average cycles per domain switch (with secure call gate) ==\n\n");
    let domains: &[usize] = if full { &[2, 3, 32, 64, 128] } else { &[2, 32, 128] };
    let mut t = Table::new(&["cell", "mechanism", "1 (PAN)", "2", "32", "128"]);
    let cells: [Table5Cell; 3] = [
        (
            "Carmel Host",
            Platform::Carmel,
            Deployment::Host,
            &paper::table5::CARMEL_HOST_LZ,
            &paper::table5::CARMEL_HOST_WP,
        ),
        (
            "Carmel Guest",
            Platform::Carmel,
            Deployment::Guest,
            &paper::table5::CARMEL_GUEST_LZ,
            &paper::table5::CARMEL_GUEST_WP,
        ),
        ("Cortex", Platform::CortexA55, Deployment::Host, &paper::table5::CORTEX_LZ, &paper::table5::CORTEX_WP),
    ];
    for (name, p, d, lz_ref, wp_ref) in cells {
        let pan = micro::pan_switch_cycles(p, d);
        let mut lz_cols = vec![format!("{pan:.0}")];
        for &dn in &[2usize, 32, 128] {
            let v = micro::ttbr_switch_cycles(p, d, dn);
            lz_cols.push(format!("{v:.0}"));
        }
        let _ = domains;
        t.row(&[
            name.into(),
            "LightZone".into(),
            format!("{} (paper {:.0})", lz_cols[0], lz_ref[0]),
            format!("{} (paper {:.0})", lz_cols[1], lz_ref[1]),
            format!("{} (paper {:.0})", lz_cols[2], lz_ref[3]),
            format!("{} (paper {:.0})", lz_cols[3], lz_ref[5]),
        ]);
        let wp = micro::wp_switch_cycles(p, d, 2);
        let wp3 = micro::wp_switch_cycles(p, d, 3);
        t.row(&[
            name.into(),
            "Watchpoint".into(),
            format!("{:.0} (paper {:.0})", wp, wp_ref[0]),
            format!("{:.0} (paper {:.0})", wp3, wp_ref[1]),
            "- (16 max)".into(),
            "-".into(),
        ]);
    }
    out.push_str(&t.render());
    out
}
