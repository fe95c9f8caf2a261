//! Translation table descriptor formats (VMSAv8-64, 4 KB granule).
//!
//! Stage-1 tables are 4-level (48-bit VA); stage-2 tables are 3-level
//! (40-bit IPA), matching the paper's evaluation setup ("four-level
//! stage-1 page tables and three-level stage-2 page tables", §8).

/// Descriptor valid bit.
pub const VALID: u64 = 1 << 0;
/// Bit 1: at levels 0–2, 1 = table descriptor; at level 3, must be 1 for a
/// page descriptor. A cleared bit 1 at levels 1–2 is a *block* descriptor.
pub const TABLE_OR_PAGE: u64 = 1 << 1;
/// Access flag: cleared descriptors raise an access-flag fault.
pub const AF: u64 = 1 << 10;
/// Not-global: translations are keyed by ASID. Cleared = global entry.
pub const NG: u64 = 1 << 11;
/// Output-address field (bits 47:12).
pub const OA_MASK: u64 = 0x0000_ffff_ffff_f000;

/// Stage-1 permission and attribute bits.
pub mod s1 {
    /// `AP[1]` (bit 6): 1 = accessible from EL0 — the "user page" bit that
    /// PAN keys on.
    pub const AP_EL0: u64 = 1 << 6;
    /// `AP[2]` (bit 7): 1 = read-only.
    pub const AP_RO: u64 = 1 << 7;
    /// Privileged execute-never.
    pub const PXN: u64 = 1 << 53;
    /// Unprivileged (EL0) execute-never.
    pub const UXN: u64 = 1 << 54;
}

/// Stage-2 permission and attribute bits.
pub mod s2 {
    /// `S2AP[0]` (bit 6): read permitted.
    pub const READ: u64 = 1 << 6;
    /// `S2AP[1]` (bit 7): write permitted.
    pub const WRITE: u64 = 1 << 7;
    /// Execute-never (`XN[1]` treated as a single bit here).
    pub const XN: u64 = 1 << 54;
}

/// Software-defined permission set used when *building* tables.
///
/// This is the substrate-facing abstraction: the kernel and LightZone
/// module think in these terms and the mapper lowers them to descriptor
/// bits; the walker only ever reads the architectural bits back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct S1Perms {
    /// Readable (descriptors cannot express "no read" at stage 1; a
    /// non-readable page is simply left unmapped — kept here so permission
    /// intersection logic is uniform).
    pub read: bool,
    /// Writable (`!AP_RO`).
    pub write: bool,
    /// Executable from EL0 (`!UXN`).
    pub user_exec: bool,
    /// Executable from EL1 (`!PXN`).
    pub priv_exec: bool,
    /// Accessible from EL0 (`AP_EL0`) — the *user page* marker that PAN
    /// keys on. LightZone's PAN mechanism marks protected pages with this
    /// bit (paper §6.1).
    pub el0: bool,
    /// Global (`!nG`): visible under every ASID. LightZone sets this on
    /// unprotected memory so TTBR0 switches do not thrash the TLB (§8.2).
    pub global: bool,
}

impl S1Perms {
    /// Kernel r/w data: privileged-only, non-executable, non-global.
    pub const fn kernel_data() -> Self {
        S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: false, global: false }
    }

    /// Encode into descriptor attribute bits.
    pub fn to_bits(self) -> u64 {
        let mut d = AF;
        if self.el0 {
            d |= s1::AP_EL0;
        }
        if !self.write {
            d |= s1::AP_RO;
        }
        if !self.user_exec {
            d |= s1::UXN;
        }
        if !self.priv_exec {
            d |= s1::PXN;
        }
        if !self.global {
            d |= NG;
        }
        d
    }

    /// Decode from descriptor attribute bits.
    pub fn from_bits(d: u64) -> Self {
        S1Perms {
            read: true,
            write: d & s1::AP_RO == 0,
            user_exec: d & s1::UXN == 0,
            priv_exec: d & s1::PXN == 0,
            el0: d & s1::AP_EL0 != 0,
            global: d & NG == 0,
        }
    }
}

/// Stage-2 software permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct S2Perms {
    pub read: bool,
    pub write: bool,
    pub exec: bool,
}

impl S2Perms {
    /// Full access.
    pub const fn rwx() -> Self {
        S2Perms { read: true, write: true, exec: true }
    }

    /// Read-only, no execute (stage-1 tables of LightZone processes are
    /// mapped read-only at stage 2, §5.1.2).
    pub const fn ro() -> Self {
        S2Perms { read: true, write: false, exec: false }
    }

    /// Encode into descriptor attribute bits.
    pub fn to_bits(self) -> u64 {
        let mut d = AF;
        if self.read {
            d |= s2::READ;
        }
        if self.write {
            d |= s2::WRITE;
        }
        if !self.exec {
            d |= s2::XN;
        }
        d
    }

    /// Decode from descriptor attribute bits.
    pub fn from_bits(d: u64) -> Self {
        S2Perms { read: d & s2::READ != 0, write: d & s2::WRITE != 0, exec: d & s2::XN == 0 }
    }
}

/// Build a table descriptor pointing at the next-level table.
pub fn table_desc(next_pa: u64) -> u64 {
    (next_pa & OA_MASK) | TABLE_OR_PAGE | VALID
}

/// Build a stage-1 page (level 3) descriptor.
pub fn s1_page_desc(pa: u64, perms: S1Perms) -> u64 {
    (pa & OA_MASK) | perms.to_bits() | TABLE_OR_PAGE | VALID
}

/// Build a stage-1 block (level 2, 2 MiB) descriptor.
pub fn s1_block_desc(pa: u64, perms: S1Perms) -> u64 {
    (pa & OA_MASK) | perms.to_bits() | VALID
}

/// Build a stage-2 page (level 3) descriptor.
pub fn s2_page_desc(pa: u64, perms: S2Perms) -> u64 {
    (pa & OA_MASK) | perms.to_bits() | TABLE_OR_PAGE | VALID
}

/// Build a stage-2 block (level 2, 2 MiB) descriptor.
pub fn s2_block_desc(pa: u64, perms: S2Perms) -> u64 {
    (pa & OA_MASK) | perms.to_bits() | VALID
}

/// Output address of a descriptor.
pub fn desc_oa(desc: u64) -> u64 {
    desc & OA_MASK
}

/// Is this descriptor valid?
pub fn is_valid(desc: u64) -> bool {
    desc & VALID != 0
}

/// At `level`, is this valid descriptor a table pointer?
pub fn is_table(desc: u64, level: u8) -> bool {
    level < 3 && desc & TABLE_OR_PAGE != 0
}

/// At levels 1–2, is this valid descriptor a block mapping?
pub fn is_block(desc: u64, level: u8) -> bool {
    (1..3).contains(&level) && desc & TABLE_OR_PAGE == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_perms_roundtrip() {
        for write in [false, true] {
            for user_exec in [false, true] {
                for priv_exec in [false, true] {
                    for el0 in [false, true] {
                        for global in [false, true] {
                            let p = S1Perms { read: true, write, user_exec, priv_exec, el0, global };
                            assert_eq!(S1Perms::from_bits(p.to_bits()), p);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn s2_perms_roundtrip() {
        for read in [false, true] {
            for write in [false, true] {
                for exec in [false, true] {
                    let p = S2Perms { read, write, exec };
                    assert_eq!(S2Perms::from_bits(p.to_bits()), p);
                }
            }
        }
    }

    #[test]
    fn descriptor_kinds() {
        let t = table_desc(0x4000_0000);
        assert!(is_valid(t) && is_table(t, 0) && is_table(t, 2) && !is_table(t, 3));
        let b = s1_block_desc(0x4020_0000, S1Perms::kernel_data());
        assert!(is_valid(b) && is_block(b, 2) && !is_block(b, 0) && !is_table(b, 2));
        let p = s1_page_desc(0x4000_1000, S1Perms::kernel_data());
        assert!(is_valid(p) && !is_block(p, 3));
        assert_eq!(desc_oa(p), 0x4000_1000);
    }

    #[test]
    fn oa_field_masks_low_and_high_bits() {
        let d = s1_page_desc(0xffff_ffff_ffff_ffff, S1Perms::kernel_data());
        assert_eq!(desc_oa(d), OA_MASK);
    }

    #[test]
    fn kernel_data_is_pan_safe() {
        // Kernel data must not carry the EL0 bit, or PAN would block the
        // normal domain.
        assert_eq!(S1Perms::kernel_data().to_bits() & s1::AP_EL0, 0);
    }
}
