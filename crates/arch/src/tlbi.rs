//! TLB-invalidate (`TLBI`) operation decode/encode.
//!
//! `TLBI` instructions live in the A64 system-instruction space
//! (`SYS`, op0=0b01, CRn=8). The `(op1, CRm, op2)` triple selects the
//! operation; the distinction that matters to the SMP machine model is
//! *shareability*: the plain forms (`VAE1`, `VMALLE1`, …) are required
//! to affect only the issuing PE, while the Inner Shareable forms
//! (`VAE1IS`, `VMALLE1IS`, …) are broadcast over the interconnect's
//! DVM network to every PE in the Inner Shareable domain.
//!
//! The single-core simulator used to collapse every CRn=8 access into
//! one "flush the VMID" operation. With `lz_machine::smp` the
//! difference is observable — a local `TLBI VAE1` must leave remote
//! cores' stale entries alone — so the decode is now exact.

/// The scope of a TLBI operation: which translations it removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbiScope {
    /// All stage-1 entries for the current VMID (`VMALLE1`).
    AllE1,
    /// Entries matching a VA, any ASID (`VAAE1`/`VAALE1`).
    VaAllAsid,
    /// Entries matching a VA and the ASID in Xt (`VAE1`/`VALE1`).
    Va,
    /// All entries for the ASID in Xt (`ASIDE1`).
    Asid,
    /// Stage-2 entries for an IPA (`IPAS2E1`/`IPAS2LE1`).
    Ipa,
    /// All stage-1+2 entries for the current VMID (`VMALLS12E1`,
    /// `ALLE1`).
    AllS12,
}

/// A decoded TLBI operation.
///
/// `broadcast` is `true` for the Inner Shareable (`…IS`) variants that
/// DVM-propagate to every core; `false` for the local forms that by
/// architecture affect only the issuing PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbiOp {
    pub scope: TlbiScope,
    pub broadcast: bool,
}

impl TlbiOp {
    pub const fn new(scope: TlbiScope, broadcast: bool) -> Self {
        TlbiOp { scope, broadcast }
    }

    /// Decode a CRn=8 `SYS` operation from its `(op1, CRm, op2)`
    /// fields. Returns `None` for encodings the simulator does not
    /// model (e.g. the EL3 or range-based `RVAE1` forms).
    pub fn decode(op1: u8, crm: u8, op2: u8) -> Option<TlbiOp> {
        use TlbiScope::*;
        let op = match (op1, crm, op2) {
            // EL1, Inner Shareable (CRm=3): broadcast.
            (0, 3, 0) => TlbiOp::new(AllE1, true),     // VMALLE1IS
            (0, 3, 1) => TlbiOp::new(Va, true),        // VAE1IS
            (0, 3, 2) => TlbiOp::new(Asid, true),      // ASIDE1IS
            (0, 3, 3) => TlbiOp::new(VaAllAsid, true), // VAAE1IS
            (0, 3, 5) => TlbiOp::new(Va, true),        // VALE1IS
            (0, 3, 7) => TlbiOp::new(VaAllAsid, true), // VAALE1IS
            // EL1, local (CRm=7): this PE only.
            (0, 7, 0) => TlbiOp::new(AllE1, false),     // VMALLE1
            (0, 7, 1) => TlbiOp::new(Va, false),        // VAE1
            (0, 7, 2) => TlbiOp::new(Asid, false),      // ASIDE1
            (0, 7, 3) => TlbiOp::new(VaAllAsid, false), // VAAE1
            (0, 7, 5) => TlbiOp::new(Va, false),        // VALE1
            (0, 7, 7) => TlbiOp::new(VaAllAsid, false), // VAALE1
            // EL2 stage-2 forms (op1=4).
            (4, 0, 1) => TlbiOp::new(Ipa, true),     // IPAS2E1IS
            (4, 0, 5) => TlbiOp::new(Ipa, true),     // IPAS2LE1IS
            (4, 4, 1) => TlbiOp::new(Ipa, false),    // IPAS2E1
            (4, 4, 5) => TlbiOp::new(Ipa, false),    // IPAS2LE1
            (4, 3, 4) => TlbiOp::new(AllS12, true),  // ALLE1IS
            (4, 3, 6) => TlbiOp::new(AllS12, true),  // VMALLS12E1IS
            (4, 7, 4) => TlbiOp::new(AllS12, false), // ALLE1
            (4, 7, 6) => TlbiOp::new(AllS12, false), // VMALLS12E1
            _ => return None,
        };
        Some(op)
    }

    /// The `(op1, CRm, op2)` fields encoding this operation.
    ///
    /// `Va`/`VaAllAsid` encode to the non-last-level forms (`VAE1*`,
    /// `VAAE1*`), `Ipa` to `IPAS2E1*`, and `AllS12` to `VMALLS12E1*`;
    /// decode accepts the leaf-only aliases too, so
    /// `decode(encode(op)) == op` but not the converse word-for-word.
    pub fn encode(&self) -> (u8, u8, u8) {
        use TlbiScope::*;
        match (self.scope, self.broadcast) {
            (AllE1, true) => (0, 3, 0),
            (Va, true) => (0, 3, 1),
            (Asid, true) => (0, 3, 2),
            (VaAllAsid, true) => (0, 3, 3),
            (AllE1, false) => (0, 7, 0),
            (Va, false) => (0, 7, 1),
            (Asid, false) => (0, 7, 2),
            (VaAllAsid, false) => (0, 7, 3),
            (Ipa, true) => (4, 0, 1),
            (Ipa, false) => (4, 4, 1),
            (AllS12, true) => (4, 3, 6),
            (AllS12, false) => (4, 7, 6),
        }
    }

    /// The full 32-bit `SYS` instruction word for this operation with
    /// register operand `xt` (`XZR` = 31 for operand-less forms).
    pub fn word(&self, xt: u8) -> u32 {
        let (op1, crm, op2) = self.encode();
        crate::insn::Insn::Sys { l: false, op1, crn: 8, crm, op2, rt: xt }.encode()
    }
}

/// Extract the page-aligned VA from a TLBI Xt operand (bits `[43:0]`
/// hold VA\[55:12\]).
pub fn xt_va(xt: u64) -> u64 {
    (xt & 0x0000_0FFF_FFFF_FFFF) << 12
}

/// Extract the ASID from a TLBI Xt operand (bits `[63:48]`).
pub fn xt_asid(xt: u64) -> u16 {
    (xt >> 48) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    const ALL_OPS: &[TlbiOp] = &[
        TlbiOp::new(TlbiScope::AllE1, false),
        TlbiOp::new(TlbiScope::AllE1, true),
        TlbiOp::new(TlbiScope::Va, false),
        TlbiOp::new(TlbiScope::Va, true),
        TlbiOp::new(TlbiScope::VaAllAsid, false),
        TlbiOp::new(TlbiScope::VaAllAsid, true),
        TlbiOp::new(TlbiScope::Asid, false),
        TlbiOp::new(TlbiScope::Asid, true),
        TlbiOp::new(TlbiScope::Ipa, false),
        TlbiOp::new(TlbiScope::Ipa, true),
        TlbiOp::new(TlbiScope::AllS12, false),
        TlbiOp::new(TlbiScope::AllS12, true),
    ];

    #[test]
    fn encode_decode_round_trip() {
        for &op in ALL_OPS {
            let (op1, crm, op2) = op.encode();
            assert_eq!(TlbiOp::decode(op1, crm, op2), Some(op), "{op:?}");
        }
    }

    #[test]
    fn word_decodes_as_sys_crn8() {
        for &op in ALL_OPS {
            let word = op.word(31);
            match Insn::decode(word) {
                Insn::Sys { l, op1, crn, crm, op2, rt } => {
                    assert!(!l);
                    assert_eq!(crn, 8);
                    assert_eq!(rt, 31);
                    assert_eq!(TlbiOp::decode(op1, crm, op2), Some(op));
                }
                other => panic!("{word:#010x} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn vmalle1_matches_known_encoding() {
        // `tlbi vmalle1` = 0xD508871F (gate.rs uses this literal).
        assert_eq!(TlbiOp::new(TlbiScope::AllE1, false).word(31), 0xD508_871F);
    }

    #[test]
    fn is_variants_are_distinct_from_local() {
        // VAE1IS vs VAE1 differ only in CRm (3 vs 7) and must decode
        // to distinct ops.
        let is = TlbiOp::decode(0, 3, 1).unwrap();
        let local = TlbiOp::decode(0, 7, 1).unwrap();
        assert_eq!(is.scope, local.scope);
        assert!(is.broadcast && !local.broadcast);
        // Named spot checks from the issue list.
        assert_eq!(TlbiOp::decode(0, 3, 0), Some(TlbiOp::new(TlbiScope::AllE1, true))); // VMALLE1IS
        assert_eq!(TlbiOp::decode(0, 3, 2), Some(TlbiOp::new(TlbiScope::Asid, true))); // ASIDE1IS
        assert_eq!(TlbiOp::decode(4, 0, 1), Some(TlbiOp::new(TlbiScope::Ipa, true)));
        // IPAS2E1IS
    }

    #[test]
    fn leaf_aliases_decode_to_same_scope() {
        // VALE1(IS) and VAALE1(IS) are last-level-only aliases; the
        // model treats them as their non-leaf counterparts.
        assert_eq!(TlbiOp::decode(0, 7, 5), TlbiOp::decode(0, 7, 1));
        assert_eq!(TlbiOp::decode(0, 3, 7), TlbiOp::decode(0, 3, 3));
    }

    #[test]
    fn unmodelled_encodings_are_none() {
        assert_eq!(TlbiOp::decode(0, 2, 1), None); // RVAE1IS (range)
        assert_eq!(TlbiOp::decode(6, 7, 0), None); // EL3
    }

    #[test]
    fn xt_field_extraction() {
        let xt = (0x002A_u64 << 48) | (0x0000_0040_0000u64 >> 12);
        assert_eq!(xt_asid(xt), 0x2A);
        assert_eq!(xt_va(xt), 0x40_0000);
    }
}
