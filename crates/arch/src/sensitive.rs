//! Sensitive-instruction classification — the paper's Table 3.
//!
//! Certain instructions behave differently in user and kernel mode and
//! cannot all be trapped by hypervisor configuration registers (e.g.
//! `TTBR0_EL1` updates must be *allowed inside the call gate* but nowhere
//! else). The instruction sanitizer therefore scans every executable page
//! and rejects pages containing forbidden encodings before mapping them
//! executable (see `lightzone::sanitizer` for the W^X / break-before-make
//! enforcement that makes the scan TOCTTOU-safe).
//!
//! Classification operates on **raw 32-bit words**, exactly as a binary
//! sanitizer must: it needs no compiler support and therefore works on
//! pre-compiled binaries (the PCB column of the paper's Table 1).

use crate::bits::extract;
use crate::insn::{PSTATE_PAN_OP1, PSTATE_PAN_OP2};
use crate::sysreg::{SysReg, SysRegEnc};

/// Which in-process isolation mechanism the scanned code will run under.
///
/// Table 3 has one "allowed?" column per mechanism: ① TTBR-based scalable
/// isolation, ② PAN-based two-domain isolation. `lz_enter`'s `insn_san`
/// argument selects the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SanitizeMode {
    /// Column ① — the process switches stage-1 page tables via the call
    /// gate; unprivileged loads/stores are harmless (stage-2 still
    /// applies) and `MSR TTBR0_EL1` is allowed *only inside the gate*.
    Ttbr,
    /// Column ② — the process uses PAN for isolation; unprivileged
    /// loads/stores would bypass PAN (they always act as EL0 accesses)
    /// and must be rejected, as must TTBR0 writes.
    Pan,
    /// Both mechanisms are live in the same process (Listing 1 uses PAN
    /// *and* TTBR simultaneously): an instruction must be allowed by
    /// *both* columns.
    Both,
}

/// Classification verdict for one instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnClass {
    /// Not sensitive; may appear anywhere.
    Allowed,
    /// Sensitive and never allowed in application pages.
    Forbidden(Sensitivity),
    /// Allowed only within the TTBR1-mapped secure call gate
    /// (`MSR TTBR0_EL1, xt` under [`SanitizeMode::Ttbr`]).
    GateOnly,
}

/// Why an instruction is sensitive (Table 3 "type" column plus the
/// specific row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// `ERET` — exception return would let the process forge a PSTATE.
    ExceptionReturn,
    /// `LDTR`/`STTR` family under PAN-based isolation — they access
    /// memory with EL0 privilege, ignoring PAN.
    UnprivilegedLoadStore,
    /// `MSR <pstate>, #imm` other than PAN (e.g. SPSel, DAIF).
    PstateImm,
    /// `SYS`/`SYSL` with CRn=7 — cache maintenance.
    CacheMaintenance,
    /// `MSR`/`MRS` of a CRn=4 register other than NZCV/FPCR/FPSR
    /// (SPSR_EL1, ELR_EL1, SP_EL0, …).
    ExceptionStateRegister,
    /// `MSR`/`MRS` of a privileged (op1 != 3) system register other than
    /// `TTBR0_EL1`.
    PrivilegedSysreg,
    /// `MSR`/`MRS` of `TTBR0_EL1` outside the call gate, or at all under
    /// PAN-only sanitization.
    TranslationTableBase,
}

/// Classify one instruction word under `mode` (Table 3).
///
/// Instructions that are architecturally *trapped* by hypervisor
/// configuration registers (TLB maintenance via `HCR_EL2.TTLB`, stage-1
/// control via `TVM`/`TRVM`) do not need sanitizing and are reported as
/// [`InsnClass::Allowed`]; the trap, not the sanitizer, confines them.
///
/// ```
/// use lz_arch::sensitive::{classify, InsnClass, SanitizeMode};
///
/// // `eret` is forbidden everywhere.
/// assert!(matches!(classify(0xD69F03E0, SanitizeMode::Ttbr), InsnClass::Forbidden(_)));
/// // `msr pan, #1` is fine under both mechanisms.
/// assert_eq!(classify(0xD500419F, SanitizeMode::Both), InsnClass::Allowed);
/// ```
pub fn classify(word: u32, mode: SanitizeMode) -> InsnClass {
    if let SanitizeMode::Both = mode {
        let a = classify(word, SanitizeMode::Ttbr);
        let b = classify(word, SanitizeMode::Pan);
        return match (a, b) {
            (InsnClass::Allowed, InsnClass::Allowed) => InsnClass::Allowed,
            // The gate itself is sanitized in TTBR mode; application pages
            // containing TTBR writes are rejected under Both because the
            // PAN column forbids them.
            (x, InsnClass::Allowed) => x,
            (_, y) => y,
        };
    }

    // ERET — exception generation-and-return class, opc=0100.
    if word == 0xD69F_03E0 {
        return InsnClass::Forbidden(Sensitivity::ExceptionReturn);
    }

    // Unprivileged load/store class: size 111 0 00 opc 0 imm9 10 Rn Rt.
    if extract(word, 29, 24) == 0b111000
        && crate::bits::bit(word, 26) == 0
        && crate::bits::bit(word, 21) == 0
        && extract(word, 11, 10) == 0b10
    {
        return match mode {
            SanitizeMode::Ttbr => InsnClass::Allowed,
            _ => InsnClass::Forbidden(Sensitivity::UnprivilegedLoadStore),
        };
    }

    // System instruction space: bits(31,22) = 0b1101010100.
    if extract(word, 31, 22) == 0b11_0101_0100 {
        let enc = SysRegEnc::from_word(word);
        match enc.op0 {
            0b00 => {
                // MSR immediate rows: op0=0b00 && CRn=0b0100.
                if enc.crn == 0b0100 {
                    let is_pan = enc.op1 == PSTATE_PAN_OP1 && enc.op2 == PSTATE_PAN_OP2;
                    return if is_pan { InsnClass::Allowed } else { InsnClass::Forbidden(Sensitivity::PstateImm) };
                }
                // Hints and barriers are harmless.
                InsnClass::Allowed
            }
            0b01 => {
                // SYS/SYSL. Cache maintenance (CRn=7) must be sanitized;
                // TLB maintenance (CRn=8) is trapped by HCR_EL2.TTLB so it
                // does not need to be (§5.1.1).
                if enc.crn == 7 {
                    InsnClass::Forbidden(Sensitivity::CacheMaintenance)
                } else {
                    InsnClass::Allowed
                }
            }
            0b10 => {
                // Debug-register space — not reachable by our encoder, but a
                // malicious binary could contain it; treat as privileged.
                InsnClass::Forbidden(Sensitivity::PrivilegedSysreg)
            }
            _ => {
                // op0 = 0b11: MSR/MRS register form.
                if enc.crn == 4 {
                    // Allowed only for NZCV, FPCR, FPSR.
                    let target = SysReg::from_encoding(enc);
                    return match target {
                        Some(SysReg::NZCV) | Some(SysReg::FPCR) | Some(SysReg::FPSR) => InsnClass::Allowed,
                        _ => InsnClass::Forbidden(Sensitivity::ExceptionStateRegister),
                    };
                }
                let is_ttbr0 = enc == SysReg::TTBR0_EL1.encoding();
                if is_ttbr0 {
                    return match mode {
                        SanitizeMode::Ttbr => InsnClass::GateOnly,
                        _ => InsnClass::Forbidden(Sensitivity::TranslationTableBase),
                    };
                }
                if enc.op1 == 0b011 {
                    // EL0-accessible registers (TPIDR_EL0, counters, …).
                    return InsnClass::Allowed;
                }
                InsnClass::Forbidden(Sensitivity::PrivilegedSysreg)
            }
        }
    } else {
        InsnClass::Allowed
    }
}

/// Could [`classify`] reject `word` in some [`SanitizeMode`]? Only ERET,
/// the unprivileged load/store class (bits\[29:24\] = `0b111000`) and the
/// system-instruction space (bits\[31:22\] = `0b1101010100`) can be
/// sensitive; every other word classifies as [`InsnClass::Allowed`] in
/// all three modes, so a scan skips it without classifying.
///
/// ```
/// use lz_arch::sensitive::may_be_sensitive;
///
/// assert!(may_be_sensitive(0xD69F03E0)); // eret
/// assert!(!may_be_sensitive(0xD65F03C0)); // ret
/// ```
#[inline]
pub fn may_be_sensitive(word: u32) -> bool {
    word == 0xD69F_03E0 || extract(word, 29, 24) == 0b111000 || extract(word, 31, 22) == 0b11_0101_0100
}

/// Scan a page-worth of code and return the first offending word, if any.
///
/// Returns `Err((byte_offset, class))` for the first word that is not
/// [`InsnClass::Allowed`]. Gate-only instructions are offending here: this
/// function is used on *application* pages; the gate pages are emitted and
/// mapped by the trusted kernel module, never scanned. A trailing partial
/// word is zero-padded.
pub fn scan_code(bytes: &[u8], mode: SanitizeMode) -> Result<(), (usize, InsnClass)> {
    let words = bytes.chunks_exact(4);
    let mut tail = [0u8; 4];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let tail = (!words.remainder().is_empty()).then_some(tail);
    let words = words.map(|w| [w[0], w[1], w[2], w[3]]).chain(tail).map(u32::from_le_bytes);
    for (i, word) in words.enumerate() {
        if !may_be_sensitive(word) {
            continue;
        }
        match classify(word, mode) {
            InsnClass::Allowed => {}
            class => return Err((i * 4, class)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Insn;
    use crate::sysreg::SysReg;

    fn word(i: Insn) -> u32 {
        i.encode()
    }

    #[test]
    fn eret_forbidden_in_both_modes() {
        for mode in [SanitizeMode::Ttbr, SanitizeMode::Pan, SanitizeMode::Both] {
            assert_eq!(classify(0xD69F_03E0, mode), InsnClass::Forbidden(Sensitivity::ExceptionReturn));
        }
    }

    #[test]
    fn ldtr_allowed_in_ttbr_forbidden_in_pan() {
        let w = word(Insn::Ldtr { rt: 0, rn: 1, offset: 0, size: crate::insn::MemSize::X });
        assert_eq!(classify(w, SanitizeMode::Ttbr), InsnClass::Allowed);
        assert_eq!(classify(w, SanitizeMode::Pan), InsnClass::Forbidden(Sensitivity::UnprivilegedLoadStore));
        assert_eq!(classify(w, SanitizeMode::Both), InsnClass::Forbidden(Sensitivity::UnprivilegedLoadStore));
    }

    #[test]
    fn sttr_forbidden_in_pan() {
        let w = word(Insn::Sttr { rt: 2, rn: 3, offset: -8, size: crate::insn::MemSize::B });
        assert!(matches!(classify(w, SanitizeMode::Pan), InsnClass::Forbidden(_)));
    }

    #[test]
    fn msr_pan_imm_allowed_everywhere() {
        for mode in [SanitizeMode::Ttbr, SanitizeMode::Pan, SanitizeMode::Both] {
            assert_eq!(classify(0xD500_419F, mode), InsnClass::Allowed);
            assert_eq!(classify(0xD500_409F, mode), InsnClass::Allowed);
        }
    }

    #[test]
    fn msr_spsel_imm_forbidden() {
        let w = word(Insn::MsrImm { op1: crate::insn::PSTATE_SPSEL_OP1, crm: 1, op2: crate::insn::PSTATE_SPSEL_OP2 });
        assert_eq!(classify(w, SanitizeMode::Ttbr), InsnClass::Forbidden(Sensitivity::PstateImm));
    }

    #[test]
    fn msr_daif_imm_forbidden() {
        let w = word(Insn::MsrImm { op1: 0b011, crm: 0b0010, op2: crate::insn::PSTATE_DAIFSET_OP2 });
        assert!(matches!(classify(w, SanitizeMode::Pan), InsnClass::Forbidden(_)));
    }

    #[test]
    fn dc_cache_op_forbidden() {
        // dc civac, x0 — op0=01, CRn=7.
        assert_eq!(classify(0xD50B_7E20, SanitizeMode::Ttbr), InsnClass::Forbidden(Sensitivity::CacheMaintenance));
    }

    #[test]
    fn tlbi_not_sanitized_because_trapped() {
        // tlbi vmalle1 — CRn=8 — confined by HCR_EL2.TTLB instead.
        assert_eq!(classify(0xD508_871F, SanitizeMode::Ttbr), InsnClass::Allowed);
    }

    #[test]
    fn msr_ttbr0_gate_only_in_ttbr_mode() {
        assert_eq!(classify(0xD518_2000, SanitizeMode::Ttbr), InsnClass::GateOnly);
        assert_eq!(classify(0xD518_2000, SanitizeMode::Pan), InsnClass::Forbidden(Sensitivity::TranslationTableBase));
    }

    #[test]
    fn mrs_ttbr0_gate_only_in_ttbr_mode() {
        // Reads also reveal the table base and are gate-only.
        assert_eq!(classify(0xD538_2003, SanitizeMode::Ttbr), InsnClass::GateOnly);
    }

    #[test]
    fn msr_ttbr1_always_forbidden() {
        // The gate's own integrity rests on TTBR1 immutability (§6.2).
        let w = word(Insn::MsrReg { enc: SysReg::TTBR1_EL1.encoding(), rt: 0 });
        for mode in [SanitizeMode::Ttbr, SanitizeMode::Pan] {
            assert!(matches!(classify(w, mode), InsnClass::Forbidden(_)), "mode {mode:?}");
        }
    }

    #[test]
    fn msr_vbar_forbidden() {
        let w = word(Insn::MsrReg { enc: SysReg::VBAR_EL1.encoding(), rt: 5 });
        assert_eq!(classify(w, SanitizeMode::Ttbr), InsnClass::Forbidden(Sensitivity::PrivilegedSysreg));
    }

    #[test]
    fn msr_elr_spsr_forbidden_as_crn4() {
        for reg in [SysReg::ELR_EL1, SysReg::SPSR_EL1, SysReg::SP_EL0] {
            let w = word(Insn::MsrReg { enc: reg.encoding(), rt: 0 });
            assert_eq!(
                classify(w, SanitizeMode::Ttbr),
                InsnClass::Forbidden(Sensitivity::ExceptionStateRegister),
                "reg {reg}"
            );
        }
    }

    #[test]
    fn nzcv_fpcr_fpsr_allowed() {
        for reg in [SysReg::NZCV, SysReg::FPCR, SysReg::FPSR] {
            for l in [false, true] {
                let w = if l {
                    word(Insn::MrsReg { enc: reg.encoding(), rt: 0 })
                } else {
                    word(Insn::MsrReg { enc: reg.encoding(), rt: 0 })
                };
                assert_eq!(classify(w, SanitizeMode::Ttbr), InsnClass::Allowed, "reg {reg}");
            }
        }
    }

    #[test]
    fn el0_regs_allowed() {
        let w = word(Insn::MsrReg { enc: SysReg::TPIDR_EL0.encoding(), rt: 1 });
        assert_eq!(classify(w, SanitizeMode::Pan), InsnClass::Allowed);
    }

    #[test]
    fn ordinary_code_scans_clean() {
        let mut a = Asm::new(0);
        a.mov_imm64(0, 0x1234_5678);
        a.ldr(1, 0, 8);
        a.add_reg(2, 1, 0);
        a.str(2, 0, 16);
        a.svc(0);
        a.ret();
        assert_eq!(scan_code(&a.bytes(), SanitizeMode::Both), Ok(()));
    }

    #[test]
    fn scan_reports_offset_of_offender() {
        let mut a = Asm::new(0);
        a.nop().nop();
        a.eret(); // offset 8
        a.nop();
        let err = scan_code(&a.bytes(), SanitizeMode::Ttbr).unwrap_err();
        assert_eq!(err.0, 8);
    }

    #[test]
    fn scan_handles_trailing_partial_word() {
        // Partial trailing bytes are zero-padded; 0x00000000 decodes as
        // Unallocated and is not sensitive.
        let bytes = [0x1f, 0x20, 0x03, 0xd5, 0xaa];
        assert_eq!(scan_code(&bytes, SanitizeMode::Both), Ok(()));
    }
}
