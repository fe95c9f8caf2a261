//! Property-based tests for the A64 encoder/decoder and the
//! sensitive-instruction classifier.

use lz_arch::insn::{Cond, Insn, LogicOp, MemSize};
use lz_arch::sensitive::{classify, may_be_sensitive, scan_code, InsnClass, SanitizeMode, Sensitivity};
use lz_arch::sysreg::{SysReg, SysRegEnc};
use proptest::prelude::*;

fn any_memsize() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B), Just(MemSize::H), Just(MemSize::W), Just(MemSize::X)]
}

fn any_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Cs),
        Just(Cond::Cc),
        Just(Cond::Mi),
        Just(Cond::Pl),
        Just(Cond::Hi),
        Just(Cond::Ls),
        Just(Cond::Ge),
        Just(Cond::Lt),
        Just(Cond::Gt),
        Just(Cond::Le),
    ]
}

fn any_logic() -> impl Strategy<Value = LogicOp> {
    prop_oneof![Just(LogicOp::And), Just(LogicOp::Orr), Just(LogicOp::Eor), Just(LogicOp::Ands)]
}

fn any_sysreg() -> impl Strategy<Value = SysReg> {
    proptest::sample::select(SysReg::ALL.to_vec())
}

prop_compose! {
    fn branch_offset(bits: u32)(words in -(1i64 << (bits - 1))..(1i64 << (bits - 1))) -> i64 {
        words * 4
    }
}

fn any_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (0u8..32, any::<u16>(), 0u8..4).prop_map(|(rd, imm16, hw)| Insn::Movz { rd, imm16, hw }),
        (0u8..32, any::<u16>(), 0u8..4).prop_map(|(rd, imm16, hw)| Insn::Movk { rd, imm16, hw }),
        (0u8..32, any::<u16>(), 0u8..4).prop_map(|(rd, imm16, hw)| Insn::Movn { rd, imm16, hw }),
        (0u8..32, 0u8..32, 0u16..4096, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(rd, rn, imm12, shift12, sub, set_flags)| Insn::AddImm { rd, rn, imm12, shift12, sub, set_flags }
        ),
        (0u8..32, 0u8..32, 0u8..32, 0u8..64, any::<bool>(), any::<bool>())
            .prop_map(|(rd, rn, rm, shift, sub, set_flags)| Insn::AddReg { rd, rn, rm, shift, sub, set_flags }),
        (0u8..32, 0u8..32, 0u8..32, 0u8..64, any_logic()).prop_map(|(rd, rn, rm, shift, op)| Insn::LogicReg {
            rd,
            rn,
            rm,
            shift,
            op
        }),
        (0u8..32, 0u8..32, 0u8..64).prop_map(|(rd, rn, shift)| Insn::LsrImm { rd, rn, shift }),
        (0u8..32, 0u8..32, 1u8..64).prop_map(|(rd, rn, shift)| Insn::LslImm { rd, rn, shift }),
        (0u8..32, 0u8..32, 0u64..512, any_memsize()).prop_map(|(rt, rn, idx, size)| Insn::LdrImm {
            rt,
            rn,
            offset: idx * size.bytes(),
            size
        }),
        (0u8..32, 0u8..32, 0u64..512, any_memsize()).prop_map(|(rt, rn, idx, size)| Insn::StrImm {
            rt,
            rn,
            offset: idx * size.bytes(),
            size
        }),
        (0u8..32, 0u8..32, -256i64..256, any_memsize()).prop_map(|(rt, rn, offset, size)| Insn::Sttr {
            rt,
            rn,
            offset,
            size
        }),
        (0u8..32, 0u8..32, 0u8..32, -64i64..64).prop_map(|(rt, rt2, rn, scaled)| Insn::Ldp {
            rt,
            rt2,
            rn,
            offset: scaled * 8
        }),
        (0u8..32, 0u8..32, 0u8..32, -64i64..64).prop_map(|(rt, rt2, rn, scaled)| Insn::Stp {
            rt,
            rt2,
            rn,
            offset: scaled * 8
        }),
        (0u8..32, 0u8..32, 0u8..32, 0u8..32).prop_map(|(rd, rn, rm, ra)| Insn::Madd { rd, rn, rm, ra }),
        (0u8..32, 0u8..32, 0u8..32).prop_map(|(rd, rn, rm)| Insn::Udiv { rd, rn, rm }),
        (0u8..32, 0u8..32, 0u8..32, any_cond()).prop_map(|(rd, rn, rm, cond)| Insn::Csel { rd, rn, rm, cond }),
        (0u8..32, 0u8..32, 0u8..32, any_cond()).prop_map(|(rd, rn, rm, cond)| Insn::Csinc { rd, rn, rm, cond }),
        branch_offset(26).prop_map(|offset| Insn::B { offset }),
        branch_offset(26).prop_map(|offset| Insn::Bl { offset }),
        (any_cond(), branch_offset(19)).prop_map(|(cond, offset)| Insn::BCond { cond, offset }),
        (0u8..32, branch_offset(19), any::<bool>()).prop_map(|(rt, offset, nonzero)| Insn::Cbz { rt, offset, nonzero }),
        (0u8..32).prop_map(|rn| Insn::Br { rn }),
        (0u8..32).prop_map(|rn| Insn::Blr { rn }),
        (0u8..32).prop_map(|rn| Insn::Ret { rn }),
        any::<u16>().prop_map(|imm| Insn::Svc { imm }),
        any::<u16>().prop_map(|imm| Insn::Hvc { imm }),
        any::<u16>().prop_map(|imm| Insn::Brk { imm }),
        Just(Insn::Eret),
        Just(Insn::Nop),
        (any_sysreg(), 0u8..32).prop_map(|(r, rt)| Insn::MsrReg { enc: r.encoding(), rt }),
        (any_sysreg(), 0u8..32).prop_map(|(r, rt)| Insn::MrsReg { enc: r.encoding(), rt }),
        (0u8..2).prop_map(|imm| Insn::MsrImm {
            op1: lz_arch::insn::PSTATE_PAN_OP1,
            crm: imm,
            op2: lz_arch::insn::PSTATE_PAN_OP2
        }),
    ]
}

const MODES: [SanitizeMode; 3] = [SanitizeMode::Ttbr, SanitizeMode::Pan, SanitizeMode::Both];

fn any_mode() -> impl Strategy<Value = SanitizeMode> {
    proptest::sample::select(MODES.to_vec())
}

/// One Table 3 word per [`Sensitivity`] variant, plus a gate-only read.
/// `msr ttbr0_el1` is [`InsnClass::GateOnly`] under TTBR sanitization and
/// `TranslationTableBase` under PAN; `ldtr` is allowed under TTBR only.
const TABLE3: [(u32, Sensitivity); 8] = [
    (0xD69F_03E0, Sensitivity::ExceptionReturn),        // eret
    (0x3840_0820, Sensitivity::UnprivilegedLoadStore),  // ldtrb w0, [x1]
    (0xD500_40BF, Sensitivity::PstateImm),              // msr spsel, #0
    (0xD50B_7E20, Sensitivity::CacheMaintenance),       // dc civac, x0
    (0xD518_4020, Sensitivity::ExceptionStateRegister), // msr elr_el1, x0
    (0xD518_C000, Sensitivity::PrivilegedSysreg),       // msr vbar_el1, x0
    (0xD518_2000, Sensitivity::TranslationTableBase),   // msr ttbr0_el1, x0
    (0xD538_2003, Sensitivity::TranslationTableBase),   // mrs x3, ttbr0_el1
];

/// Words from the three spaces the sanitizer prefilter keeps — the system
/// instruction space (bits[31:22] = 0b1101010100), the unprivileged
/// load/store class (bits[29:24] = 0b111000, optionally with the fixed
/// `LDTR`/`STTR` bits) and Table 3 itself — two times in three with one
/// bit flipped, so words just outside the kept spaces are drawn too. Random
/// words alone land in the system space once in 1,024.
fn any_scanned_word() -> impl Strategy<Value = u32> {
    let kept = prop_oneof![
        any::<u32>().prop_map(|w| (w & 0x003F_FFFF) | 0xD500_0000),
        any::<u32>().prop_map(|w| (w & !0x3F00_0000) | 0x3800_0000),
        any::<u32>().prop_map(|w| (w & !0x3F20_0C00) | 0x3800_0800),
        proptest::sample::select(TABLE3.map(|(w, _)| w).to_vec()),
    ];
    prop_oneof![any::<u32>(), (kept, 0u32..48).prop_map(|(w, bit)| if bit < 32 { w ^ (1 << bit) } else { w })]
}

/// Filler for a scanned page: mostly clean code, sometimes a random word
/// (which may itself be sensitive).
fn filler_word() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0xD503_201Fu32), Just(0xD65F_03C0u32), any::<u32>(), any::<u32>()]
}

/// The scan's reference: classify every (zero-padded) word in order.
fn first_offender(bytes: &[u8], mode: SanitizeMode) -> Result<(), (usize, InsnClass)> {
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        match classify(u32::from_le_bytes(w), mode) {
            InsnClass::Allowed => {}
            class => return Err((i * 4, class)),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The scan's prefilter never skips a word `classify` could reject:
    /// in every mode, a word it skips classifies as Allowed.
    #[test]
    fn prefilter_skips_only_allowed_words(word in any_scanned_word()) {
        for mode in MODES {
            prop_assert!(
                may_be_sensitive(word) || classify(word, mode) == InsnClass::Allowed,
                "{word:#010x} skipped but not Allowed under {mode:?}"
            );
        }
    }
}

proptest! {
    /// Every constructible instruction survives an encode/decode roundtrip.
    #[test]
    fn encode_decode_roundtrip(insn in any_insn()) {
        let word = insn.encode();
        prop_assert_eq!(Insn::decode(word), insn);
    }

    /// Decoding never panics on arbitrary words.
    #[test]
    fn decode_total(word in any::<u32>()) {
        let _ = Insn::decode(word);
    }

    /// Classification never panics and is consistent: `Both` is at least as
    /// strict as each individual mode.
    #[test]
    fn classify_both_is_strictest(word in any::<u32>()) {
        let both = classify(word, SanitizeMode::Both);
        if both == InsnClass::Allowed {
            prop_assert_eq!(classify(word, SanitizeMode::Ttbr), InsnClass::Allowed);
            prop_assert_eq!(classify(word, SanitizeMode::Pan), InsnClass::Allowed);
        }
    }

    /// A Table 3 word planted at any word offset of a page-sized scan is
    /// found unless an earlier word is: the scan reports exactly the offset
    /// and class a per-word `classify` loop does, in every mode, with or
    /// without a trailing partial word.
    #[test]
    fn scan_finds_planted_eret(
        prefix in proptest::collection::vec(filler_word(), 0..1024),
        planted in 0usize..TABLE3.len(),
        suffix in proptest::collection::vec(filler_word(), 0..16),
        tail in proptest::collection::vec(any::<u8>(), 0..4),
        mode in any_mode(),
    ) {
        let (word, sensitivity) = TABLE3[planted];
        let mut bytes: Vec<u8> = prefix.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend_from_slice(&word.to_le_bytes());
        bytes.extend(suffix.iter().flat_map(|w| w.to_le_bytes()));
        bytes.extend_from_slice(&tail);
        let found = scan_code(&bytes, mode);
        prop_assert_eq!(found, first_offender(&bytes, mode));
        let expected = match (sensitivity, mode) {
            (Sensitivity::UnprivilegedLoadStore, SanitizeMode::Ttbr) => InsnClass::Allowed,
            (Sensitivity::TranslationTableBase, SanitizeMode::Ttbr) => InsnClass::GateOnly,
            _ => InsnClass::Forbidden(sensitivity),
        };
        prop_assert_eq!(classify(word, mode), expected);
        if expected != InsnClass::Allowed {
            let (offset, _) = found.unwrap_err();
            prop_assert!(offset <= prefix.len() * 4, "planted word at {} missed", prefix.len() * 4);
        }
    }

    /// System-register field packing roundtrips for arbitrary encodings.
    #[test]
    fn sysreg_enc_roundtrip(op0 in 0u8..4, op1 in 0u8..8, crn in 0u8..16, crm in 0u8..16, op2 in 0u8..8) {
        let enc = SysRegEnc::new(op0, op1, crn, crm, op2);
        prop_assert_eq!(SysRegEnc::from_word(enc.to_fields()), enc);
    }

    /// MSR of any privileged register except TTBR0_EL1 must never be Allowed
    /// under TTBR sanitization (Table 3 row 6).
    #[test]
    fn privileged_msr_never_allowed(reg in any_sysreg(), rt in 0u8..32) {
        let enc = reg.encoding();
        prop_assume!(enc.op0 == 0b11 && enc.op1 != 0b011);
        prop_assume!(reg != SysReg::TTBR0_EL1);
        let word = Insn::MsrReg { enc, rt }.encode();
        prop_assert_ne!(classify(word, SanitizeMode::Ttbr), InsnClass::Allowed);
        prop_assert_ne!(classify(word, SanitizeMode::Pan), InsnClass::Allowed);
    }
}
