//! Exception syndrome (`ESR_ELx`) encoding.
//!
//! Only the exception classes the model generates are represented. The
//! ISS layouts follow the architecture closely enough that the kernel
//! substrate and LightZone module can dispatch on them the way real
//! handlers do.

/// Exception class — the `EC` field (bits 31..26) of `ESR_ELx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExceptionClass {
    /// Unknown/unallocated instruction (EC 0b000000).
    Unknown,
    /// Trapped `MSR`/`MRS`/system instruction (EC 0b011000).
    TrappedSysreg,
    /// `SVC` from AArch64 (EC 0b010101).
    Svc,
    /// `HVC` from AArch64 (EC 0b010110).
    Hvc,
    /// `SMC` from AArch64 (EC 0b010111).
    Smc,
    /// Instruction abort from a lower EL (EC 0b100000).
    InsnAbortLower,
    /// Instruction abort from the current EL (EC 0b100001).
    InsnAbortSame,
    /// Data abort from a lower EL (EC 0b100100).
    DataAbortLower,
    /// Data abort from the current EL (EC 0b100101).
    DataAbortSame,
    /// `BRK` (EC 0b111100).
    Brk,
    /// Watchpoint from a lower EL (EC 0b110100).
    WatchpointLower,
    /// Illegal execution state (EC 0b001110).
    IllegalState,
    /// PC alignment fault: a fetch from a PC that is not 4-byte aligned
    /// (EC 0b100010; `FAR` holds the PC).
    PcAlignment,
}

impl ExceptionClass {
    /// The architectural EC value.
    pub const fn ec(self) -> u64 {
        match self {
            ExceptionClass::Unknown => 0b000000,
            ExceptionClass::TrappedSysreg => 0b011000,
            ExceptionClass::Svc => 0b010101,
            ExceptionClass::Hvc => 0b010110,
            ExceptionClass::Smc => 0b010111,
            ExceptionClass::InsnAbortLower => 0b100000,
            ExceptionClass::InsnAbortSame => 0b100001,
            ExceptionClass::DataAbortLower => 0b100100,
            ExceptionClass::DataAbortSame => 0b100101,
            ExceptionClass::Brk => 0b111100,
            ExceptionClass::WatchpointLower => 0b110100,
            ExceptionClass::IllegalState => 0b001110,
            ExceptionClass::PcAlignment => 0b100010,
        }
    }

    /// Decode from an `ESR_ELx` value.
    pub fn from_esr(esr: u64) -> Option<ExceptionClass> {
        let ec = (esr >> 26) & 0x3f;
        Some(match ec {
            0b000000 => ExceptionClass::Unknown,
            0b011000 => ExceptionClass::TrappedSysreg,
            0b010101 => ExceptionClass::Svc,
            0b010110 => ExceptionClass::Hvc,
            0b010111 => ExceptionClass::Smc,
            0b100000 => ExceptionClass::InsnAbortLower,
            0b100001 => ExceptionClass::InsnAbortSame,
            0b100100 => ExceptionClass::DataAbortLower,
            0b100101 => ExceptionClass::DataAbortSame,
            0b111100 => ExceptionClass::Brk,
            0b110100 => ExceptionClass::WatchpointLower,
            0b001110 => ExceptionClass::IllegalState,
            0b100010 => ExceptionClass::PcAlignment,
            _ => return None,
        })
    }
}

/// Fault status codes for abort ISS (the `DFSC`/`IFSC` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStatus {
    /// Translation fault (no mapping) at the given level.
    Translation(u8),
    /// Permission fault at the given level.
    Permission(u8),
    /// Access-flag fault at the given level.
    AccessFlag(u8),
}

impl FaultStatus {
    /// Architectural 6-bit FSC encoding (level in low bits).
    pub const fn fsc(self) -> u64 {
        match self {
            FaultStatus::Translation(l) => 0b000100 | (l as u64 & 0b11),
            FaultStatus::AccessFlag(l) => 0b001000 | (l as u64 & 0b11),
            FaultStatus::Permission(l) => 0b001100 | (l as u64 & 0b11),
        }
    }

    /// Decode from an FSC value.
    pub fn from_fsc(fsc: u64) -> Option<FaultStatus> {
        let level = (fsc & 0b11) as u8;
        match fsc & !0b11 {
            0b000100 => Some(FaultStatus::Translation(level)),
            0b001000 => Some(FaultStatus::AccessFlag(level)),
            0b001100 => Some(FaultStatus::Permission(level)),
            _ => None,
        }
    }
}

/// Build an `ESR_ELx` value for an abort.
///
/// `wnr` is the write-not-read bit (ISS bit 6); `s1ptw` marks a stage-2
/// fault taken on a stage-1 walk (ISS bit 7).
pub fn esr_abort(class: ExceptionClass, fault: FaultStatus, wnr: bool, s1ptw: bool) -> u64 {
    (class.ec() << 26) | ((s1ptw as u64) << 7) | ((wnr as u64) << 6) | fault.fsc()
}

/// Build an `ESR_ELx` for an `SVC`/`HVC`/`SMC`/`BRK` with its immediate.
pub fn esr_exception_gen(class: ExceptionClass, imm: u16) -> u64 {
    (class.ec() << 26) | imm as u64
}

/// Build an `ESR_ELx` for a trapped system instruction, embedding the raw
/// instruction word in the ISS (the model's kernels re-decode it).
pub fn esr_trapped_sysreg(word: u32) -> u64 {
    (ExceptionClass::TrappedSysreg.ec() << 26) | word as u64 & 0x1ff_ffff
}

/// Extract the immediate from an exception-generation ESR.
pub fn esr_imm(esr: u64) -> u16 {
    (esr & 0xffff) as u16
}

/// Extract `(fault, wnr, s1ptw)` from an abort ESR.
pub fn esr_abort_info(esr: u64) -> Option<(FaultStatus, bool, bool)> {
    let fault = FaultStatus::from_fsc(esr & 0x3f)?;
    Some((fault, esr >> 6 & 1 == 1, esr >> 7 & 1 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_roundtrip() {
        for class in [
            ExceptionClass::Unknown,
            ExceptionClass::TrappedSysreg,
            ExceptionClass::Svc,
            ExceptionClass::Hvc,
            ExceptionClass::Smc,
            ExceptionClass::InsnAbortLower,
            ExceptionClass::InsnAbortSame,
            ExceptionClass::DataAbortLower,
            ExceptionClass::DataAbortSame,
            ExceptionClass::Brk,
            ExceptionClass::WatchpointLower,
            ExceptionClass::IllegalState,
            ExceptionClass::PcAlignment,
        ] {
            let esr = class.ec() << 26;
            assert_eq!(ExceptionClass::from_esr(esr), Some(class));
        }
    }

    #[test]
    fn abort_esr_roundtrip() {
        let esr = esr_abort(ExceptionClass::DataAbortLower, FaultStatus::Permission(3), true, false);
        assert_eq!(ExceptionClass::from_esr(esr), Some(ExceptionClass::DataAbortLower));
        let (fault, wnr, s1ptw) = esr_abort_info(esr).unwrap();
        assert_eq!(fault, FaultStatus::Permission(3));
        assert!(wnr);
        assert!(!s1ptw);
    }

    #[test]
    fn svc_imm_roundtrip() {
        let esr = esr_exception_gen(ExceptionClass::Svc, 0x123);
        assert_eq!(esr_imm(esr), 0x123);
        assert_eq!(ExceptionClass::from_esr(esr), Some(ExceptionClass::Svc));
    }

    #[test]
    fn fsc_levels() {
        for l in 0..4u8 {
            assert_eq!(FaultStatus::from_fsc(FaultStatus::Translation(l).fsc()), Some(FaultStatus::Translation(l)));
            assert_eq!(FaultStatus::from_fsc(FaultStatus::Permission(l).fsc()), Some(FaultStatus::Permission(l)));
        }
    }
}
