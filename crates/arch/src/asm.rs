//! A tiny A64 assembler.
//!
//! Used by the secure-call-gate emitter, the tests, the penetration-test
//! attack payloads, and the examples to build real machine code that the
//! simulator then executes. Supports forward label references via a
//! fix-up pass.
//!
//! # Example
//!
//! ```
//! use lz_arch::asm::Asm;
//!
//! let mut a = Asm::new(0x40_0000);
//! let loop_top = a.label();
//! a.bind(loop_top);
//! a.subs_imm(0, 0, 1); // subs x0, x0, #1
//! a.b_ne(loop_top);
//! a.ret();
//! assert_eq!(a.words().len(), 3);
//! ```

use crate::insn::{Cond, Insn, MemSize};
use crate::sysreg::SysReg;
use std::collections::HashMap;

/// A forward-referencable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Assembler state: a base virtual address and the emitted words.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u64,
    words: Vec<u32>,
    bound: HashMap<Label, usize>,
    fixups: Vec<(usize, Label, FixKind)>,
    next_label: usize,
}

#[derive(Debug, Clone, Copy)]
enum FixKind {
    B,
    Bl,
    BCond(Cond),
    Cbz { rt: u8, nonzero: bool },
    Adr { rd: u8 },
}

impl Asm {
    /// Start assembling at virtual address `base` (must be word-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned.
    pub fn new(base: u64) -> Self {
        assert!(base.is_multiple_of(4), "code base must be word aligned");
        Asm { base, words: Vec::new(), bound: HashMap::new(), fixups: Vec::new(), next_label: 0 }
    }

    /// The virtual address of the *next* instruction to be emitted.
    pub fn here(&self) -> u64 {
        self.base + self.words.len() as u64 * 4
    }

    /// The base address this assembler started at.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let prev = self.bound.insert(label, self.words.len());
        assert!(prev.is_none(), "label bound twice");
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, insn: Insn) -> &mut Self {
        self.words.push(insn.encode());
        self
    }

    /// Emit a raw 32-bit word (used by attack payloads to plant arbitrary
    /// encodings).
    pub fn raw(&mut self, word: u32) -> &mut Self {
        self.words.push(word);
        self
    }

    /// Finish assembly, resolving all fix-ups, and return the words.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn words(mut self) -> Vec<u32> {
        for (at, label, kind) in std::mem::take(&mut self.fixups) {
            let target = *self.bound.get(&label).expect("unbound label");
            let offset = (target as i64 - at as i64) * 4;
            let insn = match kind {
                FixKind::B => Insn::B { offset },
                FixKind::Bl => Insn::Bl { offset },
                FixKind::BCond(cond) => Insn::BCond { cond, offset },
                FixKind::Cbz { rt, nonzero } => Insn::Cbz { rt, offset, nonzero },
                FixKind::Adr { rd } => Insn::Adr { rd, offset },
            };
            self.words[at] = insn.encode();
        }
        self.words
    }

    /// Finish assembly and return the bytes (little-endian words).
    pub fn bytes(self) -> Vec<u8> {
        self.words().iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    // ---- moves and immediates -------------------------------------------

    /// `movz xd, #imm16, lsl #(hw*16)`.
    pub fn movz(&mut self, rd: u8, imm16: u16, hw: u8) -> &mut Self {
        self.emit(Insn::Movz { rd, imm16, hw })
    }

    /// `movk xd, #imm16, lsl #(hw*16)`.
    pub fn movk(&mut self, rd: u8, imm16: u16, hw: u8) -> &mut Self {
        self.emit(Insn::Movk { rd, imm16, hw })
    }

    /// Load an arbitrary 64-bit constant with a movz/movk sequence
    /// (1–4 instructions).
    pub fn mov_imm64(&mut self, rd: u8, value: u64) -> &mut Self {
        self.movz(rd, (value & 0xffff) as u16, 0);
        for hw in 1..4u8 {
            let part = (value >> (16 * hw)) & 0xffff;
            if part != 0 {
                self.movk(rd, part as u16, hw);
            }
        }
        self
    }

    /// `mov xd, xm` (ORR with xzr).
    pub fn mov_reg(&mut self, rd: u8, rm: u8) -> &mut Self {
        self.emit(Insn::LogicReg { rd, rn: 31, rm, shift: 0, op: crate::insn::LogicOp::Orr })
    }

    // ---- arithmetic ------------------------------------------------------

    /// `add xd, xn, #imm`.
    pub fn add_imm(&mut self, rd: u8, rn: u8, imm12: u16) -> &mut Self {
        self.emit(Insn::AddImm { rd, rn, imm12, shift12: false, sub: false, set_flags: false })
    }

    /// `sub xd, xn, #imm`.
    pub fn sub_imm(&mut self, rd: u8, rn: u8, imm12: u16) -> &mut Self {
        self.emit(Insn::AddImm { rd, rn, imm12, shift12: false, sub: true, set_flags: false })
    }

    /// `subs xd, xn, #imm` (sets flags; `cmp xn, #imm` when `rd == 31`).
    pub fn subs_imm(&mut self, rd: u8, rn: u8, imm12: u16) -> &mut Self {
        self.emit(Insn::AddImm { rd, rn, imm12, shift12: false, sub: true, set_flags: true })
    }

    /// `cmp xn, #imm`.
    pub fn cmp_imm(&mut self, rn: u8, imm12: u16) -> &mut Self {
        self.subs_imm(31, rn, imm12)
    }

    /// `cmp xn, xm`.
    pub fn cmp_reg(&mut self, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::AddReg { rd: 31, rn, rm, shift: 0, sub: true, set_flags: true })
    }

    /// `add xd, xn, xm`.
    pub fn add_reg(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::AddReg { rd, rn, rm, shift: 0, sub: false, set_flags: false })
    }

    /// `add xd, xn, xm, lsl #shift`.
    pub fn add_reg_lsl(&mut self, rd: u8, rn: u8, rm: u8, shift: u8) -> &mut Self {
        self.emit(Insn::AddReg { rd, rn, rm, shift, sub: false, set_flags: false })
    }

    /// `sub xd, xn, xm`.
    pub fn sub_reg(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::AddReg { rd, rn, rm, shift: 0, sub: true, set_flags: false })
    }

    /// `lsl xd, xn, #shift`.
    pub fn lsl_imm(&mut self, rd: u8, rn: u8, shift: u8) -> &mut Self {
        self.emit(Insn::LslImm { rd, rn, shift })
    }

    /// `lsr xd, xn, #shift`.
    pub fn lsr_imm(&mut self, rd: u8, rn: u8, shift: u8) -> &mut Self {
        self.emit(Insn::LsrImm { rd, rn, shift })
    }

    /// `and xd, xn, xm`.
    pub fn and_reg(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::LogicReg { rd, rn, rm, shift: 0, op: crate::insn::LogicOp::And })
    }

    /// `orr xd, xn, xm`.
    pub fn orr_reg(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::LogicReg { rd, rn, rm, shift: 0, op: crate::insn::LogicOp::Orr })
    }

    /// `eor xd, xn, xm`.
    pub fn eor_reg(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::LogicReg { rd, rn, rm, shift: 0, op: crate::insn::LogicOp::Eor })
    }

    // ---- loads and stores -------------------------------------------------

    /// `ldr xt, [xn, #offset]`.
    pub fn ldr(&mut self, rt: u8, rn: u8, offset: u64) -> &mut Self {
        self.emit(Insn::LdrImm { rt, rn, offset, size: MemSize::X })
    }

    /// `str xt, [xn, #offset]`.
    pub fn str(&mut self, rt: u8, rn: u8, offset: u64) -> &mut Self {
        self.emit(Insn::StrImm { rt, rn, offset, size: MemSize::X })
    }

    /// `ldrb wt, [xn, #offset]`.
    pub fn ldrb(&mut self, rt: u8, rn: u8, offset: u64) -> &mut Self {
        self.emit(Insn::LdrImm { rt, rn, offset, size: MemSize::B })
    }

    /// `strb wt, [xn, #offset]`.
    pub fn strb(&mut self, rt: u8, rn: u8, offset: u64) -> &mut Self {
        self.emit(Insn::StrImm { rt, rn, offset, size: MemSize::B })
    }

    /// `ldp xt, xt2, [xn, #offset]`.
    pub fn ldp(&mut self, rt: u8, rt2: u8, rn: u8, offset: i64) -> &mut Self {
        self.emit(Insn::Ldp { rt, rt2, rn, offset })
    }

    /// `stp xt, xt2, [xn, #offset]`.
    pub fn stp(&mut self, rt: u8, rt2: u8, rn: u8, offset: i64) -> &mut Self {
        self.emit(Insn::Stp { rt, rt2, rn, offset })
    }

    /// `mul xd, xn, xm`.
    pub fn mul(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::Madd { rd, rn, rm, ra: 31 })
    }

    /// `madd xd, xn, xm, xa`.
    pub fn madd(&mut self, rd: u8, rn: u8, rm: u8, ra: u8) -> &mut Self {
        self.emit(Insn::Madd { rd, rn, rm, ra })
    }

    /// `udiv xd, xn, xm`.
    pub fn udiv(&mut self, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.emit(Insn::Udiv { rd, rn, rm })
    }

    /// `csel xd, xn, xm, cond`.
    pub fn csel(&mut self, rd: u8, rn: u8, rm: u8, cond: crate::insn::Cond) -> &mut Self {
        self.emit(Insn::Csel { rd, rn, rm, cond })
    }

    /// `cset xd, cond` (CSINC alias).
    pub fn cset(&mut self, rd: u8, cond: crate::insn::Cond) -> &mut Self {
        // cset xd, cond == csinc xd, xzr, xzr, invert(cond); emitting the
        // direct CSINC with the inverted condition.
        let inv = match cond {
            crate::insn::Cond::Eq => crate::insn::Cond::Ne,
            crate::insn::Cond::Ne => crate::insn::Cond::Eq,
            crate::insn::Cond::Cs => crate::insn::Cond::Cc,
            crate::insn::Cond::Cc => crate::insn::Cond::Cs,
            crate::insn::Cond::Mi => crate::insn::Cond::Pl,
            crate::insn::Cond::Pl => crate::insn::Cond::Mi,
            crate::insn::Cond::Vs => crate::insn::Cond::Vc,
            crate::insn::Cond::Vc => crate::insn::Cond::Vs,
            crate::insn::Cond::Hi => crate::insn::Cond::Ls,
            crate::insn::Cond::Ls => crate::insn::Cond::Hi,
            crate::insn::Cond::Ge => crate::insn::Cond::Lt,
            crate::insn::Cond::Lt => crate::insn::Cond::Ge,
            crate::insn::Cond::Gt => crate::insn::Cond::Le,
            crate::insn::Cond::Le => crate::insn::Cond::Gt,
            crate::insn::Cond::Al => crate::insn::Cond::Al,
        };
        self.emit(Insn::Csinc { rd, rn: 31, rm: 31, cond: inv })
    }

    /// `ldtr xt, [xn, #offset]` — unprivileged load.
    pub fn ldtr(&mut self, rt: u8, rn: u8, offset: i64) -> &mut Self {
        self.emit(Insn::Ldtr { rt, rn, offset, size: MemSize::X })
    }

    /// `sttr xt, [xn, #offset]` — unprivileged store.
    pub fn sttr(&mut self, rt: u8, rn: u8, offset: i64) -> &mut Self {
        self.emit(Insn::Sttr { rt, rn, offset, size: MemSize::X })
    }

    // ---- branches ----------------------------------------------------------

    /// `b label`.
    pub fn b(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::B));
        self.words.push(0);
        self
    }

    /// `bl label`.
    pub fn bl(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::Bl));
        self.words.push(0);
        self
    }

    /// `b.<cond> label`.
    pub fn b_cond(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::BCond(cond)));
        self.words.push(0);
        self
    }

    /// `b.eq label`.
    pub fn b_eq(&mut self, label: Label) -> &mut Self {
        self.b_cond(Cond::Eq, label)
    }

    /// `b.ne label`.
    pub fn b_ne(&mut self, label: Label) -> &mut Self {
        self.b_cond(Cond::Ne, label)
    }

    /// `cbz xt, label`.
    pub fn cbz(&mut self, rt: u8, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::Cbz { rt, nonzero: false }));
        self.words.push(0);
        self
    }

    /// `cbnz xt, label`.
    pub fn cbnz(&mut self, rt: u8, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::Cbz { rt, nonzero: true }));
        self.words.push(0);
        self
    }

    /// `adr xd, label`.
    pub fn adr(&mut self, rd: u8, label: Label) -> &mut Self {
        self.fixups.push((self.words.len(), label, FixKind::Adr { rd }));
        self.words.push(0);
        self
    }

    /// `br xn`.
    pub fn br(&mut self, rn: u8) -> &mut Self {
        self.emit(Insn::Br { rn })
    }

    /// `blr xn`.
    pub fn blr(&mut self, rn: u8) -> &mut Self {
        self.emit(Insn::Blr { rn })
    }

    /// `ret` (x30).
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Insn::Ret { rn: 30 })
    }

    /// `ret xn`.
    pub fn ret_reg(&mut self, rn: u8) -> &mut Self {
        self.emit(Insn::Ret { rn })
    }

    // ---- system ------------------------------------------------------------

    /// `svc #imm`.
    pub fn svc(&mut self, imm: u16) -> &mut Self {
        self.emit(Insn::Svc { imm })
    }

    /// `hvc #imm`.
    pub fn hvc(&mut self, imm: u16) -> &mut Self {
        self.emit(Insn::Hvc { imm })
    }

    /// `brk #imm`.
    pub fn brk(&mut self, imm: u16) -> &mut Self {
        self.emit(Insn::Brk { imm })
    }

    /// `eret`.
    pub fn eret(&mut self) -> &mut Self {
        self.emit(Insn::Eret)
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Insn::Nop)
    }

    /// `isb`.
    pub fn isb(&mut self) -> &mut Self {
        self.emit(Insn::Barrier(crate::insn::Barrier::Isb))
    }

    /// `msr <reg>, xt`.
    pub fn msr(&mut self, reg: SysReg, rt: u8) -> &mut Self {
        self.emit(Insn::MsrReg { enc: reg.encoding(), rt })
    }

    /// `mrs xt, <reg>`.
    pub fn mrs(&mut self, rt: u8, reg: SysReg) -> &mut Self {
        self.emit(Insn::MrsReg { enc: reg.encoding(), rt })
    }

    /// `msr pan, #imm` — the PAN-based domain switch of the paper
    /// (`set_pan(imm)` in Listing 1).
    pub fn msr_pan(&mut self, imm: u8) -> &mut Self {
        assert!(imm <= 1);
        self.emit(Insn::MsrImm { op1: crate::insn::PSTATE_PAN_OP1, crm: imm, op2: crate::insn::PSTATE_PAN_OP2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    #[test]
    fn forward_and_backward_labels() {
        let mut a = Asm::new(0x1000);
        let fwd = a.label();
        let back = a.label();
        a.bind(back);
        a.nop(); // 0x1000
        a.b(fwd); // 0x1004 -> 0x100c
        a.b(back); // 0x1008 -> 0x1000
        a.bind(fwd);
        a.ret(); // 0x100c
        let w = a.words();
        assert_eq!(Insn::decode(w[1]), Insn::B { offset: 8 });
        assert_eq!(Insn::decode(w[2]), Insn::B { offset: -8 });
    }

    #[test]
    fn mov_imm64_reconstructs_value() {
        // Interpreting the movz/movk sequence by hand must reproduce the
        // constant.
        let value = 0xdead_beef_cafe_f00d_u64;
        let mut a = Asm::new(0);
        a.mov_imm64(0, value);
        let mut acc = 0u64;
        for w in a.words() {
            match Insn::decode(w) {
                Insn::Movz { imm16, hw, .. } => acc = (imm16 as u64) << (16 * hw),
                Insn::Movk { imm16, hw, .. } => {
                    acc = (acc & !(0xffffu64 << (16 * hw))) | ((imm16 as u64) << (16 * hw));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(acc, value);
    }

    #[test]
    fn mov_imm64_small_value_is_one_insn() {
        let mut a = Asm::new(0);
        a.mov_imm64(3, 42);
        assert_eq!(a.words().len(), 1);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.b(l);
        let _ = a.words();
    }

    #[test]
    fn bytes_are_little_endian() {
        let mut a = Asm::new(0);
        a.nop();
        assert_eq!(a.bytes(), vec![0x1f, 0x20, 0x03, 0xd5]);
    }

    #[test]
    fn msr_pan_encodings() {
        let mut a = Asm::new(0);
        a.msr_pan(0);
        a.msr_pan(1);
        let w = a.words();
        assert_eq!(w[0], 0xD500_409F);
        assert_eq!(w[1], 0xD500_419F);
    }

    #[test]
    fn here_tracks_emission() {
        let mut a = Asm::new(0x2000);
        assert_eq!(a.here(), 0x2000);
        a.nop().nop();
        assert_eq!(a.here(), 0x2008);
    }
}
