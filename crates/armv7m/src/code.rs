//! Variable-length halfword encoding of [`ThumbInstr`] programs, and the
//! whole-program pre-decoder.
//!
//! Real Thumb-2 code is a halfword stream where instructions are one or
//! two halfwords long and must be decoded before execution. This module
//! gives the model the same *shape* — [`encode_program`] lowers a
//! `&[ThumbInstr]` to `Vec<u16>` with 1- or 2-halfword instructions and
//! pc-relative branch deltas — without claiming ARM bit-exactness (the
//! field layout is our own; see the opcode table in the source).
//!
//! Two readers consume it:
//!
//! * [`CortexM4::run_code`](crate::CortexM4::run_code) decodes every
//!   *dynamic* instruction — the uncached baseline, paying the
//!   variable-length decode on each step.
//! * [`DecodedProgram::decode`] decodes every *static* instruction once,
//!   turning halfword branch targets back into instruction indices: the
//!   inverse of [`encode_program`], which tests use to check that the
//!   encoding round-trips. The product path compiles the assembler's
//!   instructions into the fused [`BlockProgram`](crate::BlockProgram)
//!   directly, for [`CortexM4::run_fused`](crate::CortexM4::run_fused);
//!   on the nRF52832, code executes from flash, which data stores cannot
//!   touch, so that program never needs invalidation.
//!
//! Encoding layout: `hw1 = [wide:1][opcode:6][a:5][b:4]`, plus a 16-bit
//! payload halfword when `wide` is set. Branches store a signed halfword
//! delta relative to the branch's own first halfword.

use core::fmt;

use crate::instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R, S};

// Narrow (single-halfword) opcodes.
const OP_NOP: u16 = 0;
const OP_BKPT: u16 = 1;
const OP_MOV_REG: u16 = 2;
const OP_CMP: u16 = 3;
const OP_VMRS: u16 = 4;
const OP_VMOV_TO_S: u16 = 5;
const OP_VMOV_FROM_S: u16 = 6;
// Wide (two-halfword) opcodes.
const OP_MOVW: u16 = 16;
const OP_MOVT: u16 = 17;
const OP_DP: u16 = 18;
const OP_ADD_IMM: u16 = 19;
const OP_SUBS_IMM: u16 = 20;
const OP_CMP_IMM: u16 = 21;
const OP_LSL_IMM: u16 = 22;
const OP_LSR_IMM: u16 = 23;
const OP_ASR_IMM: u16 = 24;
const OP_MLA: u16 = 25;
const OP_MLS: u16 = 26;
const OP_SMLAD: u16 = 27;
const OP_SMULL: u16 = 28;
const OP_SMLAL: u16 = 29;
const OP_SSAT: u16 = 30;
const OP_LDR: u16 = 31;
const OP_STR: u16 = 32;
const OP_B: u16 = 33;
const OP_VLDR: u16 = 34;
const OP_VLDR_POST: u16 = 35;
const OP_VSTR: u16 = 36;
const OP_VMOV_F: u16 = 37;
const OP_VADD: u16 = 38;
const OP_VSUB: u16 = 39;
const OP_VMUL: u16 = 40;
const OP_VMLA: u16 = 41;
const OP_VDIV: u16 = 42;
const OP_VABS: u16 = 43;
const OP_VNEG: u16 = 44;
const OP_VCVT_F32_S32: u16 = 45;
const OP_VCVT_S32_F32: u16 = 46;
const OP_VCMP: u16 = 47;

/// Error raised while lowering a program to halfwords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate does not fit its encoding field.
    Imm {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A load/store offset does not fit its 12-bit field.
    Offset {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A branch target is outside the program or its delta overflows.
    Branch {
        /// Index of the offending instruction.
        index: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Imm { index } => {
                write!(f, "immediate out of encodable range at instruction {index}")
            }
            EncodeError::Offset { index } => {
                write!(
                    f,
                    "memory offset out of encodable range at instruction {index}"
                )
            }
            EncodeError::Branch { index } => {
                write!(f, "branch out of encodable range at instruction {index}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error raised while decoding halfword code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// Unassigned opcode.
    Opcode {
        /// Halfword offset of the instruction.
        hw_pc: usize,
        /// The offending first halfword.
        hw: u16,
    },
    /// A wide instruction starts on the last halfword.
    Truncated {
        /// Halfword offset of the instruction.
        hw_pc: usize,
    },
    /// A field holds an unrepresentable value (register, condition,
    /// shift amount or saturation width out of range).
    Field {
        /// Halfword offset of the instruction.
        hw_pc: usize,
    },
    /// A branch lands outside the code or in the middle of a wide
    /// instruction (whole-program decode only).
    BranchTarget {
        /// Halfword offset of the branch.
        hw_pc: usize,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::Opcode { hw_pc, hw } => {
                write!(f, "unknown opcode in halfword {hw:#06x} at offset {hw_pc}")
            }
            CodeError::Truncated { hw_pc } => {
                write!(f, "wide instruction truncated at offset {hw_pc}")
            }
            CodeError::Field { hw_pc } => {
                write!(f, "field out of range at offset {hw_pc}")
            }
            CodeError::BranchTarget { hw_pc } => {
                write!(f, "branch at offset {hw_pc} lands inside an instruction")
            }
        }
    }
}

impl std::error::Error for CodeError {}

fn dp_index(op: DpOp) -> u16 {
    match op {
        DpOp::Add => 0,
        DpOp::Sub => 1,
        DpOp::And => 2,
        DpOp::Orr => 3,
        DpOp::Eor => 4,
        DpOp::Lsl => 5,
        DpOp::Lsr => 6,
        DpOp::Asr => 7,
        DpOp::Mul => 8,
        DpOp::Sdiv => 9,
        DpOp::Udiv => 10,
    }
}

fn cond_index(cond: Cond) -> u16 {
    match cond {
        Cond::Al => 0,
        Cond::Eq => 1,
        Cond::Ne => 2,
        Cond::Lt => 3,
        Cond::Ge => 4,
        Cond::Gt => 5,
        Cond::Le => 6,
        Cond::Hs => 7,
        Cond::Lo => 8,
        Cond::Mi => 9,
        Cond::Pl => 10,
    }
}

fn width_index(width: LsWidth) -> u16 {
    match width {
        LsWidth::B => 0,
        LsWidth::Sb => 1,
        LsWidth::H => 2,
        LsWidth::Sh => 3,
        LsWidth::W => 4,
    }
}

/// Halfword length of one instruction in the encoding (1 or 2).
#[must_use]
pub fn instr_len(instr: &ThumbInstr) -> usize {
    match instr {
        ThumbInstr::Nop
        | ThumbInstr::Bkpt
        | ThumbInstr::MovReg { .. }
        | ThumbInstr::Cmp { .. }
        | ThumbInstr::Vmrs
        | ThumbInstr::VmovToS { .. }
        | ThumbInstr::VmovFromS { .. } => 1,
        _ => 2,
    }
}

fn hw1(wide: bool, opcode: u16, a: u16, b: u16) -> u16 {
    debug_assert!(opcode < 64 && a < 32 && b < 16);
    (u16::from(wide) << 15) | (opcode << 9) | (a << 4) | b
}

fn imm16(imm: i32, index: usize) -> Result<u16, EncodeError> {
    i16::try_from(imm)
        .map(|v| v as u16)
        .map_err(|_| EncodeError::Imm { index })
}

/// Lowers a program to halfword code.
///
/// Branch targets (instruction indices, one past the end allowed) become
/// signed halfword deltas; a two-pass assembly resolves forward branches.
///
/// # Errors
///
/// See [`EncodeError`].
pub fn encode_program(program: &[ThumbInstr]) -> Result<Vec<u16>, EncodeError> {
    let mut offsets = Vec::with_capacity(program.len() + 1);
    let mut off = 0usize;
    for instr in program {
        offsets.push(off);
        off += instr_len(instr);
    }
    offsets.push(off);

    let mut code = Vec::with_capacity(off);
    for (index, instr) in program.iter().enumerate() {
        encode_one(*instr, index, &offsets, &mut code)?;
    }
    Ok(code)
}

#[allow(clippy::too_many_lines)]
fn encode_one(
    instr: ThumbInstr,
    index: usize,
    offsets: &[usize],
    code: &mut Vec<u16>,
) -> Result<(), EncodeError> {
    let r = |reg: R| u16::from(reg.index());
    let s = |reg: S| u16::from(reg.index());
    let narrow = |code: &mut Vec<u16>, opcode, a, b| code.push(hw1(false, opcode, a, b));
    let wide = |code: &mut Vec<u16>, opcode, a, b, payload| {
        code.push(hw1(true, opcode, a, b));
        code.push(payload);
    };
    match instr {
        ThumbInstr::Nop => narrow(code, OP_NOP, 0, 0),
        ThumbInstr::Bkpt => narrow(code, OP_BKPT, 0, 0),
        ThumbInstr::MovReg { rd, rm } => narrow(code, OP_MOV_REG, r(rd), r(rm)),
        ThumbInstr::Cmp { rn, rm } => narrow(code, OP_CMP, r(rn), r(rm)),
        ThumbInstr::Vmrs => narrow(code, OP_VMRS, 0, 0),
        ThumbInstr::VmovToS { sd, rt } => narrow(code, OP_VMOV_TO_S, s(sd), r(rt)),
        ThumbInstr::VmovFromS { rt, sm } => narrow(code, OP_VMOV_FROM_S, s(sm), r(rt)),
        ThumbInstr::Movw { rd, imm } => wide(code, OP_MOVW, r(rd), 0, imm),
        ThumbInstr::Movt { rd, imm } => wide(code, OP_MOVT, r(rd), 0, imm),
        ThumbInstr::Dp { op, rd, rn, rm } => {
            wide(code, OP_DP, r(rd), dp_index(op), r(rn) | (r(rm) << 4));
        }
        ThumbInstr::AddImm { rd, rn, imm } => {
            wide(code, OP_ADD_IMM, r(rd), r(rn), imm16(imm, index)?);
        }
        ThumbInstr::SubsImm { rd, rn, imm } => {
            wide(code, OP_SUBS_IMM, r(rd), r(rn), imm16(imm, index)?);
        }
        ThumbInstr::CmpImm { rn, imm } => wide(code, OP_CMP_IMM, r(rn), 0, imm16(imm, index)?),
        ThumbInstr::LslImm { rd, rm, shamt }
        | ThumbInstr::LsrImm { rd, rm, shamt }
        | ThumbInstr::AsrImm { rd, rm, shamt } => {
            if shamt > 31 {
                return Err(EncodeError::Imm { index });
            }
            let opcode = match instr {
                ThumbInstr::LslImm { .. } => OP_LSL_IMM,
                ThumbInstr::LsrImm { .. } => OP_LSR_IMM,
                _ => OP_ASR_IMM,
            };
            wide(code, opcode, r(rd), r(rm), shamt.into());
        }
        ThumbInstr::Mla { rd, rn, rm, ra } => {
            wide(code, OP_MLA, r(rd), 0, r(rn) | (r(rm) << 4) | (r(ra) << 8));
        }
        ThumbInstr::Mls { rd, rn, rm, ra } => {
            wide(code, OP_MLS, r(rd), 0, r(rn) | (r(rm) << 4) | (r(ra) << 8));
        }
        ThumbInstr::Smlad { rd, rn, rm, ra } => {
            wide(
                code,
                OP_SMLAD,
                r(rd),
                0,
                r(rn) | (r(rm) << 4) | (r(ra) << 8),
            );
        }
        ThumbInstr::Smull { rdlo, rdhi, rn, rm } => {
            wide(code, OP_SMULL, r(rdlo), r(rdhi), r(rn) | (r(rm) << 4));
        }
        ThumbInstr::Smlal { rdlo, rdhi, rn, rm } => {
            wide(code, OP_SMLAL, r(rdlo), r(rdhi), r(rn) | (r(rm) << 4));
        }
        ThumbInstr::Ssat { rd, sat, rn } => {
            if sat == 0 || sat > 31 {
                return Err(EncodeError::Imm { index });
            }
            wide(code, OP_SSAT, r(rd), r(rn), sat.into());
        }
        ThumbInstr::Ldr {
            width,
            rt,
            rn,
            offset,
            mode,
        }
        | ThumbInstr::Str {
            width,
            rt,
            rn,
            offset,
            mode,
        } => {
            if !(-2048..=2047).contains(&offset) {
                return Err(EncodeError::Offset { index });
            }
            let opcode = if matches!(instr, ThumbInstr::Ldr { .. }) {
                OP_LDR
            } else {
                OP_STR
            };
            let mode_bit = u16::from(mode == AddrMode::PostInc);
            let payload = (mode_bit << 15) | (width_index(width) << 12) | (offset as u16 & 0xfff);
            wide(code, opcode, r(rt), r(rn), payload);
        }
        ThumbInstr::B { cond, target } => {
            if target >= offsets.len() {
                return Err(EncodeError::Branch { index });
            }
            let delta = offsets[target] as i64 - offsets[index] as i64;
            let delta = i16::try_from(delta).map_err(|_| EncodeError::Branch { index })?;
            wide(code, OP_B, cond_index(cond), 0, delta as u16);
        }
        ThumbInstr::Vldr { sd, rn, offset }
        | ThumbInstr::VldrPost { sd, rn, offset }
        | ThumbInstr::Vstr { sd, rn, offset } => {
            let opcode = match instr {
                ThumbInstr::Vldr { .. } => OP_VLDR,
                ThumbInstr::VldrPost { .. } => OP_VLDR_POST,
                _ => OP_VSTR,
            };
            wide(code, opcode, s(sd), r(rn), imm16(offset, index)?);
        }
        ThumbInstr::VmovF { sd, sm } => wide(code, OP_VMOV_F, s(sd), 0, s(sm)),
        ThumbInstr::Vadd { sd, sn, sm }
        | ThumbInstr::Vsub { sd, sn, sm }
        | ThumbInstr::Vmul { sd, sn, sm }
        | ThumbInstr::Vmla { sd, sn, sm }
        | ThumbInstr::Vdiv { sd, sn, sm } => {
            let opcode = match instr {
                ThumbInstr::Vadd { .. } => OP_VADD,
                ThumbInstr::Vsub { .. } => OP_VSUB,
                ThumbInstr::Vmul { .. } => OP_VMUL,
                ThumbInstr::Vmla { .. } => OP_VMLA,
                _ => OP_VDIV,
            };
            wide(code, opcode, s(sd), 0, s(sn) | (s(sm) << 8));
        }
        ThumbInstr::Vabs { sd, sm }
        | ThumbInstr::Vneg { sd, sm }
        | ThumbInstr::VcvtF32S32 { sd, sm }
        | ThumbInstr::VcvtS32F32 { sd, sm } => {
            let opcode = match instr {
                ThumbInstr::Vabs { .. } => OP_VABS,
                ThumbInstr::Vneg { .. } => OP_VNEG,
                ThumbInstr::VcvtF32S32 { .. } => OP_VCVT_F32_S32,
                _ => OP_VCVT_S32_F32,
            };
            wide(code, opcode, s(sd), 0, s(sm));
        }
        ThumbInstr::Vcmp { sn, sm } => wide(code, OP_VCMP, s(sn), 0, s(sm)),
    }
    Ok(())
}

/// Decodes the instruction starting at halfword `hw_pc`.
///
/// Returns the instruction and its halfword length. Branch targets come
/// back as *absolute halfword offsets* (the caller's pc unit on the
/// per-halfword execution path); [`DecodedProgram::decode`] converts them
/// to instruction indices instead.
///
/// # Errors
///
/// See [`CodeError`].
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn decode_at(code: &[u16], hw_pc: usize) -> Result<(ThumbInstr, usize), CodeError> {
    let hw = *code.get(hw_pc).ok_or(CodeError::Truncated { hw_pc })?;
    let wide = hw & 0x8000 != 0;
    let opcode = (hw >> 9) & 0x3f;
    let a = (hw >> 4) & 0x1f;
    let b = hw & 0xf;
    let payload = if wide {
        Some(*code.get(hw_pc + 1).ok_or(CodeError::Truncated { hw_pc })?)
    } else {
        None
    };
    let field = CodeError::Field { hw_pc };
    let r = |v: u16| {
        if v < 15 {
            Ok(R::new(v as u8))
        } else {
            Err(field)
        }
    };
    let s = |v: u16| {
        if v < 32 {
            Ok(S::new(v as u8))
        } else {
            Err(field)
        }
    };
    let dp_op = |v: u16| {
        Ok(match v {
            0 => DpOp::Add,
            1 => DpOp::Sub,
            2 => DpOp::And,
            3 => DpOp::Orr,
            4 => DpOp::Eor,
            5 => DpOp::Lsl,
            6 => DpOp::Lsr,
            7 => DpOp::Asr,
            8 => DpOp::Mul,
            9 => DpOp::Sdiv,
            10 => DpOp::Udiv,
            _ => return Err(field),
        })
    };
    let cond = |v: u16| {
        Ok(match v {
            0 => Cond::Al,
            1 => Cond::Eq,
            2 => Cond::Ne,
            3 => Cond::Lt,
            4 => Cond::Ge,
            5 => Cond::Gt,
            6 => Cond::Le,
            7 => Cond::Hs,
            8 => Cond::Lo,
            9 => Cond::Mi,
            10 => Cond::Pl,
            _ => return Err(field),
        })
    };
    let width = |v: u16| {
        Ok(match v {
            0 => LsWidth::B,
            1 => LsWidth::Sb,
            2 => LsWidth::H,
            3 => LsWidth::Sh,
            4 => LsWidth::W,
            _ => return Err(field),
        })
    };

    let instr = match (wide, opcode) {
        (false, OP_NOP) => ThumbInstr::Nop,
        (false, OP_BKPT) => ThumbInstr::Bkpt,
        (false, OP_MOV_REG) => ThumbInstr::MovReg {
            rd: r(a)?,
            rm: r(b)?,
        },
        (false, OP_CMP) => ThumbInstr::Cmp {
            rn: r(a)?,
            rm: r(b)?,
        },
        (false, OP_VMRS) => ThumbInstr::Vmrs,
        (false, OP_VMOV_TO_S) => ThumbInstr::VmovToS {
            sd: s(a)?,
            rt: r(b)?,
        },
        (false, OP_VMOV_FROM_S) => ThumbInstr::VmovFromS {
            rt: r(b)?,
            sm: s(a)?,
        },
        (true, _) => {
            let p = payload.expect("wide instructions carry a payload");
            match opcode {
                OP_MOVW => ThumbInstr::Movw { rd: r(a)?, imm: p },
                OP_MOVT => ThumbInstr::Movt { rd: r(a)?, imm: p },
                OP_DP => ThumbInstr::Dp {
                    op: dp_op(b)?,
                    rd: r(a)?,
                    rn: r(p & 0xf)?,
                    rm: r((p >> 4) & 0xf)?,
                },
                OP_ADD_IMM => ThumbInstr::AddImm {
                    rd: r(a)?,
                    rn: r(b)?,
                    imm: i32::from(p as i16),
                },
                OP_SUBS_IMM => ThumbInstr::SubsImm {
                    rd: r(a)?,
                    rn: r(b)?,
                    imm: i32::from(p as i16),
                },
                OP_CMP_IMM => ThumbInstr::CmpImm {
                    rn: r(a)?,
                    imm: i32::from(p as i16),
                },
                OP_LSL_IMM | OP_LSR_IMM | OP_ASR_IMM => {
                    if p > 31 {
                        return Err(field);
                    }
                    let (rd, rm, shamt) = (r(a)?, r(b)?, p as u8);
                    match opcode {
                        OP_LSL_IMM => ThumbInstr::LslImm { rd, rm, shamt },
                        OP_LSR_IMM => ThumbInstr::LsrImm { rd, rm, shamt },
                        _ => ThumbInstr::AsrImm { rd, rm, shamt },
                    }
                }
                OP_MLA | OP_MLS | OP_SMLAD => {
                    let (rd, rn, rm, ra) =
                        (r(a)?, r(p & 0xf)?, r((p >> 4) & 0xf)?, r((p >> 8) & 0xf)?);
                    match opcode {
                        OP_MLA => ThumbInstr::Mla { rd, rn, rm, ra },
                        OP_MLS => ThumbInstr::Mls { rd, rn, rm, ra },
                        _ => ThumbInstr::Smlad { rd, rn, rm, ra },
                    }
                }
                OP_SMULL | OP_SMLAL => {
                    let (rdlo, rdhi, rn, rm) = (r(a)?, r(b)?, r(p & 0xf)?, r((p >> 4) & 0xf)?);
                    if opcode == OP_SMULL {
                        ThumbInstr::Smull { rdlo, rdhi, rn, rm }
                    } else {
                        ThumbInstr::Smlal { rdlo, rdhi, rn, rm }
                    }
                }
                OP_SSAT => {
                    if p == 0 || p > 31 {
                        return Err(field);
                    }
                    ThumbInstr::Ssat {
                        rd: r(a)?,
                        sat: p as u8,
                        rn: r(b)?,
                    }
                }
                OP_LDR | OP_STR => {
                    let mode = if p & 0x8000 != 0 {
                        AddrMode::PostInc
                    } else {
                        AddrMode::Offset
                    };
                    let w = width((p >> 12) & 0x7)?;
                    // Sign-extend the 12-bit offset.
                    let offset = i32::from((((p & 0xfff) as i16) << 4) >> 4);
                    let (rt, rn) = (r(a)?, r(b)?);
                    if opcode == OP_LDR {
                        ThumbInstr::Ldr {
                            width: w,
                            rt,
                            rn,
                            offset,
                            mode,
                        }
                    } else {
                        ThumbInstr::Str {
                            width: w,
                            rt,
                            rn,
                            offset,
                            mode,
                        }
                    }
                }
                OP_B => {
                    let delta = isize::from(p as i16);
                    let target = hw_pc
                        .checked_add_signed(delta)
                        .ok_or(CodeError::BranchTarget { hw_pc })?;
                    ThumbInstr::B {
                        cond: cond(a)?,
                        target,
                    }
                }
                OP_VLDR | OP_VLDR_POST | OP_VSTR => {
                    let (sd, rn, offset) = (s(a)?, r(b)?, i32::from(p as i16));
                    match opcode {
                        OP_VLDR => ThumbInstr::Vldr { sd, rn, offset },
                        OP_VLDR_POST => ThumbInstr::VldrPost { sd, rn, offset },
                        _ => ThumbInstr::Vstr { sd, rn, offset },
                    }
                }
                OP_VMOV_F => ThumbInstr::VmovF {
                    sd: s(a)?,
                    sm: s(p)?,
                },
                OP_VADD | OP_VSUB | OP_VMUL | OP_VMLA | OP_VDIV => {
                    let (sd, sn, sm) = (s(a)?, s(p & 0xff)?, s(p >> 8)?);
                    match opcode {
                        OP_VADD => ThumbInstr::Vadd { sd, sn, sm },
                        OP_VSUB => ThumbInstr::Vsub { sd, sn, sm },
                        OP_VMUL => ThumbInstr::Vmul { sd, sn, sm },
                        OP_VMLA => ThumbInstr::Vmla { sd, sn, sm },
                        _ => ThumbInstr::Vdiv { sd, sn, sm },
                    }
                }
                OP_VABS | OP_VNEG | OP_VCVT_F32_S32 | OP_VCVT_S32_F32 => {
                    let (sd, sm) = (s(a)?, s(p)?);
                    match opcode {
                        OP_VABS => ThumbInstr::Vabs { sd, sm },
                        OP_VNEG => ThumbInstr::Vneg { sd, sm },
                        OP_VCVT_F32_S32 => ThumbInstr::VcvtF32S32 { sd, sm },
                        _ => ThumbInstr::VcvtS32F32 { sd, sm },
                    }
                }
                OP_VCMP => ThumbInstr::Vcmp {
                    sn: s(a)?,
                    sm: s(p)?,
                },
                _ => return Err(CodeError::Opcode { hw_pc, hw }),
            }
        }
        (false, _) => return Err(CodeError::Opcode { hw_pc, hw }),
    };
    Ok((instr, if wide { 2 } else { 1 }))
}

/// A program decoded from halfword code in one pass — the M4's decode
/// cache (see the module docs: flash is immutable, so the cache never
/// invalidates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    instrs: Vec<ThumbInstr>,
}

impl DecodedProgram {
    /// Decodes every static instruction and rewrites branch targets from
    /// halfword offsets to instruction indices.
    ///
    /// # Errors
    ///
    /// See [`CodeError`]; notably [`CodeError::BranchTarget`] if a branch
    /// lands in the middle of a wide instruction.
    pub fn decode(code: &[u16]) -> Result<DecodedProgram, CodeError> {
        let mut instrs = Vec::new();
        let mut starts = Vec::new(); // halfword offset of each instruction
        let mut index_at = vec![usize::MAX; code.len() + 1];
        let mut hw = 0usize;
        while hw < code.len() {
            index_at[hw] = instrs.len();
            starts.push(hw);
            let (instr, len) = decode_at(code, hw)?;
            instrs.push(instr);
            hw += len;
        }
        index_at[code.len()] = instrs.len();

        for (i, instr) in instrs.iter_mut().enumerate() {
            if let ThumbInstr::B { target, .. } = instr {
                let index = index_at
                    .get(*target)
                    .copied()
                    .filter(|&ix| ix != usize::MAX)
                    .ok_or(CodeError::BranchTarget { hw_pc: starts[i] })?;
                *target = index;
            }
        }
        Ok(DecodedProgram { instrs })
    }

    /// The decoded instructions, branch targets in instruction indices —
    /// the input of [`BlockProgram::compile`](crate::BlockProgram::compile).
    #[must_use]
    pub fn instrs(&self) -> &[ThumbInstr] {
        &self.instrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ThumbAsm;
    use crate::cpu::CortexM4;
    use crate::timing::CortexM4Timing;
    use crate::{BlockProgram, FusedStats};
    use iw_rv32::Ram;
    use iw_trace::{NoopSink, TrackId};

    /// A program touching every encoding family: narrow + wide integer,
    /// loads/stores both modes, branches both directions, and VFP.
    fn kitchen_sink() -> Vec<ThumbInstr> {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 0x100);
        asm.li(R::R1, 5);
        asm.li(R::R2, 0);
        let top = asm.here();
        asm.ldr(LsWidth::H, R::R3, R::R0, 0);
        asm.ldr_post(LsWidth::W, R::R4, R::R0, 4);
        asm.dp(DpOp::Add, R::R2, R::R2, R::R4);
        asm.emit(ThumbInstr::Mla {
            rd: R::R2,
            rn: R::R3,
            rm: R::R1,
            ra: R::R2,
        });
        asm.emit(ThumbInstr::Ssat {
            rd: R::R2,
            sat: 24,
            rn: R::R2,
        });
        asm.subs(R::R1, R::R1, 1);
        asm.b_to(Cond::Ne, top);
        asm.emit(ThumbInstr::MovReg {
            rd: R::R6,
            rm: R::R2,
        });
        asm.emit(ThumbInstr::VmovToS {
            sd: S::new(0),
            rt: R::R2,
        });
        asm.emit(ThumbInstr::VcvtF32S32 {
            sd: S::new(1),
            sm: S::new(0),
        });
        asm.emit(ThumbInstr::Vmla {
            sd: S::new(2),
            sn: S::new(1),
            sm: S::new(1),
        });
        asm.emit(ThumbInstr::Vcmp {
            sn: S::new(2),
            sm: S::new(1),
        });
        asm.emit(ThumbInstr::Vmrs);
        asm.str(LsWidth::W, R::R2, R::R0, 0x40);
        asm.bkpt();
        asm.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_program() {
        let program = kitchen_sink();
        let code = encode_program(&program).unwrap();
        // Mixed lengths: must be longer than the instruction count but
        // shorter than all-wide.
        assert!(code.len() > program.len());
        assert!(code.len() < 2 * program.len());
        let decoded = DecodedProgram::decode(&code).unwrap();
        assert_eq!(decoded.instrs(), &program[..]);
    }

    #[test]
    fn per_halfword_execution_matches_predecoded() {
        let program = kitchen_sink();
        let code = encode_program(&program).unwrap();

        let fill = |ram: &mut Ram| {
            for i in 0..16u32 {
                ram.write_bytes(0x100 + 4 * i, &(i + 1).to_le_bytes());
            }
        };
        let t = CortexM4Timing::default();

        let mut ram_a = Ram::new(0, 4096);
        fill(&mut ram_a);
        let mut ref_cpu = CortexM4::new();
        let decoded = DecodedProgram::decode(&code).unwrap();
        let fused = BlockProgram::compile(decoded.instrs());
        let mut stats = FusedStats::default();
        let ref_res = ref_cpu
            .run_fused(
                &fused,
                &mut ram_a,
                &t,
                1_000_000,
                &mut stats,
                &mut NoopSink,
                TrackId::default(),
            )
            .unwrap();

        let mut ram_b = Ram::new(0, 4096);
        fill(&mut ram_b);
        let mut cpu = CortexM4::new();
        let res = cpu.run_code(&code, &mut ram_b, &t, 1_000_000).unwrap();

        assert_eq!(res, ref_res, "cycles and instruction counts must agree");
        for i in 0..15u8 {
            assert_eq!(cpu.reg(R::new(i)), ref_cpu.reg(R::new(i)), "r{i}");
        }
        for i in 0..32u8 {
            assert_eq!(
                cpu.sreg(S::new(i)).to_bits(),
                ref_cpu.sreg(S::new(i)).to_bits(),
                "s{i}"
            );
        }
        assert_eq!(cpu.flags(), ref_cpu.flags());
        assert_eq!(cpu.profile(), ref_cpu.profile());
        assert_eq!(
            ram_b.read_bytes(0x140, 4),
            ram_a.read_bytes(0x140, 4),
            "stored results must agree"
        );
    }

    #[test]
    fn branch_into_wide_instruction_rejected() {
        // movw r0, #7 (wide, offsets 0-1); b.al into its payload halfword.
        let mut code = encode_program(&[
            ThumbInstr::Movw { rd: R::R0, imm: 7 },
            ThumbInstr::B {
                cond: Cond::Al,
                target: 0,
            },
            ThumbInstr::Bkpt,
        ])
        .unwrap();
        // Patch the branch delta to land at halfword 1 (mid-movw).
        // Branch starts at halfword 2, so delta -1.
        code[3] = -1i16 as u16;
        let err = DecodedProgram::decode(&code).unwrap_err();
        assert_eq!(err, CodeError::BranchTarget { hw_pc: 2 });
    }

    #[test]
    fn truncated_and_unknown_rejected() {
        let code = [hw1(true, OP_MOVW, 0, 0)];
        assert_eq!(
            decode_at(&code, 0).unwrap_err(),
            CodeError::Truncated { hw_pc: 0 }
        );
        let code = [hw1(false, 63, 0, 0)];
        assert!(matches!(
            decode_at(&code, 0).unwrap_err(),
            CodeError::Opcode { hw_pc: 0, .. }
        ));
    }

    #[test]
    fn out_of_range_encodings_rejected() {
        assert_eq!(
            encode_program(&[ThumbInstr::AddImm {
                rd: R::R0,
                rn: R::R0,
                imm: 40_000,
            }]),
            Err(EncodeError::Imm { index: 0 })
        );
        assert_eq!(
            encode_program(&[ThumbInstr::Ldr {
                width: LsWidth::W,
                rt: R::R0,
                rn: R::R1,
                offset: 4096,
                mode: AddrMode::Offset,
            }]),
            Err(EncodeError::Offset { index: 0 })
        );
        assert_eq!(
            encode_program(&[ThumbInstr::B {
                cond: Cond::Al,
                target: 7,
            }]),
            Err(EncodeError::Branch { index: 0 })
        );
    }

    #[test]
    fn branch_to_program_end_is_legal() {
        // `b.al end` used as "skip to exit" must survive the roundtrip.
        let program = vec![
            ThumbInstr::B {
                cond: Cond::Al,
                target: 2,
            },
            ThumbInstr::Nop,
            ThumbInstr::Bkpt,
        ];
        let code = encode_program(&program).unwrap();
        let decoded = DecodedProgram::decode(&code).unwrap();
        assert_eq!(decoded.instrs(), &program[..]);
    }
}
