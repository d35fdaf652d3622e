//! Program builder for the Thumb-2 subset, with labels.

use crate::instr::{AddrMode, Cond, DpOp, LsWidth, ThumbInstr, R, S};

/// A code label (instruction index once bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Error produced by [`ThumbAsm::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnboundLabelError(Label);

impl core::fmt::Display for UnboundLabelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "label {:?} was never bound", self.0)
    }
}

impl std::error::Error for UnboundLabelError {}

#[derive(Debug, Clone, Copy)]
enum Item {
    Plain(ThumbInstr),
    BranchTo { cond: Cond, label: Label },
}

/// Builds a `Vec<ThumbInstr>` program with forward/backward labels.
///
/// # Examples
///
/// ```
/// use iw_armv7m::{asm::ThumbAsm, R, Cond};
/// let mut asm = ThumbAsm::new();
/// asm.li(R::R0, 3);
/// let top = asm.here();
/// asm.subs(R::R0, R::R0, 1);
/// asm.b_to(Cond::Ne, top);
/// asm.bkpt();
/// let program = asm.finish()?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), iw_armv7m::asm::UnboundLabelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThumbAsm {
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
    symbols: Vec<(u32, String)>,
}

impl ThumbAsm {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ThumbAsm {
        ThumbAsm::default()
    }

    /// Names the region starting at the current instruction index. Marks
    /// are pure metadata — they emit nothing — and feed the trace
    /// layer's symbolized hotspot/region reports. Positions are in
    /// *instruction index* units, matching the PC of the fused
    /// [`crate::CortexM4::run_fused`] path.
    pub fn mark(&mut self, name: &str) {
        self.symbols
            .push((self.items.len() as u32, name.to_string()));
    }

    /// The `(instruction_index, name)` marks recorded so far, in
    /// emission order.
    #[must_use]
    pub fn symbols(&self) -> &[(u32, String)] {
        &self.symbols
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no instructions were emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Creates a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice at instruction {}",
            self.items.len()
        );
        self.labels[label.0] = Some(self.items.len());
    }

    /// Creates a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Appends a raw instruction.
    pub fn emit(&mut self, instr: ThumbInstr) {
        self.items.push(Item::Plain(instr));
    }

    /// Loads a 32-bit constant (`movw`, plus `movt` when needed).
    pub fn li(&mut self, rd: R, value: i32) {
        let v = value as u32;
        self.emit(ThumbInstr::Movw {
            rd,
            imm: (v & 0xffff) as u16,
        });
        if v >> 16 != 0 {
            self.emit(ThumbInstr::Movt {
                rd,
                imm: (v >> 16) as u16,
            });
        }
    }

    /// `mov rd, rm`
    pub fn mv(&mut self, rd: R, rm: R) {
        self.emit(ThumbInstr::MovReg { rd, rm });
    }

    /// Register-register data processing.
    pub fn dp(&mut self, op: DpOp, rd: R, rn: R, rm: R) {
        self.emit(ThumbInstr::Dp { op, rd, rn, rm });
    }

    /// `add rd, rn, rm`
    pub fn add(&mut self, rd: R, rn: R, rm: R) {
        self.dp(DpOp::Add, rd, rn, rm);
    }

    /// `sub rd, rn, rm`
    pub fn sub(&mut self, rd: R, rn: R, rm: R) {
        self.dp(DpOp::Sub, rd, rn, rm);
    }

    /// `mul rd, rn, rm`
    pub fn mul(&mut self, rd: R, rn: R, rm: R) {
        self.dp(DpOp::Mul, rd, rn, rm);
    }

    /// `add rd, rn, #imm`
    pub fn add_imm(&mut self, rd: R, rn: R, imm: i32) {
        self.emit(ThumbInstr::AddImm { rd, rn, imm });
    }

    /// `subs rd, rn, #imm` (sets flags)
    pub fn subs(&mut self, rd: R, rn: R, imm: i32) {
        self.emit(ThumbInstr::SubsImm { rd, rn, imm });
    }

    /// `asr rd, rm, #shamt`
    pub fn asr_imm(&mut self, rd: R, rm: R, shamt: u8) {
        self.emit(ThumbInstr::AsrImm { rd, rm, shamt });
    }

    /// `lsl rd, rm, #shamt`
    pub fn lsl_imm(&mut self, rd: R, rm: R, shamt: u8) {
        self.emit(ThumbInstr::LslImm { rd, rm, shamt });
    }

    /// `mla rd, rn, rm, ra`
    pub fn mla(&mut self, rd: R, rn: R, rm: R, ra: R) {
        self.emit(ThumbInstr::Mla { rd, rn, rm, ra });
    }

    /// Load with immediate offset.
    pub fn ldr(&mut self, width: LsWidth, rt: R, rn: R, offset: i32) {
        self.emit(ThumbInstr::Ldr {
            width,
            rt,
            rn,
            offset,
            mode: AddrMode::Offset,
        });
    }

    /// Post-indexed load: access at `rn`, then `rn += offset`.
    pub fn ldr_post(&mut self, width: LsWidth, rt: R, rn: R, offset: i32) {
        self.emit(ThumbInstr::Ldr {
            width,
            rt,
            rn,
            offset,
            mode: AddrMode::PostInc,
        });
    }

    /// Store with immediate offset.
    pub fn str(&mut self, width: LsWidth, rt: R, rn: R, offset: i32) {
        self.emit(ThumbInstr::Str {
            width,
            rt,
            rn,
            offset,
            mode: AddrMode::Offset,
        });
    }

    /// Post-indexed store.
    pub fn str_post(&mut self, width: LsWidth, rt: R, rn: R, offset: i32) {
        self.emit(ThumbInstr::Str {
            width,
            rt,
            rn,
            offset,
            mode: AddrMode::PostInc,
        });
    }

    /// `cmp rn, rm`
    pub fn cmp(&mut self, rn: R, rm: R) {
        self.emit(ThumbInstr::Cmp { rn, rm });
    }

    /// `cmp rn, #imm`
    pub fn cmp_imm(&mut self, rn: R, imm: i32) {
        self.emit(ThumbInstr::CmpImm { rn, imm });
    }

    /// Conditional branch to a label.
    pub fn b_to(&mut self, cond: Cond, label: Label) {
        self.items.push(Item::BranchTo { cond, label });
    }

    /// Unconditional branch to a label.
    pub fn b(&mut self, label: Label) {
        self.b_to(Cond::Al, label);
    }

    /// `vldr.f32 sd, [rn, #offset]`
    pub fn vldr(&mut self, sd: S, rn: R, offset: i32) {
        self.emit(ThumbInstr::Vldr { sd, rn, offset });
    }

    /// Post-indexed float load (`vldmia rn!, {sd}`).
    pub fn vldr_post(&mut self, sd: S, rn: R, offset: i32) {
        self.emit(ThumbInstr::VldrPost { sd, rn, offset });
    }

    /// `vstr.f32 sd, [rn, #offset]`
    pub fn vstr(&mut self, sd: S, rn: R, offset: i32) {
        self.emit(ThumbInstr::Vstr { sd, rn, offset });
    }

    /// `bkpt` — halts the core.
    pub fn bkpt(&mut self) {
        self.emit(ThumbInstr::Bkpt);
    }

    /// Resolves labels and returns the program.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundLabelError`] if a referenced label was never bound.
    pub fn finish(&self) -> Result<Vec<ThumbInstr>, UnboundLabelError> {
        self.items
            .iter()
            .map(|item| match *item {
                Item::Plain(i) => Ok(i),
                Item::BranchTo { cond, label } => {
                    let target = self.labels[label.0].ok_or(UnboundLabelError(label))?;
                    Ok(ThumbInstr::B { cond, target })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_label_resolution() {
        let mut asm = ThumbAsm::new();
        let skip = asm.new_label();
        asm.b_to(Cond::Al, skip);
        asm.li(R::R0, 1);
        asm.bind(skip);
        asm.bkpt();
        let program = asm.finish().unwrap();
        assert_eq!(
            program[0],
            ThumbInstr::B {
                cond: Cond::Al,
                target: 2
            }
        );
    }

    #[test]
    fn unbound_label_rejected() {
        let mut asm = ThumbAsm::new();
        let l = asm.new_label();
        asm.b_to(Cond::Al, l);
        assert!(asm.finish().is_err());
    }

    #[test]
    fn li_emits_one_or_two() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, 100);
        assert_eq!(asm.len(), 1);
        asm.li(R::R1, 0x10000);
        assert_eq!(asm.len(), 3);
    }
}
