//! Execution profiling: per-class instruction and cycle counters.
//!
//! Both simulators (RISC-V here, ARM in `iw-armv7m`) classify every retired
//! instruction into an [`InstrClass`] and accumulate an [`ExecProfile`], so
//! kernel-level questions — *how many cycles go to loads vs MACs vs the
//! activation's division?* — can be answered per platform.

/// Coarse instruction classes shared by both ISAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Plain integer ALU / moves / compares.
    Alu,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// 32-bit multiplies (including high-half).
    Mul,
    /// Divides / remainders.
    Div,
    /// Taken branches.
    BranchTaken,
    /// Not-taken branches.
    BranchNotTaken,
    /// Unconditional jumps / calls.
    Jump,
    /// DSP ops: MAC, clip, min/max, saturate, dual-MAC.
    Dsp,
    /// Packed-SIMD operations.
    Simd,
    /// Hardware-loop setup.
    LoopSetup,
    /// Floating-point operations (VFP).
    Float,
    /// System (ecall/ebreak/bkpt/fence).
    System,
}

impl InstrClass {
    /// All classes, in display order.
    pub const ALL: [InstrClass; 13] = [
        InstrClass::Alu,
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::Mul,
        InstrClass::Div,
        InstrClass::BranchTaken,
        InstrClass::BranchNotTaken,
        InstrClass::Jump,
        InstrClass::Dsp,
        InstrClass::Simd,
        InstrClass::LoopSetup,
        InstrClass::Float,
        InstrClass::System,
    ];

    fn index(self) -> usize {
        match self {
            InstrClass::Alu => 0,
            InstrClass::Load => 1,
            InstrClass::Store => 2,
            InstrClass::Mul => 3,
            InstrClass::Div => 4,
            InstrClass::BranchTaken => 5,
            InstrClass::BranchNotTaken => 6,
            InstrClass::Jump => 7,
            InstrClass::Dsp => 8,
            InstrClass::Simd => 9,
            InstrClass::LoopSetup => 10,
            InstrClass::Float => 11,
            InstrClass::System => 12,
        }
    }

    /// Short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Alu => "alu",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::Mul => "mul",
            InstrClass::Div => "div",
            InstrClass::BranchTaken => "br-taken",
            InstrClass::BranchNotTaken => "br-fall",
            InstrClass::Jump => "jump",
            InstrClass::Dsp => "dsp",
            InstrClass::Simd => "simd",
            InstrClass::LoopSetup => "hwloop",
            InstrClass::Float => "float",
            InstrClass::System => "system",
        }
    }
}

/// Counters for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Instructions retired in this class.
    pub instructions: u64,
    /// Base cycles attributed to this class (memory stalls are charged by
    /// the SoC model and are *not* included here).
    pub cycles: u64,
}

/// A per-class execution profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecProfile {
    slots: [ClassStats; 13],
}

impl ExecProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> ExecProfile {
        ExecProfile::default()
    }

    /// Records one retired instruction.
    #[inline]
    pub fn record(&mut self, class: InstrClass, cycles: u32) {
        let slot = &mut self.slots[class.index()];
        slot.instructions += 1;
        slot.cycles += u64::from(cycles);
    }

    /// Records `n` retired instructions of one class at `cycles` each.
    #[inline]
    pub fn record_n(&mut self, class: InstrClass, n: u64, cycles: u32) {
        let slot = &mut self.slots[class.index()];
        slot.instructions += n;
        slot.cycles += n * u64::from(cycles);
    }

    /// Counters for one class.
    #[must_use]
    pub fn class(&self, class: InstrClass) -> ClassStats {
        self.slots[class.index()]
    }

    /// Adds another profile into this one (cluster aggregation).
    pub fn merge(&mut self, other: &ExecProfile) {
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.instructions += b.instructions;
            a.cycles += b.cycles;
        }
    }

    /// Totals across all classes.
    #[must_use]
    pub fn total(&self) -> ClassStats {
        let mut t = ClassStats::default();
        for s in &self.slots {
            t.instructions += s.instructions;
            t.cycles += s.cycles;
        }
        t
    }

    /// `(class, stats)` pairs with nonzero instruction counts, descending
    /// by cycles.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(InstrClass, ClassStats)> {
        let mut v: Vec<(InstrClass, ClassStats)> = InstrClass::ALL
            .into_iter()
            .map(|c| (c, self.class(c)))
            .filter(|(_, s)| s.instructions > 0)
            .collect();
        v.sort_by_key(|(_, s)| core::cmp::Reverse(s.cycles));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut p = ExecProfile::new();
        p.record(InstrClass::Load, 2);
        p.record(InstrClass::Load, 2);
        p.record(InstrClass::Div, 35);
        assert_eq!(p.class(InstrClass::Load).instructions, 2);
        assert_eq!(p.class(InstrClass::Load).cycles, 4);
        assert_eq!(p.total().instructions, 3);
        assert_eq!(p.total().cycles, 39);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExecProfile::new();
        a.record(InstrClass::Alu, 1);
        let mut b = ExecProfile::new();
        b.record(InstrClass::Alu, 1);
        b.record(InstrClass::Simd, 1);
        a.merge(&b);
        assert_eq!(a.class(InstrClass::Alu).instructions, 2);
        assert_eq!(a.class(InstrClass::Simd).instructions, 1);
    }

    #[test]
    fn breakdown_sorted_by_cycles() {
        let mut p = ExecProfile::new();
        p.record(InstrClass::Alu, 1);
        p.record(InstrClass::Div, 35);
        let b = p.breakdown();
        assert_eq!(b[0].0, InstrClass::Div);
        assert_eq!(b.len(), 2);
    }
}
