//! Feature extraction on-device: a real kernel plus the paper's cost model.
//!
//! The paper measures feature extraction (RMSSD/SDSD/NN50 from RR
//! intervals, GSRL/GSRH from the skin-conductance slopes) at **50 µs** on
//! the parallel cluster, costing **1 µJ** at the ~20 mW parallel power
//! level. [`FeatureCost`] carries that published budget into the
//! end-to-end energy model; [`FeatureWorkload`] is an actual generated
//! kernel — integer sums, successive differences and slope extrema over
//! the raw sample windows — that runs on every registered
//! [`Machine`](crate::machine::Machine) and whose measured cycle count
//! lands in the same ballpark the paper reports.

use iw_armv7m::asm::ThumbAsm;
use iw_armv7m::{Cond, DpOp, LsWidth, R};
use iw_mrwolf::{OperatingPoint, WolfMode};
use iw_rv32::asm::Asm;
use iw_rv32::{BranchCond, MemWidth, Reg};

use crate::machine::{DataLayout, Isa, LoweredProgram, MachineError, Workload, WorkloadFootprint};

/// Feature-extraction compute-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureCost {
    /// Cycles on the 8-core cluster (50 µs × 100 MHz).
    pub cycles: u64,
    /// Cores active during extraction.
    pub cores: usize,
}

impl Default for FeatureCost {
    fn default() -> FeatureCost {
        FeatureCost {
            cycles: 5_000,
            cores: 8,
        }
    }
}

impl FeatureCost {
    /// Wall-clock seconds at the efficient operating point.
    #[must_use]
    pub fn seconds(&self, op: &OperatingPoint) -> f64 {
        self.cycles as f64 / op.freq_hz
    }

    /// Energy in joules at the efficient operating point.
    ///
    /// # Examples
    ///
    /// ```
    /// use iw_kernels::FeatureCost;
    /// use iw_mrwolf::OperatingPoint;
    /// let e = FeatureCost::default().energy_j(&OperatingPoint::efficient());
    /// // ~1 µJ as the paper assumes.
    /// assert!(e > 0.5e-6 && e < 2.0e-6);
    /// ```
    #[must_use]
    pub fn energy_j(&self, op: &OperatingPoint) -> f64 {
        op.energy(
            self.cycles,
            WolfMode::Cluster {
                active_cores: self.cores,
            },
        )
        .energy_j
    }

    /// A cost model calibrated from a measured run instead of the paper's
    /// published figure (e.g. a [`FeatureWorkload`] deployment).
    #[must_use]
    pub fn measured(cycles: u64, cores: usize) -> FeatureCost {
        FeatureCost { cycles, cores }
    }
}

/// Integer feature summary the kernel produces — the raw accumulators the
/// HRV/GSR features are derived from (sums and successive-difference
/// statistics; the host divides by the window length).
///
/// All arithmetic is 32-bit wrapping, mirroring what the generated kernels
/// compute on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSummary {
    /// Sum of the RR intervals (→ mean RR / HR).
    pub rr_sum: i32,
    /// Sum of squared successive RR differences (→ RMSSD/SDSD).
    pub ssd_sum: i32,
    /// Count of successive RR differences exceeding 50 (→ NN50/pNN50).
    pub nn50: i32,
    /// Sum of the GSR samples (→ tonic skin-conductance level, GSRL).
    pub gsr_sum: i32,
    /// Maximum successive GSR slope (→ phasic response peak, GSRH).
    pub slope_max: i32,
    /// Minimum successive GSR slope (recovery rate).
    pub slope_min: i32,
}

impl FeatureSummary {
    /// Number of 32-bit output words the kernel writes.
    pub const WORDS: usize = 6;

    /// Decodes a machine's raw output bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly 24 bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> FeatureSummary {
        assert_eq!(bytes.len(), Self::WORDS * 4, "feature output window");
        let w = |i: usize| i32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("word"));
        FeatureSummary {
            rr_sum: w(0),
            ssd_sum: w(1),
            nn50: w(2),
            gsr_sum: w(3),
            slope_max: w(4),
            slope_min: w(5),
        }
    }
}

/// NN50 threshold (successive-difference magnitude, in RR sample units).
const NN50_THRESHOLD: i32 = 50;

/// On-device feature extraction over one RR-interval window and one GSR
/// sample window — the stage experiment X2 budgets with [`FeatureCost`],
/// here as a real generated kernel for every registered machine.
#[derive(Debug, Clone)]
pub struct FeatureWorkload {
    rr: Vec<i32>,
    gsr: Vec<i32>,
}

impl FeatureWorkload {
    /// Binds the sample windows into a deployable workload.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadInput`] when either window has fewer than two
    /// samples (successive differences need at least one pair).
    pub fn new(rr: &[i32], gsr: &[i32]) -> Result<FeatureWorkload, MachineError> {
        for window in [rr, gsr] {
            if window.len() < 2 {
                return Err(MachineError::BadInput {
                    expected: 2,
                    got: window.len(),
                });
            }
        }
        Ok(FeatureWorkload {
            rr: rr.to_vec(),
            gsr: gsr.to_vec(),
        })
    }

    /// What the kernel computes, in plain Rust (wrapping arithmetic).
    #[must_use]
    pub fn reference(&self) -> FeatureSummary {
        let mut rr_sum = self.rr[0];
        let mut ssd_sum = 0i32;
        let mut nn50 = 0i32;
        for pair in self.rr.windows(2) {
            let d = pair[1].wrapping_sub(pair[0]);
            rr_sum = rr_sum.wrapping_add(pair[1]);
            ssd_sum = ssd_sum.wrapping_add(d.wrapping_mul(d));
            if d.wrapping_abs() > NN50_THRESHOLD {
                nn50 += 1;
            }
        }
        let mut gsr_sum = self.gsr[0].wrapping_add(self.gsr[1]);
        let first = self.gsr[1].wrapping_sub(self.gsr[0]);
        let mut slope_max = first;
        let mut slope_min = first;
        for pair in self.gsr[1..].windows(2) {
            let d = pair[1].wrapping_sub(pair[0]);
            gsr_sum = gsr_sum.wrapping_add(pair[1]);
            slope_max = slope_max.max(d);
            slope_min = slope_min.min(d);
        }
        FeatureSummary {
            rr_sum,
            ssd_sum,
            nn50,
            gsr_sum,
            slope_max,
            slope_min,
        }
    }

    fn addrs(&self, layout: &DataLayout) -> (u32, u32, u32) {
        let rr_base = layout.buf_base;
        let gsr_base = rr_base + (self.rr.len() * 4) as u32;
        let out_base = gsr_base + (self.gsr.len() * 4) as u32;
        (rr_base, gsr_base, out_base)
    }

    /// The two passes use only base RV32IM instructions, so the same
    /// kernel runs on Ibex and RI5CY. On the SPMD cluster, core 0 does the
    /// (tiny, memory-bound) work and the others go straight to the exit —
    /// every core still retires its `ecall`, which is what the cluster
    /// model's run-to-halt waits for.
    fn emit_rv(&self, asm: &mut Asm, layout: &DataLayout, cores: usize) {
        let (rr_base, gsr_base, out_base) = self.addrs(layout);
        let finish = asm.new_label();
        if cores > 1 {
            asm.branch_to(BranchCond::Ne, Reg::A0, Reg::ZERO, finish);
        }

        // --- RR pass: sum, sum of squared diffs, NN50 count.
        asm.li(Reg::T0, rr_base as i32);
        asm.li(Reg::T1, (rr_base + (self.rr.len() * 4) as u32) as i32);
        asm.load(MemWidth::W, Reg::T2, Reg::T0, 0); // prev = rr[0]
        asm.addi(Reg::T0, Reg::T0, 4);
        asm.mv(Reg::T5, Reg::T2); // rr_sum
        asm.li(Reg::T6, 0); // ssd_sum
        asm.li(Reg::S2, 0); // nn50
        asm.li(Reg::S3, NN50_THRESHOLD);
        let rr_top = asm.here();
        let abs_done = asm.new_label();
        let no_nn = asm.new_label();
        asm.load(MemWidth::W, Reg::T3, Reg::T0, 0);
        asm.addi(Reg::T0, Reg::T0, 4);
        asm.add(Reg::T5, Reg::T5, Reg::T3);
        asm.sub(Reg::T4, Reg::T3, Reg::T2); // diff
        asm.mv(Reg::T2, Reg::T3); // prev = cur
        asm.mul(Reg::S4, Reg::T4, Reg::T4);
        asm.add(Reg::T6, Reg::T6, Reg::S4);
        asm.branch_to(BranchCond::Ge, Reg::T4, Reg::ZERO, abs_done);
        asm.sub(Reg::T4, Reg::ZERO, Reg::T4);
        asm.bind(abs_done);
        asm.branch_to(BranchCond::Ge, Reg::S3, Reg::T4, no_nn);
        asm.addi(Reg::S2, Reg::S2, 1);
        asm.bind(no_nn);
        asm.branch_to(BranchCond::Ltu, Reg::T0, Reg::T1, rr_top);
        asm.li(Reg::S4, out_base as i32);
        asm.sw(Reg::T5, Reg::S4, 0);
        asm.sw(Reg::T6, Reg::S4, 4);
        asm.sw(Reg::S2, Reg::S4, 8);

        // --- GSR pass: sum and slope extrema.
        asm.li(Reg::T0, gsr_base as i32);
        asm.li(Reg::T1, (gsr_base + (self.gsr.len() * 4) as u32) as i32);
        asm.load(MemWidth::W, Reg::T2, Reg::T0, 0); // prev = gsr[0]
        asm.load(MemWidth::W, Reg::T3, Reg::T0, 4); // cur = gsr[1]
        asm.addi(Reg::T0, Reg::T0, 8);
        asm.add(Reg::T5, Reg::T2, Reg::T3); // gsr_sum
        asm.sub(Reg::T4, Reg::T3, Reg::T2); // first slope
        asm.mv(Reg::T2, Reg::T3);
        asm.mv(Reg::T6, Reg::T4); // slope_max
        asm.mv(Reg::S2, Reg::T4); // slope_min
        let gsr_done = asm.new_label();
        asm.branch_to(BranchCond::Geu, Reg::T0, Reg::T1, gsr_done);
        let gsr_top = asm.here();
        let no_max = asm.new_label();
        let no_min = asm.new_label();
        asm.load(MemWidth::W, Reg::T3, Reg::T0, 0);
        asm.addi(Reg::T0, Reg::T0, 4);
        asm.add(Reg::T5, Reg::T5, Reg::T3);
        asm.sub(Reg::T4, Reg::T3, Reg::T2);
        asm.mv(Reg::T2, Reg::T3);
        asm.branch_to(BranchCond::Ge, Reg::T6, Reg::T4, no_max);
        asm.mv(Reg::T6, Reg::T4);
        asm.bind(no_max);
        asm.branch_to(BranchCond::Ge, Reg::T4, Reg::S2, no_min);
        asm.mv(Reg::S2, Reg::T4);
        asm.bind(no_min);
        asm.branch_to(BranchCond::Ltu, Reg::T0, Reg::T1, gsr_top);
        asm.bind(gsr_done);
        asm.li(Reg::S4, out_base as i32);
        asm.sw(Reg::T5, Reg::S4, 12);
        asm.sw(Reg::T6, Reg::S4, 16);
        asm.sw(Reg::S2, Reg::S4, 20);

        asm.bind(finish);
        asm.ecall();
    }

    /// Same two passes in Thumb-2 for the Cortex-M4.
    fn emit_thumb(&self, asm: &mut ThumbAsm, layout: &DataLayout) {
        let (rr_base, gsr_base, out_base) = self.addrs(layout);

        // --- RR pass.
        asm.li(R::R0, rr_base as i32);
        asm.li(R::R1, (rr_base + (self.rr.len() * 4) as u32) as i32);
        asm.ldr_post(LsWidth::W, R::R2, R::R0, 4); // prev = rr[0]
        asm.mv(R::R5, R::R2); // rr_sum
        asm.li(R::R6, 0); // ssd_sum
        asm.li(R::R7, 0); // nn50
        asm.li(R::R9, 0); // constant zero (for negation)
        let rr_top = asm.here();
        let abs_done = asm.new_label();
        let no_nn = asm.new_label();
        asm.ldr_post(LsWidth::W, R::R3, R::R0, 4);
        asm.add(R::R5, R::R5, R::R3);
        asm.sub(R::R4, R::R3, R::R2); // diff
        asm.mv(R::R2, R::R3); // prev = cur
        asm.mla(R::R6, R::R4, R::R4, R::R6); // ssd += diff²
        asm.cmp(R::R4, R::R9);
        asm.b_to(Cond::Ge, abs_done);
        asm.dp(DpOp::Sub, R::R4, R::R9, R::R4);
        asm.bind(abs_done);
        asm.cmp_imm(R::R4, NN50_THRESHOLD);
        asm.b_to(Cond::Le, no_nn);
        asm.add_imm(R::R7, R::R7, 1);
        asm.bind(no_nn);
        asm.cmp(R::R0, R::R1);
        asm.b_to(Cond::Lo, rr_top);
        asm.li(R::R8, out_base as i32);
        asm.str(LsWidth::W, R::R5, R::R8, 0);
        asm.str(LsWidth::W, R::R6, R::R8, 4);
        asm.str(LsWidth::W, R::R7, R::R8, 8);

        // --- GSR pass.
        asm.li(R::R0, gsr_base as i32);
        asm.li(R::R1, (gsr_base + (self.gsr.len() * 4) as u32) as i32);
        asm.ldr_post(LsWidth::W, R::R2, R::R0, 4); // prev = gsr[0]
        asm.ldr_post(LsWidth::W, R::R3, R::R0, 4); // cur = gsr[1]
        asm.add(R::R5, R::R2, R::R3); // gsr_sum
        asm.sub(R::R4, R::R3, R::R2); // first slope
        asm.mv(R::R2, R::R3);
        asm.mv(R::R6, R::R4); // slope_max
        asm.mv(R::R7, R::R4); // slope_min
        let gsr_done = asm.new_label();
        asm.cmp(R::R0, R::R1);
        asm.b_to(Cond::Hs, gsr_done);
        let gsr_top = asm.here();
        let no_max = asm.new_label();
        let no_min = asm.new_label();
        asm.ldr_post(LsWidth::W, R::R3, R::R0, 4);
        asm.add(R::R5, R::R5, R::R3);
        asm.sub(R::R4, R::R3, R::R2);
        asm.mv(R::R2, R::R3);
        asm.cmp(R::R6, R::R4);
        asm.b_to(Cond::Ge, no_max);
        asm.mv(R::R6, R::R4);
        asm.bind(no_max);
        asm.cmp(R::R4, R::R7);
        asm.b_to(Cond::Ge, no_min);
        asm.mv(R::R7, R::R4);
        asm.bind(no_min);
        asm.cmp(R::R0, R::R1);
        asm.b_to(Cond::Lo, gsr_top);
        asm.bind(gsr_done);
        asm.li(R::R8, out_base as i32);
        asm.str(LsWidth::W, R::R5, R::R8, 12);
        asm.str(LsWidth::W, R::R6, R::R8, 16);
        asm.str(LsWidth::W, R::R7, R::R8, 20);
        asm.bkpt();
    }
}

impl Workload for FeatureWorkload {
    fn name(&self) -> &'static str {
        "feature-extraction"
    }

    fn footprint(&self) -> WorkloadFootprint {
        WorkloadFootprint {
            weight_bytes: 0,
            buf_bytes: (self.rr.len() + self.gsr.len() + FeatureSummary::WORDS) * 4,
        }
    }

    fn lower(&self, isa: &Isa, layout: &DataLayout) -> Result<LoweredProgram, MachineError> {
        match isa {
            Isa::Thumb2 => {
                let mut asm = ThumbAsm::new();
                self.emit_thumb(&mut asm, layout);
                let symbols = asm.symbols().to_vec();
                let program = asm.finish().expect("feature kernel binds every label");
                let code =
                    iw_armv7m::encode_program(&program).expect("feature kernel is encodable");
                Ok(LoweredProgram::Thumb {
                    program,
                    code,
                    symbols,
                })
            }
            Isa::Rv32 { opts, entry } => {
                let mut asm = Asm::new(*entry);
                self.emit_rv(&mut asm, layout, opts.cores);
                let image = asm.assemble()?;
                Ok(LoweredProgram::Rv32 {
                    image,
                    symbols: asm.symbols().to_vec(),
                })
            }
        }
    }

    fn image(&self, layout: &DataLayout) -> Vec<(u32, Vec<u8>)> {
        let (rr_base, gsr_base, _) = self.addrs(layout);
        let serialize = |xs: &[i32]| {
            let mut bytes = Vec::with_capacity(xs.len() * 4);
            for x in xs {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            bytes
        };
        vec![
            (rr_base, serialize(&self.rr)),
            (gsr_base, serialize(&self.gsr)),
        ]
    }

    fn output_window(&self, layout: &DataLayout) -> (u32, usize) {
        let (_, _, out_base) = self.addrs(layout);
        (out_base, FeatureSummary::WORDS * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ExecPath, M4Machine, Machine, WolfMachine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_paper_budget() {
        let op = OperatingPoint::efficient();
        let fc = FeatureCost::default();
        assert!((fc.seconds(&op) - 50e-6).abs() < 1e-9);
        let e = fc.energy_j(&op);
        assert!((0.5e-6..2e-6).contains(&e), "feature energy {e}");
    }

    fn windows(seed: u64, n: usize, m: usize) -> FeatureWorkload {
        let mut rng = StdRng::seed_from_u64(seed);
        let rr: Vec<i32> = (0..n).map(|_| rng.gen_range(600..1100)).collect();
        let gsr: Vec<i32> = (0..m).map(|_| rng.gen_range(-2000..2000)).collect();
        FeatureWorkload::new(&rr, &gsr).unwrap()
    }

    #[test]
    fn kernel_matches_reference_on_all_machines() {
        let w = windows(7, 60, 120);
        let expected = w.reference();
        let machines: [Box<dyn Machine>; 4] = [
            Box::new(M4Machine::new()),
            Box::new(WolfMachine::ibex()),
            Box::new(WolfMachine::riscy()),
            Box::new(WolfMachine::cluster(8)),
        ];
        for m in machines {
            let dep = m.deploy(&w).unwrap();
            let fast = dep.run(ExecPath::Product).unwrap();
            let slow = dep.run(ExecPath::Reference).unwrap();
            assert_eq!(fast, slow, "{}", m.name());
            assert_eq!(
                FeatureSummary::decode(&fast.output),
                expected,
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn wrapping_and_threshold_edges_agree() {
        // i32::MIN diffs and exact-threshold diffs exercise the abs and
        // NN50 comparison paths.
        let rr = vec![0, i32::MIN, 50, 0, 51, 0];
        let gsr = vec![i32::MAX, i32::MIN, 0];
        let w = FeatureWorkload::new(&rr, &gsr).unwrap();
        let expected = w.reference();
        let dep = WolfMachine::riscy().deploy(&w).unwrap();
        let run = dep.run(ExecPath::Product).unwrap();
        assert_eq!(FeatureSummary::decode(&run.output), expected);
        let dep = M4Machine::new().deploy(&w).unwrap();
        let run = dep.run(ExecPath::Product).unwrap();
        assert_eq!(FeatureSummary::decode(&run.output), expected);
    }

    #[test]
    fn minimal_windows_run() {
        let w = FeatureWorkload::new(&[800, 860], &[10, 4]).unwrap();
        let expected = w.reference();
        assert_eq!(expected.nn50, 1);
        assert_eq!(expected.slope_max, expected.slope_min);
        let dep = WolfMachine::cluster(8).deploy(&w).unwrap();
        let run = dep.run(ExecPath::Product).unwrap();
        assert_eq!(FeatureSummary::decode(&run.output), expected);
    }

    #[test]
    fn too_short_window_rejected() {
        assert!(matches!(
            FeatureWorkload::new(&[1], &[1, 2]),
            Err(MachineError::BadInput { .. })
        ));
        assert!(matches!(
            FeatureWorkload::new(&[1, 2], &[]),
            Err(MachineError::BadInput { .. })
        ));
    }

    #[test]
    fn measured_cost_lands_in_paper_ballpark() {
        // A realistic window (per the paper: RR intervals of a multi-second
        // HRV window plus the GSR sample stream) measured on the cluster
        // must land in the same order of magnitude as the published 50 µs
        // budget the cost model carries.
        let w = windows(8, 120, 400);
        let dep = WolfMachine::cluster(8).deploy(&w).unwrap();
        let run = dep.run(ExecPath::Product).unwrap();
        let measured = FeatureCost::measured(run.cycles, 8);
        let op = OperatingPoint::efficient();
        let secs = measured.seconds(&op);
        assert!(
            (2e-6..200e-6).contains(&secs),
            "measured feature extraction {secs} s"
        );
    }
}
