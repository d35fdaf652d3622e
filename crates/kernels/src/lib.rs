//! # iw-kernels — deployment code generators
//!
//! The FANNCortexM/FANNonMCU equivalent of the InfiniWolf reproduction:
//! takes a trained [`iw_fann::Mlp`] (or its fixed-point export
//! [`iw_fann::FixedNet`]) and generates *actual instruction programs* for
//! each platform the paper evaluates, runs them on the corresponding
//! simulator, and reports cycles and energy:
//!
//! | paper column | generator | simulator |
//! |---|---|---|
//! | ARM Cortex-M4 (fixed) | [`emit_m4_fixed_kernel`] | `iw-armv7m` via `iw-nrf52` |
//! | ARM Cortex-M4F (float) | [`emit_m4_float_kernel`] | ditto, VFP |
//! | PULP IBEX | [`emit_fixed_kernel`] + [`RvKernelOpts::ibex`] | `iw-mrwolf` FC |
//! | Single RI5CY | [`RvKernelOpts::riscy`] | `iw-mrwolf` cluster ×1 |
//! | Multi RI5CY | [`RvKernelOpts::cluster`] | `iw-mrwolf` cluster ×8 |
//!
//! Every fixed-point kernel is **bit-exact** against
//! [`iw_fann::FixedNet::forward`]; the float kernel tracks
//! [`iw_fann::Mlp::forward`] within a documented tolerance (its `tanh` is
//! a range-reduced polynomial `exp`, as a deployed libm would be).
//!
//! # Examples
//!
//! Run the paper's Network A on all four fixed-point targets:
//!
//! ```
//! use iw_fann::{presets::network_a, FixedNet};
//! use iw_kernels::{run_fixed, FixedTarget};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut net = network_a();
//! net.randomize_weights(&mut StdRng::seed_from_u64(1), 0.1);
//! let fixed = FixedNet::export(&net)?;
//! let input = fixed.quantize_input(&[0.1, -0.3, 0.7, 0.2, -0.5]);
//! let reference = fixed.forward(&input);
//! for target in FixedTarget::paper_targets() {
//!     let run = run_fixed(target, &fixed, &input)?;
//!     assert_eq!(run.outputs, reference); // bit-exact everywhere
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod features;
pub mod layout;
pub mod m4;
pub mod machine;
mod q15;
pub mod rv;
mod targets;
pub mod workloads;

pub use features::{FeatureCost, FeatureSummary, FeatureWorkload};
pub use m4::{emit_m4_fixed_kernel, emit_m4_float_kernel};
pub use machine::{
    registry, targets_in, Deployment, EnergyBreakdown, Isa, Machine, MachineError, MachineRun,
    ProductStats, TargetEntry, TargetGroup, Workload, WorkloadFootprint,
};
pub use machine::{M4Machine, WolfMachine};
pub use q15::{
    emit_m4_q15_kernel, emit_riscy_q15_kernel, place_q15, q15_image, run_m4_q15, run_q15_on,
    run_wolf_q15, Q15Run,
};
pub use rv::{emit_fixed_kernel, RvKernelOpts, XpulpOpts};
pub use targets::{run_fixed, run_m4_float, FixedRun, FixedTarget, FloatRun, PreparedFixed};
pub use workloads::{FixedWorkload, FloatWorkload, Q15Workload};
