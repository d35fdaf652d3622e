//! # infiniwolf — the assembled smart bracelet
//!
//! Top-level crate of the InfiniWolf reproduction (Magno, Wang, Eggimann,
//! Cavigelli, Benini — *InfiniWolf: Energy Efficient Smart Bracelet for
//! Edge Computing with Dual Source Energy Harvesting*, DATE 2020). It
//! composes every substrate into the system the paper evaluates:
//!
//! * [`InfiniWolf`] — the device: harvesters, battery, PSU, both SoCs,
//!   sensor front ends and operating modes ([`DeviceMode`]);
//! * [`train_stress_pipeline`] — synthetic dataset → Pan–Tompkins/EDA
//!   features → Network A trained with RPROP → fixed-point export
//!   ([`StressPipeline`]);
//! * [`measure_detection_budget`] — the 602.2 µJ per-detection energy
//!   breakdown ([`DetectionBudget`]), with the classification actually
//!   executed on a simulated target;
//! * [`sustainability`] / [`simulate_policy`] — the self-sustainability
//!   analysis (21.44 J/day indoors → ~24 detections/minute) and
//!   battery-coupled policy simulations, run on the `iw-sim`
//!   discrete-event engine ([`detection_costs`] maps a budget onto its
//!   per-detection cost model).
//!
//! # Examples
//!
//! End-to-end: train, deploy, budget, and check self-sustainability.
//!
//! ```no_run
//! use infiniwolf::{
//!     measure_detection_budget, sustainability, train_stress_pipeline, PipelineConfig,
//! };
//! use iw_harvest::{EnvProfile, SolarHarvester, TegHarvester};
//! use iw_kernels::FixedTarget;
//!
//! let pipeline = train_stress_pipeline(&PipelineConfig::default())?;
//! println!("test accuracy {:.1}%", pipeline.test_accuracy * 100.0);
//!
//! let input = pipeline.fixed.quantize_input(&[0.1, -0.2, 0.4, 0.0, -0.6]);
//! let budget = measure_detection_budget(
//!     &pipeline.fixed,
//!     &input,
//!     FixedTarget::WolfCluster { cores: 8 },
//! )?;
//! let report = sustainability(
//!     &EnvProfile::paper_indoor_day(),
//!     &SolarHarvester::infiniwolf(),
//!     &TegHarvester::infiniwolf(),
//!     &budget,
//! );
//! println!("{:.1} detections/min self-sustained", report.detections_per_minute);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod bundle;
mod detection;
mod device;
mod loso;
mod pipeline;
mod sustain;

pub use bundle::{read_bundle, write_bundle, DeployedDetector};
pub use detection::{measure_detection_budget, DetectionBudget};
pub use device::{DeviceMode, InfiniWolf};
pub use loso::{loso_evaluation, LosoReport};
pub use pipeline::{train_stress_pipeline, PipelineConfig, StressPipeline};
pub use sustain::{detection_costs, simulate_policy, sustainability, PolicySpec, SustainReport};
