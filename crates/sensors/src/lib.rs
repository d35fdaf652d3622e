//! # iw-sensors — synthetic biosignals and sensor front ends
//!
//! The sensing substrate of the InfiniWolf reproduction (Magno et al.,
//! DATE 2020). The paper trains on PhysioNet's drivedb ("Stress Recognition
//! in Automobile Drivers"), which cannot ship with this repository, so this
//! crate provides:
//!
//! * a parametric **ECG synthesiser** whose RR-interval statistics (heart
//!   rate, RMSSD/SDSD/NN50) shift with a three-level [`StressLevel`]
//!   ([`synth_ecg`]),
//! * a **GSR synthesiser** with Poisson skin-conductance responses of
//!   stress-dependent rate and amplitude ([`synth_gsr`]),
//! * a balanced, labelled **dataset generator** ([`generate_dataset`]) —
//!   the drivedb substitute used to train the paper's Network A,
//! * **AFE power models** for every sensor on the bracelet, including the
//!   MAX30001's 171 µW ECG channel and the 30 µW GSR front end that anchor
//!   the paper's 600 µJ acquisition budget ([`Afe`], [`Acquisition`]).
//!
//! # Examples
//!
//! ```
//! use iw_sensors::{generate_dataset, DatasetConfig, StressLevel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = DatasetConfig { windows_per_level: 1, window_s: 30.0, ..DatasetConfig::default() };
//! let data = generate_dataset(&mut StdRng::seed_from_u64(42), &cfg);
//! assert_eq!(data[0].level, StressLevel::None);
//! assert!(!data[0].ecg.r_peaks.is_empty());
//! ```

#![warn(missing_docs)]

mod afe;
mod dataset;
mod ecg;
mod gsr;
mod stress;
mod subject;

pub use afe::{Acquisition, Afe};
pub use dataset::{generate_dataset, DatasetConfig, WindowRecord};
pub use ecg::{
    synth_ecg, synth_ecg_with, synth_rr_intervals, synth_rr_intervals_with, EcgConfig, EcgSegment,
};
pub use gsr::{synth_gsr, synth_gsr_with, GsrConfig, GsrSegment};
pub use stress::StressLevel;
pub use subject::Subject;
