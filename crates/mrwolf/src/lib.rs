//! # iw-mrwolf — Mr. Wolf SoC model
//!
//! The PULP substrate of the InfiniWolf reproduction (Magno et al., DATE
//! 2020). [`MrWolf`] combines:
//!
//! * 512 kB **L2** in the SoC domain, served from a borrowed image until
//!   the first store ([`L2`]), and 64 kB banked **TCDM** in the cluster
//!   ([`memmap`]),
//! * the **Ibex fabric controller** (RV32IM, [`MrWolf::run_fc`]),
//! * an **8-core RI5CY cluster** with event-driven, deterministic
//!   execution: word-interleaved TCDM banks grant one access per cycle
//!   each, a single shared L2 port serialises cluster→L2 traffic, and an
//!   event-unit barrier synchronises SPMD kernels
//!   ([`MrWolf::run_cluster`], [`ClusterConfig`]),
//! * the cluster **DMA** cost model for streaming weight tiles
//!   ([`DmaModel`]),
//! * the per-domain **power model** calibrated at the 100 MHz efficient
//!   operating point ([`OperatingPoint`], [`WolfMode`]).
//!
//! # Examples
//!
//! Run an SPMD program on all 8 cores and account its energy:
//!
//! ```
//! use iw_mrwolf::{memmap::{L2_BASE, TCDM_BASE}, MrWolf, OperatingPoint, WolfMode};
//! use iw_rv32::{asm::Asm, Reg};
//! use iw_trace::NoopSink;
//!
//! let mut wolf = MrWolf::new();
//! let mut asm = Asm::new(L2_BASE);
//! asm.li(Reg::T0, TCDM_BASE as i32);      // every core stores its id
//! asm.slli(Reg::T1, Reg::A0, 2);
//! asm.add(Reg::T0, Reg::T0, Reg::T1);
//! asm.sw(Reg::A0, Reg::T0, 0);
//! asm.ecall();
//! wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble()?);
//!
//! let (run, _) = wolf.run_cluster(L2_BASE, 100_000, &mut NoopSink)?;
//! let energy = OperatingPoint::efficient()
//!     .energy(run.cycles, WolfMode::Cluster { active_cores: 8 });
//! assert!(energy.energy_j > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cluster;
mod dma;
mod l2;
pub mod memmap;
mod power;
mod soc;

pub use cluster::{
    run_cluster, run_cluster_uncached, ClusterConfig, ClusterError, ClusterRun, SchedStats,
};
pub use dma::DmaModel;
pub use l2::{L2Memory, L2};
pub use power::{EnergyReport, OperatingPoint, WolfMode};
pub use soc::{FcRun, MrWolf};
