//! # iw-nrf52 — Nordic nRF52832 model
//!
//! The BLE-SoC substrate of the InfiniWolf reproduction (Magno et al.,
//! DATE 2020). The nRF52832 plays three roles in InfiniWolf, all modelled
//! here:
//!
//! * **compute target** — an ARM Cortex-M4F at 64 MHz running the baseline
//!   inference kernels ([`Nrf52`], built on [`iw_armv7m`]),
//! * **power consumer** — active/idle/system-off power states calibrated
//!   against the datasheet and the paper's Table IV ([`Nrf52Power`]),
//! * **radio** — BLE 5 notification/streaming energy, used to show why
//!   on-board classification beats streaming raw sensor data
//!   ([`BleRadio`]).

#![warn(missing_docs)]

mod ble;
mod power;
mod soc;

pub use ble::BleRadio;
pub use power::{Nrf52Mode, Nrf52Power};
pub use soc::{Nrf52, Nrf52Memory, Nrf52Run, FLASH_BASE, FLASH_SIZE, RAM_BASE, RAM_SIZE};
