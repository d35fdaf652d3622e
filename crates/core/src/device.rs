//! The InfiniWolf device: component composition, operating modes and the
//! local-inference-vs-BLE-streaming comparison that motivates the
//! dual-processor architecture.

use iw_harvest::{Battery, PowerSupply, SolarHarvester, TegHarvester};
use iw_mrwolf::OperatingPoint;
use iw_nrf52::{BleRadio, Nrf52Mode, Nrf52Power};
use iw_sensors::Acquisition;

/// Operating modes of the bracelet (the nRF52832 firmware's state machine
/// as the paper describes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// Everything idle; RTC keeps time.
    Sleep,
    /// ECG + GSR front ends acquiring, processors idle.
    Acquire,
    /// Mr. Wolf cluster computing (features + classification).
    Process,
    /// Streaming raw sensor data over BLE (the architecture this device
    /// exists to avoid).
    RawStreaming,
}

/// The assembled bracelet.
#[derive(Debug, Clone)]
pub struct InfiniWolf {
    /// Solar harvesting chain.
    pub solar: SolarHarvester,
    /// Thermal harvesting chain.
    pub teg: TegHarvester,
    /// The 120 mAh cell.
    pub battery: Battery,
    /// The PSU / LDO.
    pub psu: PowerSupply,
    /// nRF52832 power model.
    pub nrf52: Nrf52Power,
    /// BLE radio model.
    pub radio: BleRadio,
    /// Mr. Wolf operating point.
    pub wolf: OperatingPoint,
    /// The stress-detection acquisition front ends.
    pub acquisition: Acquisition,
}

impl Default for InfiniWolf {
    fn default() -> InfiniWolf {
        InfiniWolf::new()
    }
}

impl InfiniWolf {
    /// Builds the bracelet with the paper's component configuration.
    #[must_use]
    pub fn new() -> InfiniWolf {
        InfiniWolf {
            solar: SolarHarvester::infiniwolf(),
            teg: TegHarvester::infiniwolf(),
            battery: Battery::infiniwolf(),
            psu: PowerSupply::default(),
            nrf52: Nrf52Power::default(),
            radio: BleRadio::default(),
            wolf: OperatingPoint::efficient(),
            acquisition: Acquisition::default(),
        }
    }

    /// Rail-side power drawn in a mode, watts (before LDO losses).
    #[must_use]
    pub fn mode_power_w(&self, mode: DeviceMode) -> f64 {
        let nrf_idle = self.nrf52.power_w(Nrf52Mode::Idle);
        let wolf_sleep = self.wolf.sleep_power_w;
        match mode {
            DeviceMode::Sleep => nrf_idle + wolf_sleep,
            DeviceMode::Acquire => {
                nrf_idle
                    + wolf_sleep
                    + self.acquisition.ecg.active_w
                    + self.acquisition.gsr.active_w
            }
            DeviceMode::Process => {
                nrf_idle
                    + self
                        .wolf
                        .power_w(iw_mrwolf::WolfMode::Cluster { active_cores: 8 })
            }
            DeviceMode::RawStreaming => {
                let bytes_per_s = self.acquisition.ecg.bytes_for(1.0) as f64
                    + self.acquisition.gsr.bytes_for(1.0) as f64;
                self.nrf52.power_w(Nrf52Mode::Active) * 0.1 // protocol CPU duty
                    + nrf_idle
                    + self.acquisition.ecg.active_w
                    + self.acquisition.gsr.active_w
                    + self.radio.streaming_power_w(bytes_per_s)
            }
        }
    }

    /// Battery-side power in a mode (through the LDO + quiescent).
    #[must_use]
    pub fn battery_power_w(&self, mode: DeviceMode) -> f64 {
        self.psu
            .battery_draw_w(self.mode_power_w(mode), &self.battery)
    }

    /// Energy to report one detection result over BLE (a few bytes).
    #[must_use]
    pub fn result_notification_j(&self) -> f64 {
        self.radio.notify_energy_j(4)
    }

    /// Energy to stream one raw 3 s window over BLE instead of classifying
    /// locally — the comparison that justifies on-board inference.
    #[must_use]
    pub fn raw_window_streaming_j(&self) -> f64 {
        let bytes = self.acquisition.ecg.bytes_for(self.acquisition.window_s)
            + self.acquisition.gsr.bytes_for(self.acquisition.window_s);
        self.radio.notify_energy_j(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_power_ordering() {
        let dev = InfiniWolf::new();
        let sleep = dev.mode_power_w(DeviceMode::Sleep);
        let acquire = dev.mode_power_w(DeviceMode::Acquire);
        let process = dev.mode_power_w(DeviceMode::Process);
        let stream = dev.mode_power_w(DeviceMode::RawStreaming);
        assert!(sleep < acquire);
        assert!(acquire < process);
        assert!(acquire < stream, "streaming {stream} vs acquire {acquire}");
        // Processing bursts draw the most instantaneous power — but only
        // for ~60 µs per detection, which is why local inference wins on
        // energy (see local_classification_beats_streaming).
        assert!(process > stream);
    }

    #[test]
    fn local_classification_beats_streaming() {
        let dev = InfiniWolf::new();
        // Classifying locally and sending 4 B must be far cheaper than
        // streaming the raw window.
        let local = dev.result_notification_j() + 2e-6; // + compute ~2 µJ
        let remote = dev.raw_window_streaming_j();
        assert!(remote > 5.0 * local, "remote {remote} J vs local {local} J");
    }

    #[test]
    fn battery_power_exceeds_rail_power() {
        let dev = InfiniWolf::new();
        for mode in [
            DeviceMode::Sleep,
            DeviceMode::Acquire,
            DeviceMode::Process,
            DeviceMode::RawStreaming,
        ] {
            assert!(dev.battery_power_w(mode) > dev.mode_power_w(mode));
        }
    }

    #[test]
    fn sleep_floor_is_microwatts() {
        let dev = InfiniWolf::new();
        // Dominated by Mr. Wolf's 72 µW deep-sleep figure (ESSCIRC'18).
        let sleep = dev.battery_power_w(DeviceMode::Sleep);
        assert!(sleep < 200e-6, "sleep draw {sleep} W should be tiny");
    }
}
