//! Analog-front-end and sensor power models.
//!
//! The paper's per-detection energy budget hinges on two numbers measured
//! on the prototype: the MAX30001 ECG channel draws **171 µW** while
//! acquiring and the GSR front end **30 µW**; a detection needs **3 s** of
//! data (600 µJ, the dominant cost). The bracelet's other sensors (IMU,
//! pressure, microphone) stay off during stress detection and are not
//! modelled.

/// A sensor front end: its power while acquiring and its data rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Afe {
    /// Descriptive name.
    pub name: &'static str,
    /// Active power, watts.
    pub active_w: f64,
    /// Output data rate while active, samples/s.
    pub sample_rate_hz: f64,
    /// Bytes per sample (for BLE-streaming comparisons).
    pub bytes_per_sample: usize,
}

impl Afe {
    /// MAX30001 ECG channel as configured on InfiniWolf (256 sps).
    #[must_use]
    pub fn max30001_ecg() -> Afe {
        Afe {
            name: "MAX30001 ECG",
            active_w: 171e-6,
            sample_rate_hz: 256.0,
            bytes_per_sample: 3,
        }
    }

    /// The low-power GSR front end.
    #[must_use]
    pub fn gsr() -> Afe {
        Afe {
            name: "GSR",
            active_w: 30e-6,
            sample_rate_hz: 16.0,
            bytes_per_sample: 2,
        }
    }

    /// Raw data produced in `duration_s` seconds, bytes.
    #[must_use]
    pub fn bytes_for(&self, duration_s: f64) -> usize {
        (self.sample_rate_hz * duration_s) as usize * self.bytes_per_sample
    }
}

/// The stress-detection acquisition phase: ECG + GSR for a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// ECG front end.
    pub ecg: Afe,
    /// GSR front end.
    pub gsr: Afe,
    /// Window length, seconds (the paper uses 3 s).
    pub window_s: f64,
}

impl Default for Acquisition {
    fn default() -> Acquisition {
        Acquisition {
            ecg: Afe::max30001_ecg(),
            gsr: Afe::gsr(),
            window_s: 3.0,
        }
    }
}

impl Acquisition {
    /// Total acquisition energy, joules — the paper's "600 µJ".
    ///
    /// # Examples
    ///
    /// ```
    /// use iw_sensors::Acquisition;
    /// let e = Acquisition::default().energy_j() * 1e6;
    /// assert!((e - 603.0).abs() < 1.0); // (171 + 30) µW × 3 s
    /// ```
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        (self.ecg.active_w + self.gsr.active_w) * self.window_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisition_matches_paper() {
        let a = Acquisition::default();
        let e = a.energy_j() * 1e6;
        // Paper rounds (171+30)µW × 3 s = 603 µJ down to "600 µJ".
        assert!((e - 603.0).abs() < 0.5, "{e} µJ");
    }

    #[test]
    fn ecg_dominates_gsr() {
        let a = Acquisition::default();
        assert!(a.ecg.active_w > 5.0 * a.gsr.active_w);
    }

    #[test]
    fn raw_bytes_for_streaming_comparison() {
        let ecg = Afe::max30001_ecg();
        // 3 s at 256 sps × 3 B = 2304 B.
        assert_eq!(ecg.bytes_for(3.0), 2304);
    }
}
