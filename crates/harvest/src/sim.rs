//! Harvest-intake integration and shared battery-trajectory types.
//!
//! The battery-coupled *simulation* itself lives in the `iw-sim` crate's
//! discrete-event engine; this module keeps the analytic intake integral
//! ([`daily_intake`]) and the trajectory/report types ([`TracePoint`],
//! [`SimReport`]) that the engine fills in and downstream consumers
//! (plots, traces, sustainability analysis) read back.

use iw_trace::{TraceSink, TrackId};

use crate::env::EnvProfile;
use crate::solar::SolarHarvester;
use crate::teg::TegHarvester;

/// Energy intake of both harvesters over a profile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntakeReport {
    /// Energy from the solar chain, joules.
    pub solar_j: f64,
    /// Energy from the TEG chain, joules.
    pub teg_j: f64,
}

impl IntakeReport {
    /// Total harvested energy, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.solar_j + self.teg_j
    }
}

/// Integrates both harvesters over an environment profile.
///
/// The harvested power already accounts for converter losses and the
/// sleeping device's quiescent draw, because the chains are calibrated to
/// the paper's battery-node measurements.
///
/// # Examples
///
/// ```
/// use iw_harvest::{daily_intake, EnvProfile, SolarHarvester, TegHarvester};
/// let intake = daily_intake(
///     &EnvProfile::paper_indoor_day(),
///     &SolarHarvester::infiniwolf(),
///     &TegHarvester::infiniwolf(),
/// );
/// // The paper computes 21.44 J/day for this scenario.
/// assert!((intake.total_j() - 21.44).abs() / 21.44 < 0.05);
/// ```
#[must_use]
pub fn daily_intake(
    profile: &EnvProfile,
    solar: &SolarHarvester,
    teg: &TegHarvester,
) -> IntakeReport {
    let mut report = IntakeReport::default();
    for seg in &profile.segments {
        report.solar_j += solar.battery_intake_w(&seg.light) * seg.duration_s;
        report.teg_j += teg.battery_intake_w(&seg.thermal) * seg.duration_s;
    }
    report
}

/// One sample of the battery trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time since simulation start, seconds.
    pub t_s: f64,
    /// Battery state of charge.
    pub soc: f64,
    /// Instantaneous battery-side solar intake, watts.
    pub solar_w: f64,
    /// Instantaneous battery-side TEG intake, watts.
    pub teg_w: f64,
    /// Instantaneous battery-side load power actually drawn, watts.
    pub consumed_w: f64,
}

impl TracePoint {
    /// Emits the point as the `soc_pct`, `solar_mw`, `teg_mw` and
    /// `load_mw` counters on `track`, at its whole second.
    pub fn record<S: TraceSink>(&self, sink: &mut S, track: TrackId) {
        let t = self.t_s as u64;
        sink.counter(track, "soc_pct", t, self.soc * 100.0);
        sink.counter(track, "solar_mw", t, self.solar_w * 1e3);
        sink.counter(track, "teg_mw", t, self.teg_w * 1e3);
        sink.counter(track, "load_mw", t, self.consumed_w * 1e3);
    }
}

/// Result of a battery-coupled simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Harvested energy actually stored (after charge losses/clipping).
    pub stored_j: f64,
    /// Energy drawn by the load.
    pub consumed_j: f64,
    /// Sampled state-of-charge trajectory.
    pub trace: Vec<TracePoint>,
    /// `true` if the battery ran empty at any point (device brown-out).
    pub browned_out: bool,
    /// Final state of charge.
    pub final_soc: f64,
}

/// Replays a [`SimReport`] trajectory into a trace sink as counter
/// samples on a `harvest` track: state of charge (percent) plus the
/// per-source intake and the consumed power, in milliwatts. Ticks on the
/// track are whole simulated seconds (`ticks_per_us = 1e-6`), so a
/// day-long trajectory lines up with cycle-stamped compute tracks in the
/// same recording.
pub fn record_harvest<S: TraceSink>(report: &SimReport, sink: &mut S) {
    if !S::ENABLED {
        return;
    }
    let track = sink.track("harvest", 1e-6);
    for p in &report.trace {
        p.record(sink, track);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_day_intake_close_to_21_44_j() {
        let intake = daily_intake(
            &EnvProfile::paper_indoor_day(),
            &SolarHarvester::infiniwolf(),
            &TegHarvester::infiniwolf(),
        );
        let total = intake.total_j();
        assert!(
            (total - 21.44).abs() / 21.44 < 0.05,
            "intake {total} J vs paper 21.44 J"
        );
        // Solar dominates; TEG still contributes around 2 J.
        assert!(intake.solar_j > 15.0);
        assert!(intake.teg_j > 1.5 && intake.teg_j < 3.0);
    }

    #[test]
    fn record_harvest_emits_counters_in_seconds() {
        use iw_trace::{Event, Recorder};

        let report = SimReport {
            stored_j: 1.0,
            consumed_j: 0.5,
            trace: (0..10)
                .map(|i| TracePoint {
                    t_s: f64::from(i) * 60.0,
                    soc: 0.5,
                    solar_w: 2e-4,
                    teg_w: 3e-5,
                    consumed_w: 1e-3,
                })
                .collect(),
            browned_out: false,
            final_soc: 0.5,
        };
        let mut rec = Recorder::new();
        record_harvest(&report, &mut rec);
        let track = rec.find_track("harvest").expect("harvest track");
        let counters = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Counter { track: t, .. } if *t == track))
            .count();
        assert_eq!(counters, report.trace.len() * 4);
    }
}
