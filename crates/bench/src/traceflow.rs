//! Shared flow behind the `trace` binary and the trace-artifact tests:
//! run one registry target on an evaluation network with the recording
//! sink attached, and export both observability artifacts (Perfetto
//! timeline + folded-stack hotspot report).

use infiniwolf::{detection_costs, DetectionBudget};
use iw_harvest::{record_harvest, EnvProfile};
use iw_kernels::{registry, FixedRun, PreparedFixed};
use iw_sim::{DeviceConfig, PolicySpec};
use iw_trace::{NoopSink, Recorder};

use crate::evaluation_nets;

/// The two artifacts of one recorded run, plus the run they observed.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON, loadable at <https://ui.perfetto.dev>.
    pub chrome_json: String,
    /// Folded-stack hotspot report of the *simulated* program
    /// (flamegraph.pl / inferno compatible).
    pub folded: String,
    /// Suggested artifact file stem, e.g. `neta-cluster8`.
    pub stem: String,
    /// The classification the recording observed (identical to an
    /// unrecorded run).
    pub run: FixedRun,
}

/// Runs `target_id` (a registry id; `cl8` is accepted as an alias for
/// `cluster8`) on `net_key` (`neta`/`netb`) with a [`Recorder`] attached
/// and exports both artifacts. The recording also carries the
/// paper-indoor-day harvesting trajectory on a `harvest` track, so the
/// compute timeline and the energy context ship in one trace.
///
/// # Errors
///
/// A human-readable message for unknown nets/targets or failed runs.
pub fn trace_target(net_key: &str, target_id: &str) -> Result<TraceArtifacts, String> {
    let ni = match net_key {
        "neta" | "a" => 0,
        "netb" | "b" => 1,
        other => return Err(format!("unknown net '{other}' (expected neta or netb)")),
    };
    let id = match target_id {
        "cl8" => "cluster8",
        other => other,
    };
    let entry = registry().into_iter().find(|e| e.id == id).ok_or_else(|| {
        let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
        format!("unknown target '{id}' (known: {})", known.join(", "))
    })?;
    let nets = evaluation_nets();
    let (_, _, fixed, qin) = &nets[ni];
    let prep = PreparedFixed::on(&*entry.machine(), fixed, qin).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    let run = prep.run_recorded(&mut rec).map_err(|e| e.to_string())?;

    // Energy context: a day of dual-source harvesting next to the compute
    // timeline (per-source intake, load and SoC counters, 1 s ticks),
    // simulated on the discrete-event engine at the paper's 24/min rate.
    let mut day = DeviceConfig::new(
        EnvProfile::paper_indoor_day(),
        PolicySpec::fixed_rate(24.0),
        detection_costs(&DetectionBudget::paper()),
    );
    day.battery.set_soc(0.5);
    let report = day.run(&mut NoopSink);
    record_harvest(&report.sim, &mut rec);

    let net = if ni == 0 { "neta" } else { "netb" };
    let root = format!("{net}/{id}");
    Ok(TraceArtifacts {
        chrome_json: rec.chrome_trace_json(),
        folded: rec.folded_stacks(&root),
        stem: format!("{net}-{id}"),
        run,
    })
}
