//! # iw-bench — the experiment harness
//!
//! One function per table/figure/in-text result of the InfiniWolf paper
//! (and per ablation from DESIGN.md), each returning structured rows that
//! the `tables` binary renders and the integration tests assert on.

#![warn(missing_docs)]

use infiniwolf::{measure_detection_budget, sustainability, DetectionBudget};
use iw_fann::presets::{network_a, network_b};
use iw_fann::{FixedNet, Footprint, Mlp};
use iw_harvest::{
    daily_intake, EnvProfile, Illuminant, LightCondition, SolarHarvester, TegHarvester,
    ThermalCondition,
};
use iw_kernels::{
    run_fixed, run_fixed_on, run_m4_fixed, run_m4_float, run_wolf_fixed_with, targets_in,
    FixedTarget, RvKernelOpts, TargetGroup,
};
use iw_mrwolf::ClusterConfig;
use iw_nrf52::BleRadio;
use iw_sim::{
    BleSync, ComputeJob, FaultBackoff, FaultProfile, FleetConfig, FleetReport, PolicySpec,
    RateRule, Scenario, TargetRule,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
pub use render::{
    render_a2, render_a7, render_d1, render_d2, render_d3, render_d4, render_d5, render_d5_table,
    render_rows, render_t3t4,
};
use std::sync::Arc;
pub use traceflow::{trace_target, TraceArtifacts};

pub mod render;
pub mod traceflow;

/// Seed used for every deterministic experiment.
pub const SEED: u64 = 2020;

/// One measured value with its paper reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (condition or platform).
    pub label: String,
    /// Our measured/simulated value.
    pub ours: f64,
    /// The paper's published value, if it reports one.
    pub paper: Option<f64>,
    /// Unit string for display.
    pub unit: &'static str,
}

impl Row {
    /// Ratio of ours to the paper value (1.0 = exact match).
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        self.paper.map(|p| self.ours / p)
    }
}

/// Builds the two evaluation networks with deterministic random weights
/// and a deterministic input, as the timing experiments need (cycle counts
/// are input-independent; weights only need to be in range).
#[must_use]
pub fn evaluation_nets() -> [(String, Mlp, FixedNet, Vec<i32>); 2] {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut make = |name: &str, mut net: Mlp| {
        net.randomize_weights(&mut rng, 0.1);
        let fixed = FixedNet::export(&net).expect("evaluation nets quantise");
        let input: Vec<f32> = (0..net.num_inputs())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let qin = fixed.quantize_input(&input);
        (name.to_string(), net, fixed, qin)
    };
    [
        make("Network A", network_a()),
        make("Network B", network_b()),
    ]
}

/// **T1** — Table I: solar power generation (mW into the battery).
#[must_use]
pub fn table1() -> Vec<Row> {
    let h = SolarHarvester::infiniwolf();
    [
        ("Outdoor 30 klx", LightCondition::outdoor(), 24.711),
        ("Indoor 700 lx", LightCondition::indoor(), 0.9),
    ]
    .into_iter()
    .map(|(label, light, paper)| Row {
        label: label.to_string(),
        ours: h.battery_intake_w(&light) * 1e3,
        paper: Some(paper),
        unit: "mW",
    })
    .collect()
}

/// **T2** — Table II: TEG power harvesting (µW into the battery).
#[must_use]
pub fn table2() -> Vec<Row> {
    let h = TegHarvester::infiniwolf();
    [
        (
            "22°C room / 32°C skin, no wind",
            ThermalCondition::warm_room(),
            24.0,
        ),
        (
            "15°C room / 30°C skin, no wind",
            ThermalCondition::cool_room(),
            55.5,
        ),
        (
            "15°C room / 30°C skin, 42 km/h",
            ThermalCondition::cool_windy(),
            155.4,
        ),
    ]
    .into_iter()
    .map(|(label, cond, paper)| Row {
        label: label.to_string(),
        ours: h.battery_intake_w(&cond) * 1e6,
        paper: Some(paper),
        unit: "µW",
    })
    .collect()
}

/// Paper Table III cycle counts, row-major `[net][target]`.
pub const PAPER_T3: [[u64; 4]; 2] = [
    [30_210, 40_661, 22_772, 6_126],
    [902_763, 955_588, 519_354, 108_316],
];

/// Paper Table IV energies in µJ, row-major `[net][target]`.
pub const PAPER_T4: [[f64; 4]; 2] = [[5.1, 1.3, 2.9, 1.2], [153.8, 31.5, 65.6, 21.6]];

/// **T3/T4** — Tables III & IV: runtime cycles and energy per
/// classification. Returns `(net name, rows)` pairs; each row's `ours` is
/// cycles for T3 and µJ for T4.
#[must_use]
pub fn table3_and_4() -> Vec<(String, Vec<(Row, Row)>)> {
    evaluation_nets()
        .into_iter()
        .enumerate()
        .map(|(ni, (name, _, fixed, qin))| {
            let rows = targets_in(TargetGroup::Paper)
                .into_iter()
                .enumerate()
                .map(|(ti, entry)| {
                    let run = run_fixed_on(&*entry.machine(), &fixed, &qin).expect("target runs");
                    (
                        Row {
                            label: entry.label.to_string(),
                            ours: run.cycles as f64,
                            paper: Some(PAPER_T3[ni][ti] as f64),
                            unit: "cycles",
                        },
                        Row {
                            label: entry.label.to_string(),
                            ours: run.energy_j * 1e6,
                            paper: Some(PAPER_T4[ni][ti]),
                            unit: "µJ",
                        },
                    )
                })
                .collect();
            (name, rows)
        })
        .collect()
}

/// **F3** — Fig. 3: the Network A architecture summary.
#[must_use]
pub fn fig3() -> Vec<Row> {
    let net = network_a();
    let fp = Footprint::of(&net);
    vec![
        Row {
            label: "Input features".into(),
            ours: net.num_inputs() as f64,
            paper: Some(5.0),
            unit: "",
        },
        Row {
            label: "Hidden layers".into(),
            ours: (net.layers().len() - 1) as f64,
            paper: Some(2.0),
            unit: "",
        },
        Row {
            label: "Nodes per hidden layer".into(),
            ours: net.layers()[0].out_count() as f64,
            paper: Some(50.0),
            unit: "",
        },
        Row {
            label: "Output classes".into(),
            ours: net.num_outputs() as f64,
            paper: Some(3.0),
            unit: "",
        },
        Row {
            label: "Total neurons".into(),
            ours: fp.neurons as f64,
            paper: Some(108.0),
            unit: "",
        },
        Row {
            label: "Total weights".into(),
            ours: fp.weights as f64,
            paper: Some(3003.0),
            unit: "",
        },
        Row {
            label: "Memory footprint".into(),
            ours: fp.kib(),
            paper: Some(14.0),
            unit: "KiB",
        },
    ]
}

/// **X1** — in-text: Network A on the M4, float (FPU) vs fixed point.
#[must_use]
pub fn x1_float_vs_fixed() -> Vec<Row> {
    let [(_, net, fixed, qin), _] = evaluation_nets();
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let input: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let fx = run_m4_fixed(&fixed, &qin).expect("fixed runs");
    let fl = run_m4_float(&net, &input).expect("float runs");
    vec![
        Row {
            label: "Fixed point".into(),
            ours: fx.cycles as f64,
            paper: Some(30_210.0),
            unit: "cycles",
        },
        Row {
            label: "Float (FPU)".into(),
            ours: fl.cycles as f64,
            paper: Some(38_478.0),
            unit: "cycles",
        },
        Row {
            label: "Float/fixed ratio".into(),
            ours: fl.cycles as f64 / fx.cycles as f64,
            paper: Some(1.27),
            unit: "×",
        },
    ]
}

/// **X2** — in-text: the per-detection energy budget (µJ).
#[must_use]
pub fn x2_detection_budget() -> (DetectionBudget, Vec<Row>) {
    let [(_, _, fixed, qin), _] = evaluation_nets();
    let budget = measure_detection_budget(&fixed, &qin, FixedTarget::WolfCluster { cores: 8 })
        .expect("cluster runs");
    let rows = vec![
        Row {
            label: "Acquisition (3 s ECG+GSR)".into(),
            ours: budget.acquisition_j * 1e6,
            paper: Some(600.0),
            unit: "µJ",
        },
        Row {
            label: "Feature extraction".into(),
            ours: budget.features_j * 1e6,
            paper: Some(1.0),
            unit: "µJ",
        },
        Row {
            label: "Classification (8 cores)".into(),
            ours: budget.classification_j * 1e6,
            paper: Some(1.2),
            unit: "µJ",
        },
        Row {
            label: "Total per detection".into(),
            ours: budget.total_uj(),
            paper: Some(602.2),
            unit: "µJ",
        },
    ];
    (budget, rows)
}

/// **X3** — in-text: self-sustainability (21.44 J/day → ~24 det/min).
#[must_use]
pub fn x3_sustainability() -> Vec<Row> {
    let (budget, _) = x2_detection_budget();
    let report = sustainability(
        &EnvProfile::paper_indoor_day(),
        &SolarHarvester::infiniwolf(),
        &TegHarvester::infiniwolf(),
        &budget,
    );
    vec![
        Row {
            label: "Harvested energy per day".into(),
            ours: report.intake_j_per_day,
            paper: Some(21.44),
            unit: "J",
        },
        Row {
            label: "Energy per detection".into(),
            ours: report.energy_per_detection_j * 1e6,
            paper: Some(602.2),
            unit: "µJ",
        },
        Row {
            label: "Self-sustained detections".into(),
            ours: report.detections_per_minute,
            paper: Some(24.0),
            unit: "/min",
        },
    ]
}

/// Per-network core-sweep rows: `(cores, cycles, speedup vs 1 core)`.
pub type CoreSweep = Vec<(String, Vec<(usize, u64, f64)>)>;

/// **A1** — ablation: cluster core-count sweep on both networks.
/// Returns `(net name, Vec<(cores, cycles, speedup vs 1 core)>)`.
#[must_use]
pub fn a1_core_sweep() -> CoreSweep {
    evaluation_nets()
        .into_iter()
        .map(|(name, _, fixed, qin)| {
            let mut rows = Vec::new();
            let mut single = 0u64;
            for cores in [1usize, 2, 4, 8] {
                let run = run_fixed(FixedTarget::WolfCluster { cores }, &fixed, &qin)
                    .expect("cluster runs");
                if cores == 1 {
                    single = run.cycles;
                }
                rows.push((cores, run.cycles, single as f64 / run.cycles as f64));
            }
            (name, rows)
        })
        .collect()
}

/// **A2** — ablation: Xpulp features on/off on a single RI5CY core. The
/// variants are the [`TargetGroup::XpulpAblation`] rows of the machine
/// registry.
#[must_use]
pub fn a2_xpulp_ablation() -> Vec<(String, Vec<(String, u64)>)> {
    evaluation_nets()
        .into_iter()
        .map(|(name, _, fixed, qin)| {
            let rows = targets_in(TargetGroup::XpulpAblation)
                .into_iter()
                .map(|entry| {
                    let run = run_fixed_on(&*entry.machine(), &fixed, &qin).expect("riscy runs");
                    (entry.label.to_string(), run.cycles)
                })
                .collect();
            (name, rows)
        })
        .collect()
}

/// **A3** — ablation: TCDM bank count under the 8-core kernel
/// (Network A; returns `(banks, cycles, conflict stalls)`).
#[must_use]
pub fn a3_tcdm_banks() -> Vec<(usize, u64, u64)> {
    let [(_, _, fixed, qin), _] = evaluation_nets();
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|banks| {
            let cfg = ClusterConfig {
                tcdm_banks: banks,
                ..ClusterConfig::default()
            };
            let run =
                run_wolf_fixed_with(&fixed, &qin, &RvKernelOpts::cluster(8), Some(cfg), false)
                    .expect("cluster runs");
            let stats = run.cluster.expect("cluster stats");
            (banks, run.cycles, stats.tcdm_conflict_stalls)
        })
        .collect()
}

/// One harvesting sweep: `(operating point, harvested power in watts)`.
pub type HarvestSweep = Vec<(f64, f64)>;

/// **A4** — ablation: harvesting sweeps (lux and ΔT interpolation between
/// the paper's measured points).
#[must_use]
pub fn a4_harvest_sweeps() -> (HarvestSweep, HarvestSweep) {
    let solar = SolarHarvester::infiniwolf();
    let lux_sweep: Vec<(f64, f64)> = [100.0, 300.0, 700.0, 2_000.0, 10_000.0, 30_000.0, 60_000.0]
        .into_iter()
        .map(|lux| {
            let light = LightCondition {
                lux,
                illuminant: if lux >= 5_000.0 {
                    Illuminant::Sunlight
                } else {
                    Illuminant::IndoorLed
                },
            };
            (lux, solar.battery_intake_w(&light) * 1e3)
        })
        .collect();
    let teg = TegHarvester::infiniwolf();
    let dt_sweep: Vec<(f64, f64)> = [2.0, 5.0, 10.0, 15.0, 20.0]
        .into_iter()
        .map(|dt| {
            let cond = ThermalCondition {
                ambient_c: 30.0 - dt,
                skin_c: 30.0,
                wind_kmh: 0.0,
            };
            (dt, teg.battery_intake_w(&cond) * 1e6)
        })
        .collect();
    (lux_sweep, dt_sweep)
}

/// **A5** — ablation: sustainable detection rate across environments.
#[must_use]
pub fn a5_environment_rates() -> Vec<Row> {
    let (budget, _) = x2_detection_budget();
    let scenarios: [(&str, EnvProfile); 3] = [
        (
            "Paper indoor day (6 h light)",
            EnvProfile::paper_indoor_day(),
        ),
        ("Office + commute (2 h outdoor)", {
            let mut p = EnvProfile::paper_indoor_day();
            p.segments[0].duration_s = 8.0 * 3600.0;
            p.segments.insert(
                1,
                iw_harvest::EnvSegment {
                    duration_s: 2.0 * 3600.0,
                    light: LightCondition::outdoor(),
                    thermal: ThermalCondition::cool_room(),
                },
            );
            p.segments[2].duration_s = 14.0 * 3600.0;
            p
        }),
        ("Dark day, cool room (TEG only)", {
            EnvProfile {
                segments: vec![iw_harvest::EnvSegment {
                    duration_s: 24.0 * 3600.0,
                    light: LightCondition::dark(),
                    thermal: ThermalCondition::cool_room(),
                }],
            }
        }),
    ];
    scenarios
        .into_iter()
        .map(|(label, profile)| {
            let report = sustainability(
                &profile,
                &SolarHarvester::infiniwolf(),
                &TegHarvester::infiniwolf(),
                &budget,
            );
            Row {
                label: label.to_string(),
                ours: report.detections_per_minute,
                paper: None,
                unit: "det/min",
            }
        })
        .collect()
}

/// **A6** — ablation: on-board classification vs streaming raw data.
#[must_use]
pub fn a6_local_vs_streaming() -> Vec<Row> {
    let dev = infiniwolf::InfiniWolf::new();
    let (budget, _) = x2_detection_budget();
    let local = budget.total_j() + dev.result_notification_j();
    let remote = budget.acquisition_j + dev.raw_window_streaming_j();
    // Both paths acquire the same 3 s window; the architectural choice is
    // what happens *after* acquisition.
    let local_post = local - budget.acquisition_j;
    let remote_post = remote - budget.acquisition_j;
    vec![
        Row {
            label: "Local classify + notify result".into(),
            ours: local * 1e6,
            paper: None,
            unit: "µJ",
        },
        Row {
            label: "Stream raw window over BLE".into(),
            ours: remote * 1e6,
            paper: None,
            unit: "µJ",
        },
        Row {
            label: "…post-acquisition, local".into(),
            ours: local_post * 1e6,
            paper: None,
            unit: "µJ",
        },
        Row {
            label: "…post-acquisition, streaming".into(),
            ours: remote_post * 1e6,
            paper: None,
            unit: "µJ",
        },
        Row {
            label: "Post-acquisition ratio".into(),
            ours: remote_post / local_post,
            paper: None,
            unit: "×",
        },
    ]
}

/// Per-network Q15-vs-Q32 rows: `(platform, Q32 cycles, Q15 cycles)`.
pub type Q15Comparison = Vec<(String, Vec<(String, u64, u64)>)>;

/// **A7** — extension: 16-bit SIMD (Q15) kernels vs the paper's 32-bit
/// fixed point. Returns `(net name, rows)` where rows compare cycles on
/// the same platform with both quantisations.
#[must_use]
pub fn a7_q15_simd() -> Q15Comparison {
    use iw_fann::Q15Net;
    use iw_kernels::run_q15_on;
    let mut rng = StdRng::seed_from_u64(SEED);
    evaluation_nets()
        .into_iter()
        .map(|(name, net, fixed, qin)| {
            let q15 = Q15Net::export(&net).expect("q15 export");
            let input: Vec<f32> = (0..net.num_inputs())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let q15_in = q15.quantize_input(&input);
            // Each registry row runs *both* quantisations on the same
            // machine: (platform, q31 cycles, q15 cycles).
            let rows = targets_in(TargetGroup::Q15)
                .into_iter()
                .map(|entry| {
                    let machine = entry.machine();
                    let q31 = run_fixed_on(&*machine, &fixed, &qin)
                        .expect("q31 runs")
                        .cycles;
                    let q15c = run_q15_on(&*machine, &q15, &q15_in)
                        .expect("q15 runs")
                        .cycles;
                    (entry.label.to_string(), q31, q15c)
                })
                .collect();
            (name, rows)
        })
        .collect()
}

/// **A8** — extension: leave-one-subject-out generalisation of the
/// trained detector across synthetic participants.
#[must_use]
pub fn a8_loso() -> infiniwolf::LosoReport {
    use infiniwolf::{loso_evaluation, PipelineConfig};
    use iw_sensors::DatasetConfig;
    let cfg = PipelineConfig {
        dataset: DatasetConfig {
            windows_per_level: 8,
            window_s: 45.0,
            subjects: 4,
            ..DatasetConfig::default()
        },
        max_epochs: 250,
        ..PipelineConfig::default()
    };
    loso_evaluation(&cfg).expect("loso folds quantise")
}

/// **A9** — extension: weight-access strategy for Network B on 8 cores.
/// Compares the paper-faithful direct-L2 kernel against a double-buffered
/// DMA tiling estimate (per-layer compute with weights in TCDM, overlapped
/// with the DMA prefetch of the next layer's weights).
///
/// Returns `(direct_cycles, tiled_cycles, per-layer breakdown)` where the
/// breakdown rows are `(layer, compute_cycles, dma_cycles)`.
#[must_use]
pub fn a9_netb_weight_streaming() -> (u64, u64, Vec<(usize, u64, u64)>) {
    use iw_mrwolf::DmaModel;
    let [_, (_, _, fixed_b, qin_b)] = evaluation_nets();
    let direct = run_fixed(FixedTarget::WolfCluster { cores: 8 }, &fixed_b, &qin_b)
        .expect("direct run")
        .cycles;

    let dma = DmaModel::default();
    let offload = iw_mrwolf::ClusterConfig::default().offload_cycles;
    let mut breakdown = Vec::new();
    for (li, layer) in fixed_b.layers.iter().enumerate() {
        // Per-layer compute with weights resident in TCDM: run the layer
        // as a one-layer network (timing is input-independent to first
        // order, so zero activations are fine).
        let single = iw_fann::FixedNet {
            decimal_point: fixed_b.decimal_point,
            num_inputs: layer.in_count,
            layers: vec![layer.clone()],
        };
        let zeros = vec![0i32; layer.in_count];
        let run =
            run_fixed(FixedTarget::WolfCluster { cores: 8 }, &single, &zeros).expect("layer run");
        let compute = run.cycles.saturating_sub(offload);
        let dma_cycles = dma.transfer_cycles(layer.weights.len() * 4);
        breakdown.push((li, compute, dma_cycles));
    }
    // Double buffering: layer l computes while layer l+1's weights stream.
    let mut tiled = offload + breakdown[0].2; // first tile cannot overlap
    for i in 0..breakdown.len() {
        let compute = breakdown[i].1;
        let next_dma = breakdown.get(i + 1).map_or(0, |b| b.2);
        tiled += compute.max(next_dma);
    }
    (direct, tiled, breakdown)
}

/// Per-target cycle breakdown: `(target, total, (class, cycles, share))`.
pub type CycleBreakdown = Vec<(String, u64, Vec<(&'static str, u64, f64)>)>;

/// **A10** — extension: where the cycles go. Per-class cycle breakdown of
/// the Network A kernel on each paper target. Returns
/// `(target name, total cycles, Vec<(class label, cycles, share)>)`.
#[must_use]
pub fn a10_cycle_breakdown() -> CycleBreakdown {
    let [(_, _, fixed, qin), _] = evaluation_nets();
    FixedTarget::paper_targets()
        .into_iter()
        .map(|target| {
            let run = run_fixed(target, &fixed, &qin).expect("target runs");
            let total = run.profile.total().cycles.max(1);
            let rows = run
                .profile
                .breakdown()
                .into_iter()
                .map(|(class, stats)| {
                    (
                        class.label(),
                        stats.cycles,
                        stats.cycles as f64 / total as f64,
                    )
                })
                .collect();
            (target.name(), run.cycles, rows)
        })
        .collect()
}

/// One cluster memory-system diagnostic row (see
/// [`d1_cluster_diagnostics`]). All cycle figures are summed across the
/// active cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterDiag {
    /// Active cores of the run.
    pub cores: usize,
    /// Sum of every core's completion time — the cycle pool the other
    /// fields partition exactly.
    pub core_cycles: u64,
    /// Cycles spent executing instructions (base cost).
    pub busy_cycles: u64,
    /// Cycles lost to TCDM bank conflicts.
    pub tcdm_conflict_stalls: u64,
    /// Cycles lost waiting for the shared L2 port.
    pub l2_port_stalls: u64,
    /// Cycles parked at event-unit barriers.
    pub barrier_wait_cycles: u64,
    /// Barrier episodes executed.
    pub barriers: u64,
}

/// **D1** — diagnostics: where the cluster's core-cycles go on the 8-core
/// kernel. Surfaces the [`iw_mrwolf::ClusterRun`] stall/barrier counters
/// for both networks; the five cycle classes partition the summed
/// per-core cycles exactly (the conservation identity the conformance
/// tests assert).
#[must_use]
pub fn d1_cluster_diagnostics() -> Vec<(String, ClusterDiag)> {
    evaluation_nets()
        .into_iter()
        .map(|(name, _, fixed, qin)| {
            let cores = 8;
            let run =
                run_fixed(FixedTarget::WolfCluster { cores }, &fixed, &qin).expect("cluster runs");
            let stats = run.cluster.expect("cluster stats");
            let diag = ClusterDiag {
                cores,
                core_cycles: stats.per_core_cycles.iter().sum(),
                busy_cycles: stats.busy_cycles,
                tcdm_conflict_stalls: stats.tcdm_conflict_stalls,
                l2_port_stalls: stats.l2_port_stalls,
                barrier_wait_cycles: stats.barrier_wait_cycles,
                barriers: stats.barriers,
            };
            (name, diag)
        })
        .collect()
}

/// The paper-flavoured fleet sweep used by D2 and the `fleet` binary:
/// `devices` simulated bracelets across the three environments × three
/// wearer archetypes × two policies, using the *measured* X2 detection
/// budget (not the published one) so the sweep exercises the full
/// machine-registry → event-engine path.
#[must_use]
pub fn d2_fleet_config(devices: usize, threads: usize, seed: u64) -> FleetConfig {
    let (budget, _) = x2_detection_budget();
    FleetConfig::paper(devices, threads, seed, infiniwolf::detection_costs(&budget))
}

/// **D2** — fleet sweep: per-policy detections/day, brown-out rate and
/// final state of charge across the sweep, plus the X3 reproduction row
/// (the indoor baseline fixed-24 device must deliver the paper's
/// ~24 detections/minute). Returns the raw [`FleetReport`] and the rows.
#[must_use]
pub fn d2_fleet_sweep(devices: usize, threads: usize) -> (FleetReport, Vec<Row>) {
    let mut cfg = d2_fleet_config(devices, threads, SEED);
    // The X3 row below inspects an individual device, so this table (and
    // only this table) opts into sampling the whole small sweep — the
    // default fleet path retains nothing.
    cfg.sample_devices = cfg.devices;
    let report = cfg.run();
    let mut rows = Vec::new();
    for stats in &report.policies {
        rows.push(Row {
            label: format!("{} — detections/day", stats.name),
            ours: stats.detections_per_day,
            paper: None,
            unit: "/day",
        });
        rows.push(Row {
            label: format!("{} — brown-out rate", stats.name),
            ours: stats.brown_out_rate * 100.0,
            paper: None,
            unit: "%",
        });
        rows.push(Row {
            label: format!("{} — mean final SoC", stats.name),
            ours: stats.mean_final_soc * 100.0,
            paper: None,
            unit: "%",
        });
    }
    // X3 through the fleet path: the indoor-day baseline wearer on the
    // fixed 24/min policy sustains the paper's headline rate.
    if let Some(dev) = report
        .devices
        .iter()
        .find(|d| d.env == "indoor-6h" && d.subject == "baseline" && d.policy == "fixed-24")
    {
        rows.push(Row {
            label: "X3 — indoor fixed-24 achieved".into(),
            ours: dev.detections as f64 / dev.days / (24.0 * 60.0),
            paper: Some(24.0),
            unit: "/min",
        });
    }
    (report, rows)
}

/// The D3 fleet configuration: the D2 sweep wired for reliability — BLE
/// result notifications at the measured per-result cost, periodic sync
/// bursts, a third duty-cycled sync policy (results batched and flushed
/// at the burst), and `profile`-intensity fault injection.
#[must_use]
pub fn d3_fleet_config(
    devices: usize,
    threads: usize,
    seed: u64,
    profile: FaultProfile,
) -> FleetConfig {
    let dev = infiniwolf::InfiniWolf::new();
    let mut cfg = d2_fleet_config(devices, threads, seed);
    // A reliability-stress cell: small enough that a dark day can drain
    // it through the LDO cutoff, so the brownout state machine (and the
    // fixed-rate vs energy-aware contrast) is visible within one day.
    cfg.battery = iw_harvest::Battery::new(40.0);
    cfg.notify_j = dev.result_notification_j();
    cfg.sync = Some(BleSync::nrf52(&BleRadio::default(), 300.0, 32));
    cfg.policies.push((
        "duty-300s".into(),
        PolicySpec::fixed_rate(24.0).with_sync_interval(300.0),
    ));
    cfg.faults = profile;
    cfg
}

/// **D3** — reliability sweep: the D3 fleet under each fault profile, in
/// increasing severity. Returns `(profile, report)` pairs; the renderer
/// and the reliability tests read the per-policy uptime / degradation /
/// sync-outcome aggregates out of each report.
#[must_use]
pub fn d3_reliability_sweep(devices: usize, threads: usize) -> Vec<(FaultProfile, FleetReport)> {
    FaultProfile::ALL
        .into_iter()
        .map(|profile| {
            let report = d3_fleet_config(devices, threads, SEED, profile).run();
            (profile, report)
        })
        .collect()
}

/// The D4 fleet configuration: the D3 reliability fleet joined into a
/// network by the [`Scenario::epidemic`] preset — seeded mobility
/// contacts played by per-device BLE scans, weather fronts, regional
/// gateway outages and a scripted infection — compiled once and shared
/// (read-only) by every shard.
#[must_use]
pub fn d4_fleet_config(
    devices: usize,
    threads: usize,
    seed: u64,
    profile: FaultProfile,
) -> FleetConfig {
    let scenario = Scenario::epidemic(devices, seed).compile();
    d3_fleet_config(devices, threads, seed, profile).with_scenario(Arc::new(scenario))
}

/// **D4** — epidemic sweep: the networked D4 fleet under each fault
/// profile, in increasing severity. Returns `(profile, report)` pairs;
/// every report carries [`iw_sim::ScenarioTotals`] (contact counters,
/// scan energy, and the epoch-barrier epidemic outcome).
#[must_use]
pub fn d4_epidemic_sweep(devices: usize, threads: usize) -> Vec<(FaultProfile, FleetReport)> {
    FaultProfile::ALL
        .into_iter()
        .map(|profile| {
            let report = d4_fleet_config(devices, threads, SEED, profile).run();
            (profile, report)
        })
        .collect()
}

/// Checks the daily-intake figure directly (used by the `tables` binary's
/// header for X3).
#[must_use]
pub fn daily_intake_j() -> f64 {
    daily_intake(
        &EnvProfile::paper_indoor_day(),
        &SolarHarvester::infiniwolf(),
        &TegHarvester::infiniwolf(),
    )
    .total_j()
}

/// One candidate of the D5 policy search: a stable display name plus the
/// [`PolicySpec`] it evaluates.
#[derive(Debug, Clone)]
pub struct PolicyCandidate {
    /// Stable candidate name (keys the table, the JSON and the goldens).
    pub name: String,
    /// The policy under evaluation.
    pub spec: PolicySpec,
}

/// The measured outcome of one candidate's deterministic fleet run on
/// the D5 stress cell, plus its Pareto status among the searched set.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Candidate name.
    pub name: String,
    /// The evaluated spec.
    pub spec: PolicySpec,
    /// Whether the spec behaves unlike every preset policy
    /// ([`PolicySpec::is_adaptive`]).
    pub adaptive: bool,
    /// Mean device uptime fraction.
    pub uptime: f64,
    /// Mean detections per simulated day.
    pub detections_per_day: f64,
    /// Mean energy per detection, joules (`inf` if nothing detected).
    pub energy_per_detection_j: f64,
    /// Detections dispatched to the Cortex-M4 by target selection.
    pub target_m4: u64,
    /// Detections dispatched to the Ibex/Wolf controller.
    pub target_ibex: u64,
    /// Detections dispatched to the 8×RI5CY cluster.
    pub target_cluster: u64,
    /// Acquisition windows skipped by fault-aware backoff.
    pub backoff_skips: u64,
    /// Sync intervals stretched during gateway loss.
    pub sync_stretches: u64,
    /// Determinism digest of the candidate's fleet run.
    pub digest: u64,
    /// Wall-clock seconds of the candidate's fleet run (host-dependent;
    /// kept out of every digest and table).
    pub wall_s: f64,
    /// On the Pareto front of (uptime ↑, detections/day ↑, energy/det ↓).
    pub pareto: bool,
}

/// Per-target-class compute jobs from the kernel registry, in
/// [`iw_sim::TargetClass`] order (M4, Ibex, 8-core cluster): the Network A
/// classification measured on each simulated machine, with the feature
/// stage folded in — exactly how the X2 budget derives the single-target
/// job, once per class.
#[must_use]
pub fn d5_target_jobs() -> [ComputeJob; 3] {
    let [(_, _, fixed, qin), _] = evaluation_nets();
    [
        FixedTarget::CortexM4,
        FixedTarget::WolfIbex,
        FixedTarget::WolfCluster { cores: 8 },
    ]
    .map(|target| {
        let budget = measure_detection_budget(&fixed, &qin, target).expect("target runs");
        ComputeJob::analytic(
            budget.features_s + budget.classification_s,
            budget.features_j + budget.classification_j,
        )
    })
}

/// The D5 candidate set: the three frozen baselines first, then a
/// deterministic grid over the [`RateRule::SocRamp`] knees (with and
/// without the closed-loop behaviours), then a seeded random sweep.
/// Truncating the list always keeps the baselines, so a tiny-grid
/// `--check` run still has its reference policies.
#[must_use]
pub fn d5_candidates(seed: u64) -> Vec<PolicyCandidate> {
    let backoff = FaultBackoff {
        gate_acquisition: true,
        recheck_s: 30.0,
        sync_stretch: 4.0,
    };
    let targets = TargetRule {
        eco_below: 0.35,
        m4_above: 0.75,
        harvest_weight: 50.0,
        queue_cluster: 8,
    };
    let mut out = vec![
        PolicyCandidate {
            name: "fixed-24".into(),
            spec: PolicySpec::fixed_rate(24.0),
        },
        PolicyCandidate {
            name: "aware-24".into(),
            spec: PolicySpec::energy_aware(24.0, 0.10),
        },
        PolicyCandidate {
            name: "duty-300s".into(),
            spec: PolicySpec::fixed_rate(24.0).with_sync_interval(300.0),
        },
    ];
    for max_per_minute in [24.0, 36.0] {
        for full_soc in [0.35, 0.60] {
            let rate = RateRule::SocRamp {
                max_per_minute,
                min_soc: 0.10,
                full_soc,
            };
            let stem = format!(
                "ramp{}-f{:02}",
                max_per_minute as u32,
                (full_soc * 100.0) as u32
            );
            out.push(PolicyCandidate {
                name: stem.clone(),
                spec: PolicySpec::new(rate),
            });
            out.push(PolicyCandidate {
                name: format!("{stem}-cl"),
                spec: PolicySpec::new(rate)
                    .with_sync_interval(300.0)
                    .with_backoff(backoff)
                    .with_targets(targets),
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd5);
    for i in 0..4 {
        let min_soc = rng.gen_range(0.03..0.15);
        let rate = RateRule::SocRamp {
            max_per_minute: rng.gen_range(18.0..48.0),
            min_soc,
            full_soc: rng.gen_range(min_soc + 0.10..0.80),
        };
        let spec = PolicySpec::new(rate)
            .with_sync_interval(rng.gen_range(120.0..600.0))
            .with_backoff(FaultBackoff {
                gate_acquisition: rng.gen_range(0..2) == 1,
                recheck_s: rng.gen_range(10.0..60.0),
                sync_stretch: rng.gen_range(2.0..6.0),
            })
            .with_targets(TargetRule {
                eco_below: rng.gen_range(0.2..0.5),
                m4_above: rng.gen_range(0.6..0.9),
                harvest_weight: rng.gen_range(0.0..100.0),
                queue_cluster: rng.gen_range(4..16),
            });
        out.push(PolicyCandidate {
            name: format!("rand-{i}"),
            spec,
        });
    }
    out
}

/// The D5 stress cell for one candidate: the D3 reliability fleet (40 J
/// cell, BLE notify + sync, harsh fault injection) with *every* device
/// on the candidate's policy, and the registry-derived per-target
/// compute jobs available to adaptive target selection.
#[must_use]
pub fn d5_fleet_config(
    devices: usize,
    threads: usize,
    seed: u64,
    candidate: &PolicyCandidate,
    jobs: [ComputeJob; 3],
) -> FleetConfig {
    let mut cfg = d3_fleet_config(devices, threads, seed, FaultProfile::Harsh);
    cfg.policies = vec![(candidate.name.clone(), candidate.spec)];
    cfg.target_jobs = Some(jobs);
    cfg
}

fn dominates(a: &PolicyOutcome, b: &PolicyOutcome) -> bool {
    let geq = a.uptime >= b.uptime
        && a.detections_per_day >= b.detections_per_day
        && a.energy_per_detection_j <= b.energy_per_detection_j;
    let strict = a.uptime > b.uptime
        || a.detections_per_day > b.detections_per_day
        || a.energy_per_detection_j < b.energy_per_detection_j;
    geq && strict
}

/// **D5** — deterministic Pareto policy search: every candidate gets its
/// own fleet run on the harsh 40 J stress cell (same seed, same cell),
/// then the Pareto front of (uptime ↑, detections/day ↑, energy per
/// detection ↓) is marked over the searched set. Outcomes come back in
/// candidate order; each carries its run's determinism digest, so the
/// whole search is bit-reproducible across worker/thread topology.
#[must_use]
pub fn d5_policy_search(
    devices: usize,
    threads: usize,
    seed: u64,
    candidates: &[PolicyCandidate],
) -> Vec<PolicyOutcome> {
    let jobs = d5_target_jobs();
    let mut outcomes: Vec<PolicyOutcome> = candidates
        .iter()
        .map(|candidate| {
            let started = std::time::Instant::now();
            let report = d5_fleet_config(devices, threads, seed, candidate, jobs).run();
            let wall_s = started.elapsed().as_secs_f64();
            let stats = &report.policies[0];
            PolicyOutcome {
                name: candidate.name.clone(),
                spec: candidate.spec,
                adaptive: candidate.spec.is_adaptive(),
                uptime: stats.mean_uptime,
                detections_per_day: stats.detections_per_day,
                energy_per_detection_j: stats.energy_per_detection_j,
                target_m4: stats.target_m4,
                target_ibex: stats.target_ibex,
                target_cluster: stats.target_cluster,
                backoff_skips: stats.backoff_skips,
                sync_stretches: stats.sync_stretches,
                digest: report.digest,
                wall_s,
                pareto: false,
            }
        })
        .collect();
    for i in 0..outcomes.len() {
        outcomes[i].pareto = !outcomes
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && dominates(other, &outcomes[i]));
    }
    outcomes
}

/// Folds the per-candidate run digests into one search digest (FNV-1a
/// over the digests in candidate order) — the single value the `--check`
/// topology rerun compares.
#[must_use]
pub fn d5_search_digest(outcomes: &[PolicyOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for outcome in outcomes {
        for b in outcome.digest.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_within_8_percent() {
        for row in table1() {
            let r = row.ratio().unwrap();
            assert!((0.92..=1.08).contains(&r), "{row:?}");
        }
    }

    #[test]
    fn table2_rows_within_8_percent() {
        for row in table2() {
            let r = row.ratio().unwrap();
            assert!((0.92..=1.08).contains(&r), "{row:?}");
        }
    }

    #[test]
    fn fig3_matches_exactly_except_memory() {
        for row in fig3() {
            if row.unit == "KiB" {
                assert!((13.0..15.0).contains(&row.ours));
            } else {
                assert_eq!(Some(row.ours), row.paper, "{row:?}");
            }
        }
    }

    #[test]
    fn x3_rows_reproduce() {
        let rows = x3_sustainability();
        assert!(
            (0.95..=1.05).contains(&rows[0].ratio().unwrap()),
            "{rows:?}"
        );
        let rate = rows[2].ours;
        assert!((23.0..27.0).contains(&rate), "rate {rate}");
    }
}
