//! The unified execution layer: one trait-based target abstraction.
//!
//! Every compute target of the paper's evaluation matrix — the nRF52832's
//! Cortex-M4, Mr. Wolf's Ibex fabric controller, a single RI5CY core and
//! the 8-core RI5CY cluster — implements [`Machine`]; everything that can
//! run on them (32-bit fixed inference, float inference, Q15 SIMD
//! inference, feature extraction) implements [`Workload`]. Deployment is
//! one call:
//!
//! ```text
//! Machine::deploy(workload) -> Deployment       (place, lower, encode; once)
//! Deployment::run(ExecPath) -> MachineRun       (stage memories, run-to-halt)
//! ```
//!
//! Each target has one product interpreter, [`ExecPath::Product`], chosen
//! by the target and not by the caller:
//!
//! | Target | Product path |
//! |---|---|
//! | Cortex-M4 | fusion-compiled `BlockProgram`, built at deploy time |
//! | Ibex FC | per-PC RV32 op program (`iw_rv32::Program`), translated per run |
//! | single RI5CY | the same op program, one burst with no horizon |
//! | multi-core cluster | the same op program, horizon bursts |
//!
//! [`ExecPath::Reference`] is the frozen per-instruction interpreter. The
//! two are bit- and cycle-identical by the conformance tests. Recorded
//! runs ([`Deployment::run_recorded`]) go through the product path with a
//! recording sink, which dispatches one instruction at a time so each
//! gets its own PC sample; they are identical to both.
//!
//! The target list itself is data: [`registry`] returns one row per
//! registered backend (the four paper columns, the A2 Xpulp ablation
//! variants and the A7 Q15 platforms), so experiments iterate the table
//! instead of hard-coding per-target code paths.
//!
//! # Examples
//!
//! ```
//! use iw_fann::{presets::network_a, FixedNet};
//! use iw_kernels::machine::{ExecPath, Machine, WolfMachine};
//! use iw_kernels::workloads::FixedWorkload;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut net = network_a();
//! net.randomize_weights(&mut StdRng::seed_from_u64(1), 0.1);
//! let fixed = FixedNet::export(&net)?;
//! let input = fixed.quantize_input(&[0.1, -0.3, 0.7, 0.2, -0.5]);
//! let workload = FixedWorkload::new(&fixed, &input)?;
//! let deployment = WolfMachine::cluster(8).deploy(&workload)?;
//! let fast = deployment.run(ExecPath::Product)?;
//! let reference = deployment.run(ExecPath::Reference)?;
//! assert_eq!(fast, reference); // the frozen path agrees bit-for-bit
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use iw_armv7m::{M4Error, ThumbInstr};
use iw_mrwolf::memmap::{L2_BASE, L2_SIZE, PROGRAM_SIZE, TCDM_BASE, TCDM_SIZE};
use iw_mrwolf::{ClusterConfig, ClusterError, ClusterRun, FcRun, MrWolf, OperatingPoint, WolfMode};
use iw_nrf52::{Nrf52, FLASH_BASE, FLASH_SIZE, RAM_BASE, RAM_SIZE};
use iw_rv32::asm::AsmError;
use iw_rv32::{CpuError, ExecProfile};
use iw_trace::{Recorder, TraceSink, CYCLES};

use crate::rv::RvKernelOpts;

/// Error produced while deploying or running a workload on a machine.
///
/// This is the single error type of the execution layer — the per-simulator
/// errors ([`AsmError`], [`CpuError`], [`ClusterError`], [`M4Error`]) all
/// convert into it through one shared `From` ladder.
#[derive(Debug)]
pub enum MachineError {
    /// The RISC-V program failed to assemble.
    Asm(AsmError),
    /// A fabric-controller run faulted.
    Fc(CpuError),
    /// A cluster run faulted.
    Cluster(ClusterError),
    /// The Cortex-M4 run faulted.
    M4(M4Error),
    /// The workload's image does not fit the machine's memories.
    DoesNotFit {
        /// Bytes required.
        required: usize,
        /// Bytes available.
        available: usize,
    },
    /// Input length does not match the workload.
    BadInput {
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        got: usize,
    },
    /// The workload has no kernel for the machine's instruction set (for
    /// example float inference on a RISC-V target without an FPU model).
    Unsupported {
        /// The workload's name.
        workload: &'static str,
        /// The instruction set it was asked to lower for.
        isa: &'static str,
    },
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::Asm(e) => write!(f, "assembly failed: {e}"),
            MachineError::Fc(e) => write!(f, "fabric controller fault: {e}"),
            MachineError::Cluster(e) => write!(f, "cluster fault: {e}"),
            MachineError::M4(e) => write!(f, "cortex-m4 fault: {e}"),
            MachineError::DoesNotFit {
                required,
                available,
            } => write!(f, "image needs {required} B, only {available} B available"),
            MachineError::BadInput { expected, got } => {
                write!(f, "network expects {expected} inputs, got {got}")
            }
            MachineError::Unsupported { workload, isa } => {
                write!(f, "workload {workload} has no kernel for {isa}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<AsmError> for MachineError {
    fn from(e: AsmError) -> Self {
        MachineError::Asm(e)
    }
}
impl From<CpuError> for MachineError {
    fn from(e: CpuError) -> Self {
        MachineError::Fc(e)
    }
}
impl From<ClusterError> for MachineError {
    fn from(e: ClusterError) -> Self {
        MachineError::Cluster(e)
    }
}
impl From<M4Error> for MachineError {
    fn from(e: M4Error) -> Self {
        MachineError::M4(e)
    }
}

/// Which interpreter a run uses. Both are bit- and cycle-identical; only
/// the simulator's wall-clock speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The target's product interpreter (see the module docs).
    Product,
    /// The frozen reference path: fetch and decode every dynamic
    /// instruction, no batching.
    Reference,
}

/// Dispatch statistics of one [`ExecPath::Product`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductStats {
    /// Dispatch decisions: scheduler picks on the multi-core Mr. Wolf
    /// cluster, dispatch-loop iterations (ops dispatched) elsewhere, the
    /// single RI5CY included.
    pub dispatches: u64,
    /// Mean instructions retired per dispatch.
    pub avg_burst: f64,
    /// Multi-core bursts cut short by the runner-up gate (see
    /// [`iw_mrwolf::SchedStats::gated_breaks`]); 0 on single-core
    /// targets.
    pub gated_breaks: u64,
    /// Multi-core picks the cluster's joint mode made (see
    /// [`iw_mrwolf::SchedStats::joint_picks`]), counted in `dispatches`
    /// too; 0 on single-core targets.
    pub joint_picks: u64,
    /// Instructions the joint mode retired: with `rv32`'s, they make up
    /// the run's instructions.
    pub joint_instructions: u64,
    /// RV32 op-program counters (ops dispatched, fused executions per
    /// pattern, code-store re-decodes) on every Mr. Wolf target.
    pub rv32: Option<iw_rv32::ProgramStats>,
    /// M4 dispatch and loop-op counters, when the target is the
    /// Cortex-M4.
    pub m4: Option<iw_armv7m::FusedStats>,
}

/// Per-domain energy of one run, joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Host/SoC domain (the M4 on the nRF52832; FC + L2 + interconnect on
    /// Mr. Wolf).
    pub soc_j: f64,
    /// Cluster domain (zero on single-domain machines and FC-only runs).
    pub cluster_j: f64,
    /// Total energy of the compute phase.
    pub total_j: f64,
}

/// Raw result of one run-to-halt on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// Wall-clock cycles of the run.
    pub cycles: u64,
    /// Instructions retired (all cores).
    pub instructions: u64,
    /// Per-domain energy of the compute phase.
    pub energy: EnergyBreakdown,
    /// Per-class execution profile (base cycles, stalls excluded).
    pub profile: ExecProfile,
    /// Cluster statistics when the machine was the cluster.
    pub cluster: Option<ClusterRun>,
    /// Raw little-endian bytes read back from the workload's output window.
    pub output: Vec<u8>,
}

/// Instruction set (plus code-generation options) a [`Machine`] asks a
/// [`Workload`] to lower its kernel for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// ARMv7-M Thumb-2 (+ VFP), as on the Cortex-M4F.
    Thumb2,
    /// RV32IM with optional Xpulp features, as on Ibex/RI5CY.
    Rv32 {
        /// Kernel-generation options (Xpulp toggles, SPMD core count).
        opts: RvKernelOpts,
        /// Address the program is assembled at.
        entry: u32,
    },
}

impl Isa {
    /// Short ISA name for error messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Isa::Thumb2 => "thumb2",
            Isa::Rv32 { .. } => "rv32",
        }
    }
}

/// A kernel lowered for one machine's instruction set.
#[derive(Debug, Clone)]
pub enum LoweredProgram {
    /// A Thumb-2 program: the pre-decoded instructions *and* their
    /// halfword encoding (the reference path decodes the latter).
    Thumb {
        /// Pre-decoded instruction stream.
        program: Vec<ThumbInstr>,
        /// Halfword encoding of the same program.
        code: Vec<u16>,
        /// `(instruction_index, name)` region marks for the trace layer
        /// (see [`iw_armv7m::asm::ThumbAsm::mark`]).
        symbols: Vec<(u32, String)>,
    },
    /// An assembled RV32 image.
    Rv32 {
        /// Little-endian instruction bytes.
        image: Vec<u8>,
        /// `(address, name)` region marks for the trace layer (see
        /// [`iw_rv32::asm::Asm::mark`]).
        symbols: Vec<(u32, String)>,
    },
}

/// Addresses a machine assigns to a workload's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLayout {
    /// Base address of the read-only block (weights/constants).
    pub weights_base: u32,
    /// Base address of the read-write block (activation buffers, inputs,
    /// outputs).
    pub buf_base: u32,
}

/// Byte footprint a workload needs, used by machines to choose placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadFootprint {
    /// Bytes of read-only data (weights + biases).
    pub weight_bytes: usize,
    /// Bytes of read-write data (all activation buffers).
    pub buf_bytes: usize,
}

/// Something that can be deployed to a [`Machine`]: an instruction image
/// per supported ISA, a data image, input staging and output readback.
pub trait Workload {
    /// Short name for error messages and display.
    fn name(&self) -> &'static str;

    /// Byte footprint, used by the machine to place the data.
    fn footprint(&self) -> WorkloadFootprint;

    /// Emits and lowers the kernel for `isa` at the chosen layout.
    ///
    /// # Errors
    ///
    /// [`MachineError::Unsupported`] when the workload has no kernel for
    /// the ISA; [`MachineError::Asm`] when assembly fails.
    fn lower(&self, isa: &Isa, layout: &DataLayout) -> Result<LoweredProgram, MachineError>;

    /// Data segments (weights and staged inputs) as absolute
    /// `(address, bytes)` chunks.
    fn image(&self, layout: &DataLayout) -> Vec<(u32, Vec<u8>)>;

    /// `(address, bytes)` window to read back after the run halts.
    fn output_window(&self, layout: &DataLayout) -> (u32, usize);
}

/// An execution target: owns SoC construction, memory placement rules,
/// both run-to-halt paths and the energy model.
pub trait Machine {
    /// Human-readable name matching the paper's column headers.
    fn name(&self) -> String;

    /// Core clock in hertz (used to convert cycles to latency).
    fn clock_hz(&self) -> f64;

    /// Deploys a workload: places its data, lowers its kernel and bakes
    /// everything a repeated [`Deployment::run`] needs. All code
    /// generation happens here, once.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    fn deploy(&self, workload: &dyn Workload) -> Result<Box<dyn Deployment>, MachineError>;
}

/// A workload deployed to one machine, ready to run repeatedly. Each
/// [`Deployment::run`] stages fresh memories and simulates a single
/// run-to-halt, so repeated execution does not re-pay code generation.
pub trait Deployment {
    /// Simulates one run-to-halt on the given interpreter path.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    fn run(&self, path: ExecPath) -> Result<MachineRun, MachineError>;

    /// Simulates one run-to-halt with `rec` recording the full timeline:
    /// execution tracks and PC samples from the backend, the workload's
    /// symbol table, the machine clock, and end-of-run energy counters on
    /// an `soc` track. Every target records through its product path,
    /// one instruction per dispatch. The recorded run is observationally
    /// identical to [`Deployment::run`].
    ///
    /// The default implementation records nothing (backends opt in).
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    fn run_recorded(&self, rec: &mut Recorder) -> Result<MachineRun, MachineError> {
        let _ = rec;
        self.run(ExecPath::Product)
    }

    /// [`Deployment::run`] on [`ExecPath::Product`], additionally
    /// returning the product path's dispatch statistics.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    fn run_stats(&self) -> Result<(MachineRun, ProductStats), MachineError>;
}

/// Cycle budget for a single run (Network B on Ibex is ~1 M cycles; leave
/// ample headroom).
pub const MAX_CYCLES: u64 = 500_000_000;

// ---------------------------------------------------------------------------
// Cortex-M4 backend
// ---------------------------------------------------------------------------

/// The nRF52832's ARM Cortex-M4(F) at 64 MHz.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct M4Machine;

impl M4Machine {
    /// Creates the machine.
    #[must_use]
    pub fn new() -> M4Machine {
        M4Machine
    }
}

impl Machine for M4Machine {
    fn name(&self) -> String {
        "ARM Cortex-M4".to_string()
    }

    fn clock_hz(&self) -> f64 {
        iw_nrf52::Nrf52Power::default().freq_hz
    }

    fn deploy(&self, workload: &dyn Workload) -> Result<Box<dyn Deployment>, MachineError> {
        let fp = workload.footprint();
        let weights_avail = FLASH_SIZE - 0x4000;
        if fp.weight_bytes > weights_avail {
            return Err(MachineError::DoesNotFit {
                required: fp.weight_bytes,
                available: weights_avail,
            });
        }
        if fp.buf_bytes > RAM_SIZE {
            return Err(MachineError::DoesNotFit {
                required: fp.buf_bytes,
                available: RAM_SIZE,
            });
        }
        let layout = DataLayout {
            weights_base: FLASH_BASE + 0x4000,
            buf_base: RAM_BASE,
        };
        let LoweredProgram::Thumb {
            program,
            code,
            symbols,
        } = workload.lower(&Isa::Thumb2, &layout)?
        else {
            return Err(MachineError::Unsupported {
                workload: workload.name(),
                isa: "thumb2",
            });
        };
        Ok(Box::new(M4Deployment {
            fused: iw_armv7m::BlockProgram::compile(&program),
            code,
            symbols,
            image: workload.image(&layout),
            out: workload.output_window(&layout),
        }))
    }
}

struct M4Deployment {
    fused: iw_armv7m::BlockProgram,
    code: Vec<u16>,
    symbols: Vec<(u32, String)>,
    image: Vec<(u32, Vec<u8>)>,
    out: (u32, usize),
}

impl M4Deployment {
    fn staged_soc(&self) -> Nrf52 {
        let mut soc = Nrf52::new();
        for (addr, bytes) in &self.image {
            soc.mem_mut().write_bytes(*addr, bytes);
        }
        soc
    }

    fn machine_run(&self, soc: &Nrf52, run: iw_nrf52::Nrf52Run) -> MachineRun {
        let output = soc.mem().read_bytes(self.out.0, self.out.1).to_vec();
        MachineRun {
            cycles: run.result.cycles,
            instructions: run.result.instructions,
            energy: EnergyBreakdown {
                soc_j: run.energy_j,
                cluster_j: 0.0,
                total_j: run.energy_j,
            },
            profile: run.profile,
            cluster: None,
            output,
        }
    }
}

impl Deployment for M4Deployment {
    fn run(&self, path: ExecPath) -> Result<MachineRun, MachineError> {
        match path {
            ExecPath::Product => Ok(self.run_stats()?.0),
            ExecPath::Reference => {
                let mut soc = self.staged_soc();
                let run = soc.run_code(&self.code, MAX_CYCLES)?;
                Ok(self.machine_run(&soc, run))
            }
        }
    }

    fn run_stats(&self) -> Result<(MachineRun, ProductStats), MachineError> {
        let mut soc = self.staged_soc();
        let mut stats = iw_armv7m::FusedStats::default();
        let run = soc.run_blocks(&self.fused, MAX_CYCLES, &mut stats)?;
        let product = ProductStats {
            dispatches: stats.dispatches,
            avg_burst: stats.avg_burst(),
            gated_breaks: 0,
            joint_picks: 0,
            joint_instructions: 0,
            rv32: None,
            m4: Some(stats),
        };
        Ok((self.machine_run(&soc, run), product))
    }

    fn run_recorded(&self, rec: &mut Recorder) -> Result<MachineRun, MachineError> {
        rec.set_cycles_per_us(iw_nrf52::Nrf52Power::default().freq_hz / 1e6);
        rec.set_symbols(self.symbols.clone());
        let track = rec.track("m4", CYCLES);
        let mut soc = self.staged_soc();
        let mut stats = iw_armv7m::FusedStats::default();
        let run = soc.run_blocks_sink(&self.fused, MAX_CYCLES, &mut stats, rec, track)?;
        let run = self.machine_run(&soc, run);
        let soc = rec.track("soc", CYCLES);
        rec.counter(soc, "soc_uj", run.cycles, run.energy.soc_j * 1e6);
        Ok(run)
    }
}

// ---------------------------------------------------------------------------
// Mr. Wolf backend (Ibex FC / single RI5CY / cluster)
// ---------------------------------------------------------------------------

/// Mr. Wolf's data-placement policy, shared by every workload: activation
/// buffers always live in TCDM; weights go to TCDM when they fit alongside
/// buffers and stacks, else to L2 behind the program (Network B's 324 kB
/// goes to L2, as on the die). Returns the layout and whether the
/// read-only block landed in TCDM.
///
/// # Errors
///
/// [`MachineError::DoesNotFit`] when even the L2 spill region is too small.
pub fn wolf_layout(fp: &WorkloadFootprint) -> Result<(DataLayout, bool), MachineError> {
    let stacks = 8 * 512;
    let tcdm_free = TCDM_SIZE.saturating_sub(fp.buf_bytes + stacks);
    let weights_in_tcdm = fp.weight_bytes <= tcdm_free;
    let weights_base = if weights_in_tcdm {
        TCDM_BASE + fp.buf_bytes as u32
    } else {
        L2_BASE + PROGRAM_SIZE as u32 // behind the program region
    };
    if !weights_in_tcdm && fp.weight_bytes > L2_SIZE - PROGRAM_SIZE {
        return Err(MachineError::DoesNotFit {
            required: fp.weight_bytes,
            available: L2_SIZE - PROGRAM_SIZE,
        });
    }
    Ok((
        DataLayout {
            weights_base,
            buf_base: TCDM_BASE,
        },
        weights_in_tcdm,
    ))
}

/// Mr. Wolf running a workload on the Ibex fabric controller or on the
/// RI5CY cluster, with explicit kernel options (the A2 ablation knobs).
#[derive(Debug, Clone)]
pub struct WolfMachine {
    /// Display name (paper column header or ablation label).
    pub label: String,
    /// Kernel-generation options handed to the workload's RV32 emitter.
    pub opts: RvKernelOpts,
    /// Cluster configuration override (`None` derives it from `opts`).
    pub cfg: Option<ClusterConfig>,
    /// Run on the fabric controller (cluster power-gated) instead of the
    /// cluster.
    pub on_fc: bool,
}

impl WolfMachine {
    /// The Ibex fabric controller (RV32IM, cluster power-gated).
    #[must_use]
    pub fn ibex() -> WolfMachine {
        WolfMachine {
            label: "PULP IBEX".to_string(),
            opts: RvKernelOpts::ibex(),
            cfg: None,
            on_fc: true,
        }
    }

    /// A single RI5CY cluster core with full Xpulp.
    #[must_use]
    pub fn riscy() -> WolfMachine {
        WolfMachine {
            label: "Single RI5CY".to_string(),
            opts: RvKernelOpts::riscy(),
            cfg: None,
            on_fc: false,
        }
    }

    /// The RI5CY cluster with `cores` active cores.
    #[must_use]
    pub fn cluster(cores: usize) -> WolfMachine {
        WolfMachine {
            label: format!("Multi RI5CY ({cores})"),
            opts: RvKernelOpts::cluster(cores),
            cfg: None,
            on_fc: false,
        }
    }

    /// A fully custom configuration (ablation variants).
    #[must_use]
    pub fn with_opts(
        label: impl Into<String>,
        opts: RvKernelOpts,
        cfg: Option<ClusterConfig>,
        on_fc: bool,
    ) -> WolfMachine {
        WolfMachine {
            label: label.into(),
            opts,
            cfg,
            on_fc,
        }
    }

    /// The mode the energy model accounts the run in.
    #[must_use]
    pub fn mode(&self) -> WolfMode {
        if self.on_fc {
            WolfMode::FcOnly
        } else {
            WolfMode::Cluster {
                active_cores: self.opts.cores,
            }
        }
    }
}

impl Machine for WolfMachine {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn clock_hz(&self) -> f64 {
        OperatingPoint::efficient().freq_hz
    }

    fn deploy(&self, workload: &dyn Workload) -> Result<Box<dyn Deployment>, MachineError> {
        let (layout, _) = wolf_layout(&workload.footprint())?;
        let isa = Isa::Rv32 {
            opts: self.opts,
            entry: L2_BASE,
        };
        let LoweredProgram::Rv32 {
            image: program,
            symbols,
        } = workload.lower(&isa, &layout)?
        else {
            return Err(MachineError::Unsupported {
                workload: workload.name(),
                isa: "rv32",
            });
        };
        if program.len() >= PROGRAM_SIZE {
            return Err(MachineError::DoesNotFit {
                required: program.len(),
                available: PROGRAM_SIZE,
            });
        }
        let cfg = self.cfg.unwrap_or(ClusterConfig {
            cores: self.opts.cores,
            ..ClusterConfig::default()
        });
        Ok(Box::new(WolfDeployment {
            program,
            symbols,
            cfg,
            on_fc: self.on_fc,
            mode: self.mode(),
            image: workload.image(&layout),
            out: workload.output_window(&layout),
        }))
    }
}

struct WolfDeployment {
    program: Vec<u8>,
    symbols: Vec<(u32, String)>,
    cfg: ClusterConfig,
    on_fc: bool,
    mode: WolfMode,
    image: Vec<(u32, Vec<u8>)>,
    out: (u32, usize),
}

impl WolfDeployment {
    fn staged_wolf(&self, cfg: ClusterConfig) -> MrWolf {
        let mut wolf = MrWolf::with_cluster_config(cfg);
        wolf.l2_mut().write_bytes(L2_BASE, &self.program);
        for (addr, bytes) in &self.image {
            if *addr >= L2_BASE {
                wolf.l2_mut().write_bytes(*addr, bytes);
            } else {
                wolf.tcdm_mut().write_bytes(*addr, bytes);
            }
        }
        wolf
    }

    fn machine_run(
        &self,
        wolf: &MrWolf,
        cycles: u64,
        instructions: u64,
        cluster: Option<ClusterRun>,
        profile: ExecProfile,
    ) -> MachineRun {
        let output = if self.out.0 >= L2_BASE {
            wolf.l2().read_bytes(self.out.0, self.out.1).to_vec()
        } else {
            wolf.tcdm().read_bytes(self.out.0, self.out.1).to_vec()
        };
        let energy = OperatingPoint::efficient().domain_energy(cycles, self.mode);
        MachineRun {
            cycles,
            instructions,
            energy: EnergyBreakdown {
                soc_j: energy.soc_j,
                cluster_j: energy.cluster_j,
                total_j: energy.total_j,
            },
            profile,
            cluster,
            output,
        }
    }

    fn fc_run(&self, wolf: &MrWolf, run: &FcRun) -> MachineRun {
        let r = run.result;
        self.machine_run(wolf, r.cycles, r.instructions, None, run.profile)
    }

    fn cluster_run(&self, wolf: &MrWolf, run: ClusterRun) -> MachineRun {
        let (cycles, instructions, profile) = (run.cycles, run.instructions, run.profile);
        self.machine_run(wolf, cycles, instructions, Some(run), profile)
    }
}

impl Deployment for WolfDeployment {
    fn run(&self, path: ExecPath) -> Result<MachineRun, MachineError> {
        match path {
            ExecPath::Product => Ok(self.run_stats()?.0),
            ExecPath::Reference => {
                let mut wolf = self.staged_wolf(ClusterConfig {
                    decode_cache: false,
                    ..self.cfg
                });
                if self.on_fc {
                    let run = wolf.run_fc_uncached(L2_BASE, MAX_CYCLES)?;
                    Ok(self.fc_run(&wolf, &run))
                } else {
                    let run = wolf.run_cluster(L2_BASE, MAX_CYCLES)?;
                    Ok(self.cluster_run(&wolf, run))
                }
            }
        }
    }

    fn run_stats(&self) -> Result<(MachineRun, ProductStats), MachineError> {
        let mut wolf = self.staged_wolf(self.cfg);
        if self.on_fc {
            let (run, stats) = wolf.run_fc(L2_BASE, MAX_CYCLES)?;
            let product = ProductStats {
                dispatches: stats.dispatches,
                avg_burst: stats.avg_burst(),
                gated_breaks: 0,
                joint_picks: 0,
                joint_instructions: 0,
                rv32: Some(stats),
                m4: None,
            };
            Ok((self.fc_run(&wolf, &run), product))
        } else {
            let (run, sched) = wolf.run_cluster_stats(L2_BASE, MAX_CYCLES)?;
            // A single core runs the whole program in one pick: its
            // dispatch decisions are the op program's.
            let (dispatches, avg_burst) = match sched.program {
                Some(p) if self.cfg.cores == 1 => (p.dispatches, p.avg_burst()),
                _ => (sched.picks, sched.avg_burst()),
            };
            let product = ProductStats {
                dispatches,
                avg_burst,
                gated_breaks: sched.gated_breaks,
                joint_picks: sched.joint_picks,
                joint_instructions: sched.joint_instructions,
                rv32: sched.program,
                m4: None,
            };
            Ok((self.cluster_run(&wolf, run), product))
        }
    }

    fn run_recorded(&self, rec: &mut Recorder) -> Result<MachineRun, MachineError> {
        rec.set_cycles_per_us(OperatingPoint::efficient().freq_hz / 1e6);
        rec.set_symbols(self.symbols.clone());
        let mut wolf = self.staged_wolf(self.cfg);
        let run = if self.on_fc {
            let track = rec.track("fc", CYCLES);
            let (run, _) = wolf.run_fc_sink(L2_BASE, MAX_CYCLES, rec, track)?;
            self.fc_run(&wolf, &run)
        } else {
            let run = wolf.run_cluster_sink(L2_BASE, MAX_CYCLES, rec)?;
            self.cluster_run(&wolf, run)
        };
        let soc = rec.track("soc", CYCLES);
        rec.counter(soc, "soc_uj", run.cycles, run.energy.soc_j * 1e6);
        rec.counter(soc, "cluster_uj", run.cycles, run.energy.cluster_j * 1e6);
        Ok(run)
    }
}

// ---------------------------------------------------------------------------
// Target registry
// ---------------------------------------------------------------------------

/// Experiment group a [`TargetEntry`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetGroup {
    /// The four columns of the paper's Tables III/IV.
    Paper,
    /// The A2 Xpulp-feature ablation variants (single RI5CY core).
    XpulpAblation,
    /// The A7 Q15-SIMD comparison platforms.
    Q15,
}

/// One row of the target registry: a named, buildable machine.
pub struct TargetEntry {
    /// Stable identifier (e.g. `"m4"`, `"riscy-hwloops"`).
    pub id: &'static str,
    /// Label the experiment tables print for this row.
    pub label: &'static str,
    /// Group the row belongs to.
    pub group: TargetGroup,
    /// Builds the machine.
    pub build: fn() -> Box<dyn Machine>,
}

impl TargetEntry {
    /// Builds the machine for this row.
    #[must_use]
    pub fn machine(&self) -> Box<dyn Machine> {
        (self.build)()
    }
}

use crate::rv::XpulpOpts;

fn xpulp_variant(label: &str, xpulp: XpulpOpts) -> WolfMachine {
    WolfMachine::with_opts(label, RvKernelOpts { xpulp, cores: 1 }, None, false)
}

/// The data-driven target table: every registered backend, one row each.
/// The paper targets, the A2 Xpulp ablation variants and the A7 Q15
/// platforms all come out of this one list.
#[must_use]
pub fn registry() -> Vec<TargetEntry> {
    vec![
        TargetEntry {
            id: "m4",
            label: "ARM Cortex-M4",
            group: TargetGroup::Paper,
            build: || Box::new(M4Machine::new()),
        },
        TargetEntry {
            id: "ibex",
            label: "PULP IBEX",
            group: TargetGroup::Paper,
            build: || Box::new(WolfMachine::ibex()),
        },
        TargetEntry {
            id: "riscy",
            label: "Single RI5CY",
            group: TargetGroup::Paper,
            build: || Box::new(WolfMachine::riscy()),
        },
        TargetEntry {
            id: "cluster8",
            label: "Multi RI5CY (8)",
            group: TargetGroup::Paper,
            build: || Box::new(WolfMachine::cluster(8)),
        },
        TargetEntry {
            id: "riscy-full",
            label: "full Xpulp (hw loops + post-incr)",
            group: TargetGroup::XpulpAblation,
            build: || {
                Box::new(xpulp_variant(
                    "full Xpulp (hw loops + post-incr)",
                    XpulpOpts::full(),
                ))
            },
        },
        TargetEntry {
            id: "riscy-hwloops",
            label: "hw loops only",
            group: TargetGroup::XpulpAblation,
            build: || {
                Box::new(xpulp_variant(
                    "hw loops only",
                    XpulpOpts {
                        hw_loops: true,
                        post_increment: false,
                    },
                ))
            },
        },
        TargetEntry {
            id: "riscy-postincr",
            label: "post-increment only",
            group: TargetGroup::XpulpAblation,
            build: || {
                Box::new(xpulp_variant(
                    "post-increment only",
                    XpulpOpts {
                        hw_loops: false,
                        post_increment: true,
                    },
                ))
            },
        },
        TargetEntry {
            id: "riscy-rv32im",
            label: "plain RV32IM",
            group: TargetGroup::XpulpAblation,
            build: || Box::new(xpulp_variant("plain RV32IM", XpulpOpts::none())),
        },
        TargetEntry {
            id: "m4-q15",
            label: "ARM Cortex-M4 (smlad)",
            group: TargetGroup::Q15,
            build: || Box::new(M4Machine::new()),
        },
        TargetEntry {
            id: "riscy-q15",
            label: "Single RI5CY (pv.sdotsp.h)",
            group: TargetGroup::Q15,
            build: || Box::new(WolfMachine::riscy()),
        },
        TargetEntry {
            id: "cluster8-q15",
            label: "Multi RI5CY \u{d7}8 (SIMD)",
            group: TargetGroup::Q15,
            build: || Box::new(WolfMachine::cluster(8)),
        },
    ]
}

/// Registry rows belonging to `group`, in table order.
#[must_use]
pub fn targets_in(group: TargetGroup) -> Vec<TargetEntry> {
    registry()
        .into_iter()
        .filter(|t| t.group == group)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose RV32 image is `bytes` long and does nothing else.
    struct RawImage(usize);

    impl Workload for RawImage {
        fn name(&self) -> &'static str {
            "raw-image"
        }

        fn footprint(&self) -> WorkloadFootprint {
            WorkloadFootprint {
                weight_bytes: 0,
                buf_bytes: 0,
            }
        }

        fn lower(&self, isa: &Isa, _: &DataLayout) -> Result<LoweredProgram, MachineError> {
            match isa {
                Isa::Rv32 { .. } => Ok(LoweredProgram::Rv32 {
                    image: vec![0; self.0],
                    symbols: Vec::new(),
                }),
                Isa::Thumb2 => Err(MachineError::Unsupported {
                    workload: self.name(),
                    isa: isa.name(),
                }),
            }
        }

        fn image(&self, _: &DataLayout) -> Vec<(u32, Vec<u8>)> {
            Vec::new()
        }

        fn output_window(&self, layout: &DataLayout) -> (u32, usize) {
            (layout.buf_base, 0)
        }
    }

    #[test]
    fn oversized_rv32_program_is_an_error_not_a_panic() {
        for machine in [
            WolfMachine::ibex(),
            WolfMachine::riscy(),
            WolfMachine::cluster(8),
        ] {
            for bytes in [PROGRAM_SIZE, PROGRAM_SIZE + 4096] {
                let err = machine.deploy(&RawImage(bytes)).err();
                assert!(
                    matches!(
                        err,
                        Some(MachineError::DoesNotFit { required, available })
                            if required == bytes && available == PROGRAM_SIZE
                    ),
                    "{}: {bytes} B: {err:?}",
                    machine.name()
                );
            }
            assert!(machine.deploy(&RawImage(PROGRAM_SIZE - 4)).is_ok());
        }
    }

    #[test]
    fn registry_ids_unique() {
        let rows = registry();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn paper_group_matches_table_order() {
        let labels: Vec<&str> = targets_in(TargetGroup::Paper)
            .iter()
            .map(|t| t.label)
            .collect();
        assert_eq!(
            labels,
            [
                "ARM Cortex-M4",
                "PULP IBEX",
                "Single RI5CY",
                "Multi RI5CY (8)"
            ]
        );
    }

    #[test]
    fn machines_report_clocks() {
        for entry in registry() {
            let m = entry.machine();
            assert!(m.clock_hz() > 1e6, "{} clock", m.name());
        }
    }
}
