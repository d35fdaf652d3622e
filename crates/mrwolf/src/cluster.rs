//! The 8-core RI5CY cluster: event-driven execution with banked-TCDM
//! arbitration, a shared L2 port and event-unit barriers.
//!
//! # Batched execution (horizon bursts)
//!
//! The scheduler is an event loop: the core with the smallest local time
//! steps next. With [`ClusterConfig::decode_cache`] enabled, each pick
//! computes the *horizon* — the earliest instant any **other** runnable
//! core can act — and then bursts the picked core through the shared
//! [`DecodeCache`], memory instructions included, for as long as its
//! local time stays strictly below that horizon. Bank and L2-port
//! arbitration is applied inline with the same grant bookkeeping the
//! scheduler uses, stores invalidate the decode cache, and halts,
//! barrier arrivals, faults and the cycle budget break back to the
//! scheduler exactly where the reference would act, so results are bit-
//! and cycle-identical to the one-instruction-per-pick reference path
//! (`decode_cache: false`).
//!
//! # Single-core block bursts
//!
//! A single active core with no trace sink and memory timings of at
//! least one cycle runs through compiled basic blocks from a
//! [`BlockCache`] instead: fused Xpulp loop bodies (post-increment loads
//! feeding MAC/SIMD chains, `addi`+branch tails) execute as one handler
//! call. With no sibling there is no horizon to gate on and no
//! arbitration stall to charge (see `single_core_block_burst`), so a
//! barrier-free run is one pick. With siblings the decode-cache bursts stay:
//! on the lockstep 8-core kernels nearly every burst ends at the next
//! memory op, so compiled blocks would pay their dispatch overhead
//! without amortising it.
//!
//! Model assumption: a store that rewrites *another* core's code mid-burst
//! may be observed one burst late. Real PULP clusters have no I-cache
//! coherence either (the fetch path models a warm shared I-cache), so
//! cross-core self-modifying code is already outside the modelled
//! envelope; same-core self-modifying code is handled exactly via cache
//! invalidation on stores.

use iw_rv32::{
    Block, BlockCache, BlockStats, Bus, BusError, Cpu, CpuError, DecodeCache, ExecProfile, Instr,
    MemWidth, Ram, Reg, Timing,
};

use iw_trace::{NoopSink, TraceSink, TrackId, CYCLES};
use std::rc::Rc;

use crate::memmap::{region_of, Region, BARRIER_ADDR};

/// Size of the pre-decode window starting at the cluster entry point.
/// 64 KiB comfortably covers the kernel images this model runs while
/// bounding the per-run allocation; out-of-window code still executes,
/// just without pre-decoding.
const DECODE_WINDOW: u32 = 64 * 1024;

/// Cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of RI5CY cores to power on (1..=8).
    pub cores: usize,
    /// Number of word-interleaved TCDM banks (16 on Mr. Wolf).
    pub tcdm_banks: usize,
    /// Latency of a cluster-initiated L2 access (cycles, including the
    /// access itself). The AXI plug to the SoC domain is several cycles
    /// away from the cores.
    pub l2_latency: u32,
    /// Cycles from the last barrier arrival to every core resuming.
    pub barrier_latency: u32,
    /// Fixed cost of dispatching work to the cluster: FC mailbox write,
    /// cluster clock-domain wake-up and the runtime's team fork/join.
    /// Charged once per [`run_cluster`] call, as the paper's measured
    /// multi-core numbers include the PULP runtime's offload path.
    pub offload_cycles: u64,
    /// Core timing model.
    pub timing: Timing,
    /// Run the product path: decode-cache horizon bursts, or compiled
    /// block bursts on a single core (see the module docs). Results are
    /// identical to the reference event loop. Disable to force the
    /// one-instruction-per-pick reference interpreter.
    pub decode_cache: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            cores: 8,
            tcdm_banks: 16,
            l2_latency: 3,
            barrier_latency: 6,
            offload_cycles: 2_500,
            timing: Timing::riscy(),
            decode_cache: true,
        }
    }
}

/// Error raised during a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A core faulted.
    Core {
        /// Index of the faulting core.
        core: usize,
        /// The underlying CPU error.
        source: CpuError,
    },
    /// Some cores wait at a barrier that can never be released because the
    /// remaining cores already halted.
    BarrierDeadlock,
    /// The run exceeded the cycle budget.
    CycleLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// Invalid configuration (e.g. zero cores or more than eight).
    BadConfig,
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::Core { core, source } => write!(f, "core {core}: {source}"),
            ClusterError::BarrierDeadlock => {
                f.write_str("barrier deadlock: waiting cores can never be released")
            }
            ClusterError::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
            ClusterError::BadConfig => f.write_str("invalid cluster configuration"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Core { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Statistics and result of a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRun {
    /// Wall-clock cluster cycles (completion time of the slowest core).
    pub cycles: u64,
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// Completion time per core.
    pub per_core_cycles: Vec<u64>,
    /// Cycles lost to TCDM bank conflicts (all cores).
    pub tcdm_conflict_stalls: u64,
    /// Cycles lost waiting for the shared L2 port (all cores; latency of
    /// the access itself not included).
    pub l2_port_stalls: u64,
    /// Number of barrier episodes executed.
    pub barriers: u64,
    /// Cycles cores spent executing instructions (all cores; per-access
    /// base cost, memory-system stalls excluded). Together with the two
    /// stall counters and [`ClusterRun::barrier_wait_cycles`] this
    /// accounts for every cycle of every core:
    /// `sum(per_core_cycles) == busy_cycles + tcdm_conflict_stalls
    /// + l2_port_stalls + barrier_wait_cycles`.
    pub busy_cycles: u64,
    /// Cycles cores spent parked at an event-unit barrier, from arrival
    /// to release (all cores).
    pub barrier_wait_cycles: u64,
    /// Aggregated per-class execution profile across all cores (base
    /// cycles; memory-system stalls are reported separately above).
    pub profile: ExecProfile,
}

/// Scheduler-level statistics, reported separately from [`ClusterRun`]
/// (which is bit-compared between execution modes and must not change).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Scheduler picks (one arbitration decision each).
    pub picks: u64,
    /// Instructions retired across all cores (equals
    /// [`ClusterRun::instructions`]).
    pub instructions: u64,
    /// Bursts cut short by the runner-up gate: a shared-state op (memory
    /// access or halt) reached while the core's local time was at or
    /// past the runner-up core's. The dominant burst terminator on
    /// memory-bound multi-core workloads.
    pub gated_breaks: u64,
    /// Block-cache counters, when the single-core block burst ran.
    pub block: Option<BlockStats>,
}

impl SchedStats {
    /// Average instructions issued per scheduler pick (burst length).
    #[must_use]
    pub fn avg_burst(&self) -> f64 {
        if self.picks == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.picks as f64
    }
}

/// Routes cluster-core accesses to TCDM / L2 / the event unit, recording
/// which region the last data access hit.
struct ClusterBus<'a> {
    tcdm: &'a mut Ram,
    l2: &'a mut Ram,
    last_region: Option<Region>,
    barrier_arrived: bool,
}

impl Bus for ClusterBus<'_> {
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => {
                self.last_region = Some(Region::Tcdm);
                self.tcdm.load(addr, width)
            }
            Some(Region::L2) => {
                self.last_region = Some(Region::L2);
                self.l2.load(addr, width)
            }
            _ => Err(BusError { addr, write: false }),
        }
    }

    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => {
                self.last_region = Some(Region::Tcdm);
                self.tcdm.store(addr, width, value)
            }
            Some(Region::L2) => {
                self.last_region = Some(Region::L2);
                self.l2.store(addr, width, value)
            }
            Some(Region::EventUnit) if addr == BARRIER_ADDR => {
                self.last_region = Some(Region::EventUnit);
                self.barrier_arrived = true;
                Ok(())
            }
            _ => Err(BusError { addr, write: true }),
        }
    }

    fn fetch(&mut self, addr: u32) -> Result<u32, BusError> {
        // Instruction fetches model a warm shared I-cache: no contention,
        // no cycle cost beyond the core's own pipeline.
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.load(addr, MemWidth::W),
            Some(Region::L2) => self.l2.load(addr, MemWidth::W),
            _ => Err(BusError { addr, write: false }),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreStatus {
    Running,
    AtBarrier,
    Halted,
}

/// Runs an SPMD program on the cluster.
///
/// Every active core starts at `entry` with `a0 = core_id` and
/// `a1 = active core count`. Execution is event-driven and deterministic:
/// the core with the smallest local time (ties broken by core id) steps
/// next; TCDM banks grant one access per cycle each, the L2 port one access
/// per cycle total.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut Ram,
    entry: u32,
    max_cycles: u64,
) -> Result<ClusterRun, ClusterError> {
    run_cluster_sink(cfg, tcdm, l2, entry, max_cycles, &mut NoopSink)
}

/// [`run_cluster`] that also reports scheduler statistics (picks, burst
/// length, block-cache counters) alongside the run.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster_stats(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut Ram,
    entry: u32,
    max_cycles: u64,
) -> Result<(ClusterRun, SchedStats), ClusterError> {
    let mut sched = SchedStats::default();
    let run = run_cluster_inner(cfg, tcdm, l2, entry, max_cycles, &mut NoopSink, &mut sched)?;
    Ok((run, sched))
}

/// [`run_cluster`] with an instrumentation sink attached.
///
/// With the default [`NoopSink`] every emission site folds away and this
/// *is* the event-driven scheduler. With a recording sink it registers
/// one `cluster/core{i}` track per active core (stamped in cluster
/// cycles) and emits:
///
/// * coalesced `busy` spans covering instruction execution (base cost),
/// * `tcdm-stall` / `l2-stall` spans for every arbitration wait,
/// * `barrier-wait` spans from each core's arrival to its release, with
///   `barrier-arrive` instants, and a `halt` instant per core,
/// * one PC sample per retired instruction (stall cycles included), on
///   both the burst and the reference path.
///
/// The timeline accounts for every core cycle: per core, busy + stall +
/// barrier-wait span ticks equal the core's completion time.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster_sink<S: TraceSink>(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut Ram,
    entry: u32,
    max_cycles: u64,
    sink: &mut S,
) -> Result<ClusterRun, ClusterError> {
    let mut sched = SchedStats::default();
    run_cluster_inner(cfg, tcdm, l2, entry, max_cycles, sink, &mut sched)
}

/// Block-burst dispatch loop for a single-core cluster with no trace
/// sink attached.
///
/// With one core the burst horizon is infinite — there is no runner-up
/// pick — and when every memory instruction costs at least one cycle the
/// one-access-per-cycle TCDM banks and the L2 port can never stall it:
/// each grant reserves its resource for exactly one cycle and the next
/// access issues at least one cycle later (a fused second access trails
/// its leader by the leader's ≥ 1-cycle memory cost). Both the horizon
/// gate and the bank/port arbitration therefore drop out of the dispatch
/// loop; only the L2 latency remap survives. The caller checks the
/// preconditions ([`ClusterConfig::timing`] load/store and
/// [`ClusterConfig::l2_latency`] all ≥ 1), and the differential suites
/// hold this loop bit-identical to the reference pick loop.
fn single_core_block_burst<'m>(
    bc: &mut BlockCache<ClusterBus<'m>>,
    cpu: &mut Cpu,
    bus: &mut ClusterBus<'m>,
    cfg: &ClusterConfig,
    run: &mut ClusterRun,
    t: u64,
    max_cycles: u64,
) -> Result<(u64, u64, bool, bool), ClusterError> {
    let mut done_at = t;
    let mut retired = 0u64;
    let mut halted = false;
    let mut barrier = false;
    // Most-recently-entered block: hardware-loop back edges re-enter the
    // same block every iteration, so the entry compare serves the common
    // case without touching the slot table. Any demotion clears it.
    let mut mru: Option<Rc<Block<ClusterBus<'m>>>> = None;
    'burst: loop {
        let pc = cpu.pc();
        if !bc.covers(pc) {
            // Out-of-window code: plain reference steps.
            let step = cpu
                .step(bus, &cfg.timing)
                .map_err(|source| ClusterError::Core { core: 0, source })?;
            let Some(step) = step else {
                break;
            };
            let mut cost = u64::from(step.cycles);
            if let Some(mem) = step.mem {
                if mem.write && bc.invalidate_store(mem.addr, mem.width) {
                    mru = None;
                }
                if region_of(mem.addr) == Some(Region::L2) {
                    cost = u64::from(cfg.l2_latency);
                }
            }
            run.busy_cycles += cost;
            done_at += cost;
            retired += 1;
            bc.stats_mut().fallback_steps += 1;
            if step.halted {
                halted = true;
                break;
            }
            if bus.barrier_arrived {
                barrier = true;
                break;
            }
            if done_at > max_cycles {
                return Err(ClusterError::CycleLimit { limit: max_cycles });
            }
            continue 'burst;
        }
        let block = match &mru {
            Some(b) if b.entry() == pc => {
                bc.stats_mut().hits += 1;
                Rc::clone(b)
            }
            _ => {
                let b = bc
                    .lookup(bus, pc)
                    .map_err(|source| ClusterError::Core { core: 0, source })?;
                mru = Some(Rc::clone(&b));
                b
            }
        };
        let (b_entry, b_end) = (block.entry(), block.end());
        let mut j = 0;
        while j < block.len() {
            if cpu.pc() != block.op_pc(j) {
                // Hardware-loop redirect or partial fused op: re-enter
                // through a fresh lookup.
                break;
            }
            let budget = max_cycles.saturating_sub(done_at);
            let exec = block
                .exec_op(j, cpu, bus, &cfg.timing, budget)
                .map_err(|source| ClusterError::Core { core: 0, source })?;
            let mut cost = u64::from(exec.cycles);
            let mut smc = false;
            for (mem, mem_cycles) in [(exec.mem, exec.mem_cycles), (exec.mem2, exec.mem2_cycles)] {
                let Some(mem) = mem else { continue };
                if mem.write {
                    if bc.invalidate_store(mem.addr, mem.width) {
                        mru = None;
                    }
                    let span = u64::from(mem.width.bytes());
                    if u64::from(mem.addr) + span > u64::from(b_entry) && mem.addr < b_end {
                        smc = true;
                    }
                }
                if region_of(mem.addr) == Some(Region::L2) {
                    cost = cost - u64::from(mem_cycles) + u64::from(cfg.l2_latency);
                }
            }
            run.busy_cycles += cost;
            done_at += cost;
            retired += u64::from(exec.retired);
            if cpu.is_halted() {
                halted = true;
                break 'burst;
            }
            if bus.barrier_arrived {
                barrier = true;
                break 'burst;
            }
            if done_at > max_cycles {
                return Err(ClusterError::CycleLimit { limit: max_cycles });
            }
            if smc {
                // The store rewrote this block's own bytes: drop the
                // stale translation and recompile on re-entry.
                break;
            }
            j += 1;
        }
    }
    Ok((done_at, retired, halted, barrier))
}

fn run_cluster_inner<S: TraceSink>(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut Ram,
    entry: u32,
    max_cycles: u64,
    sink: &mut S,
    sched: &mut SchedStats,
) -> Result<ClusterRun, ClusterError> {
    if cfg.cores == 0 || cfg.cores > 8 || cfg.tcdm_banks == 0 {
        return Err(ClusterError::BadConfig);
    }
    let n = cfg.cores;
    let mut cpus: Vec<Cpu> = (0..n)
        .map(|id| {
            let mut cpu = Cpu::new(entry);
            cpu.set_reg(Reg::A0, id as u32);
            cpu.set_reg(Reg::A1, n as u32);
            // Give each core a private stack at the top of TCDM: 512 B each.
            let tcdm_top = crate::memmap::TCDM_BASE + crate::memmap::TCDM_SIZE as u32;
            cpu.set_reg(Reg::SP, tcdm_top - 512 * id as u32);
            cpu
        })
        .collect();
    let mut status = vec![CoreStatus::Running; n];
    let mut ready_at = vec![0u64; n];
    // Scheduler keys: `time << 3 | core_id` for Running cores (so one
    // branchless min pass yields both the pick and the tie-break by id),
    // `u64::MAX` otherwise. Times stay far below 2^61 for any simulatable
    // budget, so the packing never overflows.
    let mut ready_key: Vec<u64> = (0..n as u64).collect();
    // Instruction already fetched for a core whose burst stopped at the
    // horizon: consumed (it is that core's next instruction) at its next
    // pick, skipping the cache lookup.
    let mut pending: Vec<Option<Instr>> = vec![None; n];
    let mut bank_free = vec![0u64; cfg.tcdm_banks];
    let mut l2_free = 0u64;
    let mut arrived = vec![false; n];

    let mut run = ClusterRun {
        cycles: 0,
        instructions: 0,
        per_core_cycles: vec![0; n],
        tcdm_conflict_stalls: 0,
        l2_port_stalls: 0,
        barriers: 0,
        busy_cycles: 0,
        barrier_wait_cycles: 0,
        profile: ExecProfile::new(),
    };

    // Timeline state, dead code under the no-op sink: one track per
    // core and the start of each core's open coalesced `busy` span.
    let core_tracks: Vec<TrackId> = if S::ENABLED {
        (0..n)
            .map(|i| sink.track(&format!("cluster/core{i}"), CYCLES))
            .collect()
    } else {
        Vec::new()
    };
    let mut busy_from = vec![0u64; n];

    // One core with ≥ 1-cycle memory instructions can never stall on the
    // banks or the L2 port and has no runner-up to gate its bursts:
    // dispatch it through the arbitration-free block loop. A trace sink
    // needs the instrumented loop, and custom zero-cost memory timings
    // keep the arbitrated one so same-cycle grant collisions still stall.
    let fast_single = cfg.decode_cache
        && n == 1
        && !S::ENABLED
        && cfg.timing.load >= 1
        && cfg.timing.store >= 1
        && cfg.l2_latency >= 1;
    let mut bcache = fast_single.then(|| BlockCache::<ClusterBus>::new(entry, DECODE_WINDOW, true));
    // One decode cache shared by all cores: they run the same SPMD image,
    // so every core hits lines its siblings already filled.
    let mut cache =
        (cfg.decode_cache && !fast_single).then(|| DecodeCache::new(entry, DECODE_WINDOW));

    let mut bus = ClusterBus {
        tcdm,
        l2,
        last_region: None,
        barrier_arrived: false,
    };
    loop {
        // Pick the runnable core with the smallest key (= smallest local
        // time, ties to the lowest id) and the runner-up key in one
        // branch-free pass.
        let mut m1 = u64::MAX;
        let mut m2 = u64::MAX;
        for &key in &ready_key {
            let hi = m1.max(key);
            m1 = m1.min(key);
            m2 = m2.min(hi);
        }
        if m1 == u64::MAX {
            if status.iter().all(|s| *s == CoreStatus::Halted) {
                break;
            }
            // Cores wait at a barrier while everyone else halted.
            return Err(ClusterError::BarrierDeadlock);
        }
        let i = (m1 & 7) as usize;
        let t = m1 >> 3;
        if t > max_cycles {
            return Err(ClusterError::CycleLimit { limit: max_cycles });
        }

        bus.last_region = None;
        bus.barrier_arrived = false;
        sched.picks += 1;

        let (done_at, retired, halted, barrier_arrived) = if let Some(bc) = &mut bcache {
            single_core_block_burst(bc, &mut cpus[0], &mut bus, cfg, &mut run, t, max_cycles)?
        } else if let Some(cache) = &mut cache {
            // Fast path: horizon burst. Every other runnable core acts no
            // earlier than `horizon` (the runner-up scheduler key), so
            // while this core's local time stays strictly below it, the
            // scheduler could only ever pick this core again — run it
            // inline, memory arbitration included. `horizon` cannot move
            // mid-burst: other cores' times only change when they execute,
            // and barrier releases require this core's arrival (which ends
            // the burst).
            let horizon = m2 >> 3;
            let mut done_at = t;
            let mut retired = 0u64;
            let mut halted = false;
            let mut barrier = false;
            loop {
                // The first instruction of a pick always runs (the
                // reference runs it at this exact pick). Past the horizon,
                // only instructions that cannot interact with the rest of
                // the cluster may continue — non-memory, non-halting ones
                // touch no shared state, so their interleaving with other
                // cores is unobservable. Below the horizon everything may
                // run: no other core can act before this one.
                let first = retired == 0;
                let pc = cpus[i].pc();
                let instr = match pending[i].take() {
                    Some(instr) => instr,
                    None => match cache.fetch_decode(&mut bus, pc) {
                        Ok(instr) => instr,
                        Err(source) if first => {
                            return Err(ClusterError::Core { core: i, source });
                        }
                        // Re-raised through the pick path next time this
                        // core is the minimum; a failed fetch mutates
                        // nothing.
                        Err(_) => break,
                    },
                };
                if !first
                    && done_at >= horizon
                    && (instr.is_mem() || matches!(instr, Instr::Ecall | Instr::Ebreak))
                {
                    // Hand the already-decoded instruction to the next pick.
                    sched.gated_breaks += 1;
                    pending[i] = Some(instr);
                    break;
                }
                let (cycles, mem) = match cpus[i].execute(instr, pc, &mut bus, &cfg.timing) {
                    Ok(x) => x,
                    Err(source) if first => {
                        return Err(ClusterError::Core { core: i, source });
                    }
                    // A failed execute mutates no architectural state, so
                    // the re-run at the next pick raises identically.
                    Err(_) => break,
                };
                let mut cost = u64::from(cycles);
                let mut stall = 0u64;
                let mut stall_kind = "";
                if let Some(mem) = mem {
                    if mem.write {
                        cache.invalidate_store(mem.addr, mem.width);
                    }
                    match region_of(mem.addr) {
                        Some(Region::Tcdm) => {
                            let bank = ((mem.addr >> 2) as usize) % cfg.tcdm_banks;
                            let grant = done_at.max(bank_free[bank]);
                            stall = grant - done_at;
                            bank_free[bank] = grant + 1;
                            run.tcdm_conflict_stalls += stall;
                            cost = stall + u64::from(cycles);
                            stall_kind = "tcdm-stall";
                        }
                        Some(Region::L2) => {
                            let grant = done_at.max(l2_free);
                            stall = grant - done_at;
                            l2_free = grant + 1;
                            run.l2_port_stalls += stall;
                            cost = stall + u64::from(cfg.l2_latency);
                            stall_kind = "l2-stall";
                        }
                        _ => {}
                    }
                }
                run.busy_cycles += cost - stall;
                if S::ENABLED {
                    if stall > 0 {
                        if done_at > busy_from[i] {
                            sink.span(core_tracks[i], "busy", busy_from[i], done_at);
                        }
                        sink.span(core_tracks[i], stall_kind, done_at, done_at + stall);
                        busy_from[i] = done_at + stall;
                    }
                    sink.pc_sample(core_tracks[i], pc, done_at, cost as u32);
                }
                done_at += cost;
                retired += 1;
                if cpus[i].is_halted() {
                    halted = true;
                    break;
                }
                if bus.barrier_arrived {
                    barrier = true;
                    break;
                }
                if done_at < horizon {
                    if done_at > max_cycles {
                        // Mirrors the pick-time check: the reference would
                        // pick this core next and fail the budget test.
                        return Err(ClusterError::CycleLimit { limit: max_cycles });
                    }
                } else if done_at > max_cycles {
                    // Out of budget and past the horizon: whether another
                    // core still fits the budget is the scheduler's call.
                    break;
                }
            }
            (done_at, retired, halted, barrier)
        } else {
            // Reference path: exactly one instruction per pick.
            let step = cpus[i]
                .step(&mut bus, &cfg.timing)
                .map_err(|source| ClusterError::Core { core: i, source })?;
            let Some(step) = step else {
                // Unreachable: halted cores are filtered out of the pick.
                status[i] = CoreStatus::Halted;
                continue;
            };
            let barrier_arrived = bus.barrier_arrived;
            let last_region = bus.last_region;

            // Charge memory-system stalls on top of the base cost.
            let mut cost = u64::from(step.cycles);
            let mut stall = 0u64;
            let mut stall_kind = "";
            if let Some(mem) = step.mem {
                match region_of(mem.addr) {
                    Some(Region::Tcdm) => {
                        let bank = ((mem.addr >> 2) as usize) % cfg.tcdm_banks;
                        let grant = t.max(bank_free[bank]);
                        stall = grant - t;
                        bank_free[bank] = grant + 1;
                        run.tcdm_conflict_stalls += stall;
                        cost = stall + u64::from(step.cycles);
                        stall_kind = "tcdm-stall";
                    }
                    Some(Region::L2) => {
                        let grant = t.max(l2_free);
                        stall = grant - t;
                        l2_free = grant + 1;
                        run.l2_port_stalls += stall;
                        cost = stall + u64::from(cfg.l2_latency);
                        stall_kind = "l2-stall";
                    }
                    _ => {}
                }
            } else if barrier_arrived && last_region == Some(Region::EventUnit) {
                // Store to the event unit: base store cost only.
                cost = u64::from(step.cycles);
            }
            run.busy_cycles += cost - stall;
            if S::ENABLED {
                if stall > 0 {
                    if t > busy_from[i] {
                        sink.span(core_tracks[i], "busy", busy_from[i], t);
                    }
                    sink.span(core_tracks[i], stall_kind, t, t + stall);
                    busy_from[i] = t + stall;
                }
                sink.pc_sample(core_tracks[i], step.pc, t, cost as u32);
            }
            (t + cost, 1, step.halted, barrier_arrived)
        };

        run.instructions += retired;
        sched.instructions += retired;
        ready_at[i] = done_at;
        run.per_core_cycles[i] = done_at;
        ready_key[i] = (done_at << 3) | i as u64;

        if halted {
            status[i] = CoreStatus::Halted;
            ready_key[i] = u64::MAX;
            if S::ENABLED {
                if done_at > busy_from[i] {
                    sink.span(core_tracks[i], "busy", busy_from[i], done_at);
                }
                sink.instant(core_tracks[i], "halt", done_at);
            }
        } else if barrier_arrived {
            status[i] = CoreStatus::AtBarrier;
            ready_key[i] = u64::MAX;
            arrived[i] = true;
            if S::ENABLED {
                if done_at > busy_from[i] {
                    sink.span(core_tracks[i], "busy", busy_from[i], done_at);
                }
                sink.instant(core_tracks[i], "barrier-arrive", done_at);
                busy_from[i] = done_at;
            }
            // Everyone that has not halted must arrive before release.
            let all_arrived = (0..n).all(|k| arrived[k] || status[k] == CoreStatus::Halted);
            if all_arrived {
                if (0..n).any(|k| status[k] == CoreStatus::Halted && !arrived[k]) {
                    // A halted core never arrived: only legal if *every*
                    // non-halted core is at the barrier — release anyway
                    // would diverge from hardware, treat as deadlock.
                    return Err(ClusterError::BarrierDeadlock);
                }
                let release = done_at + u64::from(cfg.barrier_latency);
                for k in 0..n {
                    if status[k] == CoreStatus::AtBarrier {
                        status[k] = CoreStatus::Running;
                        let waited_from = ready_at[k];
                        ready_at[k] = release.max(ready_at[k]);
                        run.barrier_wait_cycles += ready_at[k] - waited_from;
                        ready_key[k] = (ready_at[k] << 3) | k as u64;
                        arrived[k] = false;
                        if S::ENABLED {
                            if ready_at[k] > waited_from {
                                sink.span(core_tracks[k], "barrier-wait", waited_from, ready_at[k]);
                            }
                            busy_from[k] = ready_at[k];
                        }
                    }
                }
                run.barriers += 1;
            }
        }
    }

    for cpu in &cpus {
        run.profile.merge(cpu.profile());
    }
    run.cycles = run.per_core_cycles.iter().copied().max().unwrap_or(0) + cfg.offload_cycles;
    sched.block = bcache.as_ref().map(|c| c.stats());
    Ok(run)
}

/// Read-back access to the finished cores is not needed by the kernels
/// (results live in TCDM/L2), so `run_cluster` does not return them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::{L2_BASE, L2_SIZE, TCDM_BASE, TCDM_SIZE};
    use iw_rv32::{asm::Asm, MemWidth};

    fn fresh_mems() -> (Ram, Ram) {
        (Ram::new(TCDM_BASE, TCDM_SIZE), Ram::new(L2_BASE, L2_SIZE))
    }

    #[test]
    fn spmd_cores_write_their_id() {
        // Each core stores its id to TCDM[id*4].
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        asm.slli(Reg::T1, Reg::A0, 2);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
        asm.sw(Reg::A0, Reg::T0, 0);
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let cfg = ClusterConfig::default();
        let run = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 10_000).unwrap();
        for id in 0..8u32 {
            assert_eq!(
                tcdm.load(TCDM_BASE + 4 * id, MemWidth::W).unwrap(),
                id,
                "core {id}"
            );
        }
        assert!(run.cycles > 0);
        assert_eq!(run.per_core_cycles.len(), 8);
    }

    #[test]
    fn bank_conflicts_are_charged() {
        // All cores hammer the same TCDM word: accesses serialise.
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        for _ in 0..4 {
            asm.lw(Reg::T1, Reg::T0, 0);
        }
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let cfg = ClusterConfig::default();
        let run = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 10_000).unwrap();
        assert!(run.tcdm_conflict_stalls > 0, "expected conflicts, got none");

        // Same program on one core: no conflicts.
        let (mut tcdm1, mut l21) = fresh_mems();
        l21.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let cfg1 = ClusterConfig {
            cores: 1,
            ..ClusterConfig::default()
        };
        let run1 = run_cluster(&cfg1, &mut tcdm1, &mut l21, L2_BASE, 10_000).unwrap();
        assert_eq!(run1.tcdm_conflict_stalls, 0);
    }

    #[test]
    fn striding_by_word_spreads_across_banks() {
        // Cores access different words: with 16 banks, no conflicts.
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        asm.slli(Reg::T1, Reg::A0, 2);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
        asm.lw(Reg::T2, Reg::T0, 0);
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let run = run_cluster(
            &ClusterConfig::default(),
            &mut tcdm,
            &mut l2,
            L2_BASE,
            10_000,
        )
        .unwrap();
        assert_eq!(run.tcdm_conflict_stalls, 0);
    }

    #[test]
    fn l2_port_serialises() {
        // All cores read L2: the single port serialises them.
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, (L2_BASE + 0x1000) as i32);
        asm.lw(Reg::T1, Reg::T0, 0);
        asm.lw(Reg::T2, Reg::T0, 4);
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let run = run_cluster(
            &ClusterConfig::default(),
            &mut tcdm,
            &mut l2,
            L2_BASE,
            10_000,
        )
        .unwrap();
        assert!(run.l2_port_stalls > 0);
    }

    #[test]
    fn barrier_synchronises_cores() {
        // Core 0 is slowed by a loop, then all cores barrier; each core then
        // reads the value core 0 wrote before the barrier.
        let mut asm = Asm::new(L2_BASE);
        let after_work = asm.new_label();
        asm.bne_to(Reg::A0, Reg::ZERO, after_work);
        // Core 0: spin 100 iterations, then write 77 to TCDM[0].
        asm.li(Reg::T0, 100);
        let top = asm.here();
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.bne_to(Reg::T0, Reg::ZERO, top);
        asm.li(Reg::T1, TCDM_BASE as i32);
        asm.li(Reg::T2, 77);
        asm.sw(Reg::T2, Reg::T1, 0);
        asm.bind(after_work);
        // Barrier.
        asm.li(Reg::T3, BARRIER_ADDR as i32);
        asm.sw(Reg::ZERO, Reg::T3, 0);
        // All: read TCDM[0] and store to TCDM[4 + id*4].
        asm.li(Reg::T1, TCDM_BASE as i32);
        asm.lw(Reg::T4, Reg::T1, 0);
        asm.slli(Reg::T5, Reg::A0, 2);
        asm.add(Reg::T5, Reg::T5, Reg::T1);
        asm.sw(Reg::T4, Reg::T5, 4);
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let run = run_cluster(
            &ClusterConfig::default(),
            &mut tcdm,
            &mut l2,
            L2_BASE,
            100_000,
        )
        .unwrap();
        assert_eq!(run.barriers, 1);
        for id in 0..8u32 {
            assert_eq!(
                tcdm.load(TCDM_BASE + 4 + 4 * id, MemWidth::W).unwrap(),
                77,
                "core {id} read before barrier release"
            );
        }
    }

    #[test]
    fn barrier_deadlock_detected() {
        // Core 0 halts without arriving; others wait forever.
        let mut asm = Asm::new(L2_BASE);
        let wait = asm.new_label();
        asm.bne_to(Reg::A0, Reg::ZERO, wait);
        asm.ecall(); // core 0 exits immediately
        asm.bind(wait);
        asm.li(Reg::T3, BARRIER_ADDR as i32);
        asm.sw(Reg::ZERO, Reg::T3, 0);
        asm.ecall();
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let err = run_cluster(
            &ClusterConfig::default(),
            &mut tcdm,
            &mut l2,
            L2_BASE,
            100_000,
        )
        .unwrap_err();
        assert_eq!(err, ClusterError::BarrierDeadlock);
    }

    #[test]
    fn bad_config_rejected() {
        let (mut tcdm, mut l2) = fresh_mems();
        let cfg = ClusterConfig {
            cores: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100).unwrap_err(),
            ClusterError::BadConfig
        );
        let cfg = ClusterConfig {
            cores: 9,
            ..ClusterConfig::default()
        };
        assert_eq!(
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100).unwrap_err(),
            ClusterError::BadConfig
        );
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut asm = Asm::new(L2_BASE);
        let top = asm.here();
        asm.jal_to(Reg::ZERO, top);
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let err = run_cluster(
            &ClusterConfig::default(),
            &mut tcdm,
            &mut l2,
            L2_BASE,
            1_000,
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::CycleLimit { .. }));
    }

    /// A program exercising every scheduler interaction: compute bursts,
    /// contended TCDM traffic, L2 reads, a barrier and uneven core loads.
    fn contended_program() -> Asm {
        let mut asm = Asm::new(L2_BASE);
        // Per-core compute burst whose length depends on the core id.
        asm.li(Reg::T0, 0);
        asm.addi(Reg::T1, Reg::A0, 3);
        let spin = asm.here();
        asm.addi(Reg::T0, Reg::T0, 1);
        asm.bne_to(Reg::T0, Reg::T1, spin);
        // Everyone hammers TCDM[0] (bank conflicts) and reads L2.
        asm.li(Reg::T2, TCDM_BASE as i32);
        for _ in 0..6 {
            asm.lw(Reg::T3, Reg::T2, 0);
        }
        asm.sw(Reg::A0, Reg::T2, 0);
        asm.li(Reg::T4, (L2_BASE + 0x2000) as i32);
        asm.lw(Reg::T5, Reg::T4, 0);
        // Barrier, then a strided store of the loop count.
        asm.li(Reg::T6, BARRIER_ADDR as i32);
        asm.sw(Reg::ZERO, Reg::T6, 0);
        asm.slli(Reg::T1, Reg::A0, 2);
        asm.add(Reg::T1, Reg::T1, Reg::T2);
        asm.sw(Reg::T0, Reg::T1, 0x40);
        asm.ecall();
        asm
    }

    fn run_with(image: &[u8], cores: usize, mode: &str) -> (ClusterRun, SchedStats, Vec<u32>) {
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, image);
        let cfg = ClusterConfig {
            cores,
            decode_cache: mode == "cached",
            ..ClusterConfig::default()
        };
        let (run, sched) = run_cluster_stats(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000).unwrap();
        let mem: Vec<u32> = (0..0x80)
            .map(|w| tcdm.load(TCDM_BASE + 4 * w, MemWidth::W).unwrap())
            .collect();
        (run, sched, mem)
    }

    #[test]
    fn cached_cluster_matches_reference() {
        let image = contended_program().assemble().unwrap();
        for cores in [1, 2, 8] {
            let (run_ref, sched_ref, mem_ref) = run_with(&image, cores, "reference");
            let (run_fast, sched_fast, mem_fast) = run_with(&image, cores, "cached");
            assert_eq!(run_fast, run_ref, "cores={cores}: ClusterRun must match");
            assert_eq!(mem_fast, mem_ref, "cores={cores}: TCDM must match");
            assert!(
                sched_fast.avg_burst() > sched_ref.avg_burst(),
                "cores={cores}: bursts must beat one-instruction picks ({} vs {})",
                sched_fast.avg_burst(),
                sched_ref.avg_burst()
            );
            // Only the single core runs compiled blocks.
            assert_eq!(sched_fast.block.is_some(), cores == 1, "cores={cores}");
        }
        let (run_ref, _, _) = run_with(&image, 8, "reference");
        assert!(
            run_ref.tcdm_conflict_stalls > 0,
            "workload must actually contend: {run_ref:?}"
        );
        assert_eq!(run_ref.barriers, 1);
    }

    #[test]
    fn single_core_fuses_hwloop_bodies() {
        // The Network-B inner-loop shape: hardware loop over
        // p.lw / p.lw / pv.sdotsp.h against TCDM, per core.
        use iw_rv32::{LoopIdx, SimdOp};
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        asm.slli(Reg::T1, Reg::A0, 6);
        asm.add(Reg::T0, Reg::T0, Reg::T1); // per-core cursor, conflict-free
        asm.mv(Reg::T2, Reg::T0);
        asm.li(Reg::T3, 8);
        let end = asm.new_label();
        asm.lp_setup_to(LoopIdx::L0, Reg::T3, end);
        asm.load_post(MemWidth::W, Reg::T4, Reg::T0, 4);
        asm.load_post(MemWidth::W, Reg::T5, Reg::T2, 4);
        asm.simd(SimdOp::SdotspH, Reg::T6, Reg::T4, Reg::T5);
        asm.bind(end);
        asm.ecall();
        let image = asm.assemble().unwrap();
        let (run_ref, _, _) = run_with(&image, 1, "reference");
        let (run_fast, sched, _) = run_with(&image, 1, "cached");
        assert_eq!(run_fast, run_ref);
        // With no sibling to wait for, the whole run is one pick.
        let stats = sched.block.unwrap();
        assert!(stats.fused_lp_lp_sdotsp > 0, "{stats:?}");
        assert_eq!(sched.picks, 1);
    }

    /// Every core cycle must be attributed: execution, arbitration
    /// stalls, or barrier parking — on both scheduler paths.
    #[test]
    fn cycle_accounting_is_conservative() {
        let image = contended_program().assemble().unwrap();
        for mode in ["reference", "cached"] {
            let (run, _, _) = run_with(&image, 8, mode);
            let total: u64 = run.per_core_cycles.iter().sum();
            assert_eq!(
                total,
                run.busy_cycles
                    + run.tcdm_conflict_stalls
                    + run.l2_port_stalls
                    + run.barrier_wait_cycles,
                "mode={mode}: {run:?}"
            );
            assert!(run.busy_cycles > 0);
            assert!(run.barrier_wait_cycles > 0, "uneven loads must park cores");
        }
    }

    /// A recording sink must see the same run the no-op sink produces,
    /// and its per-core timeline spans must add up to exactly that
    /// core's completion time.
    #[test]
    fn recorded_timeline_accounts_for_every_core_cycle() {
        use iw_trace::Recorder;

        let image = contended_program().assemble().unwrap();
        for decode_cache in [false, true] {
            let run_plain = {
                let (mut tcdm, mut l2) = fresh_mems();
                l2.write_bytes(L2_BASE, &image);
                let cfg = ClusterConfig {
                    decode_cache,
                    ..ClusterConfig::default()
                };
                run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000).unwrap()
            };
            let (mut tcdm, mut l2) = fresh_mems();
            l2.write_bytes(L2_BASE, &image);
            let cfg = ClusterConfig {
                decode_cache,
                ..ClusterConfig::default()
            };
            let mut rec = Recorder::new();
            let run =
                run_cluster_sink(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000, &mut rec).unwrap();
            assert_eq!(run, run_plain, "recording must not perturb the run");
            rec.finish();
            for (i, &per_core) in run.per_core_cycles.iter().enumerate() {
                let track = rec
                    .find_track(&format!("cluster/core{i}"))
                    .expect("one track per core");
                let spans = rec.span_ticks(track, "busy")
                    + rec.span_ticks(track, "tcdm-stall")
                    + rec.span_ticks(track, "l2-stall")
                    + rec.span_ticks(track, "barrier-wait");
                assert_eq!(spans, per_core, "core {i} (cache={decode_cache})");
            }
            assert!(!rec.pc_histogram().is_empty());
        }
    }

    #[test]
    fn cached_cluster_errors_match_reference() {
        // Cycle-limit and deadlock paths must agree with the reference too.
        let mut asm = Asm::new(L2_BASE);
        let top = asm.here();
        asm.addi(Reg::T0, Reg::T0, 1);
        asm.jal_to(Reg::ZERO, top);
        let image = asm.assemble().unwrap();
        for (cores, decode_cache) in [(1, false), (1, true), (8, false), (8, true)] {
            let (mut tcdm, mut l2) = fresh_mems();
            l2.write_bytes(L2_BASE, &image);
            let cfg = ClusterConfig {
                cores,
                decode_cache,
                ..ClusterConfig::default()
            };
            let err = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 1_000).unwrap_err();
            assert_eq!(
                err,
                ClusterError::CycleLimit { limit: 1_000 },
                "cores={cores} cache={decode_cache}"
            );
        }
    }
}
