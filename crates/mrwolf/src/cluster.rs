//! The 8-core RI5CY cluster: event-driven execution with banked-TCDM
//! arbitration, a shared L2 port and event-unit barriers.
//!
//! # Batched execution (horizon bursts)
//!
//! The scheduler is an event loop: the core with the smallest local time
//! steps next. With [`ClusterConfig::decode_cache`] enabled, each pick
//! computes the *horizon* — the earliest instant any **other** runnable
//! core can act — and then bursts the picked core through the ops of one
//! shared per-PC [`Program`] (all cores run the same SPMD image, so every
//! core dispatches slots its siblings already translated), memory
//! instructions included, for as long as its local time stays strictly
//! below that horizon. Past the horizon only ops whose first instruction
//! touches no shared state (no data access, no halt) may continue; the
//! first shared one ends the burst (a *gated break*), and a loop op stops
//! inside itself rather than issue a second access at or past the
//! horizon. Bank and L2-port arbitration is charged by the bus per access,
//! at that access's own issue time, with the same grant bookkeeping the
//! reference uses. Halts, barrier arrivals, faults and the cycle budget
//! break back to the scheduler exactly where the reference would act, so
//! results are bit- and cycle-identical to the one-instruction-per-pick
//! reference path (`decode_cache: false`).
//!
//! A single core with memory timings of at least one cycle runs the same
//! burst with no horizon (there is no runner-up) and without arbitration:
//! every grant reserves its bank or the L2 port for exactly one cycle and
//! its next access issues at least one cycle later, so nothing can stall
//! it. Only the L2 latency remap remains, and a barrier-free run is one
//! pick. With a recording sink the burst dispatches each fused op's head
//! instruction alone ([`Op::head`](iw_rv32::Op::head)), so every
//! instruction gets its PC sample and stall spans.
//!
//! # Joint mode (lockstep dot-product rows)
//!
//! On the SPMD kernels every core spends most of its run inside the same
//! hardware-loop dot-product body (`p.lw`, `p.lw`, `mul`, `srai`, `add`,
//! the op program's `HwLoopDot`), a few cycles apart, so almost every
//! pick retires one or two loads before the runner-up gate stops it.
//! When a burst ends gated at that loop op and every running core (at
//! least two) stands at a dispatch point of the same body under its own
//! hardware loop ([`Program::dot_body`]), the scheduler enters a joint
//! mode instead of dispatching ops: the cores' loop registers, loop
//! counts and body phases live in arrays, the keys stay sorted, and one
//! loop makes the picks sub-instruction by sub-instruction with the
//! generic burst's rules: the same packed keys, the same horizon gate
//! before every load but a pick's first, the same budget checks, and
//! every load charged by the bus's TCDM-bank and L2-port arbitration at
//! its issue time, so every grant and stall is the generic loop's. Picks
//! and gated breaks are counted as the generic loop counts them. A fault
//! or the cycle budget ends the run exactly as there. The mode hands the
//! pick back to the generic burst where a core would reach the `mul` of
//! its loop's last pass, whose `add` leaves the body; it commits
//! registers, `pc`, loop counts, retired counts and profiles in closed
//! form first ([`DotBody::retire`]). A recording sink never enters the
//! mode. A try to enter keeps what it found per core, so the next try
//! examines anew only the cores that ran since (all of them once the op
//! program's slots change).
//!
//! Model assumption: a store that rewrites *another* core's code mid-burst
//! may be observed one burst late. Real PULP clusters have no I-cache
//! coherence either (the fetch path models a warm shared I-cache), so
//! cross-core self-modifying code is already outside the modelled
//! envelope; same-core self-modifying code is exact: a store into
//! translated code drops the slots it rewrites before the next dispatch.

use iw_rv32::{
    Bus, BusError, Cpu, CpuError, DotBody, ExecProfile, MemWidth, Program, ProgramStats, Ram, Reg,
    Timing,
};

use iw_trace::{NoopSink, TraceSink, TrackId, CYCLES};

use crate::memmap::{region_of, Region, BARRIER_ADDR, PROGRAM_SIZE};

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
    /// Run the product path: horizon bursts over the per-PC op program
    /// (see the module docs). Results are identical to the reference
    /// event loop. Disable to force the one-instruction-per-pick
    /// reference interpreter.
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
    /// Picks made by the joint mode (see the module docs), counted in
    /// `picks` too. Their sub-instructions are not op-program dispatches,
    /// so [`SchedStats::program`] does not count them.
    pub joint_picks: u64,
    /// Instructions the joint mode retired: with the op program's, they
    /// make up `instructions`.
    pub joint_instructions: u64,
    /// Op-program counters (ops dispatched, fused executions per
    /// pattern, code-store re-decodes), when the product path ran.
    pub program: Option<ProgramStats>,
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
/// which region the last data access hit. Timed accesses (the product
/// path) also charge the memory system: the L2 latency and, when
/// `arbitrate` is set, bank and L2-port stalls at the access's issue time.
struct ClusterBus<'a> {
    tcdm: &'a mut Ram,
    l2: &'a mut Ram,
    last_region: Option<Region>,
    barrier_arrived: bool,
    arbitrate: bool,
    l2_latency: u32,
    bank_free: Vec<u64>,
    l2_free: u64,
    /// Stall cycles charged by timed accesses, all cores.
    tcdm_stalls: u64,
    l2_stalls: u64,
}

impl ClusterBus<'_> {
    /// Cost of a TCDM access issued at `at`: bank-conflict stall plus the
    /// instruction's base cost.
    #[inline(always)]
    fn tcdm_cost(&mut self, addr: u32, base: u32, at: u64) -> u32 {
        if !self.arbitrate {
            return base;
        }
        let (word, banks) = ((addr >> 2) as usize, self.bank_free.len());
        // Same bank as `word % banks`, without a division on the usual
        // power-of-two bank counts.
        let bank = if banks.is_power_of_two() {
            word & (banks - 1)
        } else {
            word % banks
        };
        let grant = at.max(self.bank_free[bank]);
        let stall = grant - at;
        self.bank_free[bank] = grant + 1;
        self.tcdm_stalls += stall;
        (stall + u64::from(base)) as u32
    }

    /// Cost of an L2 access issued at `at`: port stall plus the L2
    /// latency (which replaces the instruction's base cost).
    #[inline(always)]
    fn l2_cost(&mut self, at: u64) -> u32 {
        if !self.arbitrate {
            return self.l2_latency;
        }
        let grant = at.max(self.l2_free);
        let stall = grant - at;
        self.l2_free = grant + 1;
        self.l2_stalls += stall;
        (stall + u64::from(self.l2_latency)) as u32
    }
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

    #[inline(always)]
    fn load_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        base: u32,
        at: u64,
    ) -> Result<(u32, u32), BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => {
                let v = self.tcdm.load(addr, width)?;
                Ok((v, self.tcdm_cost(addr, base, at)))
            }
            Some(Region::L2) => {
                let v = self.l2.load(addr, width)?;
                Ok((v, self.l2_cost(at)))
            }
            _ => Err(BusError { addr, write: false }),
        }
    }

    #[inline(always)]
    fn store_timed(
        &mut self,
        addr: u32,
        width: MemWidth,
        value: u32,
        base: u32,
        at: u64,
    ) -> Result<u32, BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => {
                self.tcdm.store(addr, width, value)?;
                Ok(self.tcdm_cost(addr, base, at))
            }
            Some(Region::L2) => {
                self.l2.store(addr, width, value)?;
                Ok(self.l2_cost(at))
            }
            Some(Region::EventUnit) if addr == BARRIER_ADDR => {
                // Event-unit store: base store cost only.
                self.barrier_arrived = true;
                Ok(base)
            }
            _ => Err(BusError { addr, write: true }),
        }
    }

    /// Spans inside one memory while nothing arbitrates (a single core):
    /// TCDM at the base cost, L2 at its latency, as `load_timed` charges.
    /// An arbitrating bus charges by issue time, so it hands out none.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        if self.arbitrate {
            return None;
        }
        match region_of(addr)? {
            Region::Tcdm => self.tcdm.span(addr, len, base),
            Region::L2 => self.l2.span(addr, len, self.l2_latency),
            Region::EventUnit => None,
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
/// length, op-program counters) alongside the run.
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
    // `u64::MAX` otherwise (and for the slots of cores not powered on).
    // Times stay far below 2^61 for any simulatable budget, so the
    // packing never overflows.
    let mut ready_key = [u64::MAX; 8];
    for (k, key) in ready_key.iter_mut().enumerate().take(n) {
        *key = k as u64;
    }
    // Arbitration state of the reference path (the product path's lives
    // in its bus).
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

    // One per-PC op program shared by all cores: they run the same SPMD
    // image, so every core dispatches slots its siblings translated.
    let mut program = cfg
        .decode_cache
        .then(|| Program::new(entry, PROGRAM_SIZE as u32, true));
    let mut bus = ClusterBus {
        tcdm,
        l2,
        last_region: None,
        barrier_arrived: false,
        // One core with ≥ 1-cycle memory instructions can never stall on
        // the banks or the L2 port (see the module docs); custom
        // zero-cost memory timings keep arbitration so same-cycle grant
        // collisions still stall.
        arbitrate: !(n == 1
            && cfg.timing.load >= 1
            && cfg.timing.store >= 1
            && cfg.l2_latency >= 1),
        l2_latency: cfg.l2_latency,
        bank_free: vec![0; cfg.tcdm_banks],
        l2_free: 0,
        tcdm_stalls: 0,
        l2_stalls: 0,
    };
    // Set when a burst ended gated at a hardware-loop dot-product op: the
    // cue to try the joint mode before the next pick.
    let mut try_joint = false;
    // The running core outside the body that the last try found, if any:
    // no try can succeed before that core's own burst ends at a loop op.
    let mut joint_wait = None;
    // What the tries found per core since it last ran.
    let mut verdicts = Verdicts::default();
    // A pick the joint mode handed back mid-burst: (core, its local time,
    // the pick's horizon).
    let mut resume = None;

    loop {
        if let (true, Some(prog)) = (std::mem::take(&mut try_joint), &program) {
            match Joint::enter(prog, &cpus, &ready_key, &mut verdicts) {
                Ok(mut joint) => {
                    let pick =
                        joint.run(&mut ready_key, &mut bus, &cfg.timing, max_cycles, sched)?;
                    sched.joint_instructions +=
                        joint.commit(&mut cpus, &ready_key, &mut ready_at, &mut run, &cfg.timing);
                    (resume, joint_wait) = (Some(pick), None);
                    verdicts = Verdicts::default();
                }
                Err(wait) => joint_wait = wait,
            }
        }
        let (i, t, horizon, first) = if let Some((i, at, horizon)) = resume.take() {
            (i, at, horizon, false)
        } else {
            // Pick the runnable core with the smallest key (= smallest
            // local time, ties to the lowest id) and the runner-up key in
            // one branch-free pass.
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
            let t = m1 >> 3;
            if t > max_cycles {
                return Err(ClusterError::CycleLimit { limit: max_cycles });
            }
            sched.picks += 1;
            ((m1 & 7) as usize, t, m2 >> 3, true)
        };

        bus.last_region = None;
        bus.barrier_arrived = false;

        let (done_at, halted, barrier_arrived) = if let Some(prog) = &mut program {
            // Product path: horizon burst. Every other runnable core acts
            // no earlier than `horizon` (the runner-up scheduler key), so
            // while this core's local time stays strictly below it, the
            // scheduler could only ever pick this core again — run it
            // inline, memory arbitration included. `horizon` cannot move
            // mid-burst: other cores' times only change when they execute,
            // and barrier releases require this core's arrival (which ends
            // the burst).
            let cpu = &mut cpus[i];
            let mut done_at = t;
            let mut first = first;
            let mut halted = false;
            let mut barrier = false;
            loop {
                // The first op of a pick always runs (the reference runs
                // its first instruction at this exact pick). Past the
                // horizon, only ops whose first instruction cannot
                // interact with the rest of the cluster may continue —
                // non-memory, non-halting ones touch no shared state, so
                // their interleaving with other cores is unobservable.
                // Below the horizon everything may run: no other core can
                // act before this one, so a fault there is the one the
                // reference raises at this core's next pick.
                let pc = cpu.pc();
                if !first && done_at >= horizon {
                    match prog.fetch(&mut bus, pc) {
                        Ok(op) if op.is_shared() => {
                            sched.gated_breaks += 1;
                            try_joint = !S::ENABLED
                                && op.is_hwloop_dot()
                                && joint_wait.is_none_or(|k| k == i);
                            break;
                        }
                        Ok(_) => {}
                        // Re-raised through the pick path next time this
                        // core is the minimum; a failed translation
                        // mutates nothing.
                        Err(_) => break,
                    }
                }
                let (timing, room) = (&cfg.timing, horizon.saturating_sub(done_at));
                let budget = max_cycles.saturating_sub(done_at);
                // Read back by the recording sink only.
                let stalls_before = (bus.tcdm_stalls, bus.l2_stalls);
                let res = if S::ENABLED {
                    // A recording sink samples every instruction: dispatch
                    // the fused op's head instruction alone.
                    prog.fetch(&mut bus, pc).and_then(|op| {
                        prog.exec(op.head(), cpu, &mut bus, timing, done_at, budget, room)
                    })
                } else {
                    prog.step(cpu, &mut bus, timing, done_at, budget, room)
                };
                let cost = match res {
                    Ok(cost) => cost,
                    Err(source) if first || done_at < horizon => {
                        return Err(ClusterError::Core { core: i, source });
                    }
                    // Past the horizon only non-memory ops run, and the
                    // ones that can fail (a translation, an op through
                    // `Cpu::execute`) fail before mutating anything, so the
                    // re-run at the next pick raises identically.
                    Err(_) => break,
                };
                if S::ENABLED {
                    // One instruction, so at most one stalled access.
                    let tcdm_stall = bus.tcdm_stalls - stalls_before.0;
                    let stall = tcdm_stall + bus.l2_stalls - stalls_before.1;
                    if stall > 0 {
                        if done_at > busy_from[i] {
                            sink.span(core_tracks[i], "busy", busy_from[i], done_at);
                        }
                        let kind = if tcdm_stall > 0 {
                            "tcdm-stall"
                        } else {
                            "l2-stall"
                        };
                        sink.span(core_tracks[i], kind, done_at, done_at + stall);
                        busy_from[i] = done_at + stall;
                    }
                    sink.pc_sample(core_tracks[i], pc, done_at, cost as u32);
                }
                done_at += cost;
                first = false;
                if cpu.is_halted() {
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
            // Stalls included: the bus's stall totals come back out of
            // the busy time once the run ends.
            run.busy_cycles += done_at - t;
            (done_at, halted, barrier)
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
            (t + cost, step.halted, barrier_arrived)
        };

        ready_at[i] = done_at;
        ready_key[i] = (done_at << 3) | i as u64;
        verdicts.by_core[i] = None;

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
        run.instructions += cpu.retired();
    }
    sched.instructions = run.instructions;
    // Every core ran to its halt, so its ready time is its completion.
    run.per_core_cycles = ready_at;
    run.tcdm_conflict_stalls += bus.tcdm_stalls;
    run.l2_port_stalls += bus.l2_stalls;
    run.busy_cycles -= bus.tcdm_stalls + bus.l2_stalls;
    run.cycles = run.per_core_cycles.iter().copied().max().unwrap_or(0) + cfg.offload_cycles;
    sched.program = program.as_ref().map(Program::stats);
    Ok(run)
}

/// Replaces the first of the ascending `sorted` by `key`, no smaller
/// than it, and moves `key` up to its place. A scan, not a branch-free
/// merge: the lockstep's picks rotate, so the scan's length repeats and
/// predicts well.
#[inline(always)]
fn reinsert(sorted: &mut [u64; 8], key: u64) {
    let mut j = 0;
    while j < 7 && sorted[j + 1] < key {
        sorted[j] = sorted[j + 1];
        j += 1;
    }
    sorted[j] = key;
}

/// The dot-product body's `p.lw` at `pc` through `addr`, issued at `at`:
/// the loaded word and its cost, or the fault the op would raise.
#[inline(always)]
fn dot_load(
    bus: &mut ClusterBus<'_>,
    addr: u32,
    base: u32,
    at: u64,
    pc: u32,
) -> Result<(u32, u64), CpuError> {
    if addr & 3 != 0 {
        return Err(CpuError::Misaligned { addr, pc });
    }
    let (v, cost) = bus.load_timed(addr, MemWidth::W, base, at)?;
    Ok((v, u64::from(cost)))
}

/// One core's registers and position in the joint mode.
#[derive(Debug, Clone, Copy, Default)]
struct DotCore {
    /// `[w, x, tw, tx, acc]`.
    regs: [u32; 5],
    /// Next body sub-instruction: 0 and 1 the loads, 2 `mul`, 3 `srai`,
    /// 4 `add`.
    phase: u8,
    /// Hardware-loop count: passes left, the current one included.
    left: u32,
    /// `phase` and `left` at entry.
    phase0: u8,
    left0: u32,
}

/// Per core, what [`Joint::enter`] found since the core last ran: the
/// body it can enter the joint mode in, or `None` if it cannot. A core's
/// finding depends on its own state, which only its runs change, and on
/// the op program's slots, which any core's run may translate or drop:
/// the findings hold while the program's translation counters stand
/// where they did.
#[derive(Debug, Default)]
struct Verdicts {
    by_core: [Option<Option<DotBody>>; 8],
    slots: (u64, u64),
}

/// The joint scheduler mode: every running core inside the body of the
/// same hardware-loop dot-product op (see the module docs).
struct Joint {
    start: u32,
    shamt: u8,
    /// Per core, its [`DotBody`] if it was running at entry.
    bodies: [Option<DotBody>; 8],
    cores: [DotCore; 8],
}

impl Joint {
    /// The joint state if at least two cores run and every running core
    /// stands at a dispatch point of the same loop op's body, under its
    /// own hardware loop; otherwise the first running core that does not,
    /// if any. Only cores that ran since the last try are examined anew
    /// (`verdicts`).
    fn enter(
        prog: &Program,
        cpus: &[Cpu],
        keys: &[u64; 8],
        verdicts: &mut Verdicts,
    ) -> Result<Joint, Option<usize>> {
        let mut joint = Joint {
            start: 0,
            shamt: 0,
            bodies: [None; 8],
            cores: [DotCore::default(); 8],
        };
        let stats = prog.stats();
        if verdicts.slots != (stats.translations, stats.redecodes) {
            *verdicts = Verdicts {
                slots: (stats.translations, stats.redecodes),
                ..Verdicts::default()
            };
        }
        let mut running = 0;
        for (k, cpu) in cpus.iter().enumerate() {
            if keys[k] == u64::MAX {
                continue;
            }
            let body = verdicts.by_core[k]
                .get_or_insert_with(|| {
                    // Its next pick would start at the exit's `mul`.
                    prog.dot_body(cpu).filter(|body| {
                        cpu.pc() - body.start != 8 || cpu.hwloop(body.hwloop).count != 1
                    })
                })
                .ok_or(Some(k))?;
            if running == 0 {
                (joint.start, joint.shamt) = (body.start, body.shamt);
            } else if body.start != joint.start {
                return Err(Some(k));
            }
            running += 1;
            let phase = ((cpu.pc() - body.start) / 4) as u8;
            let left = cpu.hwloop(body.hwloop).count;
            joint.cores[k] = DotCore {
                regs: body.regs.map(|r| cpu.reg(r)),
                phase,
                left,
                phase0: phase,
                left0: left,
            };
            joint.bodies[k] = Some(body);
        }
        if running < 2 {
            return Err(None);
        }
        Ok(joint)
    }

    /// Makes picks until the picked core would leave the body, and
    /// returns that pick for the generic burst to resume: its core, local
    /// time and horizon. The core stands before the `mul` of its last
    /// pass.
    ///
    /// Each pick follows the generic burst sub-instruction by
    /// sub-instruction: the pick's first always runs; a load reached at
    /// or past the horizon ends it as a gated break; a sub-instruction
    /// that ends past the budget ends it too, as an error if still below
    /// the horizon; a fault is the core's error. Loads are charged by the
    /// bus at their issue time, so every grant is the generic loop's.
    fn run(
        &mut self,
        keys: &mut [u64; 8],
        bus: &mut ClusterBus<'_>,
        timing: &Timing,
        max_cycles: u64,
        sched: &mut SchedStats,
    ) -> Result<(usize, u64, u64), ClusterError> {
        let (mul, alu) = (u64::from(timing.mul), u64::from(timing.alu));
        let (start, shamt) = (self.start, self.shamt);
        let (mut picks, mut gated) = (0u64, 0u64);
        // The keys in ascending order: the pick and the runner-up are the
        // first two.
        let mut sorted = *keys;
        sorted.sort_unstable();
        let res = loop {
            let (m1, m2) = (sorted[0], sorted[1]);
            let (i, t, horizon) = ((m1 & 7) as usize, m1 >> 3, m2 >> 3);
            if t > max_cycles {
                break Err(ClusterError::CycleLimit { limit: max_cycles });
            }
            let c = &mut self.cores[i];
            picks += 1;
            let [mut w, mut x, mut tw, mut tx, mut acc] = c.regs;
            let mut left = c.left;
            let mut d = t;
            // Past the budget after a sub-instruction that leaves the core
            // at `phase`: below the horizon the generic loop fails the run
            // here, at or past it the pick just ends.
            let over = |d: u64, phase: u8| {
                if d < horizon {
                    Err(ClusterError::CycleLimit { limit: max_cycles })
                } else {
                    Ok(Some(phase))
                }
            };
            let fault = |source| Err(ClusterError::Core { core: i, source });
            // The phase the pick leaves the core at, or `None` where the
            // core's next sub-instruction would be its last pass's `mul`:
            // the generic burst takes the pick over there (never at the
            // pick's start, see `enter`).
            let mut p = c.phase;
            let end = 'pick: loop {
                // The first sub-instruction runs ungated; every later load
                // passed the gate below.
                if p == 0 {
                    match dot_load(bus, w, timing.load, d, start) {
                        Ok((v, k)) => (tw, w, d) = (v, w.wrapping_add(4), d + k),
                        Err(source) => break 'pick fault(source),
                    }
                    if d > max_cycles {
                        break 'pick over(d, 1);
                    }
                    if d >= horizon {
                        gated += 1;
                        break 'pick Ok(Some(1));
                    }
                }
                if p <= 1 {
                    match dot_load(bus, x, timing.load, d, start.wrapping_add(4)) {
                        Ok((v, k)) => (tx, x, d) = (v, x.wrapping_add(4), d + k),
                        Err(source) => break 'pick fault(source),
                    }
                    if d > max_cycles {
                        break 'pick over(d, 2);
                    }
                }
                if left == 1 {
                    break 'pick Ok(None);
                }
                tw = tw.wrapping_mul(tx);
                d += mul;
                if d > max_cycles {
                    break 'pick over(d, 3);
                }
                tw = ((tw as i32) >> shamt) as u32;
                d += alu;
                if d > max_cycles {
                    break 'pick over(d, 4);
                }
                acc = acc.wrapping_add(tw);
                left -= 1;
                d += alu;
                if d > max_cycles {
                    break 'pick over(d, 0);
                }
                if d >= horizon {
                    gated += 1;
                    break 'pick Ok(Some(0));
                }
                p = 0;
            };
            c.regs = [w, x, tw, tx, acc];
            c.left = left;
            reinsert(&mut sorted, (d << 3) | i as u64);
            match end {
                Ok(Some(phase)) => c.phase = phase,
                Ok(None) => {
                    c.phase = 2;
                    break Ok((i, d, horizon));
                }
                Err(e) => break Err(e),
            }
        };
        for key in sorted {
            if key != u64::MAX {
                keys[(key & 7) as usize] = key;
            }
        }
        sched.picks += picks;
        sched.gated_breaks += gated;
        sched.joint_picks += picks;
        res
    }

    /// Writes every core's joint state back: registers, `pc`, loop count,
    /// profile and retired count through [`DotBody::retire`], its local
    /// time from `keys` and the busy time it spent. Returns the
    /// instructions the cores retired in the mode.
    fn commit(
        &self,
        cpus: &mut [Cpu],
        keys: &[u64; 8],
        ready_at: &mut [u64],
        run: &mut ClusterRun,
        timing: &Timing,
    ) -> u64 {
        let mut total = 0;
        for (k, cpu) in cpus.iter_mut().enumerate() {
            let Some(body) = self.bodies[k] else { continue };
            let c = &self.cores[k];
            let retired =
                5 * u64::from(c.left0 - c.left) + u64::from(c.phase) - u64::from(c.phase0);
            body.retire(cpu, c.regs, retired, timing);
            total += retired;
            // Stalls included, as in the generic burst.
            let at = keys[k] >> 3;
            run.busy_cycles += at - ready_at[k];
            ready_at[k] = at;
        }
        total
    }
}

/// Read-back access to the finished cores is not needed by the kernels
/// (results live in TCDM/L2), so `run_cluster` does not return them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::{L2_BASE, L2_SIZE, TCDM_BASE, TCDM_SIZE};
    use iw_rv32::{asm::Asm, MemWidth};
    use proptest::prelude::*;

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
            // Every core count dispatches the op program; the reference
            // translates nothing.
            let prog = sched_fast.program.expect("product path");
            assert_eq!(prog.instructions, run_fast.instructions, "cores={cores}");
            assert!(sched_ref.program.is_none(), "cores={cores}");
        }
        let (run_ref, _, _) = run_with(&image, 8, "reference");
        assert!(
            run_ref.tcdm_conflict_stalls > 0,
            "workload must actually contend: {run_ref:?}"
        );
        assert_eq!(run_ref.barriers, 1);
    }

    #[test]
    fn single_core_runs_a_q15_hwloop_in_one_pick() {
        // The Q15 inner-loop shape: hardware loop over
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
        // With no sibling to wait for, the whole run is one pick; no
        // pattern fuses, so the op program dispatches every instruction
        // as its single op.
        let stats = sched.program.unwrap();
        assert_eq!(stats.fused_total(), 0, "{stats:?}");
        assert_eq!(stats.instructions, run_fast.instructions);
        assert_eq!(stats.dispatches, run_fast.instructions, "{stats:?}");
        assert_eq!(sched.picks, 1);
    }

    #[test]
    fn single_core_runs_each_dot_product_row_in_one_dispatch() {
        // The RI5CY kernel's inner loop: a hardware loop over
        // p.lw / p.lw / mul / srai / add, a TCDM and an L2 stream.
        use iw_rv32::{AluOp, LoopIdx, ShiftOp};
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::S0, TCDM_BASE as i32);
        asm.li(Reg::S1, (L2_BASE + 0x8000) as i32);
        asm.li(Reg::S2, 3);
        let row = asm.new_label();
        asm.bind(row);
        asm.li(Reg::T3, 16);
        let end = asm.new_label();
        asm.lp_setup_to(LoopIdx::L0, Reg::T3, end);
        asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
        asm.load_post(MemWidth::W, Reg::T1, Reg::S1, 4);
        asm.alu(AluOp::Mul, Reg::T0, Reg::T0, Reg::T1);
        asm.shift(ShiftOp::Srai, Reg::T0, Reg::T0, 5);
        asm.alu(AluOp::Add, Reg::T2, Reg::T2, Reg::T0);
        asm.bind(end);
        asm.addi(Reg::S2, Reg::S2, -1);
        asm.bne_to(Reg::S2, Reg::ZERO, row);
        asm.ecall();
        let image = asm.assemble().unwrap();
        let (run_ref, _, _) = run_with(&image, 1, "reference");
        let (run_fast, sched, _) = run_with(&image, 1, "cached");
        assert_eq!(run_fast, run_ref);
        let stats = sched.program.unwrap();
        assert_eq!(stats.hwloop_dot_entries, 3, "{stats:?}");
        assert_eq!(stats.hwloop_dot_iterations, 48, "{stats:?}");
        // li ×3, then per row: li, lp.setup, the loop op, the fused
        // addi/bne; ecall.
        assert_eq!(stats.dispatches, 3 + 3 * 4 + 1, "{stats:?}");
        assert_eq!(sched.picks, 1);
        // Nothing arbitrates one core: every row runs whole over a TCDM
        // and an L2 span.
        assert_eq!(stats.whole_rows, 3, "{stats:?}");
        // A single core with a zero-cycle L2 keeps arbitration (see the
        // module docs): its bus hands out no spans, and every row steps
        // through its accesses, still matching the reference.
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &image);
        let cfg = ClusterConfig {
            cores: 1,
            l2_latency: 0,
            ..ClusterConfig::default()
        };
        let (mut ref_tcdm, mut ref_l2) = (tcdm.clone(), l2.clone());
        let (run, sched) = run_cluster_stats(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000).unwrap();
        let reference_cfg = ClusterConfig {
            decode_cache: false,
            ..cfg
        };
        let reference =
            run_cluster(&reference_cfg, &mut ref_tcdm, &mut ref_l2, L2_BASE, 100_000).unwrap();
        assert_eq!(run, reference);
        assert_ne!(run.cycles, run_fast.cycles);
        let stats = sched.program.unwrap();
        assert_eq!(stats.hwloop_dot_iterations, 48, "{stats:?}");
        assert_eq!(stats.whole_rows, 0, "{stats:?}");
    }

    #[test]
    fn cluster_bus_spans_only_while_nothing_arbitrates() {
        let (mut tcdm, mut l2) = fresh_mems();
        tcdm.write_bytes(TCDM_BASE, &[1, 2, 3, 4]);
        l2.write_bytes(L2_BASE + 0x100, &[5, 6, 7, 8]);
        let mut bus = ClusterBus {
            tcdm: &mut tcdm,
            l2: &mut l2,
            last_region: None,
            barrier_arrived: false,
            arbitrate: false,
            l2_latency: 3,
            bank_free: vec![0; 16],
            l2_free: 0,
            tcdm_stalls: 0,
            l2_stalls: 0,
        };
        // TCDM at the base cost, L2 at its latency, as `load_timed`
        // charges them; nothing across a memory's end or at the event
        // unit.
        assert_eq!(bus.span(TCDM_BASE, 4, 1), Some((&[1, 2, 3, 4][..], 1)));
        assert_eq!(
            bus.span(L2_BASE + 0x100, 4, 1),
            Some((&[5, 6, 7, 8][..], 3))
        );
        assert_eq!(bus.span(TCDM_BASE + TCDM_SIZE as u32 - 4, 8, 1), None);
        assert_eq!(bus.span(BARRIER_ADDR, 4, 1), None);
        // An arbitrating bus charges by issue time: no spans at all.
        bus.arbitrate = true;
        assert_eq!(bus.span(TCDM_BASE, 4, 1), None);
        assert_eq!(bus.span(L2_BASE + 0x100, 4, 1), None);
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

    /// One fragment of a random SPMD test program. Every core runs the
    /// same fragments with core-independent control flow, so barriers
    /// always pair up.
    #[derive(Debug, Clone)]
    enum Frag {
        /// ALU op over the temporaries (`addi`, `add`, `mul`, `srai`).
        Alu(u8, u8, u8, i16),
        /// `p.lw` through cursor `c` (two private TCDM streams or L2).
        LoadPost(u8, u8),
        /// Two `p.lw` back to back (single ops; both may hit L2).
        LoadPair(u8, u8),
        /// `p.sw` through the core's private store cursor.
        StorePost(u8),
        /// `lw`/`sw` on one of eight shared TCDM words: bank conflicts and
        /// cross-core races.
        Shared(bool, u8, u8),
        /// `lw` from the shared L2 data block: port stalls.
        L2Load(u8, u8),
        /// Hardware loop over `p.lw`/`p.lw`/`pv.sdotsp.h`.
        Dot(u8),
        /// Hardware loop over `p.lw`/`p.lw`/`mul`/`srai`/`add` (the
        /// kernel's fixed-point row) over a private TCDM stream and the
        /// shared L2 stream; a count of 0 leaves the loop inactive, tens of
        /// passes put every core in the joint mode.
        HwDot(u8),
        /// `p.lw` + `p.mac`.
        LoadMac,
        /// `mul` + `srai` + `add`.
        Requant(u8),
        /// Counted `addi` + `bne` loop.
        CountLoop(u8),
        /// Event-unit barrier.
        Barrier,
        /// Store over the `add` of the fused op at the top of the body,
        /// which every core executes again on the second pass. Barriers
        /// on both sides keep every core's first-pass execution before
        /// any store and its second pass after all of them.
        CodeStore,
        /// Load from an unmapped address (inserted by the property, not
        /// drawn, so most programs run to completion).
        Fault,
    }

    fn any_frag() -> impl Strategy<Value = Frag> {
        let alu = || {
            (0u8..4, 0u8..6, 0u8..6, -64i16..64).prop_map(|(op, d, s, k)| Frag::Alu(op, d, s, k))
        };
        let shared = || (any::<bool>(), 0u8..8, 0u8..6).prop_map(|(w, k, r)| Frag::Shared(w, k, r));
        // Uniform over the arms: ALU and shared-word arms appear twice.
        prop_oneof![
            alu(),
            alu(),
            (0u8..3, 0u8..6).prop_map(|(c, d)| Frag::LoadPost(c, d)),
            (0u8..3, 0u8..3).prop_map(|(a, b)| Frag::LoadPair(a, b)),
            (0u8..6).prop_map(Frag::StorePost),
            shared(),
            shared(),
            (0u8..8, 0u8..6).prop_map(|(k, d)| Frag::L2Load(k, d)),
            (1u8..6).prop_map(Frag::Dot),
            prop_oneof![0u8..6, 20u8..70].prop_map(Frag::HwDot),
            Just(Frag::LoadMac),
            (0u8..6).prop_map(Frag::Requant),
            (1u8..5).prop_map(Frag::CountLoop),
            Just(Frag::Barrier),
            Just(Frag::CodeStore),
        ]
    }

    const L2_DATA: u32 = L2_BASE + 0x8000;

    /// Assembles `frags` with the shared prologue into a body that runs
    /// twice, headed by a fused `mul`/`srai`/`add` whose `add` the code
    /// stores patch into a `sub`; `target` is that `add`'s address (two
    /// passes: the first learns it).
    fn build_random(frags: &[Frag], target: u32) -> (Vec<u8>, u32) {
        use iw_rv32::{encode, AluOp, Instr, LoopIdx, ShiftOp, SimdOp};
        let t = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::T5];
        // Private TCDM streams (per core), the L2 stream (shared).
        let cursors = [Reg::S0, Reg::S7, Reg::S2];
        let mut asm = Asm::new(L2_BASE);
        asm.slli(Reg::T6, Reg::A0, 10);
        for (cur, base) in [
            (Reg::S0, TCDM_BASE + 0x1000),
            (Reg::S7, TCDM_BASE + 0x3000),
            (Reg::S3, TCDM_BASE + 0x5000),
        ] {
            asm.li(cur, base as i32);
            asm.add(cur, cur, Reg::T6);
        }
        asm.li(Reg::S1, TCDM_BASE as i32);
        asm.li(Reg::S2, L2_DATA as i32);
        asm.li(Reg::S4, BARRIER_ADDR as i32);
        asm.li(Reg::S5, target as i32);
        let patch = Instr::Alu {
            op: AluOp::Sub,
            rd: Reg::T3,
            rs1: Reg::T0,
            rs2: Reg::T1,
        };
        asm.li(Reg::S6, encode(&patch).unwrap() as i32);
        asm.li(Reg::S8, 2);
        let body = asm.here();
        asm.alu(AluOp::Mul, Reg::T0, Reg::T1, Reg::T2);
        asm.shift(ShiftOp::Srai, Reg::T0, Reg::T0, 3);
        let add_at = asm.current_addr();
        asm.add(Reg::T3, Reg::T0, Reg::T1);
        for f in frags {
            match *f {
                Frag::Alu(op, d, s, k) => {
                    let (d, s) = (t[d as usize], t[s as usize]);
                    match op {
                        0 => asm.addi(d, s, i32::from(k)),
                        1 => asm.add(d, d, s),
                        2 => asm.mul(d, d, s),
                        _ => asm.srai(d, s, (k & 31) as u8),
                    }
                }
                Frag::LoadPost(c, d) => {
                    asm.load_post(MemWidth::W, t[d as usize], cursors[c as usize], 4);
                }
                Frag::LoadPair(a, b) => {
                    asm.load_post(MemWidth::W, Reg::T0, cursors[a as usize], 4);
                    asm.load_post(MemWidth::W, Reg::T1, cursors[b as usize], 4);
                }
                Frag::StorePost(r) => asm.store_post(MemWidth::W, t[r as usize], Reg::S3, 4),
                Frag::Shared(write, k, r) => {
                    let off = 4 * i32::from(k);
                    if write {
                        asm.sw(t[r as usize], Reg::S1, off);
                    } else {
                        asm.lw(t[r as usize], Reg::S1, off);
                    }
                }
                Frag::L2Load(k, d) => asm.lw(t[d as usize], Reg::S2, 4 * i32::from(k)),
                Frag::Dot(n) => {
                    asm.li(Reg::T4, i32::from(n));
                    let end = asm.new_label();
                    asm.lp_setup_to(LoopIdx::L0, Reg::T4, end);
                    asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
                    asm.load_post(MemWidth::W, Reg::T1, Reg::S7, 4);
                    asm.simd(SimdOp::SdotspH, Reg::T2, Reg::T0, Reg::T1);
                    asm.bind(end);
                }
                Frag::HwDot(n) => {
                    asm.li(Reg::T4, i32::from(n));
                    let end = asm.new_label();
                    asm.lp_setup_to(LoopIdx::L0, Reg::T4, end);
                    asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
                    asm.load_post(MemWidth::W, Reg::T1, Reg::S2, 4);
                    asm.mul(Reg::T0, Reg::T0, Reg::T1);
                    asm.shift(ShiftOp::Srai, Reg::T0, Reg::T0, 4);
                    asm.add(Reg::T2, Reg::T2, Reg::T0);
                    asm.bind(end);
                }
                Frag::LoadMac => {
                    asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
                    asm.mac(Reg::T2, Reg::T0, Reg::T1);
                }
                Frag::Requant(d) => {
                    asm.mul(Reg::T5, Reg::T2, Reg::T1);
                    asm.shift(ShiftOp::Srai, Reg::T5, Reg::T5, 5);
                    asm.add(t[d as usize], Reg::T5, Reg::T0);
                }
                Frag::CountLoop(n) => {
                    asm.li(Reg::T5, i32::from(n));
                    let top = asm.here();
                    asm.addi(Reg::T5, Reg::T5, -1);
                    asm.bne_to(Reg::T5, Reg::ZERO, top);
                }
                Frag::Barrier => asm.sw(Reg::ZERO, Reg::S4, 0),
                Frag::CodeStore => {
                    asm.sw(Reg::ZERO, Reg::S4, 0);
                    asm.sw(Reg::S6, Reg::S5, 0);
                    asm.sw(Reg::ZERO, Reg::S4, 0);
                }
                Frag::Fault => asm.lw(Reg::T0, Reg::ZERO, 0),
            }
        }
        asm.addi(Reg::S8, Reg::S8, -1);
        asm.bne_to(Reg::S8, Reg::ZERO, body);
        asm.sw(Reg::T3, Reg::S3, 0);
        asm.ecall();
        (asm.assemble().unwrap(), add_at)
    }

    type Outcome = (Result<ClusterRun, ClusterError>, Vec<u8>, Vec<u8>);

    fn run_random(image: &[u8], cores: usize, decode_cache: bool, limit: u64) -> Outcome {
        let (mut tcdm, mut l2) = fresh_mems();
        for w in 0..(TCDM_SIZE as u32 / 4) {
            let v = w.wrapping_mul(0x9e37_79b9) ^ (w << 7);
            tcdm.write_bytes(TCDM_BASE + 4 * w, &v.to_le_bytes());
        }
        for w in 0..1024u32 {
            let v = w.wrapping_mul(0x85eb_ca6b) ^ 0x5bd1_e995;
            l2.write_bytes(L2_DATA + 4 * w, &v.to_le_bytes());
        }
        l2.write_bytes(L2_BASE, image);
        let cfg = ClusterConfig {
            cores,
            decode_cache,
            ..ClusterConfig::default()
        };
        let res = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, limit);
        // TCDM whole; L2: the code and the data block the loads touch.
        let tcdm_bytes = tcdm.read_bytes(TCDM_BASE, TCDM_SIZE).to_vec();
        let l2_bytes = l2.read_bytes(L2_BASE, 0x9000).to_vec();
        (res, tcdm_bytes, l2_bytes)
    }

    /// One dot-product row of a joint-mode test program: a hardware loop
    /// of `count + spread * core_id` passes (0 leaves the loop inactive)
    /// over the body the kernels emit, then a post-increment store of the
    /// accumulator and an optional barrier.
    #[derive(Debug, Clone)]
    struct DotRow {
        count: u8,
        spread: u8,
        /// Where the `w` and `x` streams run: 0 a private TCDM stream and
        /// the shared L2 stream; 1 the shared L2 stream and a TCDM stream
        /// every core reads at the same addresses (the Network B layout);
        /// 2 private and shared TCDM.
        streams: u8,
        shamt: u8,
        barrier: bool,
    }

    fn any_dot_row() -> impl Strategy<Value = DotRow> {
        (
            prop_oneof![0u8..4, 10u8..90],
            0u8..5,
            0u8..3,
            0u8..9,
            any::<bool>(),
        )
            .prop_map(|(count, spread, streams, shamt, barrier)| DotRow {
                count,
                spread,
                streams,
                shamt,
                barrier,
            })
    }

    /// Assembles `rows`. With `fault = Some((r, after))`, row `r`'s `w`
    /// stream starts `after + 16 * (cores - 1 - core_id)` words below the
    /// end of TCDM, so the last core runs off it first, mid-loop if the
    /// row is long enough.
    fn build_dot_rows(rows: &[DotRow], fault: Option<(usize, u8)>) -> Vec<u8> {
        use iw_rv32::LoopIdx;
        let tcdm_end = TCDM_BASE + TCDM_SIZE as u32;
        let mut asm = Asm::new(L2_BASE);
        asm.slli(Reg::T6, Reg::A0, 10);
        for (cur, base) in [(Reg::S0, TCDM_BASE + 0x1000), (Reg::S3, TCDM_BASE + 0x8000)] {
            asm.li(cur, base as i32);
            asm.add(cur, cur, Reg::T6);
        }
        asm.li(Reg::S4, BARRIER_ADDR as i32);
        asm.sub(Reg::T3, Reg::A1, Reg::A0);
        asm.addi(Reg::T3, Reg::T3, -1);
        asm.slli(Reg::T3, Reg::T3, 6);
        for (r, row) in rows.iter().enumerate() {
            // The shared streams restart at every row.
            asm.li(Reg::S1, TCDM_BASE as i32);
            asm.li(Reg::S2, L2_DATA as i32);
            let (mut w, x) = match row.streams {
                0 => (Reg::S0, Reg::S2),
                1 => (Reg::S2, Reg::S1),
                _ => (Reg::S0, Reg::S1),
            };
            if let Some((_, after)) = fault.filter(|&(f, _)| f == r) {
                asm.li(Reg::S9, (tcdm_end - 4 * u32::from(after)) as i32);
                asm.sub(Reg::S9, Reg::S9, Reg::T3);
                w = Reg::S9;
            }
            asm.li(Reg::T4, i32::from(row.count));
            asm.li(Reg::T5, i32::from(row.spread));
            asm.mul(Reg::T5, Reg::T5, Reg::A0);
            asm.add(Reg::T4, Reg::T4, Reg::T5);
            let end = asm.new_label();
            asm.lp_setup_to(LoopIdx::L0, Reg::T4, end);
            asm.load_post(MemWidth::W, Reg::T0, w, 4);
            asm.load_post(MemWidth::W, Reg::T1, x, 4);
            asm.mul(Reg::T0, Reg::T0, Reg::T1);
            asm.srai(Reg::T0, Reg::T0, row.shamt);
            asm.add(Reg::T2, Reg::T2, Reg::T0);
            asm.bind(end);
            asm.store_post(MemWidth::W, Reg::T2, Reg::S3, 4);
            if row.barrier {
                asm.sw(Reg::ZERO, Reg::S4, 0);
            }
        }
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn joint_mode_serves_lockstep_rows() {
        let row = |streams, spread| DotRow {
            count: 60,
            spread,
            streams,
            shamt: 4,
            barrier: true,
        };
        let image = build_dot_rows(&[row(1, 0), row(0, 3), row(2, 1)], None);
        for cores in [2, 5, 8] {
            let (run_ref, _, mem_ref) = run_with(&image, cores, "reference");
            let (run, sched, mem) = run_with(&image, cores, "cached");
            assert_eq!(run, run_ref, "cores={cores}");
            assert_eq!(mem, mem_ref, "cores={cores}");
            // Most picks are made in the joint mode.
            assert!(
                sched.joint_picks * 10 > sched.picks * 8,
                "cores={cores}: {sched:?}"
            );
        }
        // A recording sink never enters the mode but sees the same run.
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &image);
        let mut rec = iw_trace::Recorder::new();
        let cfg = ClusterConfig::default();
        let recorded =
            run_cluster_sink(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000, &mut rec).unwrap();
        assert_eq!(recorded, run_with(&image, 8, "reference").0);
    }

    proptest! {

        /// Lockstep dot-product rows on 2–8 cores, the joint mode's
        /// domain, and on one core, whose rows run whole over spans:
        /// long and per-core-different counts, every stream layout, a
        /// core whose stream faults mid-loop and cycle budgets that
        /// expire anywhere in the run. The product path must
        /// reproduce the reference pick loop exactly: the `ClusterRun` or
        /// error, every TCDM word and the touched L2 words.
        #[test]
        fn dot_rows_match_reference(
            rows in prop::collection::vec(any_dot_row(), 1..5),
            cores in 1usize..9,
            fault_row in 0usize..8,
            fault_after in 1u8..60,
            budget_pct in prop_oneof![Just(100u64), 0u64..100],
        ) {
            let fault = (fault_row < rows.len()).then_some((fault_row, fault_after));
            let image = build_dot_rows(&rows, fault);
            let unlimited = 1_000_000;
            let full = run_random(&image, cores, false, unlimited);
            // A budget somewhere inside the run: it expires in the joint
            // mode on most draws.
            let offload = ClusterConfig::default().offload_cycles;
            let limit = match &full.0 {
                Ok(run) if budget_pct < 100 => (run.cycles - offload) * budget_pct / 100,
                _ => unlimited,
            };
            let reference = run_random(&image, cores, false, limit);
            let product = run_random(&image, cores, true, limit);
            prop_assert_eq!(&product.0, &reference.0, "cores={} limit={}", cores, limit);
            prop_assert!(product.1 == reference.1, "cores={}: TCDM differs", cores);
            prop_assert!(product.2 == reference.2, "cores={}: L2 differs", cores);
        }

        /// Random SPMD programs on 1, 2 and 8 cores: the op-program
        /// product path must reproduce the reference pick loop exactly —
        /// `ClusterRun`, every TCDM word, the touched L2 words and errors
        /// (faults, cycle limits) — through bank conflicts, L2 port
        /// stalls, barriers, loop ops gated at the horizon and code
        /// stores that rewrite a fused op every core already executed
        /// and executes again.
        #[test]
        fn random_programs_match_reference(
            mut frags in prop::collection::vec(any_frag(), 0..40),
            fault_at in 0usize..120,
            limit in prop_oneof![Just(1_000_000u64), Just(1_000_000u64), 20u64..3_000],
        ) {
            if fault_at < frags.len() {
                frags.insert(fault_at, Frag::Fault);
            }
            let (_, target) = build_random(&frags, L2_BASE + 4);
            let (image, add_at) = build_random(&frags, target);
            prop_assert_eq!(add_at, target);
            for cores in [1, 2, 8] {
                let reference = run_random(&image, cores, false, limit);
                let product = run_random(&image, cores, true, limit);
                prop_assert_eq!(&product.0, &reference.0, "cores={}", cores);
                prop_assert!(product.1 == reference.1, "cores={}: TCDM differs", cores);
                prop_assert!(product.2 == reference.2, "cores={}: L2 differs", cores);
            }
        }
    }
}
