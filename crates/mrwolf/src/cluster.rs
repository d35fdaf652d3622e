//! The 8-core RI5CY cluster: event-driven execution with banked-TCDM
//! arbitration, a shared L2 port and event-unit barriers.
//!
//! # Batched execution (horizon bursts)
//!
//! The scheduler is an event loop: the core with the smallest local time
//! steps next. On the product path ([`run_cluster`]) each pick
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
//! reference path ([`run_cluster_uncached`]).
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
//! # Lockstep (the joint mode: dot-product rows)
//!
//! On the SPMD kernels every core spends most of its run inside the same
//! hardware-loop dot-product body (`p.lw`, `p.lw`, `mul`, `srai`, `add`,
//! the op program's `HwLoopDot`), a few cycles apart, so almost every
//! pick retires one or two loads before the runner-up gate stops it. A
//! core whose burst ends gated at the head of such a body under its own
//! hardware loop ([`Program::dot_body`]) joins the lockstep: its loop
//! registers, loop count, body phase and body live in a `DotCore`, and
//! its picks run there instead of dispatching ops. Each such pick
//! follows the generic burst's rules sub-instruction by sub-instruction:
//! the same packed keys, the same horizon gate before every load but a
//! pick's first, the same budget checks, and every load charged by the
//! bus's TCDM-bank and L2-port arbitration at its issue time, so every
//! grant and stall is the generic loop's. Picks and gated breaks are
//! counted as the generic loop counts them. A fault or the cycle budget
//! ends the run exactly as there. Where a member's next sub-instruction
//! would be the `mul` of its loop's last pass, whose `add` leaves the
//! body, the member leaves: its registers, `pc`, loop count, retired
//! count and profile are committed in closed form ([`DotBody::retire`])
//! and its generic burst continues the pick. Every other core's pick
//! runs through the generic burst meanwhile, so the cores cross their
//! row boundaries one by one while the rest stay. A generic burst whose
//! stores move the op program's re-decode counter sends every member
//! through the same commit, so it dispatches what memory now holds. A
//! recording sink never joins.
//!
//! # Period skip
//!
//! The lockstep state repeats modulo a time shift and a relabelling of
//! the TCDM banks: nothing in it depends on the loaded data, and
//! arbitration uses a bank index only to pick that bank's reservation in
//! `bank_free`, so renumbering every bank `b` as `b + r (mod tcdm_banks)`
//! changes no grant or stall. A stream's next word lies in the next bank,
//! so the renumbering commutes with the lockstep. While every running
//! core is a member, at least two, all in the same body, and after a
//! short warm-up, the period detector takes one snapshot of the state,
//! normalised to the leading core's time: the sorted keys relative to
//! that time (core ids included), every core's body phase,
//! each stream pointer's region and, in TCDM, its bank, and `bank_free`
//! and `l2_free` as `max(v, t_min) − t_min` (every later access issues at
//! or after `t_min`, so the clamp loses nothing). Behind a cheap filter
//! (the same picked core in the same phase) later picks compare against
//! it; if no repeat comes within two windows it takes a fresh one. A
//! repeat is a state whose keys, phases, stream regions and `l2_free`
//! match, whose TCDM streams have every one moved by the same `r` banks,
//! and whose `bank_free` is the snapshot's rotated by `r`: it is the
//! snapshot relabelled and shifted, so it evolves as the snapshot did.
//! L2 streams share one port and compare by region only. The first match
//! gives the period: its picks, gated breaks, cycles, stall cycles,
//! per-core passes and rotation. The lockstep then advances `m` whole
//! periods at once: keys, `bank_free` and `l2_free` move by `m` times the
//! period's cycles and `bank_free` rotates by `m · r` banks; picks, gated
//! breaks and both stall totals grow by `m` times the period's; each
//! core's accumulator is folded by [`iw_rv32::dot_row`] over the words
//! its skipped loads would read (slices of the memory, as [`Bus::span`]
//! hands them out), its last loaded registers are re-read for its phase,
//! and its pointers and loop count advance. `m` is bounded so that every
//! skipped word lies in one memory, no core's loop count reaches its exit
//! and the latest key after the skip stays within the cycle budget; the
//! stepped picks do everything else, so every fault, budget error and
//! exit is the one the reference path raises. The detector starts afresh
//! after every generic pick, where the membership and the running set
//! change.
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

use iw_trace::{TraceSink, TrackId, CYCLES};

use crate::l2::L2Memory;
use crate::memmap::{
    region_of, Region, BARRIER_ADDR, L2_BASE, L2_SIZE, PROGRAM_SIZE, TCDM_BASE, TCDM_SIZE,
};

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
    /// Picks made by lockstep members (see the module docs, "Lockstep"),
    /// counted in `picks` too. Their sub-instructions are not op-program
    /// dispatches, so [`SchedStats::program`] does not count them.
    pub joint_picks: u64,
    /// Instructions lockstep members retired: with the op program's, they
    /// make up `instructions`.
    pub joint_instructions: u64,
    /// Lockstep joins: cores that entered the lockstep at a body's head.
    pub joint_entries: u64,
    /// Closed-form skips of whole lockstep periods (see the module docs,
    /// "Period skip").
    pub period_skips: u64,
    /// Picks those skips stood for, counted in `picks`, `joint_picks`
    /// and (their gated breaks) `gated_breaks` too.
    pub skipped_picks: u64,
    /// Op-program counters (ops dispatched, fused executions per
    /// pattern, code-store re-decodes); all zero on the reference path,
    /// which translates nothing.
    pub program: ProgramStats,
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
struct ClusterBus<'a, L> {
    tcdm: &'a mut Ram,
    l2: &'a mut L,
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

impl<L: L2Memory> ClusterBus<'_, L> {
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

    /// The bytes word loads from `addr` upwards read, up to the end of
    /// its region and as far as the memory that holds it lends them in
    /// one slice (see [`L2Memory::stream`]). Empty where `addr` is
    /// unmapped.
    fn stream(&self, addr: u32) -> &[u8] {
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.stream(addr, TCDM_BASE + TCDM_SIZE as u32),
            Some(Region::L2) => self.l2.stream(addr, L2_BASE + L2_SIZE as u32),
            _ => &[],
        }
    }
}

impl<L: L2Memory> Bus for ClusterBus<'_, L> {
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

/// Runs an SPMD program on the cluster: the product path, horizon bursts
/// over one shared per-PC op program (see the module docs), returning the
/// scheduler statistics (picks, burst length, op-program counters)
/// alongside the run.
///
/// Every active core starts at `entry` with `a0 = core_id` and
/// `a1 = active core count`. Execution is event-driven and deterministic:
/// the core with the smallest local time (ties broken by core id) steps
/// next; TCDM banks grant one access per cycle each, the L2 port one access
/// per cycle total.
///
/// With [`NoopSink`](iw_trace::NoopSink) every emission site folds away.
/// A recording sink gets one `cluster/core{i}` track per active core
/// (stamped in cluster cycles) carrying:
///
/// * coalesced `busy` spans covering instruction execution (base cost),
/// * `tcdm-stall` / `l2-stall` spans for every arbitration wait,
/// * `barrier-wait` spans from each core's arrival to its release, with
///   `barrier-arrive` instants, and a `halt` instant per core,
/// * one PC sample per retired instruction (stall cycles included).
///
/// The timeline accounts for every core cycle: per core, busy + stall +
/// barrier-wait span ticks equal the core's completion time.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster<S: TraceSink, L: L2Memory>(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut L,
    entry: u32,
    max_cycles: u64,
    sink: &mut S,
) -> Result<(ClusterRun, SchedStats), ClusterError> {
    schedule(cfg, tcdm, l2, entry, max_cycles, sink, true)
}

/// The reference path of [`run_cluster`]: the same event loop, exactly
/// one instruction per pick, fetched and decoded each time, with the
/// arbitration charged by the scheduler. Bit- and cycle-identical to
/// [`run_cluster`], and it records the same timeline; its [`SchedStats`]
/// count one pick per instruction and no op-program dispatch.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster_uncached<S: TraceSink, L: L2Memory>(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut L,
    entry: u32,
    max_cycles: u64,
    sink: &mut S,
) -> Result<(ClusterRun, SchedStats), ClusterError> {
    schedule(cfg, tcdm, l2, entry, max_cycles, sink, false)
}

/// The scheduler loop of both paths: `product` picks horizon bursts over
/// the op program, else one reference instruction per pick.
fn schedule<S: TraceSink, L: L2Memory>(
    cfg: &ClusterConfig,
    tcdm: &mut Ram,
    l2: &mut L,
    entry: u32,
    max_cycles: u64,
    sink: &mut S,
    product: bool,
) -> Result<(ClusterRun, SchedStats), ClusterError> {
    let mut stats = SchedStats::default();
    let sched = &mut stats;
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
    // Per core, the local time its hart's state stands at: its key's time,
    // except for a lockstep member, whose hart stands where it joined.
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
    let mut program = product.then(|| Program::new(entry, PROGRAM_SIZE as u32, true));
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
    // The cores in the lockstep and its period detector.
    let mut lock = Lockstep::default();
    let mut period = Period::new(cfg.tcdm_banks);

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
        let t = m1 >> 3;
        if t > max_cycles {
            return Err(ClusterError::CycleLimit { limit: max_cycles });
        }
        let (i, horizon) = ((m1 & 7) as usize, m2 >> 3);

        let (done_at, halted, barrier_arrived) = if let Some(prog) = &mut program {
            // Product path. A lockstep member's pick runs on its
            // `DotCore`; one that leaves the lockstep hands the rest of
            // its pick to the generic burst, from its last pass's `mul`.
            let (mut at, mut first) = (t, true);
            if let Some(c) = &lock.cores[i] {
                if period.due(i, c.phase, sched.picks)
                    && period.probe(&mut lock, &mut ready_key, &mut bus, max_cycles, sched)
                {
                    continue;
                }
                let Some(c) = &mut lock.cores[i] else {
                    unreachable!("a probe keeps every member")
                };
                sched.picks += 1;
                sched.joint_picks += 1;
                let (d, leaves) =
                    c.pick(i, t, horizon, &mut bus, &cfg.timing, max_cycles, sched)?;
                if !leaves {
                    ready_key[i] = (d << 3) | i as u64;
                    continue;
                }
                sched.joint_instructions += lock.leave(i, &mut cpus[i], &cfg.timing);
                (at, first) = (d, false);
            } else {
                sched.picks += 1;
            }
            let redecodes = prog.stats().redecodes;
            let end = burst(
                prog,
                &mut cpus[i],
                &mut bus,
                &cfg.timing,
                (i, at, horizon, first),
                max_cycles,
                sched,
                (sink, &core_tracks, &mut busy_from),
            )?;
            if prog.stats().redecodes != redecodes {
                // A store dropped translated code, perhaps in a member's
                // body: every member leaves, and its next pick dispatches
                // what memory now holds.
                for k in 0..n {
                    if lock.cores[k].is_some() {
                        sched.joint_instructions += lock.leave(k, &mut cpus[k], &cfg.timing);
                        let at = ready_key[k] >> 3;
                        run.busy_cycles += at - ready_at[k];
                        ready_at[k] = at;
                    }
                }
            }
            if end.at_head {
                if let Some(body) = prog.dot_body(&cpus[i]) {
                    lock.join(i, body, &cpus[i]);
                    sched.joint_entries += 1;
                }
            }
            // Stalls included: the bus's stall totals come back out of
            // the busy time once the run ends.
            run.busy_cycles += end.done_at - ready_at[i];
            (end.done_at, end.halted, end.barrier)
        } else {
            // Reference path: exactly one instruction per pick.
            sched.picks += 1;
            bus.last_region = None;
            bus.barrier_arrived = false;
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
        // Every membership change and every change of the running set
        // ends a pick here: the period detector starts afresh.
        period.reset(sched.picks);
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
    if let Some(prog) = &program {
        sched.program = prog.stats();
    }
    Ok((run, stats))
}

/// How a generic burst ended: the core's local time, whether it halted or
/// arrived at a barrier, and whether it stopped at the runner-up gate
/// before a hardware-loop dot-product op, where it may join the lockstep.
struct BurstEnd {
    done_at: u64,
    halted: bool,
    barrier: bool,
    at_head: bool,
}

/// The generic product-path burst of core `i` from local time `at`: every
/// other runnable core acts no earlier than `horizon` (the runner-up
/// scheduler key), so while this core's local time stays strictly below
/// it, the scheduler could only ever pick this core again — run it
/// inline, memory arbitration included. `horizon` cannot move mid-burst:
/// other cores' times only change when they execute, and barrier releases
/// require this core's arrival (which ends the burst). `first` is set on
/// a fresh pick and clear on the rest of a pick a lockstep member handed
/// over.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn burst<S: TraceSink, L: L2Memory>(
    prog: &mut Program,
    cpu: &mut Cpu,
    bus: &mut ClusterBus<'_, L>,
    timing: &Timing,
    (i, at, horizon, first): (usize, u64, u64, bool),
    max_cycles: u64,
    sched: &mut SchedStats,
    (sink, core_tracks, busy_from): (&mut S, &[TrackId], &mut [u64]),
) -> Result<BurstEnd, ClusterError> {
    bus.last_region = None;
    bus.barrier_arrived = false;
    let mut end = BurstEnd {
        done_at: at,
        halted: false,
        barrier: false,
        at_head: false,
    };
    let mut first = first;
    loop {
        let done_at = end.done_at;
        // The first op of a pick always runs (the reference runs its first
        // instruction at this exact pick). Past the horizon, only ops
        // whose first instruction cannot interact with the rest of the
        // cluster may continue — non-memory, non-halting ones touch no
        // shared state, so their interleaving with other cores is
        // unobservable. Below the horizon everything may run: no other
        // core can act before this one, so a fault there is the one the
        // reference raises at this core's next pick.
        let pc = cpu.pc();
        if !first && done_at >= horizon {
            match prog.fetch(bus, pc) {
                Ok(op) if op.is_shared() => {
                    sched.gated_breaks += 1;
                    end.at_head = !S::ENABLED && op.is_hwloop_dot();
                    break;
                }
                Ok(_) => {}
                // Re-raised through the pick path next time this core is
                // the minimum; a failed translation mutates nothing.
                Err(_) => break,
            }
        }
        let room = horizon.saturating_sub(done_at);
        let budget = max_cycles.saturating_sub(done_at);
        // Read back by the recording sink only.
        let stalls_before = (bus.tcdm_stalls, bus.l2_stalls);
        let res = if S::ENABLED {
            // A recording sink samples every instruction: dispatch the
            // fused op's head instruction alone.
            prog.fetch(bus, pc)
                .and_then(|op| prog.exec(op.head(), cpu, bus, timing, done_at, budget, room))
        } else {
            prog.step(cpu, bus, timing, done_at, budget, room)
        };
        let cost = match res {
            Ok(cost) => cost,
            Err(source) if first || done_at < horizon => {
                return Err(ClusterError::Core { core: i, source });
            }
            // Past the horizon only non-memory ops run, and the ones that
            // can fail (a translation, an op through `Cpu::execute`) fail
            // before mutating anything, so the re-run at the next pick
            // raises identically.
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
        end.done_at += cost;
        first = false;
        if cpu.is_halted() {
            end.halted = true;
            break;
        }
        if bus.barrier_arrived {
            end.barrier = true;
            break;
        }
        if end.done_at < horizon {
            if end.done_at > max_cycles {
                // Mirrors the pick-time check: the reference would pick
                // this core next and fail the budget test.
                return Err(ClusterError::CycleLimit { limit: max_cycles });
            }
        } else if end.done_at > max_cycles {
            // Out of budget and past the horizon: whether another core
            // still fits the budget is the scheduler's call.
            break;
        }
    }
    Ok(end)
}

/// The dot-product body's `p.lw` at `pc` through `addr`, issued at `at`:
/// the loaded word and its cost, or the fault the op would raise.
#[inline(always)]
fn dot_load<L: L2Memory>(
    bus: &mut ClusterBus<'_, L>,
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

/// One lockstep member: its registers and position in its dot-product
/// body.
#[derive(Debug, Clone, Copy)]
struct DotCore {
    /// `[w, x, tw, tx, acc]`.
    regs: [u32; 5],
    /// Next body sub-instruction: 0 and 1 the loads, 2 `mul`, 3 `srai`,
    /// 4 `add`.
    phase: u8,
    /// Hardware-loop count: passes left, the current one included.
    left: u32,
    /// `left` when the core joined, at the body's head.
    left0: u32,
    /// The body, its start and shift amount included.
    body: DotBody,
}

impl DotCore {
    /// Makes core `i`'s pick at local time `t` under `horizon`. Returns
    /// the time the pick ends and whether the core leaves the lockstep
    /// there: it then stands before its last pass's `mul`, and the
    /// generic burst takes the pick over.
    ///
    /// The pick follows the generic burst sub-instruction by
    /// sub-instruction: its first always runs; a load reached at or past
    /// the horizon ends it as a gated break; a sub-instruction that ends
    /// past the budget ends it too, as an error if still below the
    /// horizon; a fault is the core's error. Loads are charged by the bus
    /// at their issue time, so every grant is the generic loop's.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn pick<L: L2Memory>(
        &mut self,
        i: usize,
        t: u64,
        horizon: u64,
        bus: &mut ClusterBus<'_, L>,
        timing: &Timing,
        max_cycles: u64,
        sched: &mut SchedStats,
    ) -> Result<(u64, bool), ClusterError> {
        let (mul, alu) = (u64::from(timing.mul), u64::from(timing.alu));
        let (start, shamt) = (self.body.start, self.body.shamt);
        let [mut w, mut x, mut tw, mut tx, mut acc] = self.regs;
        let mut left = self.left;
        let mut d = t;
        // Past the budget after a sub-instruction that leaves the core at
        // `phase`: below the horizon the generic loop fails the run here,
        // at or past it the pick just ends.
        let over = |d: u64, phase: u8| {
            if d < horizon {
                Err(ClusterError::CycleLimit { limit: max_cycles })
            } else {
                Ok(Some(phase))
            }
        };
        let fault = |source| Err(ClusterError::Core { core: i, source });
        // The phase the pick leaves the core at, or `None` where the
        // core's next sub-instruction would be its last pass's `mul`.
        let mut p = self.phase;
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
                    sched.gated_breaks += 1;
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
                sched.gated_breaks += 1;
                break 'pick Ok(Some(0));
            }
            p = 0;
        };
        self.regs = [w, x, tw, tx, acc];
        self.left = left;
        match end? {
            Some(phase) => {
                self.phase = phase;
                Ok((d, false))
            }
            None => {
                self.phase = 2;
                Ok((d, true))
            }
        }
    }
}

/// The lockstep (joint mode, see the module docs): per core, its
/// [`DotCore`] while it is a member.
#[derive(Debug, Default)]
struct Lockstep {
    cores: [Option<DotCore>; 8],
}

impl Lockstep {
    /// Core `k`, standing at `body`'s head after a burst gated there,
    /// becomes a member.
    fn join(&mut self, k: usize, body: DotBody, cpu: &Cpu) {
        debug_assert_eq!(cpu.pc(), body.start, "members join at the head");
        let left = cpu.hwloop(body.hwloop).count;
        self.cores[k] = Some(DotCore {
            regs: body.regs.map(|r| cpu.reg(r)),
            phase: 0,
            left,
            left0: left,
            body,
        });
    }

    /// Member `k` leaves: its state goes back to its hart (registers,
    /// `pc`, loop count, profile and retired count, through
    /// [`DotBody::retire`]). Returns the instructions it retired as a
    /// member.
    fn leave(&mut self, k: usize, cpu: &mut Cpu, timing: &Timing) -> u64 {
        let c = self.cores[k].take().expect("only members leave");
        let retired = 5 * u64::from(c.left0 - c.left) + u64::from(c.phase);
        c.body.retire(cpu, c.regs, retired, timing);
        retired
    }

    /// Whether every running core (a key below `u64::MAX`) is a member,
    /// at least two of them, all in the same body: the lockstep state the
    /// period detector compares.
    fn uniform(&self, keys: &[u64; 8]) -> bool {
        let (mut start, mut members) = (None, 0);
        keys.iter().zip(&self.cores).all(|(&key, c)| match c {
            Some(c) => {
                members += 1;
                *start.get_or_insert(c.body.start) == c.body.start
            }
            None => key == u64::MAX,
        }) && members >= 2
    }
}

/// Picks the lockstep makes, after the period detector starts afresh,
/// before it takes its first snapshot: the cores' arrival in the body
/// settles within them. On Network B every row's state repeats from pick
/// 16 on; a snapshot taken earlier has not settled and repeats later or
/// not at all.
const PERIOD_WARM_UP: u64 = 16;

/// A window of picks, two periods of eight cores that each make one
/// pass in two picks (the Network B period up to a bank rotation): a
/// snapshot that has not repeated within two windows is replaced by a
/// fresh one.
const PERIOD_WINDOW: u64 = 32;

/// The lockstep's period detector (see the module docs, "Period skip"):
/// one snapshot of the lockstep state and what the run had counted when
/// it was taken. One per cluster run, so its bank array is allocated
/// once; it starts afresh after every generic pick.
struct Period {
    /// The run's picks when the detector last started afresh.
    origin: u64,
    /// Picks past `origin` at which the next snapshot is taken;
    /// `u64::MAX` once the lockstep can skip no more.
    snap_at: u64,
    /// The snapshot's picked core and its phase: a pick that differs in
    /// either cannot repeat it. Core 8 matches no pick.
    pick: (usize, u8),
    /// The run's picks and gated breaks.
    picks: u64,
    gated: u64,
    /// The bus's TCDM and L2 stall totals.
    stalls: (u64, u64),
    sorted: [u64; 8],
    cores: [Option<DotCore>; 8],
    bank_free: Vec<u64>,
    l2_free: u64,
}

impl Period {
    fn new(banks: usize) -> Period {
        Period {
            origin: 0,
            snap_at: PERIOD_WARM_UP,
            pick: (8, 0),
            picks: 0,
            gated: 0,
            stalls: (0, 0),
            sorted: [u64::MAX; 8],
            cores: [None; 8],
            bank_free: vec![0; banks],
            l2_free: 0,
        }
    }

    /// Forgets the snapshot; the run has made `picks` picks.
    #[inline(always)]
    fn reset(&mut self, picks: u64) {
        (self.origin, self.snap_at, self.pick) = (picks, PERIOD_WARM_UP, (8, 0));
    }

    /// Whether the pick of core `i` at `phase`, after the run's `picks`,
    /// matches the snapshot's filter or is due for a snapshot.
    #[inline(always)]
    fn due(&self, i: usize, phase: u8, picks: u64) -> bool {
        (i, phase) == self.pick || picks - self.origin == self.snap_at
    }

    /// Called before a member's pick that is [`Period::due`]: skips whole
    /// periods if the lockstep state repeats the snapshot, else takes a
    /// fresh snapshot if one is due and the lockstep is uniform
    /// ([`Lockstep::uniform`]), or stops probing until the detector
    /// starts afresh if it is not. Returns whether it skipped, which
    /// moves the keys.
    #[cold]
    #[inline(never)]
    fn probe<L: L2Memory>(
        &mut self,
        lock: &mut Lockstep,
        keys: &mut [u64; 8],
        bus: &mut ClusterBus<'_, L>,
        max_cycles: u64,
        sched: &mut SchedStats,
    ) -> bool {
        let mut sorted = *keys;
        sorted.sort_unstable();
        let i = (sorted[0] & 7) as usize;
        let phase = lock.cores[i].map_or(0, |c| c.phase);
        if (i, phase) == self.pick {
            if let Some(rotation) = self.repeats(lock, &sorted, bus) {
                // Later matches could only skip less: the loop counts, the
                // streams and the budget left only shrink.
                (self.snap_at, self.pick) = (u64::MAX, (8, 0));
                let skipped = self.skip(lock, keys, &sorted, bus, rotation, max_cycles, sched);
                sched.period_skips += u64::from(skipped > 0);
                sched.skipped_picks += skipped;
                return skipped > 0;
            }
        }
        if sched.picks - self.origin == self.snap_at {
            // Uniformity changes only where the detector starts afresh.
            if !lock.uniform(keys) {
                (self.snap_at, self.pick) = (u64::MAX, (8, 0));
                return false;
            }
            self.snap_at += 2 * PERIOD_WINDOW;
            self.pick = (i, phase);
            (self.picks, self.gated) = (sched.picks, sched.gated_breaks);
            self.stalls = (bus.tcdm_stalls, bus.l2_stalls);
            (self.sorted, self.cores) = (sorted, lock.cores);
            self.bank_free.copy_from_slice(&bus.bank_free);
            self.l2_free = bus.l2_free;
        }
        false
    }

    /// The members with their snapshot states: the same cores, as the
    /// detector starts afresh whenever the membership changes.
    fn pairs<'a>(
        &'a self,
        lock: &'a Lockstep,
    ) -> impl Iterator<Item = (&'a DotCore, &'a DotCore)> + 'a {
        lock.cores
            .iter()
            .zip(&self.cores)
            .filter_map(|(c, c0)| Some((c.as_ref()?, c0.as_ref()?)))
    }

    /// The rotation `r` of the TCDM banks under which the lockstep state
    /// normalised to its leading time equals the snapshot's, if there is
    /// one: the relative keys and every member's phase match, its
    /// streams lie in the same regions, every TCDM stream of every core
    /// has moved by `r` banks, and the bank reservations clamped at the
    /// leading time are the snapshot's rotated by `r`, the L2 port's
    /// equal to the snapshot's. Arbitration uses a bank index only to
    /// pick its reservation, so the lockstep is the same under any
    /// relabelling of the banks (see the module docs).
    fn repeats(
        &self,
        lock: &Lockstep,
        sorted: &[u64; 8],
        bus: &ClusterBus<'_, impl L2Memory>,
    ) -> Option<usize> {
        let (t0, t) = (self.sorted[0] >> 3, sorted[0] >> 3);
        let banks = self.bank_free.len();
        let bank = |a: u32| (a >> 2) as usize % banks;
        let clamp = |v: u64, t: u64| v.max(t) - t;
        // Most probes differ in the keys: compare those first.
        let running = sorted.iter().take_while(|&&k| k != u64::MAX).count();
        if !(sorted[..running].iter().zip(&self.sorted[..running]))
            .all(|(&a, &b)| a - (t << 3) == b - (t0 << 3))
        {
            return None;
        }
        let mut rotation = None;
        for (c, c0) in self.pairs(lock) {
            if c.phase != c0.phase {
                return None;
            }
            for (a, a0) in [(c.regs[0], c0.regs[0]), (c.regs[1], c0.regs[1])] {
                let region = region_of(a);
                if region != region_of(a0) {
                    return None;
                }
                if region == Some(Region::Tcdm) {
                    let r = (bank(a) + banks - bank(a0)) % banks;
                    if *rotation.get_or_insert(r) != r {
                        return None;
                    }
                }
            }
        }
        let r = rotation.unwrap_or(0);
        // `bus.bank_free[(b + r) % banks]` against the snapshot's bank `b`.
        let rotated = bus.bank_free[r..].iter().chain(&bus.bank_free[..r]);
        (clamp(bus.l2_free, t) == clamp(self.l2_free, t0)
            && rotated
                .zip(&self.bank_free)
                .all(|(&v, &v0)| clamp(v, t) == clamp(v0, t0)))
        .then_some(r)
    }

    /// Advances the lockstep state, which repeats the snapshot up to a
    /// `rotation` of the banks, by as many whole periods as keep every
    /// skipped load inside its memory, every member's loop count short of
    /// its exit and every key within the budget. Returns the picks it
    /// skipped.
    #[allow(clippy::too_many_arguments)]
    fn skip<L: L2Memory>(
        &self,
        lock: &mut Lockstep,
        keys: &mut [u64; 8],
        sorted: &[u64; 8],
        bus: &mut ClusterBus<'_, L>,
        rotation: usize,
        max_cycles: u64,
        sched: &mut SchedStats,
    ) -> u64 {
        let dt = (sorted[0] >> 3) - (self.sorted[0] >> 3);
        let last = sorted
            .iter()
            .rev()
            .find(|&&k| k != u64::MAX)
            .map_or(0, |k| k >> 3);
        let mut m = max_cycles
            .checked_sub(last)
            .map_or(0, |room| room.checked_div(dt).unwrap_or(u64::MAX));
        for (c, c0) in self.pairs(lock) {
            let passes = c0.left - c.left;
            // Between picks a lockstep core stands before one of its
            // loads: it reads its loop count after the second, so it
            // still has a pass to go at count 1. A core past its loads
            // ran out of budget.
            if c.phase > 1 {
                return 0;
            }
            if passes == 0 {
                continue;
            }
            debug_assert_eq!(c.regs[0].wrapping_sub(c0.regs[0]), 4 * passes);
            m = m.min(u64::from(c.left.saturating_sub(1) / passes));
            for ptr in [c.regs[0], c.regs[1]] {
                m = m.min(bus.stream(ptr).len() as u64 / (4 * u64::from(passes)));
            }
        }
        if m == 0 {
            return 0;
        }
        let shift = m * dt;
        for key in keys.iter_mut().filter(|k| **k != u64::MAX) {
            *key += shift << 3;
        }
        for free in &mut bus.bank_free {
            *free += shift;
        }
        // Each period moves every bank's role `rotation` banks up.
        let banks = bus.bank_free.len() as u64;
        bus.bank_free
            .rotate_right((m % banks * rotation as u64 % banks) as usize);
        bus.l2_free += shift;
        bus.tcdm_stalls += m * (bus.tcdm_stalls - self.stalls.0);
        bus.l2_stalls += m * (bus.l2_stalls - self.stalls.1);
        let skipped = m * (sched.picks - self.picks);
        sched.gated_breaks += m * (sched.gated_breaks - self.gated);
        sched.picks += skipped;
        sched.joint_picks += skipped;
        for (c, c0) in lock.cores.iter_mut().zip(&self.cores) {
            let (Some(c), Some(c0)) = (c, c0) else {
                continue;
            };
            // At most the loop count: it fits.
            let len = 4 * m as usize * (c0.left - c.left) as usize;
            let (w, x) = (bus.stream(c.regs[0]), bus.stream(c.regs[1]));
            skip_passes(c, &w[..len], &x[..len]);
        }
        skipped
    }
}

/// Retires `ws.len() / 4` whole passes of member `c`, which stands at
/// phase 0 or 1, round to the same phase: `ws` and `xs` are the words
/// its loads read, from its `w` and `x` on. At phase 1 the pass in
/// flight has loaded its `w` word (in `tw`) but not its `x` word. The
/// passes fold by [`iw_rv32::dot_row`]; `tw` and `tx` are re-read for the
/// phase.
fn skip_passes(c: &mut DotCore, ws: &[u8], xs: &[u8]) {
    let passes = ws.len() / 4;
    if passes == 0 {
        return;
    }
    let shamt = c.body.shamt;
    let word = |s: &[u8], j: usize| u32::from_le_bytes(s.as_chunks::<4>().0[j]);
    let [w, x, tw, _, acc] = c.regs;
    let (acc, tw, tx) = if c.phase == 0 {
        iw_rv32::dot_row(ws, xs, shamt, acc)
    } else {
        let first = ((tw.wrapping_mul(word(xs, 0)) as i32) >> shamt) as u32;
        let k = 4 * (passes - 1);
        let acc = iw_rv32::dot_row(&ws[..k], &xs[4..], shamt, acc.wrapping_add(first)).0;
        (acc, word(ws, passes - 1), word(xs, passes - 1))
    };
    let step = 4 * passes as u32;
    c.regs = [w.wrapping_add(step), x.wrapping_add(step), tw, tx, acc];
    c.left -= passes as u32;
}

/// Read-back access to the finished cores is not needed by the kernels
/// (results live in TCDM/L2), so `run_cluster` does not return them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::{L2_BASE, L2_SIZE, TCDM_BASE, TCDM_SIZE};
    use iw_rv32::{asm::Asm, MemWidth, ShiftOp};
    use iw_trace::NoopSink;
    use proptest::prelude::*;

    fn fresh_mems() -> (Ram, Ram) {
        (Ram::new(TCDM_BASE, TCDM_SIZE), Ram::new(L2_BASE, L2_SIZE))
    }

    /// The run of the product path (`product`) or the reference from
    /// `L2_BASE`, with its scheduler statistics.
    fn run_path<S: TraceSink>(
        product: bool,
        cfg: &ClusterConfig,
        (tcdm, l2): (&mut Ram, &mut Ram),
        limit: u64,
        sink: &mut S,
    ) -> Result<(ClusterRun, SchedStats), ClusterError> {
        let entry = if product {
            run_cluster
        } else {
            run_cluster_uncached
        };
        entry(cfg, tcdm, l2, L2_BASE, limit, sink)
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
        let run = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 10_000, &mut NoopSink)
            .unwrap()
            .0;
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
        let run = run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 10_000, &mut NoopSink)
            .unwrap()
            .0;
        assert!(run.tcdm_conflict_stalls > 0, "expected conflicts, got none");

        // Same program on one core: no conflicts.
        let (mut tcdm1, mut l21) = fresh_mems();
        l21.write_bytes(L2_BASE, &asm.assemble().unwrap());
        let cfg1 = ClusterConfig {
            cores: 1,
            ..ClusterConfig::default()
        };
        let run1 = run_cluster(&cfg1, &mut tcdm1, &mut l21, L2_BASE, 10_000, &mut NoopSink)
            .unwrap()
            .0;
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
            &mut NoopSink,
        )
        .unwrap()
        .0;
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
            &mut NoopSink,
        )
        .unwrap()
        .0;
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
            &mut NoopSink,
        )
        .unwrap()
        .0;
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
            &mut NoopSink,
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
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100, &mut NoopSink).unwrap_err(),
            ClusterError::BadConfig
        );
        let cfg = ClusterConfig {
            cores: 9,
            ..ClusterConfig::default()
        };
        assert_eq!(
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100, &mut NoopSink).unwrap_err(),
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
            &mut NoopSink,
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

    /// Runs `image` on `cores` cores on the `"product"` path or the
    /// `"reference"`: the run, its scheduler statistics and the first
    /// TCDM words.
    fn run_with(image: &[u8], cores: usize, mode: &str) -> (ClusterRun, SchedStats, Vec<u32>) {
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, image);
        let cfg = ClusterConfig {
            cores,
            ..ClusterConfig::default()
        };
        let mems = (&mut tcdm, &mut l2);
        let (run, sched) = run_path(mode == "product", &cfg, mems, 100_000, &mut NoopSink).unwrap();
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
            let (run_fast, sched_fast, mem_fast) = run_with(&image, cores, "product");
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
            let prog = sched_fast.program;
            assert_eq!(prog.instructions, run_fast.instructions, "cores={cores}");
            assert_eq!(sched_ref.program, ProgramStats::default(), "cores={cores}");
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
        let (run_fast, sched, _) = run_with(&image, 1, "product");
        assert_eq!(run_fast, run_ref);
        // With no sibling to wait for, the whole run is one pick; no
        // pattern fuses, so the op program dispatches every instruction
        // as its single op.
        let stats = sched.program;
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
        let (run_fast, sched, _) = run_with(&image, 1, "product");
        assert_eq!(run_fast, run_ref);
        let stats = sched.program;
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
        // module docs): its bus hands out no spans, so the loop op runs
        // each pass's first load alone and the body's slots step the
        // rest, still matching the reference.
        let (mut tcdm, mut l2) = fresh_mems();
        l2.write_bytes(L2_BASE, &image);
        let cfg = ClusterConfig {
            cores: 1,
            l2_latency: 0,
            ..ClusterConfig::default()
        };
        let (mut ref_tcdm, mut ref_l2) = (tcdm.clone(), l2.clone());
        let (run, sched) =
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000, &mut NoopSink).unwrap();
        let (t, l) = (&mut ref_tcdm, &mut ref_l2);
        let (reference, _) =
            run_cluster_uncached(&cfg, t, l, L2_BASE, 100_000, &mut NoopSink).unwrap();
        assert_eq!(run, reference);
        assert_ne!(run.cycles, run_fast.cycles);
        let stats = sched.program;
        assert_eq!(stats.hwloop_dot_entries, 48, "{stats:?}");
        assert_eq!(stats.hwloop_dot_iterations, 0, "{stats:?}");
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
        for mode in ["reference", "product"] {
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
        let cfg = ClusterConfig::default();
        for product in [false, true] {
            let run_plain = {
                let (mut tcdm, mut l2) = fresh_mems();
                l2.write_bytes(L2_BASE, &image);
                run_path(product, &cfg, (&mut tcdm, &mut l2), 100_000, &mut NoopSink)
                    .unwrap()
                    .0
            };
            let (mut tcdm, mut l2) = fresh_mems();
            l2.write_bytes(L2_BASE, &image);
            let mut rec = Recorder::new();
            let (run, _) =
                run_path(product, &cfg, (&mut tcdm, &mut l2), 100_000, &mut rec).unwrap();
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
                assert_eq!(spans, per_core, "core {i} (product={product})");
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
        for (cores, product) in [(1, false), (1, true), (8, false), (8, true)] {
            let (mut tcdm, mut l2) = fresh_mems();
            l2.write_bytes(L2_BASE, &image);
            let cfg = ClusterConfig {
                cores,
                ..ClusterConfig::default()
            };
            let mems = (&mut tcdm, &mut l2);
            let err = run_path(product, &cfg, mems, 1_000, &mut NoopSink).unwrap_err();
            assert_eq!(
                err,
                ClusterError::CycleLimit { limit: 1_000 },
                "cores={cores} product={product}"
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

    fn run_random(image: &[u8], cores: usize, product: bool, limit: u64) -> Outcome {
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
            ..ClusterConfig::default()
        };
        let res = run_path(product, &cfg, (&mut tcdm, &mut l2), limit, &mut NoopSink).map(|r| r.0);
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
            let (run, sched, mem) = run_with(&image, cores, "product");
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
        let (recorded, _) =
            run_cluster(&cfg, &mut tcdm, &mut l2, L2_BASE, 100_000, &mut rec).unwrap();
        assert_eq!(recorded, run_with(&image, 8, "reference").0);
    }

    /// Where a [`LongRow`]'s weight streams lie.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Weights {
        /// In L2, as on Network B.
        L2,
        /// In TCDM: with the inputs in TCDM too, as on Network A.
        Tcdm,
        /// In TCDM on the even cores, in L2 on the odd ones: the two
        /// halves run at different speeds, so their TCDM streams move by
        /// different numbers of banks in a lockstep period.
        Split,
    }

    /// One long lockstep row for the period skip: every core runs
    /// `passes + spread * core_id` passes over its own weight stream `w`
    /// (placed by `weights`, `stride` words apart per core) and the input
    /// stream `x` every core reads at the same addresses (in TCDM or in
    /// L2).
    /// `w_end`/`x_end` place the stream that reaches furthest that many
    /// words before the end of its memory: 0 ends flush with it, −1 runs
    /// one word past it (a fault), `None` leaves it near the start.
    #[derive(Debug, Clone)]
    struct LongRow {
        passes: u16,
        spread: u8,
        weights: Weights,
        inputs_l2: bool,
        stride: u16,
        offset: u8,
        w_end: Option<i8>,
        x_end: Option<i8>,
        shamt: u8,
    }

    fn any_long_row() -> impl Strategy<Value = LongRow> {
        let end = || prop_oneof![Just(None), Just(None), (-1i8..2).prop_map(Some)];
        (
            (
                40u16..301,
                0u8..4,
                prop_oneof![Just(Weights::L2), Just(Weights::Tcdm), Just(Weights::Split)],
                0u16..6,
            ),
            (
                0u8..16,
                end(),
                end(),
                0u8..9,
                prop_oneof![Just(false), Just(false), Just(true)],
            ),
        )
            .prop_map(
                |((passes, spread, weights, pad), (offset, w_end, x_end, shamt, inputs_l2))| {
                    LongRow {
                        passes,
                        spread,
                        weights,
                        inputs_l2,
                        stride: passes + 3 * u16::from(spread) + 8 * 7 + pad,
                        offset,
                        w_end,
                        x_end,
                        shamt,
                    }
                },
            )
    }

    /// Assembles `rows` for `cores` cores; each core stores every row's
    /// accumulator to its own output word, with a barrier between rows.
    fn build_long_rows(rows: &[LongRow], cores: usize) -> Vec<u8> {
        use iw_rv32::LoopIdx;
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::S3, (TCDM_BASE + 0x40) as i32);
        asm.slli(Reg::T6, Reg::A0, 2);
        asm.add(Reg::S3, Reg::S3, Reg::T6);
        asm.li(Reg::S4, BARRIER_ADDR as i32);
        for row in rows {
            let words = |n: u32| 4 * n;
            // `gap` words before `hi` (past it for a negative gap).
            let before = |hi: u32, gap: i8| hi.wrapping_sub((4 * i32::from(gap)) as u32);
            let most = u32::from(row.passes) + u32::from(row.spread) * (cores as u32 - 1);
            let stride = words(u32::from(row.stride));
            // Core 0's weights in L2 or in TCDM; the last core's stream
            // reaches furthest.
            let w0 = |l2: bool| {
                let (w_lo, w_hi) = if l2 {
                    (L2_DATA, L2_BASE + L2_SIZE as u32)
                } else {
                    (TCDM_BASE + 0x4000, TCDM_BASE + TCDM_SIZE as u32)
                };
                match row.w_end {
                    Some(gap) => before(w_hi, gap) - words(most) - stride * (cores as u32 - 1),
                    None => w_lo + words(u32::from(row.offset)),
                }
            };
            let (x_lo, x_hi) = if row.inputs_l2 {
                (L2_DATA + 0x4000, L2_BASE + L2_SIZE as u32)
            } else {
                (TCDM_BASE + 0x1000, TCDM_BASE + TCDM_SIZE as u32)
            };
            let x0 = match row.x_end {
                Some(gap) => before(x_hi, gap) - words(most),
                None => x_lo + words(u32::from(row.offset)),
            };
            asm.li(Reg::S0, w0(row.weights == Weights::L2) as i32);
            if row.weights == Weights::Split {
                // Odd cores: `w0(true) - w0(false)` further, in L2.
                asm.slli(Reg::T3, Reg::A0, 31);
                asm.shift(ShiftOp::Srli, Reg::T3, Reg::T3, 31);
                asm.li(Reg::S2, w0(true).wrapping_sub(w0(false)) as i32);
                asm.mul(Reg::T3, Reg::T3, Reg::S2);
                asm.add(Reg::S0, Reg::S0, Reg::T3);
            }
            asm.li(Reg::T5, stride as i32);
            asm.mul(Reg::T5, Reg::T5, Reg::A0);
            asm.add(Reg::S0, Reg::S0, Reg::T5);
            asm.li(Reg::S1, x0 as i32);
            asm.li(Reg::T4, i32::from(row.passes));
            asm.li(Reg::T5, i32::from(row.spread));
            asm.mul(Reg::T5, Reg::T5, Reg::A0);
            asm.add(Reg::T4, Reg::T4, Reg::T5);
            let end = asm.new_label();
            asm.lp_setup_to(LoopIdx::L0, Reg::T4, end);
            asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
            asm.load_post(MemWidth::W, Reg::T1, Reg::S1, 4);
            asm.mul(Reg::T0, Reg::T0, Reg::T1);
            asm.srai(Reg::T0, Reg::T0, row.shamt);
            asm.add(Reg::T2, Reg::T2, Reg::T0);
            asm.bind(end);
            asm.sw(Reg::T2, Reg::S3, 0);
            asm.sw(Reg::ZERO, Reg::S4, 0);
        }
        asm.ecall();
        asm.assemble().unwrap()
    }

    /// TCDM and L2 filled with a word pattern, `image` at the base of L2.
    fn patterned_mems(image: &[u8]) -> (Ram, Ram) {
        let (mut tcdm, mut l2) = fresh_mems();
        let pattern = |len: usize, seed: u32| -> Vec<u8> {
            (0..len as u32 / 4)
                .flat_map(|w| (w.wrapping_mul(0x9e37_79b9) ^ (w << 7) ^ seed).to_le_bytes())
                .collect()
        };
        tcdm.write_bytes(TCDM_BASE, &pattern(TCDM_SIZE, 0));
        l2.write_bytes(L2_BASE, &pattern(L2_SIZE, 0x5bd1_e995));
        l2.write_bytes(L2_BASE, image);
        (tcdm, l2)
    }

    type Memories<T> = (Result<T, ClusterError>, Ram, Ram);

    /// The product (`product`) or reference run on copies of `mems`, and
    /// the memories it leaves.
    fn run_on(
        mems: &(Ram, Ram),
        cfg: &ClusterConfig,
        limit: u64,
        product: bool,
    ) -> Memories<(ClusterRun, SchedStats)> {
        let (mut tcdm, mut l2) = mems.clone();
        let res = run_path(product, cfg, (&mut tcdm, &mut l2), limit, &mut NoopSink);
        (res, tcdm, l2)
    }

    #[test]
    fn period_skip_serves_long_lockstep_rows() {
        let row = |weights, spread| LongRow {
            passes: 200,
            spread,
            weights,
            inputs_l2: false,
            stride: 260,
            offset: 3,
            w_end: None,
            x_end: None,
            shamt: 5,
        };
        let image = build_long_rows(&[row(Weights::L2, 0), row(Weights::Tcdm, 1)], 8);
        let mems = patterned_mems(&image);
        for tcdm_banks in [1, 3, 16] {
            let cfg = ClusterConfig {
                tcdm_banks,
                ..ClusterConfig::default()
            };
            let (expected, ref_tcdm, ref_l2) = run_on(&mems, &cfg, 1_000_000, false);
            let (got, tcdm, l2) = run_on(&mems, &cfg, 1_000_000, true);
            let ((run, sched), (run_ref, _)) = (got.unwrap(), expected.unwrap());
            assert_eq!(run, run_ref, "banks={tcdm_banks}");
            assert!(
                tcdm.read_bytes(TCDM_BASE, TCDM_SIZE) == ref_tcdm.read_bytes(TCDM_BASE, TCDM_SIZE)
            );
            assert!(l2.read_bytes(L2_BASE, L2_SIZE) == ref_l2.read_bytes(L2_BASE, L2_SIZE));
            // Both rows skip, and most of their joint picks lie in
            // skipped periods.
            assert!(sched.period_skips >= 2, "banks={tcdm_banks}: {sched:?}");
            assert!(
                sched.skipped_picks * 2 > sched.joint_picks,
                "banks={tcdm_banks}: {sched:?}"
            );
        }
    }

    /// The period detector's match: two cores in the body, the snapshot
    /// taken at time 100, the state compared 40 cycles later. Cores that
    /// made one pass each moved their TCDM streams by one bank, so the
    /// state repeats up to a rotation of one bank exactly when
    /// `bank_free` is the snapshot's rotated by one; a core whose TCDM
    /// stream moved by another number of banks breaks the match, one
    /// whose weights lie in L2 does not constrain it.
    #[test]
    fn period_match_needs_one_bank_rotation_for_every_tcdm_stream() {
        let (mut tcdm, mut l2) = fresh_mems();
        let mut bus = ClusterBus {
            tcdm: &mut tcdm,
            l2: &mut l2,
            last_region: None,
            barrier_arrived: false,
            arbitrate: true,
            l2_latency: 3,
            bank_free: vec![0; 16],
            l2_free: 0,
            tcdm_stalls: 0,
            l2_stalls: 0,
        };
        let body = DotBody {
            start: L2_BASE,
            regs: [Reg::S0, Reg::S1, Reg::T0, Reg::T1, Reg::T2],
            shamt: 0,
            hwloop: 0,
        };
        let core = |w: u32, x: u32| {
            Some(DotCore {
                regs: [w, x, 0, 0, 0],
                phase: 0,
                left: 100,
                left0: 100,
                body,
            })
        };
        let keys = |t: u64| {
            let mut sorted = [u64::MAX; 8];
            sorted[..2].copy_from_slice(&[t << 3, ((t + 3) << 3) | 1]);
            sorted
        };
        let (w0, w1, x) = (TCDM_BASE + 0x4000, TCDM_BASE + 0x4400, TCDM_BASE + 0x1000);
        let mut period = Period::new(16);
        period.sorted = keys(100);
        period.cores[..2].copy_from_slice(&[core(w0, x), core(w1, x)]);
        // Banks 0–4 reserved past the snapshot's time, the rest before it.
        let snapshot: Vec<u64> = (0..16).map(|b| if b < 5 { 101 + b } else { 90 }).collect();
        period.bank_free.copy_from_slice(&snapshot);
        period.l2_free = 95;
        let mut lock = Lockstep::default();
        let sorted = keys(140);
        bus.l2_free = 50;
        // `bank_free` rotated by `r` banks and 40 cycles on.
        let rotated = |r: usize| {
            let mut v: Vec<u64> = snapshot.iter().map(|t| t + 40).collect();
            v.rotate_right(r);
            v
        };
        let mut repeats = |period: &Period, cores: [Option<DotCore>; 2], bank_free: Vec<u64>| {
            lock.cores[..2].copy_from_slice(&cores);
            bus.bank_free = bank_free;
            period.repeats(&lock, &sorted, &bus)
        };
        let one_pass = [core(w0 + 4, x + 4), core(w1 + 4, x + 4)];
        assert_eq!(repeats(&period, one_pass, rotated(1)), Some(1));
        assert_eq!(repeats(&period, one_pass, rotated(0)), None);
        assert_eq!(repeats(&period, one_pass, rotated(15)), None);
        // Seventeen passes are one bank too.
        let far = [core(w0 + 68, x + 68), core(w1 + 4, x + 4)];
        assert_eq!(repeats(&period, far, rotated(1)), Some(1));
        // Core 1 made two passes: its streams moved by two banks.
        let uneven = [core(w0 + 4, x + 4), core(w1 + 8, x + 8)];
        assert_eq!(repeats(&period, uneven, rotated(1)), None);
        assert_eq!(repeats(&period, uneven, rotated(2)), None);
        // Core 1's weights moved by two banks, its inputs by one.
        let skewed = [core(w0 + 4, x + 4), core(w1 + 8, x + 4)];
        assert_eq!(repeats(&period, skewed, rotated(1)), None);
        // Weights in L2: only the TCDM streams set the rotation.
        let l2 = L2_BASE + 0x8000;
        period.cores[..2].copy_from_slice(&[core(l2, x), core(l2 + 0x400, x)]);
        let l2_pass = [core(l2 + 4, x + 4), core(l2 + 0x408, x + 4)];
        assert_eq!(repeats(&period, l2_pass, rotated(1)), Some(1));
        // A stream that left its region never matches.
        let moved = [core(l2 + 4, x + 4), core(w1, x + 4)];
        assert_eq!(repeats(&period, moved, rotated(1)), None);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Rows long enough for several lockstep periods on 2–8 cores,
        /// under every bank count the skip's state must tell apart (one
        /// bank, bank counts that are not powers of two, 3 and 5 of them
        /// prime, Mr. Wolf's 16), L2 latencies of 1–4 cycles, weights in
        /// L2, in TCDM (with the inputs there too, as on Network A) or
        /// split between the two, so that the cores' TCDM streams move by
        /// different numbers of banks per period, streams that end at
        /// their memory's end or one word past it, and budgets anywhere,
        /// within one period of the run's end included. The product path,
        /// period skips and their bank rotations included, must reproduce
        /// the reference pick loop exactly: the `ClusterRun` or error and
        /// both memories whole.
        #[test]
        fn period_skips_match_reference(
            rows in prop::collection::vec(any_long_row(), 1..3),
            cores in 2usize..9,
            tcdm_banks in prop_oneof![Just(1usize), Just(3), Just(5), Just(12), Just(16)],
            l2_latency in 1u32..5,
            budget in prop_oneof![
                Just(None),
                Just(None),
                (0u64..100).prop_map(Some),
                (0u64..160).prop_map(|k| Some(100 + k)),
            ],
        ) {
            let mems = patterned_mems(&build_long_rows(&rows, cores));
            let cfg = ClusterConfig {
                cores,
                tcdm_banks,
                l2_latency,
                ..ClusterConfig::default()
            };
            let unlimited = 10_000_000;
            // A budget as a share of the run below 100, or 0–159 cycles
            // short of its end from 100 on.
            let limit = match (&run_on(&mems, &cfg, unlimited, false).0, budget) {
                (Ok((run, _)), Some(b)) => {
                    let cycles = run.cycles - cfg.offload_cycles;
                    if b < 100 {
                        cycles * b / 100
                    } else {
                        cycles.saturating_sub(b - 100)
                    }
                }
                _ => unlimited,
            };
            let (expected, ref_tcdm, ref_l2) = run_on(&mems, &cfg, limit, false);
            let (got, tcdm, l2) = run_on(&mems, &cfg, limit, true);
            prop_assert_eq!(got.map(|r| r.0), expected.map(|r| r.0), "limit={}", limit);
            let tcdm_same =
                tcdm.read_bytes(TCDM_BASE, TCDM_SIZE) == ref_tcdm.read_bytes(TCDM_BASE, TCDM_SIZE);
            let l2_same = l2.read_bytes(L2_BASE, L2_SIZE) == ref_l2.read_bytes(L2_BASE, L2_SIZE);
            prop_assert!(tcdm_same, "TCDM differs");
            prop_assert!(l2_same, "L2 differs");
        }
    }

    /// One layer of a [`build_layers`] program, shaped like the kernels'
    /// fixed-point layers: core `c` computes `rows + (c * row_spread >> 2)`
    /// rows (none on some cores, as in layers narrower than the core
    /// count), each a bias load, a hardware loop of `len + len_spread * c`
    /// dot-product passes over its own weight stream and the shared input
    /// stream, and an epilogue that clamps the sum with a branch, may
    /// divide it and stores it. Past its rows each core may spin through
    /// a counted loop that loads an input word, picked beside the cores
    /// still in their rows; a barrier closes the layer.
    #[derive(Debug, Clone)]
    struct Layer {
        rows: u8,
        row_spread: u8,
        len: u8,
        len_spread: u8,
        weights_l2: bool,
        shamt: u8,
        div: bool,
        /// Past its last row, each core rewrites the body's second `p.lw`
        /// into one that reads the same input word again: the cores still
        /// in their rows see the store at their next load, as on the
        /// reference, which no core can reach before it.
        patch: bool,
        /// Passes of the spin loop, in fours.
        spin: u8,
    }

    fn any_layer() -> impl Strategy<Value = Layer> {
        (
            (0u8..4, 0u8..4, 1u8..41, 0u8..4),
            (
                any::<bool>(),
                0u8..9,
                any::<bool>(),
                prop_oneof![Just(false), Just(false), Just(false), Just(true)],
                prop_oneof![Just(0u8), Just(0), 1u8..60],
            ),
        )
            .prop_map(
                |((rows, row_spread, len, len_spread), (weights_l2, shamt, div, patch, spin))| {
                    Layer {
                        rows,
                        row_spread,
                        len,
                        len_spread,
                        weights_l2,
                        shamt,
                        div,
                        patch,
                        spin,
                    }
                },
            )
    }

    /// Assembles `layers`; every core stores each row's result to its own
    /// output word.
    fn build_layers(layers: &[Layer]) -> Vec<u8> {
        use iw_rv32::{encode, AluOp, Instr, LoopIdx};
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::S3, (TCDM_BASE + 0x40) as i32);
        asm.slli(Reg::T6, Reg::A0, 2);
        asm.add(Reg::S3, Reg::S3, Reg::T6);
        asm.li(Reg::S4, BARRIER_ADDR as i32);
        for layer in layers {
            let w = if layer.weights_l2 {
                L2_DATA
            } else {
                TCDM_BASE + 0x4000
            };
            asm.li(Reg::S0, w as i32);
            asm.slli(Reg::T5, Reg::A0, 10);
            asm.add(Reg::S0, Reg::S0, Reg::T5);
            asm.li(Reg::S5, i32::from(layer.rows));
            asm.li(Reg::T5, i32::from(layer.row_spread));
            asm.mul(Reg::T5, Reg::T5, Reg::A0);
            asm.srai(Reg::T5, Reg::T5, 2);
            asm.add(Reg::S5, Reg::S5, Reg::T5);
            let layer_end = asm.new_label();
            asm.beq_to(Reg::S5, Reg::ZERO, layer_end);
            let row_top = asm.here();
            asm.li(Reg::S1, (TCDM_BASE + 0x1000) as i32);
            asm.load_post(MemWidth::W, Reg::T2, Reg::S0, 4);
            asm.li(Reg::T4, i32::from(layer.len));
            asm.li(Reg::T5, i32::from(layer.len_spread));
            asm.mul(Reg::T5, Reg::T5, Reg::A0);
            asm.add(Reg::T4, Reg::T4, Reg::T5);
            let end = asm.new_label();
            asm.lp_setup_to(LoopIdx::L0, Reg::T4, end);
            asm.load_post(MemWidth::W, Reg::T0, Reg::S0, 4);
            let x_load = asm.current_addr();
            asm.load_post(MemWidth::W, Reg::T1, Reg::S1, 4);
            asm.mul(Reg::T0, Reg::T0, Reg::T1);
            asm.srai(Reg::T0, Reg::T0, layer.shamt);
            asm.add(Reg::T2, Reg::T2, Reg::T0);
            asm.bind(end);
            let below = asm.new_label();
            asm.li(Reg::S6, 1 << 20);
            asm.blt_to(Reg::T2, Reg::S6, below);
            asm.mv(Reg::T2, Reg::S6);
            asm.bind(below);
            if layer.div {
                asm.li(Reg::S6, 7);
                asm.alu(AluOp::Div, Reg::T2, Reg::T2, Reg::S6);
            }
            asm.sw(Reg::T2, Reg::S3, 0);
            asm.addi(Reg::S3, Reg::S3, 32);
            asm.addi(Reg::S5, Reg::S5, -1);
            asm.bne_to(Reg::S5, Reg::ZERO, row_top);
            asm.bind(layer_end);
            if layer.patch {
                let again = Instr::LoadPost {
                    width: MemWidth::W,
                    rd: Reg::T1,
                    rs1: Reg::S1,
                    offset: 0,
                };
                asm.li(Reg::S7, x_load as i32);
                asm.li(Reg::S8, encode(&again).unwrap() as i32);
                asm.sw(Reg::S8, Reg::S7, 0);
            }
            if layer.spin > 0 {
                asm.li(Reg::S9, 4 * i32::from(layer.spin));
                let spin = asm.here();
                asm.lw(Reg::T3, Reg::S1, 0);
                asm.addi(Reg::S9, Reg::S9, -1);
                asm.bne_to(Reg::S9, Reg::ZERO, spin);
            }
            asm.sw(Reg::ZERO, Reg::S4, 0);
        }
        asm.ecall();
        asm.assemble().unwrap()
    }

    /// Runs `layers` on `cores` cores and `tcdm_banks` banks, on the
    /// product path and the reference, under a budget drawn by `budget`
    /// (`None` unlimited; below 100 a share of the run; from 100 on,
    /// 0–159 cycles short of its end), and compares the `ClusterRun` or
    /// error and both memories whole.
    fn leave_and_rejoin_matches_reference(
        layers: &[Layer],
        cores: usize,
        tcdm_banks: usize,
        budget: Option<u64>,
    ) -> Result<(), String> {
        let mems = patterned_mems(&build_layers(layers));
        let cfg = ClusterConfig {
            cores,
            tcdm_banks,
            ..ClusterConfig::default()
        };
        let unlimited = 10_000_000;
        let limit = match (&run_on(&mems, &cfg, unlimited, false).0, budget) {
            (Ok((run, _)), Some(b)) => {
                let cycles = run.cycles - cfg.offload_cycles;
                if b < 100 {
                    cycles * b / 100
                } else {
                    cycles.saturating_sub(b - 100)
                }
            }
            _ => unlimited,
        };
        let (expected, ref_tcdm, ref_l2) = run_on(&mems, &cfg, limit, false);
        let (got, tcdm, l2) = run_on(&mems, &cfg, limit, true);
        let (got, expected) = (got.map(|r| r.0), expected.map(|r| r.0));
        if got != expected {
            return Err(format!("limit={limit}: {got:?} != {expected:?}"));
        }
        if tcdm.read_bytes(TCDM_BASE, TCDM_SIZE) != ref_tcdm.read_bytes(TCDM_BASE, TCDM_SIZE) {
            return Err(format!("limit={limit}: TCDM differs"));
        }
        if l2.read_bytes(L2_BASE, L2_SIZE) != ref_l2.read_bytes(L2_BASE, L2_SIZE) {
            return Err(format!("limit={limit}: L2 differs"));
        }
        Ok(())
    }

    fn any_budget() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![
            Just(None),
            (0u64..100).prop_map(Some),
            (0u64..100).prop_map(Some),
            (0u64..160).prop_map(|k| Some(100 + k)),
        ]
    }

    #[test]
    fn cores_leave_and_rejoin_the_lockstep_at_every_row() {
        let layer = |rows, row_spread, len, patch| Layer {
            rows,
            row_spread,
            len,
            len_spread: 1,
            weights_l2: true,
            shamt: 4,
            div: true,
            patch,
            spin: 10,
        };
        let layers = [layer(3, 2, 30, false), layer(2, 3, 20, true)];
        let mems = patterned_mems(&build_layers(&layers));
        for cores in [2, 8] {
            leave_and_rejoin_matches_reference(&layers, cores, 16, None).unwrap();
            let cfg = ClusterConfig {
                cores,
                ..ClusterConfig::default()
            };
            let (run, sched) = run_on(&mems, &cfg, 10_000_000, true).0.unwrap();
            // Every core joins once per row of the first layer; in the
            // second, the first core past its rows rewrites the body, and
            // every member leaves.
            let rows: u64 = (0..cores as u64).map(|c| 3 + ((2 * c) >> 2)).sum();
            assert!(sched.joint_entries >= rows, "cores={cores}: {sched:?}");
            assert_eq!(run.instructions, sched.instructions);
            let prog = sched.program;
            assert!(prog.redecodes > 0, "cores={cores}: {prog:?}");
            assert_eq!(
                prog.instructions + sched.joint_instructions,
                run.instructions
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Kernel-shaped layers on 2–8 cores under 1, 3 and 16 banks:
        /// per-core row counts and lengths, so that cores leave the
        /// lockstep at their last pass, run their epilogues (a branch, a
        /// `div`, a store) beside members still in their rows and join
        /// again at their next row's head; barriers between layers; a
        /// core past its rows rewriting the body the others still run;
        /// budgets anywhere, inside a row boundary included. The product
        /// path must reproduce the reference pick loop exactly: the
        /// `ClusterRun` or error and both memories whole.
        #[test]
        fn cores_leave_and_rejoin_lockstep_match_reference(
            layers in prop::collection::vec(any_layer(), 1..5),
            cores in 2usize..9,
            tcdm_banks in prop_oneof![Just(1usize), Just(3), Just(16)],
            budget in any_budget(),
        ) {
            leave_and_rejoin_matches_reference(&layers, cores, tcdm_banks, budget)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// [`cores_leave_and_rejoin_lockstep_match_reference`] over 2 048
        /// cases: run it with `cargo test --release -p iw-mrwolf --
        /// --ignored`.
        #[test]
        #[ignore = "2 048 cases: run in release with --ignored"]
        fn cores_leave_and_rejoin_lockstep_match_reference_2048(
            layers in prop::collection::vec(any_layer(), 1..5),
            cores in 2usize..9,
            tcdm_banks in prop_oneof![Just(1usize), Just(3), Just(16)],
            budget in any_budget(),
        ) {
            leave_and_rejoin_matches_reference(&layers, cores, tcdm_banks, budget)?;
        }
    }
}
