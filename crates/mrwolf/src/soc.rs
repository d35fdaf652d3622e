//! The top-level Mr. Wolf SoC: L2 + TCDM memories, the Ibex fabric
//! controller and the RI5CY cluster.

use iw_rv32::{
    BlockCache, BlockStats, Bus, BusError, Cpu, CpuError, DecodeCache, ExecProfile, MemWidth, Ram,
    Reg, RunResult, Timing,
};

use iw_trace::{NoopSink, TraceSink, TrackId};

use crate::cluster::{ClusterConfig, ClusterError, ClusterRun, SchedStats};
use crate::memmap::{region_of, Region, L2_BASE, L2_SIZE, TCDM_BASE, TCDM_SIZE};

/// Bus seen by the fabric controller: L2 and TCDM, no contention (the
/// cluster is off while the FC computes in this model, as in the paper's
/// "SoC domain only" configuration).
struct FcBus<'a> {
    tcdm: &'a mut Ram,
    l2: &'a mut Ram,
}

impl Bus for FcBus<'_> {
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.load(addr, width),
            Some(Region::L2) => self.l2.load(addr, width),
            _ => Err(BusError { addr, write: false }),
        }
    }

    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.store(addr, width, value),
            Some(Region::L2) => self.l2.store(addr, width, value),
            _ => Err(BusError { addr, write: true }),
        }
    }
}

/// The modelled Mr. Wolf SoC.
///
/// Owns the two memories; programs and data are loaded into them directly,
/// then executed either on the fabric controller ([`MrWolf::run_fc`]) or on
/// the cluster ([`MrWolf::run_cluster`]).
///
/// # Examples
///
/// ```
/// use iw_mrwolf::{MrWolf, memmap::L2_BASE};
/// use iw_rv32::{asm::Asm, Reg};
///
/// let mut wolf = MrWolf::new();
/// let mut asm = Asm::new(L2_BASE);
/// asm.li(Reg::A0, 7);
/// asm.mul(Reg::A0, Reg::A0, Reg::A0);
/// asm.sw(Reg::A0, Reg::ZERO, 0); // would fault: address 0 is unmapped
/// # let mut asm = Asm::new(L2_BASE);
/// # asm.li(Reg::A0, 7);
/// # asm.ecall();
/// wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble()?);
/// let (run, _) = wolf.run_fc(L2_BASE, 10_000)?;
/// assert!(run.result.instructions > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MrWolf {
    tcdm: Ram,
    l2: Ram,
    cluster_cfg: ClusterConfig,
}

/// Result of a fabric-controller run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcRun {
    /// Cycles and instruction count.
    pub result: RunResult,
    /// Final `a0` of the FC core (return-value convention).
    pub a0: u32,
    /// Per-class execution profile.
    pub profile: ExecProfile,
}

impl Default for MrWolf {
    fn default() -> MrWolf {
        MrWolf::new()
    }
}

impl MrWolf {
    /// Creates an SoC with zeroed memories and the default cluster
    /// configuration (8 cores, 16 TCDM banks).
    #[must_use]
    pub fn new() -> MrWolf {
        MrWolf::with_cluster_config(ClusterConfig::default())
    }

    /// Creates an SoC with a custom cluster configuration (used by the
    /// ablation benches).
    #[must_use]
    pub fn with_cluster_config(cfg: ClusterConfig) -> MrWolf {
        MrWolf {
            tcdm: Ram::new(TCDM_BASE, TCDM_SIZE),
            l2: Ram::new(L2_BASE, L2_SIZE),
            cluster_cfg: cfg,
        }
    }

    /// The cluster configuration in force.
    #[must_use]
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.cluster_cfg
    }

    /// Mutable access to the L2 memory (load programs/data here).
    pub fn l2_mut(&mut self) -> &mut Ram {
        &mut self.l2
    }

    /// Shared access to the L2 memory.
    #[must_use]
    pub fn l2(&self) -> &Ram {
        &self.l2
    }

    /// Mutable access to the TCDM.
    pub fn tcdm_mut(&mut self) -> &mut Ram {
        &mut self.tcdm
    }

    /// Shared access to the TCDM.
    #[must_use]
    pub fn tcdm(&self) -> &Ram {
        &self.tcdm
    }

    /// Runs a program on the Ibex fabric controller (RV32IM, cluster off)
    /// until `ecall`, and returns the block-cache counters alongside.
    ///
    /// The FC stack pointer starts at the top of L2. Execution uses the
    /// block-compiled path ([`Cpu::run_blocks`]): hot basic blocks are
    /// translated once into flat handler arrays with superinstruction
    /// fusion. Bit- and cycle-identical to the reference interpreter
    /// ([`MrWolf::run_fc_uncached`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] (including the cycle limit).
    pub fn run_fc(&mut self, entry: u32, max_cycles: u64) -> Result<(FcRun, BlockStats), CpuError> {
        let (mut cpu, mut bus) = self.fc(entry);
        // The FC is alone on its bus; xpulp=false compiles Xpulp
        // encodings to faulting ops, as Ibex would.
        let mut cache = BlockCache::new(entry, 64 * 1024, false);
        let result = cpu.run_blocks(&mut bus, &Timing::ibex(), max_cycles, &mut cache)?;
        let run = FcRun {
            result,
            a0: cpu.reg(Reg::A0),
            profile: *cpu.profile(),
        };
        Ok((run, cache.stats()))
    }

    /// Reference fabric-controller run: fetch-and-decode every dynamic
    /// instruction, no caching. Bit- and cycle-identical to
    /// [`MrWolf::run_fc`]; the baseline of the ISS-throughput bench and
    /// the differential tests.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] (including the cycle limit).
    pub fn run_fc_uncached(&mut self, entry: u32, max_cycles: u64) -> Result<FcRun, CpuError> {
        self.run_fc_sink(entry, max_cycles, false, &mut NoopSink, TrackId::default())
    }

    /// Fabric-controller run with an instrumentation sink attached; see
    /// [`iw_rv32::Cpu::run_cached_sink`] for the events emitted on
    /// `track`. The `decode_cache` flag selects the pre-decoded or the
    /// reference interpreter (only the former emits events). The block
    /// path of [`MrWolf::run_fc`] takes no sink, so recorded runs use the
    /// pre-decoded loop, which is bit- and cycle-identical to it.
    ///
    /// # Errors
    ///
    /// Same as [`MrWolf::run_fc`].
    pub fn run_fc_sink<S: TraceSink>(
        &mut self,
        entry: u32,
        max_cycles: u64,
        decode_cache: bool,
        sink: &mut S,
        track: TrackId,
    ) -> Result<FcRun, CpuError> {
        let (mut cpu, mut bus) = self.fc(entry);
        let result = if decode_cache {
            let mut cache = DecodeCache::new(entry, 64 * 1024);
            cpu.run_cached_sink(
                &mut bus,
                &Timing::ibex(),
                max_cycles,
                &mut cache,
                sink,
                track,
            )?
        } else {
            cpu.run(&mut bus, &Timing::ibex(), max_cycles)?
        };
        Ok(FcRun {
            result,
            a0: cpu.reg(Reg::A0),
            profile: *cpu.profile(),
        })
    }

    /// A fresh Ibex hart at `entry` (stack at the top of L2) and its bus.
    fn fc(&mut self, entry: u32) -> (Cpu, FcBus<'_>) {
        let mut cpu = Cpu::new_rv32im(entry);
        cpu.set_reg(Reg::SP, L2_BASE + L2_SIZE as u32);
        let bus = FcBus {
            tcdm: &mut self.tcdm,
            l2: &mut self.l2,
        };
        (cpu, bus)
    }

    /// Runs an SPMD program on the RI5CY cluster; see
    /// [`crate::cluster::run_cluster`] for the execution model.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn run_cluster(&mut self, entry: u32, max_cycles: u64) -> Result<ClusterRun, ClusterError> {
        self.run_cluster_sink(entry, max_cycles, &mut NoopSink)
    }

    /// [`MrWolf::run_cluster`] with an instrumentation sink attached:
    /// each core gets a `cluster/core{i}` track carrying `busy`,
    /// `tcdm-stall`, `l2-stall` and `barrier-wait` spans plus PC samples.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn run_cluster_sink<S: TraceSink>(
        &mut self,
        entry: u32,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<ClusterRun, ClusterError> {
        crate::cluster::run_cluster_sink(
            &self.cluster_cfg.clone(),
            &mut self.tcdm,
            &mut self.l2,
            entry,
            max_cycles,
            sink,
        )
    }

    /// [`MrWolf::run_cluster`] that also reports scheduler statistics
    /// (picks, average burst length, block-cache counters).
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn run_cluster_stats(
        &mut self,
        entry: u32,
        max_cycles: u64,
    ) -> Result<(ClusterRun, SchedStats), ClusterError> {
        crate::cluster::run_cluster_stats(
            &self.cluster_cfg.clone(),
            &mut self.tcdm,
            &mut self.l2,
            entry,
            max_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_rv32::asm::Asm;

    #[test]
    fn fc_runs_and_returns_a0() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::A0, 6);
        asm.li(Reg::A1, 7);
        asm.mul(Reg::A0, Reg::A0, Reg::A1);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        let (run, _) = wolf.run_fc(L2_BASE, 10_000).unwrap();
        assert_eq!(run.a0, 42);
    }

    #[test]
    fn fc_rejects_xpulp() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.mac(Reg::A0, Reg::A1, Reg::A2);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        let err = wolf.run_fc(L2_BASE, 10_000).unwrap_err();
        assert!(matches!(err, CpuError::IllegalXpulp { .. }));
    }

    #[test]
    fn fc_can_reach_tcdm() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        asm.li(Reg::T1, 123);
        asm.sw(Reg::T1, Reg::T0, 0);
        asm.lw(Reg::A0, Reg::T0, 0);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        let (run, _) = wolf.run_fc(L2_BASE, 10_000).unwrap();
        assert_eq!(run.a0, 123);
    }

    #[test]
    fn fc_paths_match_reference() {
        let program = {
            let mut asm = Asm::new(L2_BASE);
            asm.li(Reg::A0, 0);
            asm.li(Reg::T0, 200);
            let top = asm.new_label();
            asm.bind(top);
            asm.add(Reg::A0, Reg::A0, Reg::T0);
            asm.addi(Reg::T0, Reg::T0, -1);
            asm.bne_to(Reg::T0, Reg::ZERO, top);
            asm.ecall();
            asm.assemble().unwrap()
        };
        let fresh = || {
            let mut wolf = MrWolf::new();
            wolf.l2_mut().write_bytes(L2_BASE, &program);
            wolf
        };
        let reference = fresh().run_fc_uncached(L2_BASE, 100_000).unwrap();
        let (blocks, stats) = fresh().run_fc(L2_BASE, 100_000).unwrap();
        assert_eq!(blocks, reference);
        let predecoded = fresh()
            .run_fc_sink(L2_BASE, 100_000, true, &mut NoopSink, TrackId::default())
            .unwrap();
        assert_eq!(predecoded, reference);
        assert!(stats.fused_addi_branch > 0, "{stats:?}");
        assert!(stats.hit_rate() > 0.9, "{stats:?}");
    }

    #[test]
    fn cluster_entry_from_soc() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::T0, TCDM_BASE as i32);
        asm.slli(Reg::T1, Reg::A0, 2);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
        asm.addi(Reg::T2, Reg::A0, 100);
        asm.sw(Reg::T2, Reg::T0, 0);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        wolf.run_cluster(L2_BASE, 10_000).unwrap();
        for id in 0..8u32 {
            let bytes: [u8; 4] = wolf
                .tcdm()
                .read_bytes(TCDM_BASE + 4 * id, 4)
                .try_into()
                .unwrap();
            assert_eq!(u32::from_le_bytes(bytes), 100 + id);
        }
    }
}
