//! The top-level Mr. Wolf SoC: L2 + TCDM memories, the Ibex fabric
//! controller and the RI5CY cluster.

use iw_rv32::{
    Bus, BusError, Cpu, CpuError, ExecProfile, MemWidth, Program, ProgramStats, Ram, Reg,
    RunResult, Timing,
};

use iw_trace::{TraceSink, TrackId};

use crate::cluster::{ClusterConfig, ClusterError, ClusterRun, SchedStats};
use crate::l2::L2;
use crate::memmap::{region_of, Region, L2_BASE, L2_SIZE, PROGRAM_SIZE, TCDM_BASE, TCDM_SIZE};

/// Bus seen by the fabric controller: L2 and TCDM, no contention (the
/// cluster is off while the FC computes in this model, as in the paper's
/// "SoC domain only" configuration).
struct FcBus<'a, L> {
    tcdm: &'a mut Ram,
    l2: &'a mut L,
}

impl<L: Bus> Bus for FcBus<'_, L> {
    #[inline(always)]
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.load(addr, width),
            Some(Region::L2) => self.l2.load(addr, width),
            _ => Err(BusError { addr, write: false }),
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        match region_of(addr) {
            Some(Region::Tcdm) => self.tcdm.store(addr, width, value),
            Some(Region::L2) => self.l2.store(addr, width, value),
            _ => Err(BusError { addr, write: true }),
        }
    }

    /// Spans inside one memory, at the base cost: nothing else is on the
    /// bus, so no access ever waits.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        match region_of(addr)? {
            Region::Tcdm => self.tcdm.span(addr, len, base),
            Region::L2 => self.l2.span(addr, len, base),
            Region::EventUnit => None,
        }
    }
}

/// The modelled Mr. Wolf SoC.
///
/// Owns the TCDM and the [`L2`], which may borrow its image (see
/// [`MrWolf::with_l2`]); programs and data are loaded into them, then
/// executed either on the fabric controller ([`MrWolf::run_fc`]) or on the
/// cluster ([`MrWolf::run_cluster`]).
///
/// # Examples
///
/// ```
/// use iw_mrwolf::{MrWolf, memmap::L2_BASE};
/// use iw_rv32::{asm::Asm, Reg};
/// use iw_trace::{NoopSink, TrackId};
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
/// let (run, _) = wolf.run_fc(L2_BASE, 10_000, &mut NoopSink, TrackId::default())?;
/// assert!(run.result.instructions > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MrWolf<'a> {
    tcdm: Ram,
    l2: L2<'a>,
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

impl Default for MrWolf<'static> {
    fn default() -> MrWolf<'static> {
        MrWolf::new()
    }
}

impl MrWolf<'static> {
    /// Creates an SoC with zeroed memories and the default cluster
    /// configuration (8 cores, 16 TCDM banks).
    #[must_use]
    pub fn new() -> MrWolf<'static> {
        MrWolf::with_cluster_config(ClusterConfig::default())
    }

    /// Creates an SoC with a custom cluster configuration (used by the
    /// ablation benches).
    #[must_use]
    pub fn with_cluster_config(cfg: ClusterConfig) -> MrWolf<'static> {
        MrWolf::with_l2(cfg, L2::new())
    }
}

impl<'a> MrWolf<'a> {
    /// Creates an SoC with a custom cluster configuration, `l2` as its L2
    /// (see [`L2::with_image`]) and a zeroed TCDM.
    #[must_use]
    pub fn with_l2(cfg: ClusterConfig, l2: L2<'a>) -> MrWolf<'a> {
        MrWolf {
            tcdm: Ram::new(TCDM_BASE, TCDM_SIZE),
            l2,
            cluster_cfg: cfg,
        }
    }

    /// Mutable access to the L2 memory (load programs/data here); copies
    /// a borrowed image first (see [`L2::ram_mut`]).
    pub fn l2_mut(&mut self) -> &mut Ram {
        self.l2.ram_mut()
    }

    /// Shared access to the L2 memory.
    #[must_use]
    pub fn l2(&self) -> &L2<'a> {
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
    /// until `ecall`, and returns the op-program counters alongside.
    ///
    /// The FC stack pointer starts at the top of L2. Execution dispatches
    /// a per-PC op program ([`Cpu::run_program`]): each static instruction
    /// is translated once per run into a pre-resolved op, with
    /// superinstruction fusion. Bit- and cycle-identical to the reference
    /// interpreter ([`MrWolf::run_fc_uncached`]). See
    /// [`Cpu::run_program`] for the events `sink` receives on `track`.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] (including the cycle limit).
    pub fn run_fc<S: TraceSink>(
        &mut self,
        entry: u32,
        max_cycles: u64,
        sink: &mut S,
        track: TrackId,
    ) -> Result<(FcRun, ProgramStats), CpuError> {
        let (mut cpu, mut bus) = self.fc(entry);
        // The FC is alone on its bus; xpulp=false translates Xpulp
        // encodings to faulting ops, as Ibex would.
        let mut prog = Program::new(entry, PROGRAM_SIZE as u32, false);
        let result = cpu.run_program(
            &mut bus,
            &Timing::ibex(),
            max_cycles,
            &mut prog,
            sink,
            track,
        )?;
        Ok((fc_run(&cpu, result), prog.stats()))
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
        let (mut cpu, mut bus) = self.fc(entry);
        let result = cpu.run(&mut bus, &Timing::ibex(), max_cycles)?;
        Ok(fc_run(&cpu, result))
    }

    /// A fresh Ibex hart at `entry` (stack at the top of L2) and its bus.
    fn fc(&mut self, entry: u32) -> (Cpu, FcBus<'_, L2<'a>>) {
        let mut cpu = Cpu::new_rv32im(entry);
        cpu.set_reg(Reg::SP, L2_BASE + L2_SIZE as u32);
        let bus = FcBus {
            tcdm: &mut self.tcdm,
            l2: &mut self.l2,
        };
        (cpu, bus)
    }

    /// Runs an SPMD program on the RI5CY cluster and returns the
    /// scheduler statistics alongside; see [`crate::run_cluster`] for the
    /// execution model and the timeline `sink` receives.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn run_cluster<S: TraceSink>(
        &mut self,
        entry: u32,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<(ClusterRun, SchedStats), ClusterError> {
        crate::cluster::run_cluster(
            &self.cluster_cfg,
            &mut self.tcdm,
            &mut self.l2,
            entry,
            max_cycles,
            sink,
        )
    }

    /// Reference cluster run, one instruction per scheduler pick; see
    /// [`crate::run_cluster_uncached`]. Bit- and cycle-identical to
    /// [`MrWolf::run_cluster`].
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn run_cluster_uncached<S: TraceSink>(
        &mut self,
        entry: u32,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<(ClusterRun, SchedStats), ClusterError> {
        crate::cluster::run_cluster_uncached(
            &self.cluster_cfg,
            &mut self.tcdm,
            &mut self.l2,
            entry,
            max_cycles,
            sink,
        )
    }
}

/// The [`FcRun`] of a finished fabric-controller hart.
fn fc_run(cpu: &Cpu, result: RunResult) -> FcRun {
    FcRun {
        result,
        a0: cpu.reg(Reg::A0),
        profile: *cpu.profile(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_rv32::asm::Asm;
    use iw_trace::{Event, NoopSink, Recorder, CYCLES};

    #[test]
    fn fc_runs_and_returns_a0() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::A0, 6);
        asm.li(Reg::A1, 7);
        asm.mul(Reg::A0, Reg::A0, Reg::A1);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        let (run, _) = wolf
            .run_fc(L2_BASE, 10_000, &mut NoopSink, TrackId::default())
            .unwrap();
        assert_eq!(run.a0, 42);
    }

    #[test]
    fn fc_rejects_xpulp() {
        let mut wolf = MrWolf::new();
        let mut asm = Asm::new(L2_BASE);
        asm.mac(Reg::A0, Reg::A1, Reg::A2);
        asm.ecall();
        wolf.l2_mut().write_bytes(L2_BASE, &asm.assemble().unwrap());
        let err = wolf
            .run_fc(L2_BASE, 10_000, &mut NoopSink, TrackId::default())
            .unwrap_err();
        assert!(matches!(err, CpuError::IllegalXpulp { .. }));
    }

    #[test]
    fn fc_bus_spans_one_memory_at_a_time() {
        let (mut tcdm, mut l2) = (Ram::new(TCDM_BASE, TCDM_SIZE), Ram::new(L2_BASE, L2_SIZE));
        tcdm.write_bytes(TCDM_BASE + 8, &[1, 2, 3, 4]);
        l2.write_bytes(L2_BASE + 0x100, &[5, 6, 7, 8]);
        let bus = FcBus {
            tcdm: &mut tcdm,
            l2: &mut l2,
        };
        // Each memory at the base cost, up to its very end.
        assert_eq!(bus.span(TCDM_BASE + 8, 4, 1), Some((&[1, 2, 3, 4][..], 1)));
        assert_eq!(
            bus.span(L2_BASE + 0x100, 4, 2),
            Some((&[5, 6, 7, 8][..], 2))
        );
        let tcdm_end = TCDM_BASE + TCDM_SIZE as u32;
        let l2_end = L2_BASE + L2_SIZE as u32;
        assert_eq!(bus.span(tcdm_end - 8, 8, 1).map(|(b, _)| b.len()), Some(8));
        assert_eq!(bus.span(l2_end - 8, 8, 1).map(|(b, _)| b.len()), Some(8));
        // Nothing past either end, in the gap between them or at the
        // event unit.
        assert_eq!(bus.span(tcdm_end - 4, 8, 1), None);
        assert_eq!(bus.span(l2_end - 4, 8, 1), None);
        assert_eq!(bus.span(tcdm_end, 4, 1), None);
        assert_eq!(bus.span(L2_BASE - 4, 8, 1), None);
        assert_eq!(bus.span(crate::memmap::BARRIER_ADDR, 4, 1), None);
    }

    #[test]
    fn runs_that_store_nothing_to_l2_never_copy_its_image() {
        let weights_at = L2_BASE + PROGRAM_SIZE as u32;
        let weights = 0x1234_5678u32.to_le_bytes();
        // Copy the word at `from` to `to`, then to the TCDM.
        let program = |from: u32, to: u32| {
            let mut asm = Asm::new(L2_BASE);
            asm.li(Reg::T0, from as i32);
            asm.lw(Reg::T1, Reg::T0, 0);
            asm.li(Reg::T0, to as i32);
            asm.sw(Reg::T1, Reg::T0, 0);
            asm.lw(Reg::T2, Reg::T0, 0);
            asm.li(Reg::T0, TCDM_BASE as i32);
            asm.sw(Reg::T2, Reg::T0, 0);
            asm.ecall();
            asm.assemble().unwrap()
        };
        for (to, copied) in [(TCDM_BASE + 8, false), (weights_at + 4, true)] {
            let code = program(weights_at, to);
            let image = vec![(L2_BASE, &code[..]), (weights_at, &weights[..])];
            for on_fc in [true, false] {
                let l2 = L2::with_image(image.clone()).unwrap();
                let mut wolf = MrWolf::with_l2(ClusterConfig::default(), l2);
                if on_fc {
                    wolf.run_fc(L2_BASE, 10_000, &mut NoopSink, TrackId::default())
                        .unwrap();
                } else {
                    wolf.run_cluster(L2_BASE, 10_000, &mut NoopSink).unwrap();
                }
                assert_eq!(wolf.l2().is_copied(), copied, "{to:#x} fc {on_fc}");
                assert_eq!(wolf.tcdm().read_bytes(TCDM_BASE, 4), weights);
            }
        }
        assert_eq!(weights, 0x1234_5678u32.to_le_bytes());
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
        let (run, _) = wolf
            .run_fc(L2_BASE, 10_000, &mut NoopSink, TrackId::default())
            .unwrap();
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
        let (product, stats) = fresh()
            .run_fc(L2_BASE, 100_000, &mut NoopSink, TrackId::default())
            .unwrap();
        assert_eq!(product, reference);
        // Each of the 200 iterations dispatches add + fused addi/bne, and
        // only the five op heads (li, li, add, addi/bne, ecall) translate.
        assert_eq!(stats.fused_addi_branch, 200, "{stats:?}");
        assert_eq!(stats.instructions, reference.result.instructions);
        assert!(stats.avg_burst() > 1.4, "{stats:?}");
        assert_eq!(stats.translations, 5, "{stats:?}");
    }

    #[test]
    fn fc_runs_each_dot_product_row_in_one_dispatch() {
        // The Ibex kernel's inner loop over two TCDM streams, four rows
        // of 16 passes: one loop-op dispatch per row.
        let mut asm = Asm::new(L2_BASE);
        asm.li(Reg::A0, TCDM_BASE as i32);
        asm.li(Reg::A1, (TCDM_BASE + 0x400) as i32);
        asm.li(Reg::S0, 4);
        let row = asm.new_label();
        asm.bind(row);
        asm.li(Reg::T2, 16);
        let top = asm.new_label();
        asm.bind(top);
        asm.lw(Reg::T0, Reg::A0, 0);
        asm.lw(Reg::T1, Reg::A1, 0);
        asm.addi(Reg::A0, Reg::A0, 4);
        asm.addi(Reg::A1, Reg::A1, 4);
        asm.mul(Reg::T0, Reg::T0, Reg::T1);
        asm.srai(Reg::T0, Reg::T0, 5);
        asm.add(Reg::A2, Reg::A2, Reg::T0);
        asm.addi(Reg::T2, Reg::T2, -1);
        asm.bne_to(Reg::T2, Reg::ZERO, top);
        asm.addi(Reg::S0, Reg::S0, -1);
        asm.bne_to(Reg::S0, Reg::ZERO, row);
        asm.ecall();
        let program = asm.assemble().unwrap();
        let fresh = || {
            let mut wolf = MrWolf::new();
            wolf.l2_mut().write_bytes(L2_BASE, &program);
            for i in 0..0x200u32 {
                let v = i.wrapping_mul(0x9e37_79b9);
                wolf.tcdm_mut()
                    .write_bytes(TCDM_BASE + 4 * i, &v.to_le_bytes());
            }
            wolf
        };
        let reference = fresh().run_fc_uncached(L2_BASE, 100_000).unwrap();
        let (product, stats) = fresh()
            .run_fc(L2_BASE, 100_000, &mut NoopSink, TrackId::default())
            .unwrap();
        assert_eq!(product, reference);
        assert_eq!(stats.counted_dot_entries, 4, "{stats:?}");
        assert_eq!(stats.counted_dot_iterations, 64, "{stats:?}");
        // Each a whole row over two TCDM spans.
        assert_eq!(stats.whole_rows, 4, "{stats:?}");
        // Four set-up instructions (the second `li` is `lui` + `addi`),
        // then per row: li, the loop op, the fused addi/bne; ecall.
        assert_eq!(stats.dispatches, 4 + 4 * 3 + 1, "{stats:?}");
        assert_eq!(stats.instructions, reference.result.instructions);
    }

    #[test]
    fn fc_recording_follows_self_modifying_code() {
        // The FC runs `addi a0, a0, 1`, stores `addi a0, a0, 7` over it and
        // runs it again: the recorded run re-decodes the slot once and
        // still matches the reference exactly.
        let mut patch = Asm::new(0);
        patch.addi(Reg::A0, Reg::A0, 7);
        let patch_word = u32::from_le_bytes(patch.assemble().unwrap()[..4].try_into().unwrap());
        let mut asm = Asm::new(L2_BASE);
        let (target, setup, done) = (asm.new_label(), asm.new_label(), asm.new_label());
        asm.li(Reg::A0, 0);
        asm.li(Reg::T0, 2);
        asm.jal_to(Reg::ZERO, setup);
        let target_addr = asm.current_addr();
        asm.bind(target);
        asm.addi(Reg::A0, Reg::A0, 1);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.beq_to(Reg::T0, Reg::ZERO, done);
        asm.sw(Reg::T2, Reg::T1, 0);
        asm.jal_to(Reg::ZERO, target);
        asm.bind(setup);
        asm.li(Reg::T1, target_addr as i32);
        asm.li(Reg::T2, patch_word as i32);
        asm.jal_to(Reg::ZERO, target);
        asm.bind(done);
        asm.ecall();
        let program = asm.assemble().unwrap();
        let fresh = || {
            let mut wolf = MrWolf::new();
            wolf.l2_mut().write_bytes(L2_BASE, &program);
            wolf
        };

        let reference = fresh().run_fc_uncached(L2_BASE, 10_000).unwrap();
        assert_eq!(reference.a0, 1 + 7);
        let mut rec = Recorder::new();
        let track = rec.track("fc", CYCLES);
        let (recorded, stats) = fresh().run_fc(L2_BASE, 10_000, &mut rec, track).unwrap();
        assert_eq!(recorded, reference);
        assert!(stats.redecodes > 0, "{stats:?}");
        let invalidations = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Instant { name, .. } if name == "decode-invalidate"))
            .count();
        assert_eq!(invalidations, 1);
        assert_eq!(rec.span_ticks(track, "exec-batch"), reference.result.cycles);
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
        wolf.run_cluster(L2_BASE, 10_000, &mut NoopSink).unwrap();
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
