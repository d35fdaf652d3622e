//! The nRF52832 as a compute target: Cortex-M4F core + RAM + energy
//! accounting.

use iw_armv7m::{
    BlockProgram, CortexM4, CortexM4Timing, FusedStats, M4Error, RunResult, ThumbInstr,
};
use iw_rv32::{ExecProfile, Ram};
use iw_trace::{NoopSink, TraceSink, TrackId};

use crate::power::Nrf52Power;

/// Size of the nRF52832 data RAM (64 kB).
pub const RAM_SIZE: usize = 64 * 1024;
/// Base address of the data RAM (matches the real chip's SRAM base).
pub const RAM_BASE: u32 = 0x2000_0000;
/// Size of the flash (512 kB) — modelled as extra constant-data RAM, since
/// the kernels only read from it.
pub const FLASH_SIZE: usize = 512 * 1024;
/// Base address of the flash region.
pub const FLASH_BASE: u32 = 0x0000_0000;

/// Result of a run on the nRF52832.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nrf52Run {
    /// Cycles and instructions retired.
    pub result: RunResult,
    /// Energy consumed by the active CPU, joules.
    pub energy_j: f64,
    /// Per-class execution profile.
    pub profile: ExecProfile,
}

/// The Nordic nRF52832: a Cortex-M4F with 64 kB RAM and 512 kB flash.
///
/// Data memory is a single address space covering both regions; the flash
/// region is writable in the model (used to stage constant data) — the
/// generated kernels never store to it.
///
/// # Examples
///
/// ```
/// use iw_nrf52::{Nrf52, RAM_BASE};
/// use iw_armv7m::{asm::ThumbAsm, LsWidth, R};
///
/// let mut soc = Nrf52::new();
/// soc.mem_mut().write_bytes(RAM_BASE, &7u32.to_le_bytes());
/// let mut asm = ThumbAsm::new();
/// asm.li(R::R0, RAM_BASE as i32);
/// asm.ldr(LsWidth::W, R::R1, R::R0, 0);
/// asm.add(R::R1, R::R1, R::R1);
/// asm.str(LsWidth::W, R::R1, R::R0, 4);
/// asm.bkpt();
/// let run = soc.run(&asm.finish()?, 1_000)?;
/// assert!(run.energy_j > 0.0);
/// assert_eq!(soc.mem().read_bytes(RAM_BASE + 4, 4), &14u32.to_le_bytes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Nrf52 {
    cpu: CortexM4,
    mem: Ram,
    timing: CortexM4Timing,
    power: Nrf52Power,
}

impl Default for Nrf52 {
    fn default() -> Nrf52 {
        Nrf52::new()
    }
}

impl Nrf52 {
    /// Creates an nRF52832 with zeroed memory.
    #[must_use]
    pub fn new() -> Nrf52 {
        Nrf52 {
            cpu: CortexM4::new(),
            // One flat region spanning flash..=RAM keeps the bus simple;
            // the gap between the regions is still unmapped-by-size.
            mem: Ram::new(
                FLASH_BASE,
                (RAM_BASE as usize - FLASH_BASE as usize) + RAM_SIZE,
            ),
            timing: CortexM4Timing::default(),
            power: Nrf52Power::default(),
        }
    }

    /// The CPU (for register inspection after a run).
    #[must_use]
    pub fn cpu(&self) -> &CortexM4 {
        &self.cpu
    }

    /// The memory.
    #[must_use]
    pub fn mem(&self) -> &Ram {
        &self.mem
    }

    /// Mutable memory access (to stage data).
    pub fn mem_mut(&mut self) -> &mut Ram {
        &mut self.mem
    }

    /// The power model in force.
    #[must_use]
    pub fn power(&self) -> &Nrf52Power {
        &self.power
    }

    /// The timing model in force.
    #[must_use]
    pub fn timing(&self) -> &CortexM4Timing {
        &self.timing
    }

    /// Runs `program` from its first instruction until `bkpt`, returning
    /// cycles and active-mode energy.
    ///
    /// A convenience over [`Nrf52::run_blocks`]: compiles `program` into a
    /// [`BlockProgram`] and runs it. See [`Nrf52::run_code`] for the
    /// per-halfword-decode reference path.
    ///
    /// # Errors
    ///
    /// Propagates [`M4Error`] (including the cycle limit).
    pub fn run(&mut self, program: &[ThumbInstr], max_cycles: u64) -> Result<Nrf52Run, M4Error> {
        let program = BlockProgram::compile(program);
        self.run_blocks(
            &program,
            max_cycles,
            &mut FusedStats::default(),
            &mut NoopSink,
            TrackId::default(),
        )
    }

    /// Runs a fusion-compiled program (see [`BlockProgram::compile`]) —
    /// the M4's product interpreter, bit- and cycle-identical to
    /// [`Nrf52::run_code`] by differential test. Dispatch and loop-op
    /// counters accumulate into `stats`; see [`CortexM4::run_fused`] for
    /// the events `sink` receives on `track`.
    ///
    /// # Errors
    ///
    /// Propagates [`M4Error`] (including the cycle limit).
    pub fn run_blocks<S: TraceSink>(
        &mut self,
        program: &BlockProgram,
        max_cycles: u64,
        stats: &mut FusedStats,
        sink: &mut S,
        track: TrackId,
    ) -> Result<Nrf52Run, M4Error> {
        self.cpu.set_pc(0);
        self.cpu.reset_profile();
        let result = self.cpu.run_fused(
            program,
            &mut self.mem,
            &self.timing,
            max_cycles,
            stats,
            sink,
            track,
        )?;
        Ok(self.finish_run(result))
    }

    /// Runs halfword-encoded `code` (see [`iw_armv7m::encode_program`]),
    /// decoding every dynamic instruction — the uncached reference for
    /// [`Nrf52::run_blocks`], bit- and cycle-identical by differential
    /// test.
    ///
    /// # Errors
    ///
    /// Propagates [`M4Error`] (including decode faults and the cycle
    /// limit).
    pub fn run_code(&mut self, code: &[u16], max_cycles: u64) -> Result<Nrf52Run, M4Error> {
        self.cpu.set_pc(0);
        self.cpu.reset_profile();
        let result = self
            .cpu
            .run_code(code, &mut self.mem, &self.timing, max_cycles)?;
        Ok(self.finish_run(result))
    }

    fn finish_run(&self, result: RunResult) -> Nrf52Run {
        Nrf52Run {
            result,
            energy_j: self.power.active_energy_j(result.cycles),
            profile: *self.cpu.profile(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_armv7m::{asm::ThumbAsm, R};

    #[test]
    fn memory_regions_reachable() {
        let mut soc = Nrf52::new();
        soc.mem_mut().write_bytes(FLASH_BASE + 0x100, &[9]);
        soc.mem_mut().write_bytes(RAM_BASE + 0x10, &[8]);
        assert_eq!(soc.mem().read_bytes(FLASH_BASE + 0x100, 1), &[9]);
        assert_eq!(soc.mem().read_bytes(RAM_BASE + 0x10, 1), &[8]);
    }

    #[test]
    fn encoded_run_matches_predecoded() {
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, RAM_BASE as i32);
        asm.li(R::R1, 9);
        let top = asm.here();
        asm.add_imm(R::R2, R::R2, 3);
        asm.str(iw_armv7m::LsWidth::W, R::R2, R::R0, 0);
        asm.subs(R::R1, R::R1, 1);
        asm.b_to(iw_armv7m::Cond::Ne, top);
        asm.bkpt();
        let program = asm.finish().unwrap();
        let code = iw_armv7m::encode_program(&program).unwrap();

        let mut soc_a = Nrf52::new();
        let run_a = soc_a.run(&program, 10_000).unwrap();
        let mut soc_b = Nrf52::new();
        let run_b = soc_b.run_code(&code, 10_000).unwrap();
        assert_eq!(run_a, run_b);
        assert_eq!(soc_a.cpu().reg(R::R2), soc_b.cpu().reg(R::R2));
        assert_eq!(
            soc_a.mem().read_bytes(RAM_BASE, 4),
            soc_b.mem().read_bytes(RAM_BASE, 4)
        );

        let fused = iw_armv7m::BlockProgram::compile(&program);
        let mut soc_c = Nrf52::new();
        let mut stats = iw_armv7m::FusedStats::default();
        let run_c = soc_c
            .run_blocks(
                &fused,
                10_000,
                &mut stats,
                &mut NoopSink,
                TrackId::default(),
            )
            .unwrap();
        assert_eq!(run_a, run_c);
        assert_eq!(soc_a.cpu().reg(R::R2), soc_c.cpu().reg(R::R2));
        assert_eq!(
            soc_a.mem().read_bytes(RAM_BASE, 4),
            soc_c.mem().read_bytes(RAM_BASE, 4)
        );
        assert_eq!(stats.instructions, run_c.result.instructions);
    }

    #[test]
    fn energy_matches_cycles() {
        let mut soc = Nrf52::new();
        let mut asm = ThumbAsm::new();
        for _ in 0..64 {
            asm.add_imm(R::R0, R::R0, 1);
        }
        asm.bkpt();
        let run = soc.run(&asm.finish().unwrap(), 10_000).unwrap();
        assert_eq!(run.result.cycles, 64);
        let expected = soc.power().active_energy_j(64);
        assert!((run.energy_j - expected).abs() < 1e-15);
        assert_eq!(soc.cpu().reg(R::R0), 64);
    }
}
