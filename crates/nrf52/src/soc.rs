//! The nRF52832 as a compute target: Cortex-M4F core, its flash and RAM
//! regions, and energy accounting.

use iw_armv7m::{
    BlockProgram, CortexM4, CortexM4Timing, FusedStats, M4Error, RunResult, ThumbInstr,
};
use iw_rv32::{Bus, BusError, ExecProfile, MemWidth, Ram, Rom};
use iw_trace::{NoopSink, TraceSink, TrackId};

use crate::power::Nrf52Power;

/// Size of the nRF52832 data RAM (64 kB).
pub const RAM_SIZE: usize = 64 * 1024;
/// Base address of the data RAM (matches the real chip's SRAM base).
pub const RAM_BASE: u32 = 0x2000_0000;
/// Size of the flash (512 kB).
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

/// The nRF52832's data memory map: the flash at [`FLASH_BASE`] and the RAM
/// at [`RAM_BASE`] on one bus.
///
/// The flash is a [`Rom`] of borrowed image pieces: loads inside the flash
/// but outside the pieces read 0, and every store into the flash faults.
/// The RAM is owned and zeroed at creation. Any access that is not whole
/// inside one of the two regions (the gap between them included) faults.
///
/// # Examples
///
/// ```
/// use iw_nrf52::{Nrf52Memory, FLASH_BASE, RAM_BASE};
/// use iw_rv32::{Bus, MemWidth};
///
/// let mut mem = Nrf52Memory::new(vec![(FLASH_BASE + 0x4000, &[1, 2, 3, 4][..])])?;
/// assert_eq!(mem.load(FLASH_BASE + 0x4000, MemWidth::W)?, 0x0403_0201);
/// assert_eq!(mem.load(FLASH_BASE + 0x4004, MemWidth::W)?, 0);
/// assert!(mem.store(FLASH_BASE + 0x4000, MemWidth::W, 7).is_err());
/// mem.store(RAM_BASE, MemWidth::W, 7)?;
/// assert_eq!(mem.ram().read_bytes(RAM_BASE, 1), &[7]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Nrf52Memory<'f> {
    flash: Rom<'f>,
    ram: Ram,
}

impl<'f> Nrf52Memory<'f> {
    /// A memory map whose flash holds `image`, `(address, bytes)` pieces,
    /// and whose RAM is zeroed.
    ///
    /// # Errors
    ///
    /// [`M4Error::Bus`] at the first piece that does not lie whole inside
    /// the flash or that overlaps another (see [`Rom::new`]).
    pub fn new(image: Vec<(u32, &'f [u8])>) -> Result<Nrf52Memory<'f>, M4Error> {
        Ok(Nrf52Memory {
            flash: Rom::new(FLASH_BASE, FLASH_SIZE, image)?,
            ram: Ram::new(RAM_BASE, RAM_SIZE),
        })
    }

    /// The RAM.
    #[must_use]
    pub fn ram(&self) -> &Ram {
        &self.ram
    }

    /// Mutable RAM access (to stage data).
    pub fn ram_mut(&mut self) -> &mut Ram {
        &mut self.ram
    }
}

impl Bus for Nrf52Memory<'_> {
    #[inline]
    fn load(&mut self, addr: u32, width: MemWidth) -> Result<u32, BusError> {
        if addr >= RAM_BASE {
            self.ram.load(addr, width)
        } else {
            self.flash.load(addr, width)
        }
    }

    /// Stores reach the RAM only: the flash is read-only.
    #[inline]
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), BusError> {
        self.ram.store(addr, width, value)
    }

    /// Spans inside the RAM or inside one flash image piece, at the base
    /// cost.
    #[inline]
    fn span(&self, addr: u32, len: u32, base: u32) -> Option<(&[u8], u32)> {
        if addr >= RAM_BASE {
            self.ram.span(addr, len, base)
        } else {
            self.flash.span(addr, len, base)
        }
    }
}

/// The Nordic nRF52832: a Cortex-M4F with 64 kB RAM and 512 kB flash.
///
/// Its data memory is an [`Nrf52Memory`]: the flash holds a borrowed,
/// read-only image (the kernels' constant data) and the RAM is fresh per
/// SoC. Instructions do not go through the data bus: the core runs a
/// pre-decoded or halfword-encoded program handed to it.
///
/// # Examples
///
/// ```
/// use iw_nrf52::{Nrf52, RAM_BASE};
/// use iw_armv7m::{asm::ThumbAsm, LsWidth, R};
///
/// let mut soc = Nrf52::new();
/// soc.mem_mut().ram_mut().write_bytes(RAM_BASE, &7u32.to_le_bytes());
/// let mut asm = ThumbAsm::new();
/// asm.li(R::R0, RAM_BASE as i32);
/// asm.ldr(LsWidth::W, R::R1, R::R0, 0);
/// asm.add(R::R1, R::R1, R::R1);
/// asm.str(LsWidth::W, R::R1, R::R0, 4);
/// asm.bkpt();
/// let run = soc.run(&asm.finish()?, 1_000)?;
/// assert!(run.energy_j > 0.0);
/// assert_eq!(soc.mem().ram().read_bytes(RAM_BASE + 4, 4), &14u32.to_le_bytes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Nrf52<'f> {
    cpu: CortexM4,
    mem: Nrf52Memory<'f>,
    timing: CortexM4Timing,
    power: Nrf52Power,
}

impl Default for Nrf52<'static> {
    fn default() -> Nrf52<'static> {
        Nrf52::new()
    }
}

impl Nrf52<'static> {
    /// Creates an nRF52832 with an empty flash and zeroed RAM.
    #[must_use]
    pub fn new() -> Nrf52<'static> {
        Nrf52::with_flash(Vec::new()).expect("an empty image fits the flash")
    }
}

impl<'f> Nrf52<'f> {
    /// Creates an nRF52832 whose flash holds `image` (see
    /// [`Nrf52Memory::new`]) and whose RAM is zeroed.
    ///
    /// # Errors
    ///
    /// As [`Nrf52Memory::new`].
    pub fn with_flash(image: Vec<(u32, &'f [u8])>) -> Result<Nrf52<'f>, M4Error> {
        Ok(Nrf52 {
            cpu: CortexM4::new(),
            mem: Nrf52Memory::new(image)?,
            timing: CortexM4Timing::default(),
            power: Nrf52Power::default(),
        })
    }

    /// The CPU (for register inspection after a run).
    #[must_use]
    pub fn cpu(&self) -> &CortexM4 {
        &self.cpu
    }

    /// The memory map.
    #[must_use]
    pub fn mem(&self) -> &Nrf52Memory<'f> {
        &self.mem
    }

    /// Mutable access to the memory map (to stage RAM data).
    pub fn mem_mut(&mut self) -> &mut Nrf52Memory<'f> {
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
        let mut soc = Nrf52::with_flash(vec![(FLASH_BASE + 0x100, &[9][..])]).unwrap();
        soc.mem_mut().ram_mut().write_bytes(RAM_BASE + 0x10, &[8]);
        assert_eq!(
            soc.mem().span(FLASH_BASE + 0x100, 1, 0),
            Some((&[9][..], 0))
        );
        assert_eq!(soc.mem().ram().read_bytes(RAM_BASE + 0x10, 1), &[8]);
        assert_eq!(soc.mem_mut().load(FLASH_BASE + 0x100, MemWidth::Bu), Ok(9));
        assert_eq!(soc.mem_mut().load(RAM_BASE + 0x10, MemWidth::Bu), Ok(8));
    }

    #[test]
    fn the_gap_between_flash_and_ram_faults() {
        let mut mem = Nrf52Memory::new(vec![(FLASH_BASE, &[1; 64][..])]).unwrap();
        let flash_end = FLASH_BASE + FLASH_SIZE as u32;
        for addr in [flash_end, 0x1fff_fffc, RAM_BASE + RAM_SIZE as u32] {
            for width in [MemWidth::B, MemWidth::H, MemWidth::W] {
                let load = BusError { addr, write: false };
                let store = BusError { addr, write: true };
                assert_eq!(mem.load(addr, width), Err(load), "{addr:#x}");
                assert_eq!(mem.store(addr, width, 1), Err(store), "{addr:#x}");
            }
            assert_eq!(mem.span(addr, 4, 0), None, "{addr:#x}");
        }
        // Accesses that straddle the end of a region fault too.
        assert!(mem.load(flash_end - 2, MemWidth::W).is_err());
        assert!(mem
            .load(RAM_BASE + RAM_SIZE as u32 - 2, MemWidth::W)
            .is_err());
        assert_eq!(mem.load(flash_end - 4, MemWidth::W), Ok(0));
        assert_eq!(mem.load(RAM_BASE, MemWidth::W), Ok(0));
    }

    #[test]
    fn stores_into_flash_fault() {
        let image = [0xaa; 16];
        let mut mem = Nrf52Memory::new(vec![(FLASH_BASE + 0x4000, &image[..])]).unwrap();
        for addr in [FLASH_BASE, FLASH_BASE + 0x4000, FLASH_BASE + 0x4010] {
            let fault = BusError { addr, write: true };
            assert_eq!(mem.store(addr, MemWidth::W, 0), Err(fault), "{addr:#x}");
            assert_eq!(mem.store(addr, MemWidth::B, 0), Err(fault), "{addr:#x}");
        }
        assert_eq!(mem.load(FLASH_BASE + 0x4000, MemWidth::W), Ok(0xaaaa_aaaa));

        // So does a program's store.
        let mut soc = Nrf52::with_flash(vec![(FLASH_BASE + 0x4000, &image[..])]).unwrap();
        let mut asm = ThumbAsm::new();
        asm.li(R::R0, (FLASH_BASE + 0x4000) as i32);
        asm.str(iw_armv7m::LsWidth::W, R::R1, R::R0, 0);
        asm.bkpt();
        let err = soc.run(&asm.finish().unwrap(), 1_000).unwrap_err();
        assert_eq!(
            err,
            M4Error::Bus(BusError {
                addr: FLASH_BASE + 0x4000,
                write: true
            })
        );
    }

    #[test]
    fn flash_outside_the_image_reads_zero() {
        let image = [1, 2, 3, 4, 5, 6];
        let mut mem = Nrf52Memory::new(vec![(FLASH_BASE + 0x100, &image[..])]).unwrap();
        assert_eq!(mem.load(FLASH_BASE + 0x100, MemWidth::W), Ok(0x0403_0201));
        assert_eq!(mem.load(FLASH_BASE + 0x104, MemWidth::Hu), Ok(0x0605));
        // Past the image, before it, and across either of its ends.
        assert_eq!(mem.load(FLASH_BASE + 0x108, MemWidth::W), Ok(0));
        assert_eq!(mem.load(FLASH_BASE + 0x7_fffc, MemWidth::W), Ok(0));
        assert_eq!(mem.load(FLASH_BASE, MemWidth::W), Ok(0));
        assert_eq!(mem.load(FLASH_BASE + 0x104, MemWidth::W), Ok(0x0605));
        assert_eq!(mem.load(FLASH_BASE + 0xfe, MemWidth::W), Ok(0x0201_0000));
    }

    #[test]
    fn spans_stay_inside_the_image_or_the_ram() {
        let image: Vec<u8> = (0..16).collect();
        let mem = Nrf52Memory::new(vec![(FLASH_BASE + 0x100, &image[..])]).unwrap();
        let end = FLASH_BASE + 0x110;
        assert_eq!(mem.span(FLASH_BASE + 0x100, 16, 2), Some((&image[..], 2)));
        assert_eq!(mem.span(end - 4, 4, 1), Some((&image[12..], 1)));
        // Across the image's end or start, and past it, inside the flash.
        assert_eq!(mem.span(end - 4, 8, 1), None);
        assert_eq!(mem.span(FLASH_BASE + 0xfc, 8, 1), None);
        assert_eq!(mem.span(end, 4, 1), None);
        // Inside the RAM, and across its end.
        assert_eq!(mem.span(RAM_BASE, 8, 1), Some((&[0; 8][..], 1)));
        assert_eq!(mem.span(RAM_BASE + RAM_SIZE as u32 - 4, 8, 1), None);
    }

    #[test]
    fn an_image_must_fit_the_flash() {
        let image = [0; 16];
        let flash_end = FLASH_BASE + FLASH_SIZE as u32;
        assert!(Nrf52Memory::new(vec![(flash_end - 16, &image[..])]).is_ok());
        for at in [flash_end - 8, flash_end, RAM_BASE] {
            let err = Nrf52::with_flash(vec![(at, &image[..])]).unwrap_err();
            assert_eq!(
                err,
                M4Error::Bus(BusError {
                    addr: at,
                    write: true
                })
            );
        }
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
            soc_a.mem().ram().read_bytes(RAM_BASE, 4),
            soc_b.mem().ram().read_bytes(RAM_BASE, 4)
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
            soc_a.mem().ram().read_bytes(RAM_BASE, 4),
            soc_c.mem().ram().read_bytes(RAM_BASE, 4)
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
