//! Property tests: every constructible instruction encodes to a word that
//! decodes back to itself, decoding arbitrary words never panics, and the
//! accelerated execution paths — pre-decoded ([`Cpu::run_cached`]) and
//! block-compiled ([`Cpu::run_blocks`]) — are bit- and
//! cycle-identical to the fetch-and-decode reference ([`Cpu::run`]),
//! including on faults, cycle-limit exits and self-modifying stores.

use iw_rv32::{
    decode, encode, AluImmOp, AluOp, BlockCache, BranchCond, Cpu, CpuError, DecodeCache, Instr,
    LoopIdx, MemWidth, PulpAluOp, Ram, Reg, RunResult, ShiftOp, SimdOp, Timing,
};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn any_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Mul),
        Just(AluOp::Mulh),
        Just(AluOp::Mulhsu),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Divu),
        Just(AluOp::Rem),
        Just(AluOp::Remu),
    ]
}

fn any_simd_op() -> impl Strategy<Value = SimdOp> {
    prop_oneof![
        Just(SimdOp::AddH),
        Just(SimdOp::SubH),
        Just(SimdOp::MinH),
        Just(SimdOp::MaxH),
        Just(SimdOp::DotspH),
        Just(SimdOp::SdotspH),
        Just(SimdOp::PackH),
    ]
}

fn any_pulp_alu_op() -> impl Strategy<Value = PulpAluOp> {
    prop_oneof![
        Just(PulpAluOp::Abs),
        Just(PulpAluOp::Min),
        Just(PulpAluOp::Max),
        Just(PulpAluOp::Minu),
        Just(PulpAluOp::Maxu),
        Just(PulpAluOp::Exths),
        Just(PulpAluOp::Extuh),
    ]
}

fn any_loop() -> impl Strategy<Value = LoopIdx> {
    prop_oneof![Just(LoopIdx::L0), Just(LoopIdx::L1)]
}

fn any_load_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![
        Just(MemWidth::B),
        Just(MemWidth::H),
        Just(MemWidth::W),
        Just(MemWidth::Bu),
        Just(MemWidth::Hu),
    ]
}

fn any_store_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![Just(MemWidth::B), Just(MemWidth::H), Just(MemWidth::W)]
}

fn any_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (any_reg(), -(1i32 << 19)..(1i32 << 19))
            .prop_map(|(rd, v)| Instr::Lui { rd, imm: v << 12 }),
        (any_reg(), -(1i32 << 19)..(1i32 << 19))
            .prop_map(|(rd, v)| Instr::Auipc { rd, imm: v << 12 }),
        (any_reg(), -(1i32 << 19)..(1i32 << 19) - 1)
            .prop_map(|(rd, o)| Instr::Jal { rd, offset: o * 2 }),
        (any_reg(), any_reg(), -2048i32..2048).prop_map(|(rd, rs1, offset)| Instr::Jalr {
            rd,
            rs1,
            offset
        }),
        (
            prop_oneof![
                Just(BranchCond::Eq),
                Just(BranchCond::Ne),
                Just(BranchCond::Lt),
                Just(BranchCond::Ge),
                Just(BranchCond::Ltu),
                Just(BranchCond::Geu)
            ],
            any_reg(),
            any_reg(),
            -2048i32..2048
        )
            .prop_map(|(cond, rs1, rs2, o)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: o * 2
            }),
        (any_load_width(), any_reg(), any_reg(), -2048i32..2048).prop_map(
            |(width, rd, rs1, offset)| Instr::Load {
                width,
                rd,
                rs1,
                offset
            }
        ),
        (any_store_width(), any_reg(), any_reg(), -2048i32..2048).prop_map(
            |(width, rs2, rs1, offset)| Instr::Store {
                width,
                rs2,
                rs1,
                offset
            }
        ),
        (
            prop_oneof![
                Just(AluImmOp::Addi),
                Just(AluImmOp::Slti),
                Just(AluImmOp::Sltiu),
                Just(AluImmOp::Xori),
                Just(AluImmOp::Ori),
                Just(AluImmOp::Andi)
            ],
            any_reg(),
            any_reg(),
            -2048i32..2048
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
        (
            prop_oneof![
                Just(ShiftOp::Slli),
                Just(ShiftOp::Srli),
                Just(ShiftOp::Srai)
            ],
            any_reg(),
            any_reg(),
            0u8..32
        )
            .prop_map(|(op, rd, rs1, shamt)| Instr::Shift { op, rd, rs1, shamt }),
        (any_alu_op(), any_reg(), any_reg(), any_reg()).prop_map(|(op, rd, rs1, rs2)| Instr::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
        Just(Instr::Fence),
        (any_load_width(), any_reg(), any_reg(), -2048i32..2048).prop_map(
            |(width, rd, rs1, offset)| Instr::LoadPost {
                width,
                rd,
                rs1,
                offset
            }
        ),
        (any_store_width(), any_reg(), any_reg(), -2048i32..2048).prop_map(
            |(width, rs2, rs1, offset)| Instr::StorePost {
                width,
                rs2,
                rs1,
                offset
            }
        ),
        (any_reg(), any_reg(), any_reg()).prop_map(|(rd, rs1, rs2)| Instr::Mac { rd, rs1, rs2 }),
        (any_reg(), any_reg(), any_reg()).prop_map(|(rd, rs1, rs2)| Instr::Msu { rd, rs1, rs2 }),
        (any_reg(), any_reg(), 0u8..32).prop_map(|(rd, rs1, bits)| Instr::Clip { rd, rs1, bits }),
        (any_pulp_alu_op(), any_reg(), any_reg(), any_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::PulpAlu { op, rd, rs1, rs2 }),
        (any_simd_op(), any_reg(), any_reg(), any_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Simd { op, rd, rs1, rs2 }),
        (any_loop(), -2048i32..2048).prop_map(|(l, o)| Instr::LpStarti { l, offset: o * 2 }),
        (any_loop(), -2048i32..2048).prop_map(|(l, o)| Instr::LpEndi { l, offset: o * 2 }),
        (any_loop(), any_reg()).prop_map(|(l, rs1)| Instr::LpCount { l, rs1 }),
        (any_loop(), 0u16..4096).prop_map(|(l, count)| Instr::LpCounti { l, count }),
        (any_loop(), any_reg(), -2048i32..2048).prop_map(|(l, rs1, o)| Instr::LpSetup {
            l,
            rs1,
            offset: o * 2
        }),
        (any_loop(), 0u8..32, -2048i32..2048).prop_map(|(l, count, o)| Instr::LpSetupi {
            l,
            count,
            offset: o * 2
        }),
    ]
}

const MEM_SIZE: usize = 0x2000;
const DATA_BASE: u32 = 0x1000;
const MAX_CYCLES: u64 = 5_000;

/// Full post-run machine state, for exact cached-vs-uncached comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<RunResult, CpuError>,
    regs: Vec<u32>,
    pc: u32,
    profile: iw_rv32::ExecProfile,
    mem: Vec<u8>,
}

fn fresh_machine(words: &[u32], regs: &[u32]) -> (Cpu, Ram) {
    let mut ram = Ram::new(0, MEM_SIZE);
    for (i, w) in words.iter().enumerate() {
        ram.write_bytes(4 * i as u32, &w.to_le_bytes());
    }
    for i in 0..(MEM_SIZE as u32 - DATA_BASE) {
        ram.write_bytes(DATA_BASE + i, &[(i as u8).wrapping_mul(31)]);
    }
    let mut cpu = Cpu::new(0);
    for (i, &v) in regs.iter().enumerate() {
        cpu.set_reg(Reg::new(i as u8 + 1), v);
    }
    (cpu, ram)
}

fn outcome(cpu: Cpu, ram: &Ram, result: Result<RunResult, CpuError>) -> Outcome {
    Outcome {
        result,
        regs: (0..32).map(|i| cpu.reg(Reg::new(i))).collect(),
        pc: cpu.pc(),
        profile: *cpu.profile(),
        mem: ram.read_bytes(0, MEM_SIZE).to_vec(),
    }
}

fn run_uncached(words: &[u32], regs: &[u32]) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let result = cpu.run(&mut ram, &Timing::riscy(), MAX_CYCLES);
    outcome(cpu, &ram, result)
}

fn run_cached(words: &[u32], regs: &[u32], window: u32) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let mut cache = DecodeCache::new(0, window);
    let result = cpu.run_cached(&mut ram, &Timing::riscy(), MAX_CYCLES, &mut cache);
    outcome(cpu, &ram, result)
}

fn run_blocks(words: &[u32], regs: &[u32], window: u32) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let mut cache = BlockCache::new(0, window, true);
    let result = cpu.run_blocks(&mut ram, &Timing::riscy(), MAX_CYCLES, &mut cache);
    outcome(cpu, &ram, result)
}

/// Asserts every accelerated path reproduces `reference` exactly.
fn assert_all_paths_match(words: &[u32], regs: &[u32], reference: &Outcome) {
    let cached = run_cached(words, regs, MEM_SIZE as u32);
    assert_eq!(&cached, reference, "run_cached, full window");
    let narrow = run_cached(words, regs, 0x40);
    assert_eq!(&narrow, reference, "run_cached, narrow window");
    let blocks = run_blocks(words, regs, MEM_SIZE as u32);
    assert_eq!(&blocks, reference, "run_blocks, full window");
    let narrow = run_blocks(words, regs, 0x40);
    assert_eq!(&narrow, reference, "run_blocks, narrow window");
}

/// Register values biased into the mapped address range so that random
/// loads/stores frequently hit memory instead of faulting immediately.
fn any_regs() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..MEM_SIZE as u32, 31)
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(instr in any_instr()) {
        let word = encode(&instr).expect("generated instruction must encode");
        let back = decode(word).expect("encoded word must decode");
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = decode(word);
    }

    #[test]
    fn decoded_words_reencode_identically(word in any::<u32>()) {
        if let Ok(instr) = decode(word) {
            // Decode is not injective on don't-care bits (e.g. fence), so we
            // only require that re-encoding yields a word that decodes to the
            // same instruction.
            let word2 = encode(&instr).expect("decoded instruction must re-encode");
            prop_assert_eq!(decode(word2).unwrap(), instr);
        }
    }

    /// Arbitrary programs — including ones that branch wildly, fault, or
    /// spin until the cycle limit — behave identically on the cached,
    /// block-compiled and uncached paths, with both a full-memory window
    /// and a narrow one that forces out-of-window fallback fetches.
    #[test]
    fn cached_execution_is_bit_exact(
        instrs in prop::collection::vec(any_instr(), 0..40),
        regs in any_regs(),
    ) {
        let mut words: Vec<u32> = instrs
            .iter()
            .map(|i| encode(i).expect("generated instruction must encode"))
            .collect();
        words.push(encode(&Instr::Ecall).unwrap());

        let reference = run_uncached(&words, &regs);
        assert_all_paths_match(&words, &regs, &reference);
    }

    /// Self-modifying code: a store patches one of the instructions ahead
    /// of the pc; the cache must invalidate the line so the patched word
    /// executes, exactly as on the uncached path.
    #[test]
    fn self_modifying_store_stays_bit_exact(
        slot in 0usize..8,
        k in -2048i32..2048,
    ) {
        const SLOTS: usize = 8;
        // Word 0 stores T0 (the patch word) over the chosen `addi` slot;
        // the patch retargets that slot's increment from 1 to `k`.
        let mut words = vec![encode(&Instr::Store {
            width: MemWidth::W,
            rs2: Reg::T0,
            rs1: Reg::T1,
            offset: 0,
        })
        .unwrap()];
        let addi_one = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        };
        words.extend(std::iter::repeat_n(encode(&addi_one).unwrap(), SLOTS));
        words.push(encode(&Instr::Ecall).unwrap());

        let patch = encode(&Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: k,
        })
        .unwrap();
        let mut regs = vec![0u32; 31];
        regs[Reg::T0.index() as usize - 1] = patch;
        regs[Reg::T1.index() as usize - 1] = 4 * (1 + slot) as u32;

        let reference = run_uncached(&words, &regs);
        assert_all_paths_match(&words, &regs, &reference);
        // And the patch must actually have taken effect.
        let a0 = reference.regs[Reg::A0.index() as usize];
        prop_assert_eq!(a0, ((SLOTS as i32 - 1) + k) as u32);
    }

    /// Self-modifying-code fuzzing: programs randomly interleaved with
    /// stores aimed back into the code region, so compiled blocks are
    /// demoted mid-run — sometimes the very block being executed. Every
    /// accelerated path must track the reference bit-for-bit through the
    /// demotions and recompiles.
    #[test]
    fn random_code_stores_stay_bit_exact(
        prog in prop::collection::vec(
            prop_oneof![
                any_instr(),
                any_instr(),
                // Aligned word stores into the first 48 words: rewrite
                // whole instructions, exercising demotion + recompile.
                (any_reg(), 0i32..48).prop_map(|(rs2, w)| Instr::Store {
                    width: MemWidth::W,
                    rs2,
                    rs1: Reg::ZERO,
                    offset: w * 4,
                }),
                // Narrow/unaligned stores into the code bytes: chip at
                // single instruction words, including spanning patterns.
                (any_store_width(), any_reg(), 0i32..192).prop_map(
                    |(width, rs2, offset)| Instr::Store {
                        width,
                        rs2,
                        rs1: Reg::ZERO,
                        offset,
                    }
                ),
            ],
            0..40,
        ),
        regs in any_regs(),
    ) {
        let mut words: Vec<u32> = prog
            .iter()
            .map(|i| encode(i).expect("generated instruction must encode"))
            .collect();
        words.push(encode(&Instr::Ecall).unwrap());

        let reference = run_uncached(&words, &regs);
        assert_all_paths_match(&words, &regs, &reference);
    }
}
