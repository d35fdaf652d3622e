//! Property tests: every constructible instruction encodes to a word that
//! decodes back to itself, decoding arbitrary words never panics, and the
//! per-PC op program ([`Cpu::run_program`]), fused or recorded one
//! instruction per dispatch ([`Cpu::run_program_sink`]), is bit- and
//! cycle-identical to the fetch-and-decode reference ([`Cpu::run`]),
//! including on faults, cycle-limit exits and self-modifying stores.

use iw_rv32::{
    decode, encode, AluImmOp, AluOp, BranchCond, Cpu, CpuError, Instr, LoopIdx, MemWidth, Program,
    PulpAluOp, Ram, Reg, RunResult, ShiftOp, SimdOp, Timing,
};
use iw_trace::{Recorder, TraceSink, CYCLES};
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

/// Full post-run machine state, for exact comparison with the reference.
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

fn run_uncached(words: &[u32], regs: &[u32], limit: u64) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let result = cpu.run(&mut ram, &Timing::riscy(), limit);
    outcome(cpu, &ram, result)
}

fn run_program(words: &[u32], regs: &[u32], window: u32, limit: u64) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let mut prog = Program::new(0, window, true);
    let result = cpu.run_program(&mut ram, &Timing::riscy(), limit, &mut prog);
    outcome(cpu, &ram, result)
}

/// [`run_program`] under a recording sink, which dispatches one
/// instruction at a time; asserts that every retired instruction was
/// sampled exactly once.
fn run_recorded(words: &[u32], regs: &[u32], limit: u64) -> Outcome {
    let (mut cpu, mut ram) = fresh_machine(words, regs);
    let mut prog = Program::new(0, MEM_SIZE as u32, true);
    let mut rec = Recorder::new();
    let track = rec.track("core", CYCLES);
    let result = cpu.run_program_sink(
        &mut ram,
        &Timing::riscy(),
        limit,
        &mut prog,
        &mut rec,
        track,
    );
    let sampled: u64 = rec.pc_histogram().values().map(|s| s.count).sum();
    assert_eq!(sampled, cpu.retired(), "PC samples vs retired instructions");
    outcome(cpu, &ram, result)
}

/// Asserts every accelerated path reproduces `reference`, the run under
/// `limit`, exactly.
fn assert_all_paths_match(words: &[u32], regs: &[u32], reference: &Outcome, limit: u64) {
    let program = run_program(words, regs, MEM_SIZE as u32, limit);
    assert_eq!(&program, reference, "run_program, full window");
    let narrow = run_program(words, regs, 0x40, limit);
    assert_eq!(&narrow, reference, "run_program, narrow window");
    let recorded = run_recorded(words, regs, limit);
    assert_eq!(&recorded, reference, "run_program_sink, recording");
}

/// Register values biased into the mapped address range so that random
/// loads/stores frequently hit memory instead of faulting immediately.
fn any_regs() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..MEM_SIZE as u32, 31)
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

/// The body shared by both dot-product loop ops after their loads:
/// `mul tw, tw, tx`, `srai tw, tw, shamt`, `add acc, acc, tw`.
fn requant(tw: Reg, tx: Reg, acc: Reg, shamt: u8) -> [Instr; 3] {
    [
        Instr::Alu {
            op: AluOp::Mul,
            rd: tw,
            rs1: tw,
            rs2: tx,
        },
        Instr::Shift {
            op: ShiftOp::Srai,
            rd: tw,
            rs1: tw,
            shamt,
        },
        Instr::Alu {
            op: AluOp::Add,
            rd: acc,
            rs1: acc,
            rs2: tw,
        },
    ]
}

/// The Ibex kernel's inner loop, `n` counting down to zero: the counted
/// dot-product loop op's nine words.
fn counted_dot(w: Reg, x: Reg, tw: Reg, tx: Reg, acc: Reg, n: Reg, shamt: u8) -> Vec<Instr> {
    let lw = |rd, rs1| Instr::Load {
        width: MemWidth::W,
        rd,
        rs1,
        offset: 0,
    };
    let mut v = vec![lw(tw, w), lw(tx, x), addi(w, w, 4), addi(x, x, 4)];
    v.extend(requant(tw, tx, acc, shamt));
    v.push(addi(n, n, -1));
    v.push(Instr::Branch {
        cond: BranchCond::Ne,
        rs1: n,
        rs2: Reg::ZERO,
        offset: -32,
    });
    v
}

/// Registers `[w, x, tw, tx, acc, n]` of a dot-product loop: six distinct
/// ones, as the kernels use them, or random ones, so operands alias.
fn dot_regs() -> impl Strategy<Value = [Reg; 6]> {
    prop_oneof![
        (1u8..27).prop_map(|k| core::array::from_fn(|i| Reg::new(k + i as u8))),
        (
            any_reg(),
            any_reg(),
            any_reg(),
            any_reg(),
            any_reg(),
            any_reg()
        )
            .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]),
    ]
}

/// Loop counts: none, one, a few and many (past the cycle limit).
fn loop_count() -> impl Strategy<Value = i32> {
    prop_oneof![Just(0i32), Just(1), 2i32..32, 32i32..2048]
}

/// Moves pointer `p` before a loop: nowhere (`how` 0), to `k` words
/// before the end of memory (1) or off word alignment (2), so loads fault
/// mid-iteration.
fn move_pointer(p: Reg, how: u8, k: i32) -> Vec<Instr> {
    match how {
        1 => vec![
            Instr::Lui {
                rd: p,
                imm: MEM_SIZE as i32,
            },
            addi(p, p, -4 * k),
        ],
        2 => vec![addi(p, p, 1 + k % 3)],
        _ => Vec::new(),
    }
}

/// Instruction groups that form the op program's fusion patterns, and the
/// Q15 pair shapes (`p.lw` with `p.lw`, `pv.sdotsp.h` or `p.mac`) that
/// run as single ops, with random registers (so some sites alias their
/// own operands), mixed with arbitrary instructions and word stores into
/// the code.
fn fusion_fragment() -> impl Strategy<Value = Vec<Instr>> {
    let lp = |rd, rs1| Instr::LoadPost {
        width: MemWidth::W,
        rd,
        rs1,
        offset: 4,
    };
    let sdotsp = |rd, rs1, rs2| Instr::Simd {
        op: SimdOp::SdotspH,
        rd,
        rs1,
        rs2,
    };
    prop_oneof![
        any_instr().prop_map(|i| vec![i]),
        (any_reg(), any_reg(), any_reg(), any_reg(), any_reg()).prop_map(
            move |(d1, p1, d2, p2, acc)| vec![lp(d1, p1), lp(d2, p2), sdotsp(acc, d1, d2)]
        ),
        (any_reg(), any_reg(), any_reg(), any_reg())
            .prop_map(move |(d1, p1, d2, p2)| vec![lp(d1, p1), lp(d2, p2)]),
        (any_reg(), any_reg(), any_reg(), any_reg())
            .prop_map(move |(d1, p1, acc, m)| vec![lp(d1, p1), sdotsp(acc, d1, m)]),
        (any_reg(), any_reg(), any_reg(), any_reg()).prop_map(move |(d1, p1, acc, m)| vec![
            lp(d1, p1),
            Instr::Mac {
                rd: acc,
                rs1: d1,
                rs2: m
            }
        ]),
        (any_reg(), any_reg(), any_reg(), 0u8..32, any_reg()).prop_map(|(d, a, b, sh, e)| vec![
            Instr::Alu {
                op: AluOp::Mul,
                rd: d,
                rs1: a,
                rs2: b
            },
            Instr::Shift {
                op: ShiftOp::Srai,
                rd: d,
                rs1: d,
                shamt: sh
            },
            Instr::Alu {
                op: AluOp::Add,
                rd: e,
                rs1: d,
                rs2: b
            },
        ]),
        (any_reg(), -4i32..4, any_reg(), -6i32..6).prop_map(|(r, k, s, w)| vec![
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: r,
                rs1: r,
                imm: k
            },
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: r,
                rs2: s,
                offset: 4 * w
            },
        ]),
        (prop_oneof![Just(Reg::S10), Just(Reg::S11)], 0i32..48).prop_map(|(rs2, w)| vec![
            Instr::Store {
                width: MemWidth::W,
                rs2,
                rs1: Reg::ZERO,
                offset: 4 * w
            },
        ]),
        // The hardware-loop dot-product op inside its own `lp.setup`: an
        // immediate count, a count from register `n`, or inside an outer
        // loop that shares its end.
        (
            dot_regs(),
            (any_loop(), 0u8..3),
            loop_count(),
            (0u8..3, 0i32..6, any::<bool>()),
            0u8..32,
        )
            .prop_map(
                move |([w, x, tw, tx, acc, n], (l, form), count, moved, shamt)| {
                    let (how, k, on_x) = moved;
                    let mut v = move_pointer(if on_x { x } else { w }, how, k);
                    let counti = count.min(31) as u8;
                    match form {
                        0 => v.push(Instr::LpSetupi {
                            l,
                            count: counti,
                            offset: 24,
                        }),
                        1 => v.extend([
                            addi(n, Reg::ZERO, count),
                            Instr::LpSetup {
                                l,
                                rs1: n,
                                offset: 24,
                            },
                        ]),
                        _ => v.extend([
                            Instr::LpSetupi {
                                l: LoopIdx::L1,
                                count: counti % 4,
                                offset: 28,
                            },
                            Instr::LpSetupi {
                                l: LoopIdx::L0,
                                count: counti,
                                offset: 24,
                            },
                        ]),
                    }
                    v.extend([lp(tw, w), lp(tx, x)]);
                    v.extend(requant(tw, tx, acc, shamt));
                    v
                }
            ),
        // The counted dot-product op from the `li` of its count.
        (
            dot_regs(),
            loop_count(),
            (0u8..3, 0i32..6, any::<bool>()),
            0u8..32
        )
            .prop_map(|([w, x, tw, tx, acc, n], count, (how, k, on_x), shamt)| {
                let mut v = move_pointer(if on_x { x } else { w }, how, k);
                v.push(addi(n, Reg::ZERO, count));
                v.extend(counted_dot(w, x, tw, tx, acc, n, shamt));
                v
            }),
    ]
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
    /// spin until the cycle limit — behave identically on the fused and
    /// the recorded op-program paths and the uncached one, with both a
    /// full-memory window and a narrow one that forces out-of-window
    /// fallback fetches.
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

        let reference = run_uncached(&words, &regs, MAX_CYCLES);
        assert_all_paths_match(&words, &regs, &reference, MAX_CYCLES);
    }

    /// Self-modifying code: a store patches one of the instructions ahead
    /// of the pc; the op program must drop the slot so the patched word
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

        let reference = run_uncached(&words, &regs, MAX_CYCLES);
        assert_all_paths_match(&words, &regs, &reference, MAX_CYCLES);
        // And the patch must actually have taken effect.
        let a0 = reference.regs[Reg::A0.index() as usize];
        prop_assert_eq!(a0, ((SLOTS as i32 - 1) + k) as u32);
    }

    /// Self-modifying-code fuzzing: programs randomly interleaved with
    /// stores aimed back into the code region, so translated ops — fused
    /// ones included — are dropped mid-run, sometimes the very op just
    /// executed. Every accelerated path must track the reference
    /// bit-for-bit through the drops and re-decodes.
    #[test]
    fn random_code_stores_stay_bit_exact(
        prog in prop::collection::vec(
            prop_oneof![
                any_instr(),
                any_instr(),
                // Aligned word stores into the first 48 words: rewrite
                // whole instructions, exercising drop + re-decode.
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

        let reference = run_uncached(&words, &regs, MAX_CYCLES);
        assert_all_paths_match(&words, &regs, &reference, MAX_CYCLES);
    }

    /// Programs built from fusion patterns — inside hardware loops whose
    /// end cuts a pattern short, branched into mid-pattern, faulting
    /// mid-pattern, and, on the second and third pass of an outer loop,
    /// rewritten by code stores of valid instruction words that land
    /// inside fused ops already translated — run bit-exactly on every
    /// accelerated path.
    #[test]
    fn fused_patterns_stay_bit_exact(
        frags in prop::collection::vec(
            (fusion_fragment(), 0u8..4, 1usize..4),
            0..16,
        ),
        words_in in prop::collection::vec(0u32..(MEM_SIZE as u32 / 4), 31),
        patches in (fusion_fragment(), fusion_fragment()),
    ) {
        let mut body: Vec<Instr> = Vec::new();
        for (frag, count, cut) in &frags {
            if *count > 0 {
                // A hardware loop over the first `cut` instructions.
                let cut = (*cut).min(frag.len()) as i32;
                body.push(Instr::LpSetupi { l: LoopIdx::L0, count: *count, offset: 4 * (1 + cut) });
            }
            body.extend(frag.iter().copied());
        }
        let mut program = vec![Instr::AluImm { op: AluImmOp::Addi, rd: Reg::S9, rs1: Reg::ZERO, imm: 3 }];
        program.extend(body.iter().copied());
        program.push(Instr::AluImm { op: AluImmOp::Addi, rd: Reg::S9, rs1: Reg::S9, imm: -1 });
        program.push(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::S9,
            rs2: Reg::ZERO,
            offset: -4 * (body.len() as i32 + 1),
        });
        program.push(Instr::Ecall);
        let words: Vec<u32> = program
            .iter()
            .map(|i| encode(i).expect("generated instruction must encode"))
            .collect();
        // Word-aligned pointers, so post-increment streams mostly load.
        let mut regs: Vec<u32> = words_in.iter().map(|w| 4 * w).collect();
        regs[Reg::S10.index() as usize - 1] = encode(&patches.0[0]).unwrap();
        regs[Reg::S11.index() as usize - 1] = encode(&patches.1[0]).unwrap();

        let reference = run_uncached(&words, &regs, MAX_CYCLES);
        assert_all_paths_match(&words, &regs, &reference, MAX_CYCLES);
    }

    /// A kernel dot-product row of `n` passes, either loop op, whose `w`
    /// or `x` stream ends one word before the end of memory, exactly at
    /// it, or one word past it (the last pass's load of that stream
    /// faults), under a cycle limit anywhere in the run or within a few
    /// cycles of its end: the row's last budget checks. Every path
    /// matches the reference, whether the row runs whole over memory
    /// spans or steps.
    #[test]
    fn dot_rows_at_the_memory_end_stay_bit_exact(
        hwloop in any::<bool>(),
        n in prop_oneof![Just(1u32), 2u32..64],
        past in -1i32..=1,
        on_x in any::<bool>(),
        shamt in 0u8..32,
        back in prop_oneof![(0u64..24).prop_map(Some), Just(None)],
        cut in 0u64..2_000,
    ) {
        let [w, x, tw, tx, acc, cnt] = [Reg::A0, Reg::A1, Reg::T0, Reg::T1, Reg::A2, Reg::A3];
        let mut program = vec![addi(cnt, Reg::ZERO, n as i32)];
        if hwloop {
            program.push(Instr::LpSetup { l: LoopIdx::L0, rs1: cnt, offset: 24 });
            let lp = |rd, rs1| Instr::LoadPost { width: MemWidth::W, rd, rs1, offset: 4 };
            program.extend([lp(tw, w), lp(tx, x)]);
            program.extend(requant(tw, tx, acc, shamt));
        } else {
            program.extend(counted_dot(w, x, tw, tx, acc, cnt, shamt));
        }
        program.push(Instr::Ecall);
        let words: Vec<u32> = program.iter().map(|i| encode(i).unwrap()).collect();
        let mut regs = vec![0u32; 31];
        let at = (MEM_SIZE as i32 - 4 * (n as i32 - past)) as u32;
        let (pw, px) = if on_x { (DATA_BASE, at) } else { (at, DATA_BASE) };
        regs[w.index() as usize - 1] = pw;
        regs[x.index() as usize - 1] = px;
        // The whole run's cycles, when it runs to the end.
        let full = match run_uncached(&words, &regs, MAX_CYCLES).result {
            Ok(run) => run.cycles,
            Err(_) => MAX_CYCLES,
        };
        let limit = match back {
            Some(k) => full.saturating_sub(k),
            None => cut.min(full),
        };
        let reference = run_uncached(&words, &regs, limit);
        assert_all_paths_match(&words, &regs, &reference, limit);
    }
}

/// A code store rewrites the ninth word — the closing `bne` — of a
/// counted dot-product loop op already translated, between two passes
/// over it: the op must be dropped although the store lands eight words
/// past its head.
#[test]
fn code_store_into_the_last_word_of_a_counted_loop_op() {
    let (w, x, tw, tx, acc, n) = (Reg::A0, Reg::A1, Reg::T0, Reg::T1, Reg::A2, Reg::A3);
    let mut program = vec![addi(Reg::S9, Reg::ZERO, 2)]; // 0x00: two passes
    let top = program.len();
    program.push(addi(n, Reg::ZERO, 3)); // 0x04
    let bne_at = 4 * (program.len() + 8) as i32; // 0x28, the op's ninth word
    program.extend(counted_dot(w, x, tw, tx, acc, n, 7)); // 0x08..0x2c
    program.extend([
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::S10,
            rs1: Reg::ZERO,
            offset: bne_at,
        },
        addi(Reg::S9, Reg::S9, -1),
    ]);
    let back = -4 * (program.len() - top) as i32;
    program.extend([
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::S9,
            rs2: Reg::ZERO,
            offset: back,
        },
        Instr::Ecall,
    ]);
    let words: Vec<u32> = program.iter().map(|i| encode(i).unwrap()).collect();
    let mut regs = vec![0u32; 31];
    regs[w.index() as usize - 1] = DATA_BASE;
    regs[x.index() as usize - 1] = DATA_BASE + 0x100;
    // The patch turns the back edge into `addi acc, acc, 100`.
    regs[Reg::S10.index() as usize - 1] = encode(&addi(acc, acc, 100)).unwrap();

    let reference = run_uncached(&words, &regs, MAX_CYCLES);
    assert!(reference.result.is_ok(), "{:?}", reference.result);
    assert_all_paths_match(&words, &regs, &reference, MAX_CYCLES);
    // The patch took effect: storing the `bne` back over itself instead
    // leaves a different `acc`.
    let mut unpatched = regs.clone();
    unpatched[Reg::S10.index() as usize - 1] = words[bne_at as usize / 4];
    let same = run_uncached(&words, &unpatched, MAX_CYCLES);
    assert_ne!(
        reference.regs[acc.index() as usize],
        same.regs[acc.index() as usize]
    );
}
