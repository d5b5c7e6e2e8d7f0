//! Property-based tests for the RV32I encoder/decoder, the illegal-
//! instruction trap and the fast path of `Cpu::run`.
//!
//! The conformance suite and the golden-trace tests both lean on the claim
//! that the decoder is *strict*: every one of the ~40 encodable
//! instructions round-trips `decode(encode(i)) == i`, every legal word
//! re-encodes to itself, and everything else traps deterministically.
//! These properties pin that claim down. They also pin down that `run(n)`,
//! which skips the idle debug unit and decodes through a cache, is
//! observably the same as `n` calls of `step()`.

use proptest::prelude::*;
use riscv::{
    decode, encode, AluImmOp, AluOp, BranchCond, ChainSet, Cpu, CpuConfig, Detection, Image, Instr,
    LoadWidth, Reg, ShiftOp, StopReason, StoreWidth,
};
use scanchain::{BitVec, DebugCondition, DebugEvent, ScanTarget};

fn pick<T: std::fmt::Debug + Clone>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

/// Signed immediate fitting 12 bits.
fn arb_imm12() -> impl Strategy<Value = i32> {
    -2048i32..2048
}

/// Even branch offset fitting 13 signed bits.
fn arb_branch_offset() -> impl Strategy<Value = i32> {
    (-(1i32 << 11)..(1i32 << 11)).prop_map(|half| half * 2)
}

/// Even jump offset fitting 21 signed bits.
fn arb_jal_offset() -> impl Strategy<Value = i32> {
    (-(1i32 << 19)..(1i32 << 19)).prop_map(|half| half * 2)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), 0u32..=0xF_FFFF).prop_map(|(rd, imm20)| Instr::Lui { rd, imm20 }),
        (arb_reg(), 0u32..=0xF_FFFF).prop_map(|(rd, imm20)| Instr::Auipc { rd, imm20 }),
        (arb_reg(), arb_jal_offset()).prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (arb_reg(), arb_reg(), arb_imm12()).prop_map(|(rd, rs1, offset)| Instr::Jalr {
            rd,
            rs1,
            offset
        }),
        (
            pick(BranchCond::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_branch_offset()
        )
            .prop_map(|(cond, rs1, rs2, offset)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset
            }),
        (
            pick(LoadWidth::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(width, rd, rs1, offset)| Instr::Load {
                width,
                rd,
                rs1,
                offset
            }),
        (
            pick(StoreWidth::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(width, rs1, rs2, offset)| Instr::Store {
                width,
                rs1,
                rs2,
                offset
            }),
        (
            pick(AluImmOp::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
        (pick(ShiftOp::all().to_vec()), arb_reg(), arb_reg(), 0u8..32)
            .prop_map(|(op, rd, rs1, shamt)| Instr::Shift { op, rd, rs1, shamt }),
        (pick(AluOp::all().to_vec()), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        Just(Instr::Fence),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
    ]
}

/// The nine major opcodes plus the two canonical-word-only ones
/// (FENCE, SYSTEM). Any other low-7-bit pattern is structurally illegal.
const LEGAL_OPCODES: [u32; 11] = [
    0b0110111, 0b0010111, 0b1101111, 0b1100111, 0b1100011, 0b0000011, 0b0100011, 0b0010011,
    0b0110011, 0b0001111, 0b1110011,
];

fn arb_illegal_opcode_word() -> impl Strategy<Value = u32> {
    let illegal: Vec<u32> = (0..128).filter(|op| !LEGAL_OPCODES.contains(op)).collect();
    (0..illegal.len(), any::<u32>()).prop_map(move |(i, upper)| (upper & !0x7F) | illegal[i])
}

/// Runs `word` as the sole instruction of a fresh core and returns the
/// stop reason with the counter state it stopped at.
fn trap_fingerprint(word: u32) -> (StopReason, u64, u64) {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&Image {
        words: vec![word],
        code_words: 1,
        entry: 0,
    })
    .unwrap();
    let stop = cpu.run(10);
    (stop, cpu.instructions(), cpu.cycles())
}

proptest! {
    #[test]
    fn every_encodable_instruction_round_trips(instr in arb_instr()) {
        let word = encode(instr);
        prop_assert_eq!(decode(word), Ok(instr));
        // Strictness: the canonical word is a fixed point of re-encoding.
        prop_assert_eq!(encode(decode(word).unwrap()), word);
    }

    #[test]
    fn decode_is_total_and_stable(word: u32) {
        // Decoding any word never panics, is reproducible, and legal words
        // re-encode to themselves (the decoder accepts canonical forms
        // only, so `decode` and `encode` are mutually inverse bijections
        // between the legal-word set and the instruction set).
        let first = decode(word);
        prop_assert_eq!(decode(word), first);
        if let Ok(instr) = first {
            prop_assert_eq!(encode(instr), word);
        }
    }

    #[test]
    fn illegal_opcodes_trap_deterministically(word in arb_illegal_opcode_word()) {
        prop_assert!(decode(word).is_err());
        let fp = trap_fingerprint(word);
        prop_assert_eq!(fp.0, StopReason::Detected(Detection::IllegalInstr));
        // Trapping is part of the deterministic trace: same stop, same
        // counters, every time.
        prop_assert_eq!(trap_fingerprint(word), fp);
    }

    #[test]
    fn undecodable_words_always_trap_as_illegal(word: u32) {
        // Beyond structurally-illegal opcodes: ANY word the strict decoder
        // rejects (reserved funct fields, non-canonical FENCE/SYSTEM) must
        // latch IllegalInstr rather than execute as something else.
        if decode(word).is_err() {
            let (stop, instret, _) = trap_fingerprint(word);
            prop_assert_eq!(stop, StopReason::Detected(Detection::IllegalInstr));
            prop_assert_eq!(instret, 0); // trapped before retiring
        }
    }
}

/// Everything a tool can observe of a core after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    pc: u32,
    regs: Vec<u32>,
    instret: u64,
    cycles: u64,
    iterations: u64,
    detection: Option<Detection>,
    halted: bool,
    debug_instructions: u64,
    debug_cycles: u64,
    debug_pending: Option<DebugEvent>,
    chains: Vec<BitVec>,
    memory: riscv::Memory,
}

fn observe(cpu: &Cpu) -> Observed {
    Observed {
        pc: cpu.pc(),
        regs: (0..Reg::COUNT as u8)
            .map(|r| cpu.reg(Reg::new(r)))
            .collect(),
        instret: cpu.instructions(),
        cycles: cpu.cycles(),
        iterations: cpu.iterations(),
        detection: cpu.detection(),
        halted: cpu.is_halted(),
        debug_instructions: cpu.debug_unit().instruction_count(),
        debug_cycles: cpu.debug_unit().cycle_count(),
        debug_pending: cpu.debug_unit().pending(),
        chains: ChainSet::names()
            .iter()
            .map(|chain| cpu.capture_chain(chain).unwrap())
            .collect(),
        memory: cpu.memory().clone(),
    }
}

/// `n` calls of `step()`, stopping at the first stop reason, reported the
/// way `run(n)` reports it.
fn step_n(cpu: &mut Cpu, n: u64) -> StopReason {
    for _ in 0..n {
        if let Some(stop) = cpu.step() {
            return stop;
        }
    }
    StopReason::InstrLimit
}

/// One pre-runtime setup: a program, bit flips, protection, breakpoint.
#[derive(Debug)]
struct Setup {
    image: Image,
    watchdog: Option<u64>,
    flips: Vec<(u32, u8)>,
    protect_code: bool,
    breakpoint: Option<DebugCondition>,
}

impl Setup {
    fn core(&self) -> Cpu {
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: self.watchdog,
            ..CpuConfig::default()
        });
        cpu.load_image(&self.image).unwrap();
        for &(addr, bit) in &self.flips {
            cpu.memory_mut().flip_bit(addr, bit).unwrap();
        }
        cpu.memory_mut().set_protection(self.protect_code);
        if let Some(condition) = self.breakpoint {
            cpu.debug_unit_mut().arm(condition);
        }
        cpu
    }
}

/// Runs the setup for up to `rounds` rounds of `budget` instructions,
/// once through `run` and once through `step`, comparing everything
/// observable after every round. Between rounds the tool does what a campaign does
/// after a breakpoint: unlatch the event and disarm, so later rounds take
/// the fast path.
fn assert_run_matches_steps(setup: &Setup, budget: u64, rounds: usize) {
    let mut fast = setup.core();
    let mut slow = setup.core();
    for round in 0..rounds {
        let fast_stop = fast.run(budget);
        let slow_stop = step_n(&mut slow, budget);
        assert_eq!(
            fast_stop, slow_stop,
            "stop reason, round {round}: {setup:?}"
        );
        assert_eq!(observe(&fast), observe(&slow), "round {round}: {setup:?}");
        match fast_stop {
            StopReason::DebugEvent(_) => {
                for cpu in [&mut fast, &mut slow] {
                    cpu.debug_unit_mut().disarm_all();
                }
            }
            StopReason::Sync { .. } | StopReason::InstrLimit => {}
            _ => return,
        }
    }
}

/// Random programs: at most `PROGRAM_CODE` code words, then
/// `PROGRAM_DATA` data words.
const PROGRAM_CODE: u32 = 48;
const PROGRAM_DATA: u32 = 16;

/// Instructions that keep a random program alive long enough to loop,
/// touch data and reach the environment calls.
fn arb_live_instr() -> impl Strategy<Value = Vec<Instr>> {
    prop_oneof![
        arb_instr().prop_map(|i| vec![i]),
        (1u8..32, arb_reg(), -64i32..64).prop_map(|(rd, rs1, imm)| vec![Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::new(rd),
            rs1,
            imm
        }]),
        (pick(AluOp::all().to_vec()), 1u8..32, arb_reg(), arb_reg()).prop_map(
            |(op, rd, rs1, rs2)| vec![Instr::Alu {
                op,
                rd: Reg::new(rd),
                rs1,
                rs2
            }]
        ),
        (
            pick(LoadWidth::all().to_vec()),
            1u8..32,
            0..PROGRAM_DATA * 4
        )
            .prop_map(|(width, rd, byte)| vec![Instr::Load {
                width,
                rd: Reg::new(rd),
                rs1: Reg::X0,
                offset: (PROGRAM_CODE * 4 + aligned(byte, load_bytes(width))) as i32,
            }]),
        // Stores may land in code: an access fault with protection on,
        // self-modifying code with it off.
        (
            pick(StoreWidth::all().to_vec()),
            arb_reg(),
            0..(PROGRAM_CODE + PROGRAM_DATA) * 4
        )
            .prop_map(|(width, rs2, byte)| vec![Instr::Store {
                width,
                rs1: Reg::X0,
                rs2,
                offset: aligned(byte, store_bytes(width)) as i32,
            }]),
        (
            pick(BranchCond::all().to_vec()),
            arb_reg(),
            arb_reg(),
            -6i32..6
        )
            .prop_map(|(cond, rs1, rs2, words)| vec![Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: words * 4
            }]),
        (prop_oneof![Just(Reg::X0), Just(Reg::RA)], -6i32..6).prop_map(|(rd, words)| vec![
            Instr::Jal {
                rd,
                offset: words * 4
            }
        ]),
        // Mostly syncs and port I/O, sometimes a halt or an assertion.
        (pick(vec![0u32, 1, 1, 2, 2, 3, 3, 4, 5]), -4i32..4).prop_map(|(code, tag)| vec![
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::X0,
                imm: tag
            },
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A7,
                rs1: Reg::X0,
                imm: code as i32
            },
            Instr::Ecall,
        ]),
    ]
}

fn aligned(byte: u32, align: u32) -> u32 {
    byte & !(align - 1)
}

fn load_bytes(width: LoadWidth) -> u32 {
    match width {
        LoadWidth::B | LoadWidth::Bu => 1,
        LoadWidth::H | LoadWidth::Hu => 2,
        LoadWidth::W => 4,
    }
}

fn store_bytes(width: StoreWidth) -> u32 {
    match width {
        StoreWidth::B => 1,
        StoreWidth::H => 2,
        StoreWidth::W => 4,
    }
}

fn arb_program() -> impl Strategy<Value = Image> {
    (
        proptest::collection::vec(arb_live_instr(), 4..32),
        proptest::collection::vec(any::<u32>(), PROGRAM_DATA as usize),
    )
        .prop_map(|(pieces, data)| {
            let mut words: Vec<u32> = pieces.into_iter().flatten().map(encode).collect();
            words.truncate(PROGRAM_CODE as usize);
            let code_words = words.len() as u32;
            // Zero padding up to the data block: a fall-through past the
            // code segment is a control-flow error.
            words.resize(PROGRAM_CODE as usize, 0);
            words.extend(data);
            Image {
                words,
                code_words,
                entry: 0,
            }
        })
}

fn arb_breakpoint() -> impl Strategy<Value = Option<DebugCondition>> {
    proptest::option::of(prop_oneof![
        (0u32..64).prop_map(|w| DebugCondition::PcEquals(w * 4)),
        (0u64..400).prop_map(DebugCondition::InstructionCount),
        (0u32..128).prop_map(DebugCondition::DataAccess),
        (0u32..128).prop_map(DebugCondition::DataWrite),
        Just(DebugCondition::BranchExecuted),
        Just(DebugCondition::CallExecuted),
        (0u64..1200).prop_map(DebugCondition::CycleCount),
    ])
}

fn arb_setup(image: impl Strategy<Value = Image>) -> impl Strategy<Value = Setup> {
    (
        image,
        proptest::option::of(50u64..5000),
        // Word indices are reduced modulo the image size: code and data.
        proptest::collection::vec((any::<u32>(), 0u8..32), 0..4),
        any::<bool>(),
        arb_breakpoint(),
    )
        .prop_map(|(image, watchdog, flips, protect_code, breakpoint)| {
            let words = image.words.len() as u32;
            Setup {
                flips: flips.into_iter().map(|(w, bit)| (w % words, bit)).collect(),
                image,
                watchdog,
                protect_code,
                breakpoint,
            }
        })
}

fn arb_workload_image() -> impl Strategy<Value = Image> {
    let images: Vec<Image> = workloads::riscv_all()
        .into_iter()
        .map(|w| w.image)
        .collect();
    pick(images)
}

proptest! {
    #[test]
    fn run_matches_stepping_on_random_programs(
        setup in arb_setup(arb_program()),
        budget in 1u64..300,
    ) {
        assert_run_matches_steps(&setup, budget, 4);
    }

    #[test]
    fn run_matches_stepping_on_flipped_workloads(
        setup in arb_setup(arb_workload_image()),
        budget in 1u64..4000,
    ) {
        assert_run_matches_steps(&setup, budget, 3);
    }
}
