//! Property-based tests for the CPU substrate.
//!
//! The last two properties pin down that `run(n)`, which skips the idle
//! debug unit and decodes through a cache, is observably the same as `n`
//! calls of `step()`.

use proptest::prelude::*;
use scanchain::{BitVec, DebugCondition, DebugEvent, ScanTarget, TestCard};
use thor::{
    asm, decode, encode, CacheStats, ChainSet, Cpu, CpuConfig, Detection, EdmSet, Instr, Opcode,
    Reg, StateVector, StopReason,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    let ops = Opcode::all().to_vec();
    (0..ops.len(), arb_reg(), arb_reg(), arb_reg(), any::<i16>()).prop_map(
        move |(i, rd, rs1, rs2, imm)| {
            let op = ops[i];
            if Instr::uses_imm(op) {
                Instr::i(op, rd, rs1, imm)
            } else {
                Instr::r(op, rd, rs1, rs2)
            }
        },
    )
}

proptest! {
    #[test]
    fn instruction_encode_decode_roundtrip(instr in arb_instr()) {
        prop_assert_eq!(decode(encode(instr)).unwrap(), instr);
    }

    #[test]
    fn decode_is_stable_under_reencoding(word: u32) {
        // Arbitrary words either fail to decode (illegal opcode) or decode
        // to an instruction whose canonical encoding decodes identically.
        if let Ok(instr) = decode(word) {
            prop_assert_eq!(decode(encode(instr)).unwrap(), instr);
        }
    }

    #[test]
    fn sorting_random_data_on_cpu(mut data in proptest::collection::vec(0u32..100_000, 2..24)) {
        // Generate a bubble-sort program over the given data.
        let n = data.len();
        let words: Vec<String> = data.iter().map(u32::to_string).collect();
        let src = format!(
            r"
        .equ N, {n}
                ldi r1, 0
                li  r3, arr
        outer:
                ldi r2, 0
        inner:
                ldx r4, r3, r2
                addi r5, r2, 1
                ldx r6, r3, r5
                cmp r4, r6
                ble noswap
                stx r3, r2, r6
                stx r3, r5, r4
        noswap:
                addi r2, r2, 1
                cmpi r2, N-1
                blt inner
                addi r1, r1, 1
                cmpi r1, N-1
                blt outer
                halt
        .data
        arr:    .word {words}
        ",
            n = n,
            words = words.join(", "),
        );
        let image = asm::assemble(&src).unwrap();
        let arr = image.label("arr").unwrap();
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: Some(50_000_000),
            ..CpuConfig::default()
        });
        cpu.load_image(&image).unwrap();
        prop_assert_eq!(cpu.run(10_000_000), StopReason::Halted);
        let sorted = cpu.memory().read_block(arr, n).unwrap();
        data.sort_unstable();
        prop_assert_eq!(sorted, data);
    }

    #[test]
    fn register_scan_write_read_roundtrip(
        reg in 1u8..14,
        value: u32,
    ) {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        let cell = format!("R{reg}");
        card.write_cell("internal", &cell, value as u64).unwrap();
        prop_assert_eq!(card.read_cell("internal", &cell).unwrap(), value as u64);
        prop_assert_eq!(card.target().reg(Reg::new(reg)), value);
    }

    #[test]
    fn full_internal_chain_write_is_lossless_for_rw_cells(seed: u64) {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        let layout = card.target().chain_layout("internal").unwrap().clone();
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let image = scanchain::BitVec::from_bits(
            (0..layout.total_bits()).map(|_| next() & 1 == 1),
        );
        card.write_chain("internal", &image).unwrap();
        let read_back = card.read_chain("internal").unwrap();
        for cell in layout.writable_cells() {
            for bit in cell.bit_range() {
                prop_assert_eq!(
                    read_back.get(bit),
                    image.get(bit),
                    "cell {} bit {}",
                    &cell.name,
                    bit
                );
            }
        }
    }

    #[test]
    fn execution_is_deterministic_under_any_inputs(
        inputs in proptest::collection::vec(any::<u32>(), 4),
    ) {
        let wl = workloads_source();
        let image = asm::assemble(&wl).unwrap();
        let run = || {
            let mut cpu = Cpu::new(CpuConfig::default());
            cpu.load_image(&image).unwrap();
            for (port, v) in inputs.iter().enumerate() {
                cpu.set_in_port(port, *v);
            }
            let stop = cpu.run(100_000);
            (stop, cpu.state_vector(), cpu.cycles())
        };
        prop_assert_eq!(run(), run());
    }
}

/// A small port-echo program for the determinism property.
fn workloads_source() -> String {
    r"
        in r1, 0
        in r2, 1
        add r3, r1, r2
        out 0, r3
        xor r4, r1, r2
        out 1, r4
        halt
    "
    .to_string()
}

#[test]
fn disassembly_of_workloads_reassembles_equivalently() {
    // Every code word of every workload disassembles to text that, when
    // fed back through the assembler as a standalone instruction, encodes
    // to the original word (branch displacements are relative, so they are
    // checked in a zero-origin context).
    for wl in workloads_list() {
        for (addr, &word) in wl.0.iter().enumerate() {
            let text = thor::asm::disassemble(word);
            if text.starts_with(".word") {
                continue;
            }
            let op = decode(word).unwrap().opcode();
            if matches!(
                op,
                Opcode::Br
                    | Opcode::Beq
                    | Opcode::Bne
                    | Opcode::Blt
                    | Opcode::Bge
                    | Opcode::Bgt
                    | Opcode::Ble
                    | Opcode::Call
            ) {
                continue; // label-relative syntax differs from display form
            }
            let reassembled =
                asm::assemble(&text).unwrap_or_else(|e| panic!("word {addr} `{text}`: {e}"));
            assert_eq!(reassembled.words[0], word, "word {addr} `{text}`");
        }
    }
}

fn workloads_list() -> Vec<(Vec<u32>, String)> {
    // Reuse the asm test corpus: assemble a few known programs.
    let sources = [
        "ldi r1, 5\nadd r2, r1, r1\nst r0, r2, 40\nld r3, r0, 40\nhalt",
        "in r1, 0\nout 1, r1\nsync 3\ntrap 9",
        "push r1\npop r2\nmov r3, r2\nret",
    ];
    sources
        .iter()
        .map(|s| (asm::assemble(s).unwrap().words, s.to_string()))
        .collect()
}

/// Everything a tool can observe of a core after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// pc, registers, flags, latches, ports, iterations, detection.
    state: StateVector,
    instret: u64,
    cycles: u64,
    detection: Option<Detection>,
    halted: bool,
    edm: EdmSet,
    debug_instructions: u64,
    debug_cycles: u64,
    debug_pending: Option<DebugEvent>,
    icache: CacheStats,
    dcache: CacheStats,
    chains: Vec<BitVec>,
    memory: thor::Memory,
}

fn observe(cpu: &Cpu) -> Observed {
    Observed {
        state: cpu.state_vector(),
        instret: cpu.instructions(),
        cycles: cpu.cycles(),
        detection: cpu.detection(),
        halted: cpu.is_halted(),
        edm: cpu.edm(),
        debug_instructions: cpu.debug_unit().instruction_count(),
        debug_cycles: cpu.debug_unit().cycle_count(),
        debug_pending: cpu.debug_unit().pending(),
        icache: cpu.icache_stats(),
        dcache: cpu.dcache_stats(),
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

/// One pre-runtime setup: a program, bit flips, protection, EDMs and a
/// breakpoint.
#[derive(Debug)]
struct Setup {
    image: asm::Image,
    watchdog: Option<u64>,
    flips: Vec<(u32, u8)>,
    protect_code: bool,
    edm: EdmSet,
    breakpoint: Option<DebugCondition>,
}

impl Setup {
    fn core(&self) -> Cpu {
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: self.watchdog,
            edm: self.edm,
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
/// observable after every round. Between rounds the tool does what a
/// campaign does after a breakpoint: unlatch the event and disarm, so
/// later rounds take the fast path.
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

fn pick<T: std::fmt::Debug + Clone>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

/// Instructions that keep a random program alive long enough to loop,
/// touch data and reach the ports and `sync`.
fn arb_live_instr() -> impl Strategy<Value = Instr> {
    use Opcode::*;
    prop_oneof![
        arb_instr(),
        (1u8..16, arb_reg(), -64i16..64).prop_map(|(rd, rs1, imm)| Instr::i(
            Addi,
            Reg::new(rd),
            rs1,
            imm
        )),
        (
            pick(vec![Add, Sub, Mul, And, Or, Xor, Shl, Shr, Asr, Cmp, Mov]),
            1u8..16,
            arb_reg(),
            arb_reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::r(op, Reg::new(rd), rs1, rs2)),
        (arb_reg(), -8i16..8).prop_map(|(rs1, imm)| Instr::i(Cmpi, Reg::new(0), rs1, imm)),
        (1u8..16, 0..PROGRAM_DATA).prop_map(|(rd, word)| Instr::i(
            Ld,
            Reg::new(rd),
            Reg::new(0),
            (PROGRAM_CODE + word) as i16
        )),
        // Stores may land in code: an access violation with protection
        // on, self-modifying code with it off.
        (arb_reg(), 0..PROGRAM_CODE + PROGRAM_DATA).prop_map(|(rs, word)| Instr::i(
            St,
            rs,
            Reg::new(0),
            word as i16
        )),
        (pick(vec![Br, Beq, Bne, Blt, Bge, Bgt, Ble]), -6i16..6).prop_map(|(op, words)| Instr::i(
            op,
            Reg::new(0),
            Reg::new(0),
            words
        )),
        (0..PROGRAM_CODE).prop_map(|word| Instr::i(Call, Reg::new(0), Reg::new(0), word as i16)),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs1)| Instr::r(Push, rd, rs1, Reg::new(0))),
        arb_reg().prop_map(|rd| Instr::r(Pop, rd, Reg::new(0), Reg::new(0))),
        // Mostly syncs and port I/O, sometimes a return, halt or trap.
        (
            pick(vec![In, Out, Sync, Sync, Ret, Halt, Trap]),
            arb_reg(),
            0i16..4
        )
            .prop_map(|(op, r, imm)| if Instr::uses_imm(op) {
                Instr::i(op, r, r, imm)
            } else {
                Instr::r(op, r, r, r)
            }),
    ]
}

fn arb_program() -> impl Strategy<Value = asm::Image> {
    (
        proptest::collection::vec(arb_live_instr(), 4..PROGRAM_CODE as usize),
        proptest::collection::vec(any::<u32>(), PROGRAM_DATA as usize),
    )
        .prop_map(|(instrs, data)| {
            let mut words: Vec<u32> = instrs.into_iter().map(encode).collect();
            let code_words = words.len() as u32;
            // Zero padding (`nop`) up to the data block: with control-flow
            // checking on, a fall-through past the code segment is an
            // error; with it off, the padding runs.
            words.resize(PROGRAM_CODE as usize, 0);
            words.extend(data);
            asm::Image {
                words,
                code_words,
                entry: 0,
                labels: Default::default(),
            }
        })
}

fn arb_breakpoint() -> impl Strategy<Value = Option<DebugCondition>> {
    proptest::option::of(prop_oneof![
        (0u32..64).prop_map(DebugCondition::PcEquals),
        (0u64..400).prop_map(DebugCondition::InstructionCount),
        (0u32..128).prop_map(DebugCondition::DataAccess),
        (0u32..128).prop_map(DebugCondition::DataWrite),
        Just(DebugCondition::BranchExecuted),
        Just(DebugCondition::CallExecuted),
        (0u64..2400).prop_map(DebugCondition::CycleCount),
    ])
}

/// All EDMs on half the time, otherwise each one on or off at random.
fn arb_edm() -> impl Strategy<Value = EdmSet> {
    prop_oneof![
        Just(EdmSet::all_on()),
        any::<u8>().prop_map(EdmSet::from_bits),
    ]
}

fn arb_setup(image: impl Strategy<Value = asm::Image>) -> impl Strategy<Value = Setup> {
    (
        image,
        proptest::option::of(50u64..10_000),
        // Word indices are reduced modulo the image size: code and data.
        proptest::collection::vec((any::<u32>(), 0u8..32), 0..4),
        any::<bool>(),
        arb_edm(),
        arb_breakpoint(),
    )
        .prop_map(|(image, watchdog, flips, protect_code, edm, breakpoint)| {
            let words = image.words.len() as u32;
            Setup {
                flips: flips.into_iter().map(|(w, bit)| (w % words, bit)).collect(),
                image,
                watchdog,
                protect_code,
                edm,
                breakpoint,
            }
        })
}

fn arb_workload_image() -> impl Strategy<Value = asm::Image> {
    pick(workloads::all().into_iter().map(|w| w.image).collect())
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
