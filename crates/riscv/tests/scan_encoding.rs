//! The scan port encodes and decodes from cell slots resolved once from
//! the chain layouts. These properties hold it to a reference encoder that
//! writes every cell by name through `ChainLayout::write_cell`, over
//! random core states, and check that an update followed by a capture
//! gives back every writable cell.

use proptest::prelude::*;
use riscv::{scan, ChainSet, Cpu, CpuConfig, Reg, PORT_COUNT};
use scanchain::{BitVec, ChainLayout, DebugCondition, DebugUnit, ScanTarget};

/// A core state reached by running a workload with random inputs and
/// debug conditions, then scrambled with random scan images.
#[derive(Debug)]
struct State {
    workload: usize,
    inputs: [u32; PORT_COUNT],
    conditions: Vec<DebugCondition>,
    budget: u64,
    /// `(chain index, image seed)`: random images updated into the
    /// internal and boundary chains after the run.
    scrambles: Vec<(usize, u64)>,
}

impl State {
    fn cpu(&self) -> (Cpu, [u32; PORT_COUNT]) {
        let wl = &workloads::riscv_all()[self.workload];
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&wl.image).unwrap();
        for (port, &v) in self.inputs.iter().enumerate() {
            cpu.set_in_port(port, v);
        }
        for &c in &self.conditions {
            cpu.debug_unit_mut().arm(c);
        }
        cpu.run(self.budget);
        let mut in_ports = self.inputs;
        for &(chain, seed) in &self.scrambles {
            let name = ChainSet::names()[chain];
            let layout = cpu.chain_layout(name).unwrap().clone();
            let image = random_image(&layout, seed);
            cpu.update_chain(name, &image).unwrap();
            if name == scan::BOUNDARY {
                for (port, v) in in_ports.iter_mut().enumerate() {
                    *v = layout.read_cell(&image, &format!("IN_PORT{port}")).unwrap() as u32;
                }
            }
        }
        (cpu, in_ports)
    }
}

fn random_image(layout: &ChainLayout, seed: u64) -> BitVec {
    let mut x = seed | 1;
    BitVec::from_bits((0..layout.total_bits()).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1 == 1
    }))
}

fn arb_condition() -> impl Strategy<Value = DebugCondition> {
    prop_oneof![
        (0u32..400).prop_map(|w| DebugCondition::PcEquals(w * 4)),
        (0u64..5000).prop_map(DebugCondition::InstructionCount),
        (0u32..2000).prop_map(DebugCondition::DataAccess),
        (0u32..2000).prop_map(DebugCondition::DataWrite),
        Just(DebugCondition::BranchExecuted),
        Just(DebugCondition::CallExecuted),
        (0u64..20_000).prop_map(DebugCondition::CycleCount),
    ]
}

fn arb_state() -> impl Strategy<Value = State> {
    (
        0..workloads::riscv_all().len(),
        proptest::collection::vec(any::<u32>(), PORT_COUNT),
        proptest::collection::vec(arb_condition(), 0..5),
        0u64..5000,
        // Chain indices 0 and 1: internal and boundary.
        proptest::collection::vec((0usize..2, any::<u64>()), 0..3),
    )
        .prop_map(|(workload, inputs, conditions, budget, scrambles)| State {
            workload,
            inputs: inputs.try_into().unwrap(),
            conditions,
            budget,
            scrambles,
        })
}

fn write(layout: &ChainLayout, bits: &mut BitVec, cell: &str, value: u64) {
    layout.write_cell(bits, cell, value).unwrap();
}

/// The reference encoder: every cell written by name.
fn reference_capture(cpu: &Cpu, in_ports: &[u32; PORT_COUNT], chain: &str) -> BitVec {
    let layout = cpu.chain_layout(chain).unwrap();
    let mut bits = BitVec::zeros(layout.total_bits());
    match chain {
        scan::INTERNAL => {
            write(layout, &mut bits, "PC", cpu.pc() as u64);
            for i in 0..Reg::COUNT {
                let value = cpu.reg(Reg::new(i as u8));
                write(layout, &mut bits, &format!("X{i}"), value as u64);
            }
            let detect = cpu.detection().map_or(0, |d| d.encode());
            write(layout, &mut bits, "DETECT", detect as u64);
            write(layout, &mut bits, "ITER", cpu.iterations() & 0xFFFF_FFFF);
            write(layout, &mut bits, "HALTED", cpu.is_halted() as u64);
        }
        scan::BOUNDARY => {
            for (i, &v) in in_ports.iter().enumerate() {
                write(layout, &mut bits, &format!("IN_PORT{i}"), v as u64);
                write(
                    layout,
                    &mut bits,
                    &format!("OUT_PORT{i}"),
                    cpu.out_port(i) as u64,
                );
            }
            write(
                layout,
                &mut bits,
                "ERROR_PIN",
                cpu.detection().is_some() as u64,
            );
            write(layout, &mut bits, "HALT_PIN", cpu.is_halted() as u64);
        }
        scan::DEBUG => reference_debug(layout, &mut bits, cpu.debug_unit()),
        other => panic!("unknown chain {other}"),
    }
    bits
}

fn reference_debug(layout: &ChainLayout, bits: &mut BitVec, unit: &DebugUnit) {
    for (i, &c) in unit.conditions().iter().enumerate() {
        let (kind, operand) = match c {
            DebugCondition::PcEquals(a) => (1, a as u64),
            DebugCondition::InstructionCount(n) => (2, n),
            DebugCondition::DataAccess(a) => (3, a as u64),
            DebugCondition::DataWrite(a) => (4, a as u64),
            DebugCondition::BranchExecuted => (5, 0),
            DebugCondition::CallExecuted => (6, 0),
            DebugCondition::CycleCount(n) => (7, n),
        };
        write(layout, bits, &format!("COND{i}.KIND"), kind);
        write(layout, bits, &format!("COND{i}.OPERAND"), operand);
    }
    let pending = unit.pending();
    let hit_slot = pending
        .and_then(|ev| unit.conditions().iter().position(|&c| c == ev.condition))
        .unwrap_or(0);
    write(layout, bits, "HIT", pending.is_some() as u64);
    write(layout, bits, "HIT_SLOT", hit_slot as u64);
    write(layout, bits, "ICOUNT", unit.instruction_count());
    write(layout, bits, "CCOUNT", unit.cycle_count());
}

proptest! {
    #[test]
    fn every_chain_capture_matches_the_name_based_encoder(state in arb_state()) {
        let (cpu, in_ports) = state.cpu();
        for chain in ChainSet::names() {
            prop_assert_eq!(
                cpu.capture_chain(chain).unwrap(),
                reference_capture(&cpu, &in_ports, chain),
                "chain {}: {:?}",
                chain,
                state
            );
        }
    }

    #[test]
    fn update_then_capture_round_trips_every_writable_cell(
        state in arb_state(),
        seed: u64,
    ) {
        let (mut cpu, _) = state.cpu();
        for chain in [scan::INTERNAL, scan::BOUNDARY] {
            let image = random_image(cpu.chain_layout(chain).unwrap(), seed);
            assert_round_trip(&mut cpu, chain, &image);
        }
        // The debug chain takes only canonical condition encodings: round
        // trip the conditions the state armed into a fresh core.
        let image = cpu.capture_chain(scan::DEBUG).unwrap();
        assert_round_trip(&mut Cpu::new(CpuConfig::default()), scan::DEBUG, &image);
    }
}

fn assert_round_trip(cpu: &mut Cpu, chain: &str, image: &BitVec) {
    cpu.update_chain(chain, image).unwrap();
    let captured = cpu.capture_chain(chain).unwrap();
    let layout = cpu.chain_layout(chain).unwrap();
    for cell in layout.writable_cells() {
        assert_eq!(
            layout.read_cell(&captured, &cell.name).unwrap(),
            layout.read_cell(image, &cell.name).unwrap(),
            "chain {chain} cell {}",
            cell.name
        );
    }
}
