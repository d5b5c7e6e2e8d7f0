//! Resolved cell slots against names. `ChainLayout::write_slot` and
//! `read_slot` must act exactly like `write_cell` and `read_cell`, errors
//! included, and the debug unit, which captures and updates through
//! slots, must match a reference encoder that writes every cell by name.

use proptest::prelude::*;
use scanchain::{
    BitVec, BusEvent, CellAccess, ChainLayout, DebugCondition, DebugUnit, DEBUG_SLOTS,
};

fn arb_layout() -> impl Strategy<Value = ChainLayout> {
    proptest::collection::vec((1usize..=64, any::<bool>()), 1..12).prop_map(|cells| {
        let mut b = ChainLayout::builder("random");
        for (i, (width, ro)) in cells.into_iter().enumerate() {
            let access = if ro {
                CellAccess::ReadOnly
            } else {
                CellAccess::ReadWrite
            };
            b = b.cell(format!("C{i}"), width, access);
        }
        b.build()
    })
}

fn arb_condition() -> impl Strategy<Value = DebugCondition> {
    prop_oneof![
        any::<u32>().prop_map(DebugCondition::PcEquals),
        any::<u64>().prop_map(DebugCondition::InstructionCount),
        any::<u32>().prop_map(DebugCondition::DataAccess),
        any::<u32>().prop_map(DebugCondition::DataWrite),
        Just(DebugCondition::BranchExecuted),
        Just(DebugCondition::CallExecuted),
        (0u64..200).prop_map(DebugCondition::CycleCount),
    ]
}

fn arb_event() -> impl Strategy<Value = BusEvent> {
    prop_oneof![
        (0u32..16).prop_map(|pc| BusEvent::Fetch { pc }),
        (0u32..16).prop_map(|addr| BusEvent::DataRead { addr }),
        (0u32..16).prop_map(|addr| BusEvent::DataWrite { addr }),
        (0u32..16).prop_map(|target| BusEvent::Branch { target }),
        (0u32..16).prop_map(|target| BusEvent::Call { target }),
    ]
}

/// A debug unit armed with random conditions and driven by random bus
/// activity, so its counters, latch and hit slot vary.
fn arb_unit() -> impl Strategy<Value = DebugUnit> {
    (
        proptest::collection::vec(arb_condition(), 0..=DEBUG_SLOTS),
        proptest::collection::vec((arb_event(), 0u64..8), 0..40),
    )
        .prop_map(|(conditions, activity)| {
            let mut unit = DebugUnit::new();
            for c in conditions {
                unit.arm(c);
            }
            for (event, cycles) in activity {
                unit.observe(event);
                unit.on_cycles(cycles);
            }
            unit
        })
}

fn write(layout: &ChainLayout, bits: &mut BitVec, cell: &str, value: u64) {
    layout.write_cell(bits, cell, value).unwrap();
}

/// The reference encoder: every debug cell written by name.
fn reference_debug(unit: &DebugUnit) -> BitVec {
    let layout = DebugUnit::chain_layout();
    let mut bits = BitVec::zeros(layout.total_bits());
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
        write(&layout, &mut bits, &format!("COND{i}.KIND"), kind);
        write(&layout, &mut bits, &format!("COND{i}.OPERAND"), operand);
    }
    let pending = unit.pending();
    let hit_slot = pending
        .and_then(|ev| unit.conditions().iter().position(|&c| c == ev.condition))
        .unwrap_or(0);
    write(&layout, &mut bits, "HIT", pending.is_some() as u64);
    write(&layout, &mut bits, "HIT_SLOT", hit_slot as u64);
    write(&layout, &mut bits, "ICOUNT", unit.instruction_count());
    write(&layout, &mut bits, "CCOUNT", unit.cycle_count());
    bits
}

proptest! {
    #[test]
    fn slots_act_like_names(
        layout in arb_layout(),
        values in proptest::collection::vec((any::<u64>(), 0u32..65), 12),
        short: bool,
    ) {
        let len = layout.total_bits() - short as usize;
        let mut by_name = BitVec::zeros(len);
        let mut by_slot = BitVec::zeros(len);
        for (cell, &(value, bits)) in layout.cells().iter().zip(&values) {
            // Values of up to 64 significant bits: some too wide.
            let value = value.checked_shr(64 - bits).unwrap_or(0);
            let slot = layout.slot(&cell.name).unwrap();
            let named = layout.write_cell(&mut by_name, &cell.name, value);
            let slotted = layout.write_slot(&mut by_slot, slot, value);
            prop_assert_eq!(&slotted, &named);
            prop_assert_eq!(
                layout.read_slot(&by_slot, slot),
                layout.read_cell(&by_name, &cell.name)
            );
        }
        prop_assert_eq!(by_slot, by_name);
        prop_assert_eq!(layout.slot("missing"), None);
    }

    #[test]
    fn debug_capture_matches_the_name_based_encoder(unit in arb_unit()) {
        prop_assert_eq!(unit.capture().unwrap(), reference_debug(&unit));
    }

    #[test]
    fn debug_update_then_capture_round_trips_every_writable_cell(
        unit in arb_unit(),
        noise: u64,
    ) {
        // Canonical condition encodings, with arbitrary read-only bits.
        let layout = DebugUnit::chain_layout();
        let mut image = reference_debug(&unit);
        for cell in layout.cells().iter().filter(|c| c.access == CellAccess::ReadOnly) {
            let mask = if cell.width == 64 { u64::MAX } else { (1 << cell.width) - 1 };
            write(&layout, &mut image, &cell.name, noise & mask);
        }
        let mut other = DebugUnit::new();
        other.update(&image).unwrap();
        prop_assert_eq!(other.conditions(), unit.conditions());
        let captured = other.capture().unwrap();
        for cell in layout.writable_cells() {
            prop_assert_eq!(
                layout.read_cell(&captured, &cell.name).unwrap(),
                layout.read_cell(&image, &cell.name).unwrap(),
                "cell {}",
                &cell.name
            );
        }
    }
}
