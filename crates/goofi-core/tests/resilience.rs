//! Campaign resilience tests: retry/skip/abort policies, watchdog hang
//! detection, crash-safe journaling and resume with `parentExperiment`
//! re-runs — driven by a scripted target that can fail or hang on demand.

use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultModel, FaultSpec};
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::TerminationCause;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi_core::preinject::StepAccess;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::RealFs;
use goofi_core::{GoofiError, RunBudget, RunEvent, TargetAccess};
use goofidb::Database;
use scanchain::{BitVec, CellAccess, ChainLayout};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// A deterministic target whose experiments can be scripted to fail or
/// hang, keyed by the experiment's trigger time (each campaign fault gets
/// a distinct trigger, so the key identifies the experiment — and the
/// reference run, which sets no breakpoint, is never affected).
#[derive(Clone)]
struct FlakyTarget {
    layout: ChainLayout,
    chain: BitVec,
    memory: Vec<u32>,
    instructions: u64,
    cycles: u64,
    workload_len: u64,
    breakpoint: Option<u64>,
    current_trigger: Option<u64>,
    halted: bool,
    injected: bool,
    /// trigger time → how many more run_workload calls fail (pre-injection).
    fail_plan: HashMap<u64, u32>,
    /// trigger times whose post-injection run stalls while burning cycles.
    hang_cycles: HashSet<u64>,
    /// trigger times whose post-injection run stalls burning nothing but
    /// wall time.
    hang_wall: HashSet<u64>,
}

impl FlakyTarget {
    fn new(workload_len: u64) -> Self {
        let layout = ChainLayout::builder("internal")
            .cell("A", 8, CellAccess::ReadWrite)
            .cell("S", 4, CellAccess::ReadOnly)
            .build();
        FlakyTarget {
            chain: BitVec::zeros(layout.total_bits()),
            layout,
            memory: vec![0; 64],
            instructions: 0,
            cycles: 0,
            workload_len,
            breakpoint: None,
            current_trigger: None,
            halted: false,
            injected: false,
            fail_plan: HashMap::new(),
            hang_cycles: HashSet::new(),
            hang_wall: HashSet::new(),
        }
    }

    fn exec_one(&mut self) -> Option<RunEvent> {
        if self.halted {
            return Some(RunEvent::Halted);
        }
        if self.breakpoint == Some(self.instructions) {
            return Some(RunEvent::Breakpoint {
                at_instruction: self.instructions,
                at_cycle: self.cycles,
            });
        }
        self.instructions += 1;
        self.cycles += 1;
        if self.instructions >= self.workload_len {
            self.halted = true;
            return Some(RunEvent::Halted);
        }
        None
    }
}

impl TargetAccess for FlakyTarget {
    fn target_name(&self) -> &str {
        "flaky"
    }
    fn init_test_card(&mut self) -> goofi_core::Result<()> {
        Ok(())
    }
    fn load_workload(&mut self, _image: &WorkloadImage) -> goofi_core::Result<()> {
        self.instructions = 0;
        self.cycles = 0;
        self.halted = false;
        self.injected = false;
        self.breakpoint = None;
        self.current_trigger = None;
        self.chain = BitVec::zeros(self.layout.total_bits());
        Ok(())
    }
    fn reset_target(&mut self) -> goofi_core::Result<()> {
        Ok(())
    }
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> goofi_core::Result<()> {
        for (i, w) in data.iter().enumerate() {
            self.memory[addr as usize + i] = *w;
        }
        Ok(())
    }
    fn read_memory(&mut self, addr: u32, len: usize) -> goofi_core::Result<Vec<u32>> {
        Ok(self.memory[addr as usize..addr as usize + len].to_vec())
    }
    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> goofi_core::Result<()> {
        self.memory[addr as usize] ^= 1 << bit;
        Ok(())
    }
    fn memory_size(&self) -> u32 {
        self.memory.len() as u32
    }
    fn set_breakpoint(&mut self, trigger: Trigger) -> goofi_core::Result<()> {
        match trigger {
            Trigger::AfterInstructions(n) => {
                self.breakpoint = Some(n);
                self.current_trigger = Some(n);
                Ok(())
            }
            other => Err(GoofiError::Config(format!(
                "flaky target only supports instruction-count triggers, got {other}"
            ))),
        }
    }
    fn clear_breakpoints(&mut self) -> goofi_core::Result<()> {
        self.breakpoint = None;
        Ok(())
    }
    fn run_workload(&mut self, budget: RunBudget) -> goofi_core::Result<RunEvent> {
        if let Some(t) = self.current_trigger {
            if !self.injected {
                if let Some(n) = self.fail_plan.get_mut(&t) {
                    if *n > 0 {
                        *n -= 1;
                        return Err(GoofiError::Target("flaky test card link".into()));
                    }
                }
            } else if self.hang_cycles.contains(&t) {
                // Stalled hardware: cycles tick, nothing retires.
                self.cycles += budget.max_instructions.max(1);
                return Ok(RunEvent::BudgetExhausted);
            } else if self.hang_wall.contains(&t) {
                // Dead link: nothing advances at all.
                return Ok(RunEvent::BudgetExhausted);
            }
        }
        for _ in 0..budget.max_instructions {
            if let Some(ev) = self.exec_one() {
                return Ok(ev);
            }
        }
        Ok(RunEvent::BudgetExhausted)
    }
    fn step_instruction(&mut self) -> goofi_core::Result<Option<RunEvent>> {
        Ok(self.exec_one())
    }
    fn chain_layouts(&self) -> Vec<ChainLayout> {
        vec![self.layout.clone()]
    }
    fn read_scan_chain(&mut self, chain: &str) -> goofi_core::Result<BitVec> {
        assert_eq!(chain, "internal");
        Ok(self.chain.clone())
    }
    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> goofi_core::Result<()> {
        assert_eq!(chain, "internal");
        self.chain = self.layout.masked_update(&self.chain, bits).unwrap();
        self.injected = true;
        Ok(())
    }
    fn write_input_ports(&mut self, _inputs: &[u32]) -> goofi_core::Result<()> {
        Ok(())
    }
    fn read_output_ports(&mut self) -> goofi_core::Result<Vec<u32>> {
        Ok(vec![self.instructions as u32])
    }
    fn instructions_executed(&self) -> u64 {
        self.instructions
    }
    fn cycles_executed(&self) -> u64 {
        self.cycles
    }
    fn iterations_completed(&self) -> u64 {
        0
    }
    fn step_traced(&mut self) -> goofi_core::Result<(Option<RunEvent>, StepAccess)> {
        let ev = self.exec_one();
        Ok((
            ev,
            StepAccess {
                reads: vec![],
                writes: vec!["internal:A".into()],
            },
        ))
    }
}

/// Experiment `i` triggers at instruction `10 * (i + 1)`.
fn trigger_of(index: usize) -> u64 {
    10 * (index as u64 + 1)
}

fn campaign_n(n: usize, policy: ExperimentPolicy) -> Campaign {
    let faults: Vec<FaultSpec> = (0..n)
        .map(|i| FaultSpec {
            locations: vec![FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "A".into(),
                bit: 2,
            }],
            model: FaultModel::TransientBitFlip,
            trigger: Trigger::AfterInstructions(trigger_of(i)),
        })
        .collect();
    Campaign::builder("mock")
        .workload(WorkloadImage {
            name: "mock-wl".into(),
            words: vec![0],
            code_words: 1,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 1_000_000,
            max_iterations: None,
        })
        .policy(policy)
        .faults(faults)
        .build()
        .unwrap()
}

fn run_serial(
    target: &mut FlakyTarget,
    c: &Campaign,
    monitor: &ProgressMonitor,
) -> goofi_core::Result<CampaignResult> {
    algorithms::run_campaign(target, c, monitor, &mut envsim::NullEnvironment)
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goofi-resilience-{}-{name}", std::process::id()));
    p
}

#[test]
fn fail_fast_aborts_but_preserves_completed_records() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(2), u32::MAX);
    let c = campaign_n(4, ExperimentPolicy::fail_fast());
    let err = run_serial(&mut target, &c, &ProgressMonitor::new(4)).unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 2);
            assert_eq!(failure.name, "mock/exp00002");
            assert_eq!(failure.attempts, 1);
            assert_eq!(partial.records.len(), 2);
            assert_eq!(partial.records[0].name, "mock/exp00000");
            assert_eq!(partial.reference.termination, TerminationCause::WorkloadEnd);
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn skip_and_continue_records_failure_and_finishes() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(2), u32::MAX);
    let c = campaign_n(4, ExperimentPolicy::skip_and_continue());
    let monitor = ProgressMonitor::new(4);
    let result = run_serial(&mut target, &c, &monitor).unwrap();
    assert_eq!(result.records.len(), 3);
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].index, 2);
    assert!(result.failures[0].error.contains("flaky test card link"));
    let progress = monitor.snapshot();
    assert_eq!(progress.completed, 3);
    assert_eq!(progress.failed, 1);
    assert_eq!(progress.fraction(), 1.0);
}

#[test]
fn retry_then_skip_recovers_a_transient_failure() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(1), 2); // fails twice, then works
    let c = campaign_n(4, ExperimentPolicy::retry_then_skip(3));
    let monitor = ProgressMonitor::new(4);
    let result = run_serial(&mut target, &c, &monitor).unwrap();
    assert_eq!(result.records.len(), 4);
    assert!(result.failures.is_empty());
    assert_eq!(result.records[1].name, "mock/exp00001");
    assert_eq!(monitor.snapshot().retried, 2);
}

#[test]
fn retry_then_fail_aborts_after_exhausting_retries() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(1), u32::MAX);
    let c = campaign_n(3, ExperimentPolicy::retry_then_fail(2));
    let err = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 1);
            assert_eq!(failure.attempts, 3); // initial try + 2 retries
            assert_eq!(partial.records.len(), 1);
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn cycle_watchdog_classifies_a_hung_workload_as_timeout() {
    let mut target = FlakyTarget::new(200);
    target.hang_cycles.insert(trigger_of(1));
    let c = campaign_n(
        3,
        ExperimentPolicy::default().with_watchdog(WatchdogBudget {
            max_cycles: Some(5_000),
            max_wall_ms: None,
        }),
    );
    let result = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap();
    assert_eq!(result.reference.termination, TerminationCause::WorkloadEnd);
    assert_eq!(result.records[0].termination, TerminationCause::WorkloadEnd);
    assert_eq!(result.records[1].termination, TerminationCause::Timeout);
    assert_eq!(result.records[2].termination, TerminationCause::WorkloadEnd);
}

#[test]
fn wall_clock_watchdog_classifies_a_dead_target_as_timeout() {
    let mut target = FlakyTarget::new(200);
    target.hang_wall.insert(trigger_of(0));
    let c = campaign_n(
        2,
        ExperimentPolicy::default().with_watchdog(WatchdogBudget {
            max_cycles: None,
            max_wall_ms: Some(50),
        }),
    );
    let result = run_serial(&mut target, &c, &ProgressMonitor::new(2)).unwrap();
    assert_eq!(result.records[0].termination, TerminationCause::Timeout);
    assert_eq!(result.records[1].termination, TerminationCause::WorkloadEnd);
}

#[test]
fn parallel_runner_reports_lowest_index_failure_with_partials() {
    // Both experiment 0 and 1 fail, on different workers, at roughly the
    // same time: the reported failure must deterministically be index 0.
    let make_target = || {
        let mut t = FlakyTarget::new(200);
        t.fail_plan.insert(trigger_of(0), u32::MAX);
        t.fail_plan.insert(trigger_of(1), u32::MAX);
        t
    };
    let c = campaign_n(6, ExperimentPolicy::fail_fast());
    let err = runner::execute(
        &c,
        &ProgressMonitor::new(6),
        Targets::factory(make_target),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 0);
            assert!(partial
                .records
                .iter()
                .all(|r| r.name != "mock/exp00000" && r.name != "mock/exp00001"));
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn parallel_runner_skip_policy_matches_serial() {
    let make_target = || {
        let mut t = FlakyTarget::new(200);
        t.fail_plan.insert(trigger_of(3), u32::MAX);
        t
    };
    let c = campaign_n(6, ExperimentPolicy::skip_and_continue());
    let mut serial_target = make_target();
    let serial = run_serial(&mut serial_target, &c, &ProgressMonitor::new(6)).unwrap();
    let parallel = runner::execute(
        &c,
        &ProgressMonitor::new(6),
        Targets::factory(make_target),
        RunOptions {
            workers: 3,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.failures.len(), 1);
    assert_eq!(serial.failures[0].index, 3);
}

#[test]
fn resume_reruns_failed_experiments_as_linked_children() {
    let journal = temp_path("rerun.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(3, ExperimentPolicy::skip_and_continue());

    // First run: experiment 1 fails and is journaled as a failure.
    let mut flaky = FlakyTarget::new(200);
    flaky.fail_plan.insert(trigger_of(1), u32::MAX);
    let mut j = ExperimentJournal::create(&journal, "mock").unwrap();
    let first = runner::execute(
        &c,
        &ProgressMonitor::new(3),
        Targets::Own(&mut flaky, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut j),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(j);
    assert_eq!(first.failures.len(), 1);

    // The flakiness is gone; resume re-runs experiment 1 as a child of
    // the original experiment (paper §2.3 parentExperiment linking).
    let (mut journal_file, state) =
        ExperimentJournal::reopen_with(&RealFs, &journal, &c.name).unwrap();
    let resumed = runner::execute(
        &c,
        &ProgressMonitor::new(3),
        Targets::factory(|| FlakyTarget::new(200)),
        RunOptions {
            workers: 2,
            journal: Some(&mut journal_file),
            resume: Some(state),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.records.len(), 3);
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.records[0], first.records[0]);
    assert_eq!(resumed.records[2], first.records[1]);
    let rerun = &resumed.records[1];
    assert_eq!(rerun.name, "mock/exp00001/rerun1");
    assert_eq!(rerun.parent.as_deref(), Some("mock/exp00001"));
    assert_eq!(rerun.termination, TerminationCause::WorkloadEnd);

    // The journal now supersedes the failure with the re-run record, and
    // the records import cleanly into the database under the child name.
    let state = ExperimentJournal::load(&journal, "mock").unwrap();
    assert!(state.failed.is_empty());
    assert_eq!(state.completed.len(), 3);
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, &c).unwrap();
    let imported = dbio::import_journal(&mut db, &journal, "mock").unwrap();
    assert_eq!(imported, 4); // reference + 3 experiments
    let rerun_row = dbio::load_experiment(&db, "mock/exp00001/rerun1").unwrap();
    assert_eq!(rerun_row.parent.as_deref(), Some("mock/exp00001"));
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn resume_after_any_crash_point_reproduces_the_uninterrupted_run() {
    let journal = temp_path("crash.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(6, ExperimentPolicy::default());

    // Uninterrupted journaled run — the ground truth.
    let mut target = FlakyTarget::new(200);
    let mut j = ExperimentJournal::create(&journal, "mock").unwrap();
    let full = runner::execute(
        &c,
        &ProgressMonitor::new(6),
        Targets::Own(&mut target, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut j),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(j);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 + 1 + 6); // header, campaign, reference, experiments

    // Crash after every possible number of journaled lines (even before
    // the reference run), then resume: the result must be identical.
    for crash_after in 2..=lines.len() {
        let partial = temp_path(&format!("crash-{crash_after}.gjl"));
        std::fs::write(&partial, format!("{}\n", lines[..crash_after].join("\n"))).unwrap();
        let (mut journal_file, state) =
            ExperimentJournal::reopen_with(&RealFs, &partial, &c.name).unwrap();
        let resumed = runner::execute(
            &c,
            &ProgressMonitor::new(6),
            Targets::factory(|| FlakyTarget::new(200)),
            RunOptions {
                workers: 2,
                journal: Some(&mut journal_file),
                resume: Some(state),
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("resume after {crash_after} lines: {e}"));
        assert_eq!(resumed, full, "crash after {crash_after} journal lines");
        // The journal is whole again after the resume.
        let state = ExperimentJournal::load(&partial, "mock").unwrap();
        assert_eq!(state.completed.len(), 6);
        std::fs::remove_file(&partial).unwrap();
    }

    // A crash mid-append (torn final line) resumes identically too.
    let torn = temp_path("crash-torn.gjl");
    std::fs::write(&torn, &text[..text.len() - 9]).unwrap();
    let (mut journal_file, state) =
        ExperimentJournal::reopen_with(&RealFs, &torn, &c.name).unwrap();
    let resumed = runner::execute(
        &c,
        &ProgressMonitor::new(6),
        Targets::factory(|| FlakyTarget::new(200)),
        RunOptions {
            workers: 2,
            journal: Some(&mut journal_file),
            resume: Some(state),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed, full, "torn journal tail");
    std::fs::remove_file(&torn).unwrap();
}

#[test]
fn resume_on_a_missing_journal_runs_the_full_campaign() {
    let journal = temp_path("fresh.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(3, ExperimentPolicy::default());
    let mut target = FlakyTarget::new(200);
    let serial = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap();
    let (mut journal_file, state) =
        ExperimentJournal::reopen_with(&RealFs, &journal, &c.name).unwrap();
    let resumed = runner::execute(
        &c,
        &ProgressMonitor::new(3),
        Targets::factory(|| FlakyTarget::new(200)),
        RunOptions {
            workers: 2,
            journal: Some(&mut journal_file),
            resume: Some(state),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed, serial);
    assert!(journal.exists(), "resume created the journal");
    std::fs::remove_file(&journal).unwrap();
}
