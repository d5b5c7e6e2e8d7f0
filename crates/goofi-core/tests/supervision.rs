//! Target supervision end-to-end: health probes between experiments, hang
//! confirmation, the staged recovery ladder, graceful degradation of the
//! parallel runner, and resume after a crash mid-recovery — driven by a
//! [`WedgeableTarget`] around the scripted target from the resilience
//! suite.

use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::fault::{FaultLocation, FaultModel, FaultSpec};
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::{ExperimentRecord, TerminationCause, Validity};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi_core::preinject::StepAccess;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::supervisor::{RecoveryStage, RecoveryTrigger, Supervisor, WedgeableTarget};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::RealFs;
use goofi_core::{GoofiError, RunBudget, RunEvent, TargetAccess};
use scanchain::{BitVec, CellAccess, ChainLayout, RecoveryDepth, WedgeConfig, WedgeModel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic, always-healthy scripted target (the resilience suite's
/// target, minus the scripted failures) — the inner target the wedge
/// decorator misbehaves around.
#[derive(Clone)]
struct MockTarget {
    layout: ChainLayout,
    chain: BitVec,
    memory: Vec<u32>,
    instructions: u64,
    cycles: u64,
    workload_len: u64,
    breakpoint: Option<u64>,
    halted: bool,
}

impl MockTarget {
    fn new(workload_len: u64) -> Self {
        let layout = ChainLayout::builder("internal")
            .cell("A", 8, CellAccess::ReadWrite)
            .cell("S", 4, CellAccess::ReadOnly)
            .build();
        MockTarget {
            chain: BitVec::zeros(layout.total_bits()),
            layout,
            memory: vec![0; 64],
            instructions: 0,
            cycles: 0,
            workload_len,
            breakpoint: None,
            halted: false,
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

impl TargetAccess for MockTarget {
    fn target_name(&self) -> &str {
        "mock"
    }
    fn init_test_card(&mut self) -> goofi_core::Result<()> {
        Ok(())
    }
    fn load_workload(&mut self, _image: &WorkloadImage) -> goofi_core::Result<()> {
        self.instructions = 0;
        self.cycles = 0;
        self.halted = false;
        self.breakpoint = None;
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
                Ok(())
            }
            other => Err(GoofiError::Config(format!(
                "mock target only supports instruction-count triggers, got {other}"
            ))),
        }
    }
    fn clear_breakpoints(&mut self) -> goofi_core::Result<()> {
        self.breakpoint = None;
        Ok(())
    }
    fn run_workload(&mut self, budget: RunBudget) -> goofi_core::Result<RunEvent> {
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
            max_instructions: 100_000,
            max_iterations: None,
        })
        .policy(policy)
        .faults(faults)
        .build()
        .unwrap()
}

/// The supervision policy used throughout: a cycle watchdog turns a hang
/// into `Timeout`, and the health-check cadence enables the supervisor
/// (large enough that no *scheduled* probe fires in these short campaigns).
fn supervised_policy() -> ExperimentPolicy {
    ExperimentPolicy::default()
        .with_watchdog(WatchdogBudget {
            max_cycles: Some(5_000),
            max_wall_ms: None,
        })
        .with_health_check(1_000)
}

/// A wedge that hangs the target once, mid-campaign, and only lets go on a
/// real power cycle. The seed is chosen so the reference run (the first
/// armed operation) stays clean — asserted by the tests that rely on it.
fn one_hang_config(recovery: RecoveryDepth) -> WedgeConfig {
    WedgeConfig {
        max_events: Some(1),
        recovery,
        ..WedgeConfig::hang(17, 0.3)
    }
}

/// Where `one_hang_config`'s single hang lands: the index of the first
/// armed operation (1-based) that wedges. Pinned here so every test can
/// assert its preconditions against the actual seeded schedule.
fn first_wedged_op(cfg: WedgeConfig) -> Option<u64> {
    let mut model = WedgeModel::new(cfg);
    for _ in 0..64 {
        if model.advance().is_some() {
            return Some(model.operations());
        }
    }
    None
}

fn run_serial<T: TargetAccess>(
    target: &mut T,
    c: &Campaign,
    monitor: &ProgressMonitor,
) -> goofi_core::Result<CampaignResult> {
    algorithms::run_campaign(target, c, monitor, &mut envsim::NullEnvironment)
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goofi-supervision-{}-{name}", std::process::id()));
    p
}

/// The part of a record supervision must preserve: everything except the
/// (intentionally different) re-run name and parent link.
fn essence(r: &ExperimentRecord) -> (Option<&FaultSpec>, &TerminationCause, String, Validity) {
    (
        r.fault.as_ref(),
        &r.termination,
        r.state.encode(),
        r.validity,
    )
}

#[test]
fn one_hang_seed_wedges_mid_campaign_not_the_reference() {
    // The tests below bank on the shared wedge schedule: the single hang
    // must fire after the reference run (armed operation 1) but early
    // enough to land inside a four-experiment campaign (at most two armed
    // runs per experiment: run-to-breakpoint, continue-to-termination).
    let at = first_wedged_op(one_hang_config(RecoveryDepth::PowerCycle));
    let at = at.expect("seed 17 @ rate 0.3 must wedge within 64 operations");
    assert!(
        (2..=9).contains(&at),
        "hang must land on an experiment run, landed on operation {at}"
    );
}

#[test]
fn hang_is_detected_recovered_and_rerun_to_the_healthy_result() {
    let c = campaign_n(4, supervised_policy());

    // Ground truth: the same campaign against a healthy target.
    let mut healthy = MockTarget::new(200);
    let healthy_result = run_serial(&mut healthy, &c, &ProgressMonitor::new(4)).unwrap();
    assert!(healthy_result.recoveries.is_empty());
    assert!(healthy_result.quarantined.is_empty());

    // Same campaign, same seed, but the target hangs once mid-campaign and
    // only a power cycle un-wedges it.
    let mut wedged = WedgeableTarget::new(
        MockTarget::new(200),
        one_hang_config(RecoveryDepth::PowerCycle),
    );
    let monitor = ProgressMonitor::new(4);
    let result = run_serial(&mut wedged, &c, &monitor).unwrap();

    // The campaign completed with the hang experiment re-run in place:
    // same number of records, identical fault/termination/state outcomes.
    assert_eq!(result.reference, healthy_result.reference);
    assert_eq!(result.records.len(), healthy_result.records.len());
    for (got, want) in result.records.iter().zip(&healthy_result.records) {
        assert_eq!(essence(got), essence(want));
    }
    assert!(result.failures.is_empty());

    // Exactly one record is the `parentExperiment`-linked child replacing
    // the quarantined hang.
    let reruns: Vec<&ExperimentRecord> = result
        .records
        .iter()
        .filter(|r| r.parent.is_some())
        .collect();
    assert_eq!(reruns.len(), 1, "exactly one hang re-run expected");
    let rerun = reruns[0];
    let parent = rerun.parent.as_deref().unwrap();
    assert_eq!(rerun.name, format!("{parent}/rerun1"));

    // The quarantined original is kept for audit, rewritten to TargetHang.
    assert_eq!(result.quarantined.len(), 1);
    assert_eq!(result.quarantined[0].name, parent);
    assert_eq!(
        result.quarantined[0].termination,
        TerminationCause::TargetHang
    );
    assert_eq!(result.quarantined[0].validity, Validity::Invalid);

    // The recovery episode climbed the whole ladder: two soft resets and
    // two card re-inits fail (the wedge needs a power cycle), the power
    // cycle clears it.
    assert_eq!(result.recoveries.len(), 1);
    let episode = &result.recoveries[0];
    assert_eq!(episode.experiment, parent);
    assert_eq!(episode.trigger, RecoveryTrigger::TargetHang);
    assert!(episode.recovered);
    let climbed: Vec<(RecoveryStage, u32, bool)> = episode
        .actions
        .iter()
        .map(|a| (a.stage, a.attempt, a.recovered))
        .collect();
    assert_eq!(
        climbed,
        vec![
            (RecoveryStage::SoftReset, 1, false),
            (RecoveryStage::SoftReset, 2, false),
            (RecoveryStage::ReinitTestCard, 1, false),
            (RecoveryStage::ReinitTestCard, 2, false),
            (RecoveryStage::PowerCycle, 1, true),
        ]
    );

    // Progress counters tell the same story: one confirmation probe plus
    // one probe after every ladder action, only the last one passing.
    let p = monitor.snapshot();
    assert_eq!(p.hangs, 1);
    assert_eq!(p.probes_run, 6);
    assert_eq!(p.probes_failed, 5);
    assert_eq!(p.soft_resets, 2);
    assert_eq!(p.card_reinits, 2);
    assert_eq!(p.power_cycles, 1);
    assert_eq!(p.targets_offline, 0);
    assert_eq!(p.completed, 4);
}

#[test]
fn unrecoverable_serial_target_goes_offline_with_partial_preserved() {
    let c = campaign_n(4, supervised_policy());
    // Same wedge schedule as the recovery test, but nothing clears it.
    let mut wedged =
        WedgeableTarget::new(MockTarget::new(200), one_hang_config(RecoveryDepth::Never));
    let monitor = ProgressMonitor::new(4);
    let err = run_serial(&mut wedged, &c, &monitor).unwrap_err();
    match err {
        GoofiError::TargetOffline { context, partial } => {
            // The episode names the experiment that hung, and everything
            // completed before it is preserved.
            assert_eq!(context, c.experiment_name(partial.records.len()));
            assert_eq!(partial.quarantined.len(), 1);
            assert_eq!(
                partial.quarantined[0].termination,
                TerminationCause::TargetHang
            );
            assert_eq!(partial.recoveries.len(), 1);
            let episode = &partial.recoveries[0];
            assert!(!episode.recovered);
            let last = episode.actions.last().unwrap();
            assert_eq!(last.stage, RecoveryStage::Offline);
            assert_eq!(last.detail, "every recovery stage exhausted");
        }
        other => panic!("expected TargetOffline, got {other:?}"),
    }
    assert_eq!(monitor.snapshot().targets_offline, 1);
}

#[test]
fn parallel_runner_retires_offline_worker_and_redistributes_its_shard() {
    let c = campaign_n(6, supervised_policy());

    // Ground truth: a healthy serial run of the same campaign.
    let mut healthy = MockTarget::new(200);
    let healthy_result = run_serial(&mut healthy, &c, &ProgressMonitor::new(6)).unwrap();

    // Targets are handed out in creation order: the first (the reference
    // target) and one worker are healthy, the other worker's target hangs
    // on its very first run and never recovers.
    let built = AtomicUsize::new(0);
    let make_target = || {
        let config = match built.fetch_add(1, Ordering::SeqCst) {
            1 => WedgeConfig {
                recovery: RecoveryDepth::Never,
                ..WedgeConfig::hang(1, 1.0)
            },
            _ => WedgeConfig::default(),
        };
        WedgeableTarget::new(MockTarget::new(200), config)
    };
    let monitor = ProgressMonitor::new(6);
    let result = runner::execute(
        &c,
        &monitor,
        Targets::factory(make_target),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap();

    // Degraded, not failed: the sick worker's in-flight experiment went
    // back on the queue and the surviving worker finished the campaign
    // with exactly the healthy outcomes.
    assert_eq!(result.reference, healthy_result.reference);
    assert_eq!(result.records, healthy_result.records);
    assert!(result.failures.is_empty());

    // The hang was confirmed, quarantined for audit, and the ladder ran
    // dry on the dead target.
    assert_eq!(result.quarantined.len(), 1);
    assert_eq!(
        result.quarantined[0].termination,
        TerminationCause::TargetHang
    );
    assert_eq!(result.recoveries.len(), 1);
    let episode = &result.recoveries[0];
    assert_eq!(episode.trigger, RecoveryTrigger::TargetHang);
    assert!(!episode.recovered);
    assert_eq!(
        episode.actions.last().unwrap().stage,
        RecoveryStage::Offline
    );

    let p = monitor.snapshot();
    assert_eq!(p.hangs, 1);
    assert_eq!(p.targets_offline, 1);
    assert_eq!(p.completed, 6);
}

#[test]
fn parallel_runner_fails_only_when_every_target_is_offline() {
    let c = campaign_n(6, supervised_policy());
    // The reference target is healthy; both workers' targets are dead on
    // arrival.
    let built = AtomicUsize::new(0);
    let make_target = || {
        let config = match built.fetch_add(1, Ordering::SeqCst) {
            0 => WedgeConfig::default(),
            _ => WedgeConfig {
                recovery: RecoveryDepth::Never,
                ..WedgeConfig::hang(1, 1.0)
            },
        };
        WedgeableTarget::new(MockTarget::new(200), config)
    };
    let monitor = ProgressMonitor::new(6);
    let err = runner::execute(
        &c,
        &monitor,
        Targets::factory(make_target),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    match err {
        GoofiError::TargetOffline { context, partial } => {
            assert!(context.contains("retired"), "context: {context}");
            assert!(partial.records.len() < 6);
            assert_eq!(partial.recoveries.len(), 2);
            assert!(partial.recoveries.iter().all(|r| !r.recovered));
        }
        other => panic!("expected TargetOffline, got {other:?}"),
    }
    assert_eq!(monitor.snapshot().targets_offline, 2);
}

#[test]
fn resume_after_crash_mid_recovery_reruns_the_quarantined_hang() {
    let journal = temp_path("mid-recovery.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(4, supervised_policy());

    // Uninterrupted journaled run against the hanging target — the ground
    // truth, with the hang already resolved as a linked re-run.
    let mut wedged = WedgeableTarget::new(
        MockTarget::new(200),
        one_hang_config(RecoveryDepth::PowerCycle),
    );
    let mut j = ExperimentJournal::create(&journal, "mock").unwrap();
    let full = runner::execute(
        &c,
        &ProgressMonitor::new(4),
        Targets::Own(&mut wedged, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut j),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(j);
    assert_eq!(full.quarantined.len(), 1);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();

    // Crash right after the quarantine entry hit the journal — recovery
    // and the re-run never happened. The quarantined TargetHang record is
    // the last line of the truncated journal.
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines
        .iter()
        .position(|l| l.contains("\thang\t"))
        .expect("journal records the quarantined hang");
    let crashed = temp_path("mid-recovery-crashed.gjl");
    std::fs::write(&crashed, format!("{}\n", lines[..=cut].join("\n"))).unwrap();

    // The journal already treats the invalid record as a failed round.
    let state = ExperimentJournal::load(&crashed, "mock").unwrap();
    assert_eq!(state.quarantined.len(), 1);
    let hung_index = state.quarantined[0]
        .name
        .rsplit("exp")
        .next()
        .unwrap()
        .parse::<usize>()
        .unwrap();
    assert!(state.failed.contains_key(&hung_index));

    // Resume on a healthy target: the hang experiment re-runs as the same
    // linked child the uninterrupted run produced, and the campaign
    // completes with identical records.
    let monitor = ProgressMonitor::new(4);
    let (mut journal_file, state) =
        ExperimentJournal::reopen_with(&RealFs, &crashed, &c.name).unwrap();
    let resumed = runner::execute(
        &c,
        &monitor,
        Targets::factory(|| MockTarget::new(200)),
        RunOptions {
            workers: 2,
            journal: Some(&mut journal_file),
            resume: Some(state),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.records, full.records);
    assert_eq!(resumed.reference, full.reference);
    assert!(resumed.failures.is_empty());

    // The journal is whole again: every experiment completed, no failures.
    let state = ExperimentJournal::load(&crashed, "mock").unwrap();
    assert_eq!(state.completed.len(), 4);
    assert!(state.failed.is_empty());
    std::fs::remove_file(&crashed).unwrap();
}

#[test]
fn scheduled_probes_on_a_healthy_target_leave_the_result_untouched() {
    let plain = campaign_n(6, ExperimentPolicy::default());
    let mut target = MockTarget::new(200);
    let baseline = run_serial(&mut target, &plain, &ProgressMonitor::new(6)).unwrap();

    let supervised = campaign_n(6, ExperimentPolicy::default().with_health_check(2));
    let mut target = MockTarget::new(200);
    let monitor = ProgressMonitor::new(6);
    let result = run_serial(&mut target, &supervised, &monitor).unwrap();

    assert_eq!(result.reference, baseline.reference);
    assert_eq!(result.records, baseline.records);
    assert!(result.recoveries.is_empty());

    // Cadence 2 over six experiments: suites after experiments 2, 4, 6 —
    // all passing, nothing escalated.
    let p = monitor.snapshot();
    assert_eq!(p.probes_run, 3);
    assert_eq!(p.probes_failed, 0);
    assert_eq!(p.soft_resets + p.card_reinits + p.power_cycles, 0);
}

#[test]
fn probe_failure_recovery_climbs_the_ladder_until_the_target_heals() {
    // A stuck TAP only a power cycle clears (anything shallower is undone
    // by nothing — the probe suite's own smoke run re-inits the card, so a
    // shallower wedge would heal mid-probe): the ladder must exhaust both
    // soft resets and both re-inits before the power cycle succeeds.
    let c = campaign_n(1, ExperimentPolicy::default().with_health_check(1));
    let mut reference_target = MockTarget::new(200);
    let reference =
        algorithms::make_reference_run(&mut reference_target, &c, &mut envsim::NullEnvironment)
            .unwrap();
    let sup = Supervisor::from_campaign(&c, &reference).expect("supervision enabled");

    let mut target = WedgeableTarget::new(
        MockTarget::new(200),
        WedgeConfig {
            stuck_tap_rate: 1.0,
            max_events: Some(1),
            recovery: RecoveryDepth::PowerCycle,
            ..WedgeConfig::default()
        },
    );
    target.init_test_card().unwrap();
    // Arm the wedge: the next armed operation jams the TAP.
    target
        .run_workload(RunBudget {
            max_instructions: 1,
        })
        .unwrap();
    assert!(target.model().wedged().is_some());

    let monitor = ProgressMonitor::new(1);
    let suite = sup.probe(&mut target, &mut envsim::NullEnvironment, &monitor);
    assert!(!suite.passed());
    assert!(suite.failure_summary().contains("internal"));

    let episode = sup.recover(
        &mut target,
        &mut envsim::NullEnvironment,
        &monitor,
        "mock/exp00000",
        RecoveryTrigger::ProbeFailure,
    );
    assert!(episode.recovered);
    assert_eq!(episode.trigger, RecoveryTrigger::ProbeFailure);
    let climbed: Vec<(RecoveryStage, u32, bool)> = episode
        .actions
        .iter()
        .map(|a| (a.stage, a.attempt, a.recovered))
        .collect();
    assert_eq!(
        climbed,
        vec![
            (RecoveryStage::SoftReset, 1, false),
            (RecoveryStage::SoftReset, 2, false),
            (RecoveryStage::ReinitTestCard, 1, false),
            (RecoveryStage::ReinitTestCard, 2, false),
            (RecoveryStage::PowerCycle, 1, true),
        ]
    );
    let p = monitor.snapshot();
    assert_eq!(p.soft_resets, 2);
    assert_eq!(p.card_reinits, 2);
    assert_eq!(p.power_cycles, 1);
}

/// Stepping campaigns (detail logging, persistent fault models) never call
/// `run_workload`, so the wedge decorator arms one draw per workload
/// *launch* there instead: the first `step_instruction` after a
/// `load_workload`. The run path clears the pending launch, so a campaign
/// that mixes a run-to-breakpoint with post-injection stepping draws
/// exactly once — the `run_workload` schedule the rest of this suite pins
/// is unchanged.
#[test]
fn stepping_campaigns_draw_once_per_workload_launch() {
    let image = WorkloadImage {
        name: "mock-wl".into(),
        words: vec![0],
        code_words: 1,
        entry: 0,
    };
    let certain_hang = WedgeConfig {
        recovery: RecoveryDepth::PowerCycle,
        ..WedgeConfig::hang(1, 1.0)
    };

    // Pure stepping: the first step after a load draws (and here wedges);
    // later steps burn the hang without re-rolling.
    let mut target = WedgeableTarget::new(MockTarget::new(200), certain_hang);
    target.load_workload(&image).unwrap();
    assert_eq!(target.model().operations(), 0, "load itself must not draw");
    assert_eq!(
        target.step_instruction().unwrap(),
        None,
        "hang burns the step"
    );
    assert_eq!(target.model().wedged(), Some(scanchain::WedgeKind::Hang));
    assert_eq!(target.model().operations(), 1);
    target.step_instruction().unwrap();
    assert_eq!(target.model().operations(), 1, "no re-roll while wedged");
    // Each hung step burns a whole slice of cycles (the host's step op
    // timing out), so watchdog budgets are reached in bounded step calls.
    assert!(
        target.instructions_executed() >= 2 * 4096,
        "burned steps must age the watchdog counters in slice-sized bites"
    );
    assert_eq!(target.instructions_executed(), target.cycles_executed());

    // Mixed run-then-step (never wedges at rate 0): the run consumes the
    // pending launch, so the follow-up steps add no extra draws.
    let mut target = WedgeableTarget::new(MockTarget::new(200), WedgeConfig::hang(1, 0.0));
    target.load_workload(&image).unwrap();
    target
        .run_workload(RunBudget {
            max_instructions: 10,
        })
        .unwrap();
    target.step_instruction().unwrap();
    target.step_instruction().unwrap();
    assert_eq!(
        target.model().operations(),
        1,
        "one draw for the run, none for the steps after it"
    );
}
