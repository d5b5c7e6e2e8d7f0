//! End-to-end unreliable-link resilience tests.
//!
//! The two acceptance properties of the link-resilience subsystem:
//!
//! 1. **Recoverable faults are invisible.** A campaign run through
//!    `VerifiedTarget(UnreliableTarget(target))` at a recoverable fault
//!    rate produces a result bit-for-bit identical to the same campaign on
//!    a perfect link.
//! 2. **Unrecoverable drift is quarantined.** When golden-run revalidation
//!    detects that the link misbehaved, the records of the suspect window
//!    are marked invalid, kept for audit, and superseded by
//!    `parentExperiment`-linked re-runs — in the campaign result, in the
//!    crash-safe journal, and in the database.

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultModel, FaultSpec};
use goofi_core::journal::ExperimentJournal;
use goofi_core::link::{UnreliableTarget, VerifiedTarget, VerifyConfig};
use goofi_core::logging::Validity;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::ExperimentPolicy;
use goofi_core::preinject::StepAccess;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::RealFs;
use goofi_core::{GoofiError, RunBudget, RunEvent, TargetAccess};
use goofidb::Database;
use scanchain::{BitVec, CellAccess, ChainLayout, LinkFaultConfig};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic lab target. `bad_loads` names the (1-based) workload
/// loads whose runs produce drifted outputs — modelling a link that went
/// bad between two golden-run checks. The load counter is shared across
/// clones so parallel workers observe one global timeline.
#[derive(Clone)]
struct LabTarget {
    layout: ChainLayout,
    chain: BitVec,
    memory: Vec<u32>,
    instructions: u64,
    cycles: u64,
    workload_len: u64,
    breakpoint: Option<u64>,
    halted: bool,
    loads: Arc<AtomicU64>,
    bad_loads: Range<u64>,
    bad_now: bool,
}

impl LabTarget {
    fn new(workload_len: u64) -> Self {
        Self::drifting(workload_len, 0..0, Arc::new(AtomicU64::new(0)))
    }

    fn drifting(workload_len: u64, bad_loads: Range<u64>, loads: Arc<AtomicU64>) -> Self {
        let layout = ChainLayout::builder("internal")
            .cell("A", 8, CellAccess::ReadWrite)
            .cell("S", 4, CellAccess::ReadOnly)
            .build();
        LabTarget {
            chain: BitVec::zeros(layout.total_bits()),
            layout,
            memory: vec![0; 64],
            instructions: 0,
            cycles: 0,
            workload_len,
            breakpoint: None,
            halted: false,
            loads,
            bad_loads,
            bad_now: false,
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

impl TargetAccess for LabTarget {
    fn target_name(&self) -> &str {
        "lab"
    }
    fn init_test_card(&mut self) -> goofi_core::Result<()> {
        Ok(())
    }
    fn load_workload(&mut self, _image: &WorkloadImage) -> goofi_core::Result<()> {
        let load = self.loads.fetch_add(1, Ordering::SeqCst) + 1;
        self.bad_now = self.bad_loads.contains(&load);
        self.instructions = 0;
        self.cycles = 0;
        self.halted = false;
        self.breakpoint = None;
        self.memory = vec![0; 64];
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
                "lab target only supports instruction-count triggers, got {other}"
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
        let value = self.instructions as u32;
        // A drifted run yields wrong outputs — what a stuck scan link
        // looks like from the host.
        Ok(vec![if self.bad_now {
            value ^ 0x8000_0000
        } else {
            value
        }])
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

fn campaign_n(n: usize, policy: ExperimentPolicy) -> Campaign {
    let faults: Vec<FaultSpec> = (0..n)
        .map(|i| FaultSpec {
            locations: vec![FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "A".into(),
                bit: i % 8,
            }],
            model: FaultModel::TransientBitFlip,
            trigger: Trigger::AfterInstructions(10 * (i as u64 + 1)),
        })
        .collect();
    Campaign::builder("lossy")
        .workload(WorkloadImage {
            name: "lab-wl".into(),
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

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goofi-link-{}-{name}", std::process::id()));
    p
}

#[test]
fn verified_campaign_over_lossy_link_matches_fault_free_run() {
    let c = campaign_n(8, ExperimentPolicy::default());

    // Ground truth: the campaign on a perfect link.
    let mut clean_target = LabTarget::new(200);
    let clean = algorithms::run_campaign(
        &mut clean_target,
        &c,
        &ProgressMonitor::new(8),
        &mut envsim::NullEnvironment,
    )
    .unwrap();

    // The same campaign through a lossy link with the recovery layer on.
    let monitor = ProgressMonitor::new(8);
    let lossy = UnreliableTarget::new(
        LabTarget::new(200),
        LinkFaultConfig {
            seed: 7,
            corrupt_rate: 0.02,
            drop_rate: 0.01,
            duplicate_rate: 0.01,
            stall_rate: 0.005,
            disconnect_rate: 0.005,
            ..Default::default()
        },
    );
    let mut verified = VerifiedTarget::with_config(lossy, VerifyConfig { max_attempts: 10 })
        .with_monitor(monitor.clone());
    let recovered_result =
        algorithms::run_campaign(&mut verified, &c, &monitor, &mut envsim::NullEnvironment)
            .unwrap();

    assert_eq!(
        recovered_result, clean,
        "recoverable link faults must be invisible in the campaign result"
    );
    assert!(recovered_result.quarantined.is_empty());
    let stats = verified.stats();
    assert!(
        stats.recovered > 0,
        "the lossy link must actually have misbehaved"
    );
    assert_eq!(stats.unrecovered, 0);
    assert!(
        verified.inner().counts().total() > 0,
        "fault model must have injected transport events"
    );
    assert_eq!(monitor.snapshot().link_recovered as u64, stats.recovered);
}

#[test]
fn golden_run_drift_quarantines_window_and_reruns_with_parent_links() {
    // Timeline by workload load: 1 reference, 2-3 experiments 0-1,
    // 4 golden run (BAD: the link drifted) -> quarantine + reruns on
    // loads 5-6, 7-8 experiments 2-3, 9 golden run (clean again).
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));

    let journal_path = temp_path("quarantine.gjl");
    let _ = std::fs::remove_file(&journal_path);
    let mut journal = ExperimentJournal::create(&journal_path, "lossy").unwrap();
    let monitor = ProgressMonitor::new(4);
    let result = runner::execute(
        &c,
        &monitor,
        Targets::Own(&mut target, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut journal),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(journal);

    // The first window was quarantined and superseded by linked re-runs.
    assert_eq!(result.records.len(), 4);
    assert_eq!(result.records[0].name, "lossy/exp00000/rerun1");
    assert_eq!(result.records[0].parent.as_deref(), Some("lossy/exp00000"));
    assert_eq!(result.records[1].name, "lossy/exp00001/rerun1");
    assert_eq!(result.records[1].parent.as_deref(), Some("lossy/exp00001"));
    assert_eq!(result.records[2].name, "lossy/exp00002");
    assert_eq!(result.records[3].name, "lossy/exp00003");
    assert!(result.records.iter().all(|r| r.validity == Validity::Valid));
    assert_eq!(result.quarantined.len(), 2);
    assert!(result
        .quarantined
        .iter()
        .all(|r| r.validity == Validity::Invalid));
    assert_eq!(result.quarantined[0].name, "lossy/exp00000");
    assert_eq!(monitor.snapshot().quarantined, 2);

    // The reruns ran on a clean link, so apart from name/parent they must
    // equal what the quarantined originals measured on the clean link too.
    for (rerun, original) in result.records.iter().zip(&result.quarantined) {
        assert_eq!(rerun.termination, original.termination);
        assert_eq!(rerun.state, original.state);
        assert_eq!(rerun.fault, original.fault);
    }

    // Journal: the quarantine marks and reruns are durable; the invalid
    // originals stay available for import.
    let state = ExperimentJournal::load(&journal_path, "lossy").unwrap();
    assert_eq!(state.completed.len(), 4);
    assert_eq!(state.completed[&0].name, "lossy/exp00000/rerun1");
    assert!(state.failed.is_empty());
    assert_eq!(state.quarantined.len(), 2);

    // Database: originals logged as invalid, reruns linked via
    // parentExperiment — and the analysis layer sees only valid records.
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, &c).unwrap();
    let imported = dbio::import_journal(&mut db, &journal_path, "lossy").unwrap();
    assert_eq!(imported, 7); // reference + 4 valid records + 2 quarantined
    let original = dbio::load_experiment(&db, "lossy/exp00000").unwrap();
    assert_eq!(original.validity, Validity::Invalid);
    let rerun = dbio::load_experiment(&db, "lossy/exp00000/rerun1").unwrap();
    assert_eq!(rerun.validity, Validity::Valid);
    assert_eq!(rerun.parent.as_deref(), Some("lossy/exp00000"));
    std::fs::remove_file(&journal_path).unwrap();
}

#[test]
fn one_worker_resume_revalidates_every_window_on_its_own_target() {
    // The drift schedule of the test above, run twice: fresh on a
    // caller-owned target, and as `goofi resume --workers 1` or a service
    // shard runs it, from a missing journal with a golden cache beside
    // it. Both must check the golden run after every two experiments on
    // their own target, so both quarantine experiments 0-1 at load 4. A
    // single end-of-run check on a fresh target would come back clean and
    // keep experiment 2's drifted output as valid.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let dir = goofi_core::vfs::unique_temp_dir("link-window-resume").unwrap();

    let fresh_path = dir.join("fresh.gjl");
    let mut journal = ExperimentJournal::create(&fresh_path, "lossy").unwrap();
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));
    let fresh = runner::execute(
        &c,
        &ProgressMonitor::new(4),
        Targets::Own(&mut target, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut journal),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(journal);

    let resumed_path = dir.join("resumed.gjl");
    let (mut journal, state) =
        ExperimentJournal::reopen_with(&RealFs, &resumed_path, "lossy").unwrap();
    let cache = goofi_core::golden::GoldenCache::new(&RealFs, &resumed_path, &c, "none");
    let loads = Arc::new(AtomicU64::new(0));
    let monitor = ProgressMonitor::new(4);
    let resumed = runner::execute(
        &c,
        &monitor,
        Targets::factory(move || LabTarget::drifting(200, 4..5, loads.clone())),
        RunOptions {
            journal: Some(&mut journal),
            resume: Some(state),
            cache: Some(&cache),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(journal);

    assert_eq!(resumed.records, fresh.records);
    assert_eq!(resumed.quarantined, fresh.quarantined);
    assert_eq!(resumed.records[0].name, "lossy/exp00000/rerun1");
    assert_eq!(resumed.records[1].name, "lossy/exp00001/rerun1");
    assert_eq!(resumed.records[2].name, "lossy/exp00002");
    assert!(resumed
        .records
        .iter()
        .all(|r| r.validity == Validity::Valid));
    assert_eq!(resumed.quarantined.len(), 2);
    assert_eq!(monitor.snapshot().quarantined, 2);
    assert_eq!(
        std::fs::read_to_string(&resumed_path).unwrap(),
        std::fs::read_to_string(&fresh_path).unwrap(),
        "the resumed journal must equal the fresh run's"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_quarantine_is_finished_by_resume() {
    // Run the drifting campaign, then truncate the journal right after the
    // two quarantine marks (simulating a crash mid-revalidation): resume
    // must re-run the quarantined experiments as linked reruns.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));
    let journal_path = temp_path("crashed-quarantine.gjl");
    let _ = std::fs::remove_file(&journal_path);
    let mut journal = ExperimentJournal::create(&journal_path, "lossy").unwrap();
    runner::execute(
        &c,
        &ProgressMonitor::new(4),
        Targets::Own(&mut target, &mut envsim::NullEnvironment),
        RunOptions {
            journal: Some(&mut journal),
            ..RunOptions::default()
        },
    )
    .unwrap();
    drop(journal);

    // Keep header, campaign line, reference, exp0, exp1, and both invalid
    // re-journalings — drop the reruns and the rest of the campaign.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let crashed = temp_path("crashed-quarantine-cut.gjl");
    std::fs::write(&crashed, format!("{}\n", lines[..7].join("\n"))).unwrap();

    let (mut journal_file, state) =
        ExperimentJournal::reopen_with(&RealFs, &crashed, &c.name).unwrap();
    let resumed = runner::execute(
        &c,
        &ProgressMonitor::new(4),
        Targets::factory(|| LabTarget::new(200)),
        RunOptions {
            workers: 2,
            journal: Some(&mut journal_file),
            resume: Some(state),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.records.len(), 4);
    assert_eq!(resumed.records[0].name, "lossy/exp00000/rerun1");
    assert_eq!(resumed.records[0].parent.as_deref(), Some("lossy/exp00000"));
    assert_eq!(resumed.records[1].name, "lossy/exp00001/rerun1");
    assert!(resumed.failures.is_empty());
    std::fs::remove_file(&journal_path).unwrap();
    std::fs::remove_file(&crashed).unwrap();
}

#[test]
fn parallel_runner_quarantines_on_end_of_run_drift() {
    // The drift begins after all experiments completed, so the end-of-run
    // golden check sees it and quarantines everything completed this run.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(1));
    let loads = Arc::new(AtomicU64::new(0));
    let make_loads = loads.clone();
    let monitor = ProgressMonitor::new(4);
    let result = runner::execute(
        &c,
        &monitor,
        Targets::factory(move || LabTarget::drifting(200, 6..u64::MAX, make_loads.clone())),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(result.records.len(), 4);
    assert_eq!(result.quarantined.len(), 4);
    for (i, record) in result.records.iter().enumerate() {
        assert_eq!(record.name, format!("lossy/exp{i:05}/rerun1"));
        assert_eq!(
            record.parent.as_deref(),
            Some(format!("lossy/exp{i:05}")).as_deref()
        );
        assert_eq!(record.validity, Validity::Valid);
    }
    assert!(result
        .quarantined
        .iter()
        .all(|r| r.validity == Validity::Invalid));
    assert_eq!(monitor.snapshot().quarantined, 4);
}

#[test]
fn unrecovered_link_fault_is_a_policy_visible_failure() {
    // A permanently dead link: the verified target escalates to
    // GoofiError::LinkFault and the skip policy records the failure
    // instead of aborting the campaign.
    let c = campaign_n(2, ExperimentPolicy::skip_and_continue());
    let monitor = ProgressMonitor::new(2);
    let lossy = UnreliableTarget::new(
        LabTarget::new(200),
        LinkFaultConfig {
            seed: 9,
            disconnect_rate: 1.0,
            // The reference run needs a working link (it consumes exactly
            // four transport ops on this target); every transaction after
            // it is dead.
            skip_ops: 4,
            ..Default::default()
        },
    );
    let mut verified = VerifiedTarget::with_config(lossy, VerifyConfig { max_attempts: 2 })
        .with_monitor(monitor.clone());
    let result =
        algorithms::run_campaign(&mut verified, &c, &monitor, &mut envsim::NullEnvironment);
    match result {
        Ok(r) => {
            assert!(
                !r.failures.is_empty(),
                "a dead link must surface as experiment failures"
            );
            assert!(r.failures[0].error.contains("link fault"));
        }
        Err(e) => panic!("skip policy must not abort the campaign: {e}"),
    }
    assert!(verified.stats().unrecovered > 0);
    assert!(monitor.snapshot().link_unrecovered > 0);
}
