//! The fault-injection algorithms — the paper's Figure 2, generically.
//!
//! Each algorithm is a plain function over `T: TargetAccess`, composed
//! entirely from the abstract building blocks. The SCIFI algorithm follows
//! the paper's listing step by step:
//!
//! ```text
//! readCampaignData(campaignNr);
//! makeReferenceRun();
//! for (int i = 0; i < nrOfExperiments; i++) {
//!     initTestCard(); loadWorkload(); writeMemory();
//!     runWorkload(); waitForBreakpoint();
//!     readScanChain(); injectFault(); writeScanChain();
//!     waitForTermination(); readMemory(); readScanChain();
//! }
//! ```
//!
//! `injectFault()` is realised as read-chain → invert bits → write-chain
//! ("reading the contents of the scan-chains, inverting the bits stated in
//! the campaign data and writing back", §3.3).

use crate::campaign::{Campaign, EnvExchange, OutputRegion, Technique};
use crate::fault::{FaultLocation, FaultModel, FaultSpec};
use crate::golden::GoldenCache;
use crate::journal::ExperimentJournal;
use crate::logging::{ExperimentRecord, LoggingMode, StateSnapshot, TerminationCause, Validity};
use crate::monitor::ProgressMonitor;
use crate::policy::{ExperimentFailure, Watchdog};
use crate::runner::{self, RunOptions, Targets};
use crate::supervisor::RecoveryRecord;
use crate::target::{RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use crate::telemetry::{Metric, Stage, Telemetry};
use crate::trigger::Trigger;
use crate::{GoofiError, Result};
use envsim::Environment;
use scanchain::BitVec;
use std::collections::BTreeMap;

/// The outcome of a whole campaign: the reference run plus one record per
/// experiment, ready for [`crate::dbio`] storage and analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The fault-free reference run.
    pub reference: ExperimentRecord,
    /// One record per executed experiment.
    pub records: Vec<ExperimentRecord>,
    /// Experiments that failed despite the campaign's
    /// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) (empty unless
    /// the policy skips failures), in index order.
    pub failures: Vec<ExperimentFailure>,
    /// Records quarantined by golden-run revalidation: produced while the
    /// target link was suspected faulty, marked
    /// [`Validity::Invalid`](crate::logging::Validity) and superseded by
    /// the `parentExperiment`-linked re-runs in
    /// [`records`](CampaignResult::records). Kept for audit.
    pub quarantined: Vec<ExperimentRecord>,
    /// Every recovery episode the target supervisor ran (empty unless the
    /// campaign's policy enables supervision): which probes failed, which
    /// ladder stages were applied, and whether the target came back.
    pub recoveries: Vec<RecoveryRecord>,
}

/// Per-driver snapshot bookkeeping for the per-experiment fast path.
///
/// The slow path pays the dominant prefix cost on every experiment:
/// `initTestCard()` + `loadWorkload()` (a full TAP-level download) and then
/// re-executing the workload up to the injection trigger. A session holds
/// two captures that replace that prefix:
///
/// * **post-load** — taken once, right after the first experiment's Load
///   block; every later experiment restores it instead of re-downloading;
/// * **trigger** — taken at the most recent experiment's trigger point.
///   [`Trigger::AfterInstructions`] fires on an *absolute* instruction
///   counter (part of the captured debug-unit state), so a capture at
///   instruction *t* seeds any later experiment with trigger *T ≥ t*:
///   restore, then execute only the *T − t* delta.
///
/// The fast path engages only when the target stack reports both
/// [`TargetAccess::supports_snapshot`] and
/// [`TargetAccess::prefix_restore_safe`] — fault-model decorators whose
/// observable draw streams are tied to the slow path's exact call sequence
/// (the wedge drill) veto it, which keeps snapshot campaigns essence-equal
/// to slow-path campaigns under every drill.
#[derive(Debug, Default)]
pub struct ExperimentSession {
    /// Lazily probed capability: `None` until the first experiment,
    /// `Some(false)` pins the slow path for the rest of the campaign.
    enabled: Option<bool>,
    /// State right after the Load block, before any execution.
    post_load: Option<TargetSnapshot>,
    /// State at the most recent trigger point (pre-injection, pristine).
    trigger: Option<TriggerSnapshot>,
}

#[derive(Debug)]
struct TriggerSnapshot {
    snap: TargetSnapshot,
    /// Absolute instruction count at capture (the donor's trigger point).
    instructions: u64,
    /// Cycle counter right after the donor's Load block, so a restored
    /// experiment's watchdog measures the same elapsed cycles the slow
    /// path would.
    post_load_cycles: u64,
}

impl ExperimentSession {
    /// A fresh session with no captures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the fast path is usable on `target`, probing the capability
    /// on first call and pinning the answer.
    fn usable<T: TargetAccess + ?Sized>(&mut self, target: &T) -> bool {
        *self
            .enabled
            .get_or_insert_with(|| target.supports_snapshot() && target.prefix_restore_safe())
    }
}

/// Runs a SCIFI campaign (the paper's `faultInjectorSCIFI`).
///
/// # Errors
///
/// Fails if the campaign's technique is not [`Technique::Scifi`], on target
/// errors, or when stopped from the monitor.
pub fn faultinjector_scifi<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique != Technique::Scifi {
        return Err(GoofiError::Config(
            "faultinjector_scifi requires a SCIFI campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Runs a pre-runtime or runtime SWIFI campaign (the paper's
/// `faultInjectorSWIFI`).
///
/// # Errors
///
/// Fails if the campaign's technique is SCIFI, on target errors, or when
/// stopped from the monitor.
pub fn faultinjector_swifi<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique == Technique::Scifi {
        return Err(GoofiError::Config(
            "faultinjector_swifi requires a SWIFI campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Runs a pin-level campaign: faults forced onto device pins through the
/// boundary scan chain (the third technique of the paper's §2.1, composed
/// from the very same building blocks).
///
/// # Errors
///
/// Fails if the campaign's technique is not [`Technique::PinLevel`], on
/// target errors, or when stopped from the monitor.
pub fn faultinjector_pinlevel<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique != Technique::PinLevel {
        return Err(GoofiError::Config(
            "faultinjector_pinlevel requires a pin-level campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Technique-dispatching campaign driver: reference run, then every
/// experiment, honouring the progress monitor between experiments and the
/// campaign's [`ExperimentPolicy`](crate::policy::ExperimentPolicy) on
/// experiment failures. One worker of [`runner::execute`] on `target`.
///
/// # Errors
///
/// Target errors, configuration errors, [`GoofiError::Stopped`], or — when
/// the policy aborts on a failing experiment —
/// [`GoofiError::ExperimentFailed`] carrying every completed record.
pub fn run_campaign<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    runner::execute(
        campaign,
        monitor,
        Targets::Own(target, env),
        RunOptions::default(),
    )
}

/// [`run_campaign`] with a crash-safe journal and the hot-path controls
/// exposed:
///
/// * `journal` — each finished experiment is appended before the next one
///   starts, so a process crash loses at most the experiment in flight;
///   the journal is synced in groups and committed before the result is
///   returned (see [`crate::journal`]);
/// * `cache` — a [`GoldenCache`] consulted before the reference run; a hit
///   skips recomputing the golden log entirely (and a revalidation drift
///   invalidates the cached entry);
/// * `snapshots` — `false` forces the slow per-experiment path even on
///   snapshot-capable targets (the CLI's `--no-snapshot`).
///
/// # Errors
///
/// As [`run_campaign`], plus journal I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_journaled_opts<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    journal: Option<&mut ExperimentJournal>,
    cache: Option<&GoldenCache>,
    snapshots: bool,
) -> Result<CampaignResult> {
    runner::execute(
        campaign,
        monitor,
        Targets::Own(target, env),
        RunOptions {
            journal,
            cache,
            snapshots,
            ..RunOptions::default()
        },
    )
}

/// Execution-order key for snapshot-mode campaigns: instruction-count
/// triggers sort by their absolute trigger time so successive experiments
/// fast-forward monotonically; every other trigger keys to zero (those
/// experiments restore the post-load snapshot directly, so their relative
/// order is irrelevant to the hot path).
pub(crate) fn trigger_order_key(trigger: &Trigger) -> u64 {
    match trigger {
        Trigger::AfterInstructions(n) => *n,
        _ => 0,
    }
}

/// Whether a freshly-executed golden run reproduces the stored reference
/// log: same architectural state, same workload outputs, same termination.
/// Any drift means the link (or the target) misbehaved at some point since
/// the last clean check.
pub fn golden_run_matches(reference: &ExperimentRecord, golden: &ExperimentRecord) -> bool {
    golden.termination == reference.termination
        && golden.state.outputs == reference.state.outputs
        && golden.state.same_state(&reference.state)
}

/// Runs one experiment under the campaign's retry policy. `Ok(Ok(_))` is a
/// completed record; `Ok(Err(_))` is an experiment that kept failing after
/// every allowed retry (the caller applies the policy's skip/fail choice);
/// `Err(_)` is reserved for [`GoofiError::Stopped`].
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign mid-retry.
pub fn run_experiment_with_policy<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    session: Option<&mut ExperimentSession>,
) -> Result<std::result::Result<ExperimentRecord, ExperimentFailure>> {
    run_linked_experiment_with_policy(target, campaign, index, None, monitor, env, session)
}

/// [`run_experiment_with_policy`] for a re-run: the produced record is
/// renamed to `name` and linked to `parent` via `parentExperiment` — the
/// paper's §2.3 re-run workflow, used by campaign resume to re-run
/// previously failed experiments as fresh, linked experiments.
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign mid-retry.
#[allow(clippy::too_many_arguments)]
pub fn run_linked_experiment_with_policy<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    link: Option<(String, String)>,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    mut session: Option<&mut ExperimentSession>,
) -> Result<std::result::Result<ExperimentRecord, ExperimentFailure>> {
    let retries = campaign.policy.retries();
    let tel = monitor.telemetry();
    let mut attempt: u32 = 0;
    loop {
        let result = match &link {
            None => run_experiment_inner(
                target,
                campaign,
                index,
                &mut *env,
                None,
                campaign.logging,
                tel,
                session.as_deref_mut(),
            ),
            Some((name, parent)) => run_experiment_inner(
                target,
                campaign,
                index,
                &mut *env,
                Some(parent.clone()),
                campaign.logging,
                tel,
                session.as_deref_mut(),
            )
            .map(|mut record| {
                record.name = name.clone();
                record
            }),
        };
        match result {
            Ok(record) => return Ok(Ok(record)),
            // A user stop is not an experiment failure: propagate it.
            Err(GoofiError::Stopped) => return Err(GoofiError::Stopped),
            Err(e) => {
                if attempt < retries {
                    monitor.record_retry();
                    let delay = campaign.policy.backoff.delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                    // Honour pause/stop between retries as well.
                    monitor.checkpoint()?;
                    continue;
                }
                return Ok(Err(ExperimentFailure {
                    index,
                    name: match &link {
                        Some((name, _)) => name.clone(),
                        None => campaign.experiment_name(index),
                    },
                    attempts: attempt + 1,
                    error: e.to_string(),
                }));
            }
        }
    }
}

/// Executes the fault-free reference run, "logging the fault-free system
/// state" (§3.3) — in detail mode, after every instruction.
///
/// # Errors
///
/// Target errors.
pub fn make_reference_run<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    reference_run_traced(target, campaign, env, &Telemetry::disabled())
}

/// [`make_reference_run`] with load/run/scan stage spans recorded to `tel`
/// under a reference-run experiment span.
pub(crate) fn reference_run_traced<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    tel: &Telemetry,
) -> Result<ExperimentRecord> {
    let exp_span = tel
        .experiment_span_with(|| format!("{}/{}", campaign.name, ExperimentRecord::REFERENCE_NAME));
    {
        let _load = tel.stage_span(Stage::Load, exp_span.id());
        target.init_test_card()?;
        target.load_workload(&campaign.workload)?;
        env.reset();
        target.write_input_ports(&campaign.initial_inputs)?;
        target.clear_breakpoints()?;
    }
    let mut wd = Watchdog::start(&campaign.policy.watchdog, target.cycles_executed());
    let (termination, trace) = {
        let _run = tel.stage_span(Stage::Run, exp_span.id());
        if campaign.logging == LoggingMode::Detail {
            continue_stepping(target, campaign, env, None, true, &mut wd)?
        } else {
            continue_to_termination(target, campaign, env, &mut wd)?
        }
    };
    let state = {
        let _scan = tel.stage_span(Stage::Scan, exp_span.id());
        snapshot(target, campaign, true)?
    };
    Ok(ExperimentRecord {
        name: format!("{}/{}", campaign.name, ExperimentRecord::REFERENCE_NAME),
        parent: None,
        campaign: campaign.name.clone(),
        fault: None,
        termination,
        state,
        trace,
        validity: Validity::Valid,
    })
}

/// Executes one fault-injection experiment.
///
/// # Errors
///
/// Target errors or an out-of-range experiment index.
pub fn run_experiment<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    run_experiment_inner(
        target,
        campaign,
        index,
        env,
        None,
        campaign.logging,
        &Telemetry::disabled(),
        None,
    )
}

/// Re-runs experiment `index` in detail mode, recording `parent` as the
/// originating experiment — the paper's §2.3 `parentExperiment` workflow
/// ("re-running the experiment logging the system state after each machine
/// instruction").
///
/// # Errors
///
/// Target errors or an out-of-range experiment index.
pub fn rerun_detailed<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    let parent = campaign.experiment_name(index);
    let mut record = run_experiment_inner(
        target,
        campaign,
        index,
        env,
        Some(parent.clone()),
        LoggingMode::Detail,
        &Telemetry::disabled(),
        None,
    )?;
    record.name = format!("{parent}/detail");
    Ok(record)
}

#[allow(clippy::too_many_arguments)]
fn run_experiment_inner<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
    parent: Option<String>,
    logging: LoggingMode,
    tel: &Telemetry,
    mut session: Option<&mut ExperimentSession>,
) -> Result<ExperimentRecord> {
    let spec = campaign.faults.get(index).ok_or_else(|| {
        GoofiError::Config(format!(
            "experiment index {index} out of range ({} faults)",
            campaign.faults.len()
        ))
    })?;
    let exp_span = tel.experiment_span_with(|| campaign.experiment_name(index));

    // initTestCard(); loadWorkload(); writeMemory(); — or, on the fast
    // path, one restore of the post-load capture: the TAP-level workload
    // download is paid once per campaign instead of once per experiment.
    // `env.reset()` still runs (the environment lives host-side, outside
    // any target snapshot); input ports and cleared breakpoints are part
    // of the captured state.
    let mut restored = false;
    if let Some(s) = session.as_deref_mut() {
        if s.usable(&*target) {
            if let Some(snap) = &s.post_load {
                let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                target.restore(snap)?;
                tel.count(Metric::Restores, 1);
                env.reset();
                restored = true;
            }
        }
    }
    if !restored {
        let _load = tel.stage_span(Stage::Load, exp_span.id());
        target.init_test_card()?;
        target.load_workload(&campaign.workload)?;
        env.reset();
        target.write_input_ports(&campaign.initial_inputs)?;
        target.clear_breakpoints()?;
        if let Some(s) = session.as_deref_mut() {
            if s.usable(&*target) {
                let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                match target.snapshot() {
                    Ok(snap) => {
                        s.post_load = Some(snap);
                        tel.count(Metric::SnapshotsTaken, 1);
                    }
                    // A target that advertises the capability but cannot
                    // deliver pins the slow path for the campaign.
                    Err(_) => s.enabled = Some(false),
                }
            }
        }
    }
    let mut wd_start = target.cycles_executed();
    let mut wd = Watchdog::start(&campaign.policy.watchdog, wd_start);

    let trace: Vec<StateSnapshot>;
    let termination = if spec.trigger.is_pre_runtime() {
        // Pre-runtime SWIFI: corrupt the image, then just run.
        {
            let _inject = tel.stage_span(Stage::Inject, exp_span.id());
            apply_fault(target, spec)?;
        }
        let (t, tr) = {
            let _run = tel.stage_span(Stage::Run, exp_span.id());
            continue_with_model(target, campaign, spec, env, logging, &mut wd)?
        };
        trace = tr;
        t
    } else {
        // runWorkload(); waitForBreakpoint(). In detail mode the
        // pre-injection phase is logged per instruction too, so the
        // experiment trace aligns with the reference trace.
        let detail = logging == LoggingMode::Detail;
        // Trigger fast-forward: `AfterInstructions` fires on an absolute
        // instruction counter that is part of the captured debug-unit
        // state, so the latest trigger capture at instruction t seeds any
        // experiment with trigger T ≥ t — restore, then execute only the
        // delta (or nothing at all when t == T). Gated on normal-mode
        // logging (detail mode must log the whole prefix) and on captures
        // taken before any environment exchange (the host-side
        // environment starts every experiment freshly reset, so restoring
        // past an exchange would desynchronise it from the target).
        let mut exchanges: u64 = 0;
        let mut at_trigger = false;
        if !detail {
            if let (Trigger::AfterInstructions(want), Some(s)) =
                (spec.trigger, session.as_deref_mut())
            {
                if s.usable(&*target) {
                    if let Some(ts) = &s.trigger {
                        if ts.instructions <= want {
                            let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                            target.restore(&ts.snap)?;
                            tel.count(Metric::Restores, 1);
                            // The slow path's watchdog starts counting at
                            // the post-load cycle mark; keep that origin.
                            wd_start = ts.post_load_cycles;
                            wd = Watchdog::start(&campaign.policy.watchdog, wd_start);
                            at_trigger = ts.instructions == want;
                        }
                    }
                }
            }
        }
        let (outcome, mut pre_trace) = if at_trigger {
            // Restored exactly onto the trigger point (post-unlatch,
            // post-clear state as captured): nothing left to execute.
            (WaitOutcome::Breakpoint, Vec::new())
        } else {
            target.set_breakpoint(spec.trigger)?;
            let _run = tel.stage_span(Stage::Run, exp_span.id());
            if detail {
                wait_for_breakpoint_detailed(target, campaign, &mut *env, &mut wd)?
            } else {
                (
                    wait_for_breakpoint(target, campaign, &mut *env, &mut wd, &mut exchanges)?,
                    Vec::new(),
                )
            }
        };
        match outcome {
            WaitOutcome::Breakpoint => {
                target.clear_breakpoints()?;
                // Re-seed the trigger cache at this experiment's point:
                // the next experiment restores here when its own trigger
                // is at or past this instant.
                if !detail && !at_trigger && exchanges == 0 {
                    if let (Trigger::AfterInstructions(_), Some(s)) = (spec.trigger, session) {
                        if s.usable(&*target) {
                            let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                            if let Ok(snap) = target.snapshot() {
                                s.trigger = Some(TriggerSnapshot {
                                    snap,
                                    instructions: target.instructions_executed(),
                                    post_load_cycles: wd_start,
                                });
                                tel.count(Metric::SnapshotsTaken, 1);
                            }
                        }
                    }
                }
                // readScanChain(); injectFault(); writeScanChain();
                {
                    let _inject = tel.stage_span(Stage::Inject, exp_span.id());
                    apply_fault(target, spec)?;
                }
                // waitForTermination();
                let (t, tr) = {
                    let _run = tel.stage_span(Stage::Run, exp_span.id());
                    continue_with_model(target, campaign, spec, env, logging, &mut wd)?
                };
                pre_trace.extend(tr);
                trace = pre_trace;
                t
            }
            // The trigger never fired: the workload terminated first. The
            // fault was never injected; log the natural termination.
            WaitOutcome::Terminated(t) => {
                trace = pre_trace;
                t
            }
        }
    };

    // readMemory(); readScanChain(); -> log the system state.
    let state = {
        let _scan = tel.stage_span(Stage::Scan, exp_span.id());
        snapshot(target, campaign, true)?
    };
    Ok(ExperimentRecord {
        name: campaign.experiment_name(index),
        parent,
        campaign: campaign.name.clone(),
        fault: Some(spec.clone()),
        termination,
        state,
        trace,
        validity: Validity::Valid,
    })
}

// ---------------------------------------------------------------------------
// Fault application.

/// Injects every location of `spec` once: scan cells via
/// read-chain/flip/write-chain, memory bits via the SWIFI primitive.
///
/// # Errors
///
/// Scan or memory errors (e.g. attempting to flip a read-only cell).
pub fn apply_fault<T: TargetAccess + ?Sized>(target: &mut T, spec: &FaultSpec) -> Result<()> {
    match spec.model {
        FaultModel::TransientBitFlip | FaultModel::Intermittent { .. } => {
            flip_locations(target, &spec.locations)
        }
        FaultModel::StuckAtZero => force_locations(target, &spec.locations, false),
        FaultModel::StuckAtOne => force_locations(target, &spec.locations, true),
    }
}

fn flip_locations<T: TargetAccess + ?Sized>(
    target: &mut T,
    locations: &[FaultLocation],
) -> Result<()> {
    // Batched scan transaction: all flips into one chain share a single
    // capture–shift–update walk instead of paying a read+write pair per
    // bit. Bit flips commute, so grouping cannot change the outcome.
    let mut chains: BTreeMap<String, BitVec> = BTreeMap::new();
    for loc in locations {
        match loc {
            FaultLocation::ScanCell { chain, cell, bit } => {
                let layout = chain_layout(target, chain)?;
                let offset = cell_bit_offset(&layout, chain, cell, *bit)?;
                if !chains.contains_key(chain) {
                    chains.insert(chain.clone(), target.read_scan_chain(chain)?);
                }
                let bits = chains.get_mut(chain).expect("chain captured above");
                bits.flip(offset);
            }
            FaultLocation::Memory { addr, bit } => {
                target.flip_memory_bit(*addr, *bit)?;
            }
        }
    }
    for (chain, bits) in &chains {
        target.write_scan_chain(chain, bits)?;
    }
    Ok(())
}

fn force_locations<T: TargetAccess + ?Sized>(
    target: &mut T,
    locations: &[FaultLocation],
    value: bool,
) -> Result<()> {
    // Same batching as `flip_locations`; a chain none of whose bits
    // actually change skips its update walk entirely.
    let mut chains: BTreeMap<String, (BitVec, bool)> = BTreeMap::new();
    for loc in locations {
        match loc {
            FaultLocation::ScanCell { chain, cell, bit } => {
                let layout = chain_layout(target, chain)?;
                let offset = cell_bit_offset(&layout, chain, cell, *bit)?;
                if !chains.contains_key(chain) {
                    let bits = target.read_scan_chain(chain)?;
                    chains.insert(chain.clone(), (bits, false));
                }
                let (bits, dirty) = chains.get_mut(chain).expect("chain captured above");
                if bits.get(offset) != value {
                    bits.set(offset, value);
                    *dirty = true;
                }
            }
            FaultLocation::Memory { addr, bit } => {
                let word = target.read_memory(*addr, 1)?[0];
                let is_set = (word >> bit) & 1 == 1;
                if is_set != value {
                    target.flip_memory_bit(*addr, *bit)?;
                }
            }
        }
    }
    for (chain, (bits, dirty)) in &chains {
        if *dirty {
            target.write_scan_chain(chain, bits)?;
        }
    }
    Ok(())
}

fn chain_layout<T: TargetAccess + ?Sized>(
    target: &T,
    chain: &str,
) -> Result<scanchain::ChainLayout> {
    target
        .chain_layouts()
        .into_iter()
        .find(|l| l.name() == chain)
        .ok_or_else(|| GoofiError::Scan(scanchain::ScanError::UnknownChain(chain.to_string())))
}

fn cell_bit_offset(
    layout: &scanchain::ChainLayout,
    chain: &str,
    cell: &str,
    bit: usize,
) -> Result<usize> {
    let def = layout
        .cell(cell)
        .ok_or_else(|| GoofiError::Scan(scanchain::ScanError::UnknownCell(cell.to_string())))?;
    if def.access == scanchain::CellAccess::ReadOnly {
        return Err(GoofiError::Scan(scanchain::ScanError::ReadOnlyCell {
            cell: cell.to_string(),
            chain: chain.to_string(),
        }));
    }
    if bit >= def.width {
        return Err(GoofiError::Scan(scanchain::ScanError::ValueTooWide {
            cell: cell.to_string(),
            width: def.width,
            value: bit as u64,
        }));
    }
    Ok(def.offset + bit)
}

// ---------------------------------------------------------------------------
// Run-control helpers.

enum WaitOutcome {
    Breakpoint,
    Terminated(TerminationCause),
}

/// Detail-mode variant of [`wait_for_breakpoint`]: single-steps to the
/// breakpoint, logging a snapshot after every instruction.
fn wait_for_breakpoint_detailed<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    wd: &mut Watchdog,
) -> Result<(WaitOutcome, Vec<StateSnapshot>)> {
    let mut trace = Vec::new();
    loop {
        if remaining_budget(target, campaign) == 0 || wd.expired(target.cycles_executed()) {
            return Ok((WaitOutcome::Terminated(TerminationCause::Timeout), trace));
        }
        let before = target.instructions_executed();
        let event = target.step_instruction()?;
        if target.instructions_executed() > before {
            trace.push(snapshot(target, campaign, false)?);
        }
        match event {
            None => {}
            Some(RunEvent::Breakpoint { .. }) => return Ok((WaitOutcome::Breakpoint, trace)),
            Some(RunEvent::Halted) => {
                return Ok((
                    WaitOutcome::Terminated(TerminationCause::WorkloadEnd),
                    trace,
                ))
            }
            Some(RunEvent::Detected(d)) => {
                return Ok((
                    WaitOutcome::Terminated(TerminationCause::Detected(d)),
                    trace,
                ))
            }
            Some(RunEvent::Timeout | RunEvent::BudgetExhausted) => {
                return Ok((WaitOutcome::Terminated(TerminationCause::Timeout), trace))
            }
            Some(RunEvent::IterationBoundary { iteration }) => {
                if campaign
                    .termination
                    .max_iterations
                    .is_some_and(|max| iteration >= max)
                {
                    return Ok((
                        WaitOutcome::Terminated(TerminationCause::IterationLimit),
                        trace,
                    ));
                }
                exchange_env(target, campaign, &mut *env)?;
            }
        }
    }
}

/// Runs until the armed breakpoint fires, exchanging environment data at
/// iteration boundaries; reports natural termination if it comes first.
/// `exchanges` counts the environment exchanges performed — a trigger-point
/// snapshot is only reusable when none happened before it.
fn wait_for_breakpoint<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    wd: &mut Watchdog,
    exchanges: &mut u64,
) -> Result<WaitOutcome> {
    loop {
        let remaining = remaining_budget(target, campaign);
        if remaining == 0 || wd.expired(target.cycles_executed()) || wd.check_wall_now() {
            return Ok(WaitOutcome::Terminated(TerminationCause::Timeout));
        }
        let slice = wd.clamp_slice(remaining);
        match target.run_workload(RunBudget {
            max_instructions: slice,
        })? {
            RunEvent::Breakpoint { .. } => return Ok(WaitOutcome::Breakpoint),
            RunEvent::Halted => return Ok(WaitOutcome::Terminated(TerminationCause::WorkloadEnd)),
            RunEvent::Detected(d) => {
                return Ok(WaitOutcome::Terminated(TerminationCause::Detected(d)))
            }
            RunEvent::Timeout => return Ok(WaitOutcome::Terminated(TerminationCause::Timeout)),
            RunEvent::BudgetExhausted => {
                // Only a real timeout when the whole remaining budget was
                // offered; a clamped watchdog slice just loops to re-check.
                if slice == remaining {
                    return Ok(WaitOutcome::Terminated(TerminationCause::Timeout));
                }
            }
            RunEvent::IterationBoundary { iteration } => {
                if campaign
                    .termination
                    .max_iterations
                    .is_some_and(|max| iteration >= max)
                {
                    return Ok(WaitOutcome::Terminated(TerminationCause::IterationLimit));
                }
                *exchanges += 1;
                exchange_env(target, campaign, &mut *env)?;
            }
        }
    }
}

/// Continues a just-injected experiment to termination, honouring the fault
/// model (persistent models keep re-asserting the fault) and the logging
/// mode (detail mode snapshots after every instruction).
fn continue_with_model<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    spec: &FaultSpec,
    env: &mut dyn Environment,
    logging: LoggingMode,
    wd: &mut Watchdog,
) -> Result<(TerminationCause, Vec<StateSnapshot>)> {
    let detail = logging == LoggingMode::Detail;
    match spec.model {
        FaultModel::TransientBitFlip if !detail => {
            continue_to_termination(target, campaign, env, wd)
        }
        FaultModel::TransientBitFlip => continue_stepping(target, campaign, env, None, true, wd),
        // Persistent models need per-instruction control.
        model => continue_stepping(target, campaign, env, Some((spec, model)), detail, wd),
    }
}

/// Coarse-grained continuation: whole `run_workload` slices (normal mode),
/// clamped to short slices while a watchdog is armed.
fn continue_to_termination<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    wd: &mut Watchdog,
) -> Result<(TerminationCause, Vec<StateSnapshot>)> {
    loop {
        let remaining = remaining_budget(target, campaign);
        if remaining == 0 || wd.expired(target.cycles_executed()) || wd.check_wall_now() {
            return Ok((TerminationCause::Timeout, Vec::new()));
        }
        let slice = wd.clamp_slice(remaining);
        match target.run_workload(RunBudget {
            max_instructions: slice,
        })? {
            RunEvent::Halted => return Ok((TerminationCause::WorkloadEnd, Vec::new())),
            RunEvent::Detected(d) => return Ok((TerminationCause::Detected(d), Vec::new())),
            RunEvent::Timeout => return Ok((TerminationCause::Timeout, Vec::new())),
            RunEvent::BudgetExhausted => {
                if slice == remaining {
                    return Ok((TerminationCause::Timeout, Vec::new()));
                }
            }
            RunEvent::Breakpoint { .. } => {
                // A stray breakpoint (should not happen: cleared before).
                target.clear_breakpoints()?;
            }
            RunEvent::IterationBoundary { iteration } => {
                if campaign
                    .termination
                    .max_iterations
                    .is_some_and(|max| iteration >= max)
                {
                    return Ok((TerminationCause::IterationLimit, Vec::new()));
                }
                exchange_env(target, campaign, &mut *env)?;
            }
        }
    }
}

/// Fine-grained continuation: single-step, used by detail-mode logging and
/// by persistent fault models. "In detail mode the system state is logged
/// as frequently as the target system allows, typically after the execution
/// of each machine instruction, which increases the time-overhead" (§3.3).
fn continue_stepping<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    persistent: Option<(&FaultSpec, FaultModel)>,
    detail: bool,
    wd: &mut Watchdog,
) -> Result<(TerminationCause, Vec<StateSnapshot>)> {
    let mut trace = Vec::new();
    let inject_instr = target.instructions_executed();
    let mut bursts_done: u32 = 1; // the initial injection counts as burst 1

    loop {
        if remaining_budget(target, campaign) == 0 || wd.expired(target.cycles_executed()) {
            return Ok((TerminationCause::Timeout, trace));
        }
        let before = target.instructions_executed();
        let event = target.step_instruction()?;
        // Only retired instructions get a trace entry, so the faulty trace
        // stays index-aligned with the reference trace. Detail-mode entries
        // skip the memory digest: hashing all of memory per instruction
        // would dwarf the experiment itself.
        if detail && target.instructions_executed() > before {
            trace.push(snapshot(target, campaign, false)?);
        }
        // Re-assert persistent faults.
        if let Some((spec, model)) = persistent {
            match model {
                FaultModel::StuckAtZero => force_locations(target, &spec.locations, false)?,
                FaultModel::StuckAtOne => force_locations(target, &spec.locations, true)?,
                FaultModel::Intermittent { period, bursts } => {
                    let elapsed = target.instructions_executed().saturating_sub(inject_instr);
                    if bursts_done < bursts && period > 0 && elapsed >= period * bursts_done as u64
                    {
                        flip_locations(target, &spec.locations)?;
                        bursts_done += 1;
                    }
                }
                FaultModel::TransientBitFlip => {}
            }
        }
        match event {
            None => {}
            Some(RunEvent::Halted) => return Ok((TerminationCause::WorkloadEnd, trace)),
            Some(RunEvent::Detected(d)) => return Ok((TerminationCause::Detected(d), trace)),
            Some(RunEvent::Timeout | RunEvent::BudgetExhausted) => {
                return Ok((TerminationCause::Timeout, trace))
            }
            Some(RunEvent::Breakpoint { .. }) => {
                target.clear_breakpoints()?;
            }
            Some(RunEvent::IterationBoundary { iteration }) => {
                if campaign
                    .termination
                    .max_iterations
                    .is_some_and(|max| iteration >= max)
                {
                    return Ok((TerminationCause::IterationLimit, trace));
                }
                exchange_env(target, campaign, &mut *env)?;
            }
        }
    }
}

fn remaining_budget<T: TargetAccess + ?Sized>(target: &T, campaign: &Campaign) -> u64 {
    campaign
        .termination
        .max_instructions
        .saturating_sub(target.instructions_executed())
}

/// One environment exchange, via ports or via the campaign's designated
/// memory locations (§3.2).
fn exchange_env<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
) -> Result<()> {
    match &campaign.env_exchange {
        EnvExchange::Ports => {
            let outputs = target.read_output_ports()?;
            let inputs = env.exchange(&outputs);
            target.write_input_ports(&inputs)?;
        }
        EnvExchange::Memory { outputs, inputs } => {
            let mut out_values = Vec::with_capacity(outputs.len());
            for &addr in outputs {
                out_values.push(target.read_memory(addr, 1)?[0]);
            }
            let in_values = env.exchange(&out_values);
            for (&addr, value) in inputs.iter().zip(in_values) {
                target.write_memory(addr, &[value])?;
            }
        }
    }
    Ok(())
}

/// Captures the observable system state per the campaign's observe list.
///
/// # Errors
///
/// Target errors. An out-of-range output region (a fault corrupted a
/// pointer) yields empty outputs rather than an error, so the experiment
/// still logs.
pub fn snapshot<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    with_memory_digest: bool,
) -> Result<StateSnapshot> {
    let mut snap = StateSnapshot {
        iterations: target.iterations_completed(),
        instructions: target.instructions_executed(),
        cycles: target.cycles_executed(),
        ..StateSnapshot::default()
    };
    for chain in &campaign.observe.chains {
        let bits = target.read_scan_chain(chain)?;
        snap.scan.insert(chain.clone(), bits.to_bit_string());
    }
    if with_memory_digest {
        snap.memory_digest = target.memory_digest(target.memory_size() as usize)?;
    }
    snap.outputs = match campaign.observe.output {
        OutputRegion::Memory { addr, len } => {
            target.read_memory(addr, len as usize).unwrap_or_default()
        }
        OutputRegion::Ports => target.read_output_ports()?,
    };
    Ok(snap)
}
