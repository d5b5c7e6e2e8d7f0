//! Parallel campaign execution, with crash-safe journaling and resume.
//!
//! Fault-injection experiments are independent: each one reloads the
//! workload and resets the target, so a campaign shards perfectly across
//! worker threads, each owning a private target instance (a simulator
//! affords as many "test cards" as there are cores — the one place this
//! reproduction can go beyond the paper's single-target hardware setup).
//! Results are identical to the serial runner's, which the integration
//! tests assert.
//!
//! Resilience guarantees of this module:
//!
//! - A failing experiment never discards completed records: the error is
//!   [`GoofiError::ExperimentFailed`] carrying the partial
//!   [`CampaignResult`], and when several workers fail concurrently the
//!   *lowest-index* failure is reported, deterministically.
//! - With a journal attached, every finished experiment is written to an
//!   append-only log before the campaign moves on, the log is synced in
//!   groups and once more before any result is returned, and
//!   [`resume_campaign`] restarts an interrupted campaign by re-running
//!   only what is missing — previously *failed* experiments are re-run as
//!   new experiments linked to the original via `parentExperiment`
//!   (paper §2.3).
//! - With supervision enabled (see [`crate::supervisor`]), each worker
//!   health-probes its own target, confirms watchdog timeouts as real
//!   hangs, and climbs the recovery ladder. A worker whose target
//!   escalates to offline *retires*: its in-flight experiment goes back on
//!   the queue for the surviving workers and the campaign degrades
//!   gracefully instead of failing — it only errors with
//!   [`GoofiError::TargetOffline`] when every worker's target has died.

use crate::algorithms::{self, CampaignResult, ExperimentSession};
use crate::campaign::Campaign;
use crate::golden::GoldenCache;
use crate::journal::ExperimentJournal;
use crate::logging::{ExperimentRecord, TerminationCause, Validity};
use crate::monitor::ProgressMonitor;
use crate::policy::ExperimentFailure;
use crate::supervisor::{RecoveryRecord, RecoveryTrigger, Supervisor};
use crate::target::TargetAccess;
use crate::telemetry::{Metric, Stage};
use crate::{GoofiError, Result};
use envsim::Environment;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of parallel work: a campaign experiment index plus, for
/// re-runs of previously failed experiments, the `(name, parent)` link of
/// the record to produce.
#[derive(Debug, Clone)]
struct WorkItem {
    index: usize,
    link: Option<(String, String)>,
}

/// What one worker left in a work item's slot.
enum Outcome {
    Completed(ExperimentRecord),
    /// Failed, policy says continue.
    Skipped(ExperimentFailure),
    /// Failed, policy says abort the campaign.
    Fatal(ExperimentFailure),
    /// Infrastructure error (journal I/O), aborts the campaign.
    Error(GoofiError),
}

/// Runs a campaign across `workers` threads.
///
/// `make_target` builds one target per worker; `make_env` (optional) builds
/// one environment simulator per worker. Records come back in experiment
/// order, preceded by the reference run — byte-for-byte what the serial
/// [`algorithms::run_campaign`] produces.
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign early;
/// [`GoofiError::ExperimentFailed`] (lowest failing index, completed
/// records preserved) when an experiment fails and the campaign's
/// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) aborts on
/// failure.
pub fn run_campaign_parallel<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    run_campaign_parallel_journaled(make_target, make_env, campaign, monitor, workers, None)
}

/// [`run_campaign_parallel`] with an optional crash-safe journal: the
/// reference run and every finished experiment are appended as they
/// complete, so a process crash loses at most the experiments in flight
/// (a power loss also the entries since the last group commit; see
/// [`crate::journal`]).
///
/// # Errors
///
/// As [`run_campaign_parallel`], plus journal I/O errors.
pub fn run_campaign_parallel_journaled<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    journal: Option<&mut ExperimentJournal>,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    run_campaign_parallel_journaled_opts(
        make_target,
        make_env,
        campaign,
        monitor,
        workers,
        journal,
        true,
    )
}

/// [`run_campaign_parallel_journaled`] with the snapshot/restore hot path
/// made explicit: `snapshots: false` forces every worker onto the slow
/// load-and-execute path (benchmark baselines, equivalence testing, or a
/// safety valve for a misbehaving target snapshot implementation).
///
/// # Errors
///
/// As [`run_campaign_parallel_journaled`].
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_parallel_journaled_opts<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    journal: Option<&mut ExperimentJournal>,
    snapshots: bool,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    if workers == 0 {
        return Err(GoofiError::Config("worker count must be at least 1".into()));
    }
    campaign.validate()?;
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);

    // Reference run on a dedicated target.
    let mut ref_target = make_target();
    let mut ref_env: Box<dyn Environment> = match &make_env {
        Some(f) => f(),
        None => Box::new(envsim::NullEnvironment),
    };
    let reference =
        algorithms::reference_run_traced(&mut ref_target, campaign, ref_env.as_mut(), &tel)?;
    // Workers share the journal through a mutex.
    let journal = journal.map(parking_lot::Mutex::new);
    if let Some(j) = &journal {
        tel.time(Stage::DbWrite, || j.lock().append_record(None, &reference))?;
    }

    let items: Vec<WorkItem> = (0..campaign.faults.len())
        .map(|index| WorkItem { index, link: None })
        .collect();
    execute_items(
        &make_target,
        &make_env,
        campaign,
        monitor,
        workers,
        &items,
        &BTreeMap::new(),
        reference,
        journal.as_ref(),
        snapshots,
    )
}

/// Resumes (or starts) a journaled campaign.
///
/// When `journal_path` does not exist yet, this is exactly
/// [`run_campaign_parallel_journaled`] with a fresh journal. Otherwise the
/// journal is loaded and the campaign completed: journaled experiments are
/// skipped (their records are reused verbatim), missing experiments run
/// normally, and journaled *failures* are re-run as new experiments named
/// `<original>/rerun<k>` with `parentExperiment` linking them to the
/// original experiment — the paper's §2.3 re-run tracking. An uninterrupted
/// run and a crash-then-resume run of the same campaign produce identical
/// [`CampaignResult`]s (absent failures).
///
/// # Errors
///
/// As [`run_campaign_parallel`], plus journal I/O and header-mismatch
/// errors.
pub fn resume_campaign<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    journal_path: impl AsRef<Path>,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    let total = campaign.faults.len();
    resume_campaign_shard(
        make_target,
        make_env,
        campaign,
        monitor,
        workers,
        journal_path,
        0..total,
    )
}

/// [`resume_campaign`], restricted to the experiment indices in `range` —
/// the campaign-service shard primitive. A shard worker owns one contiguous
/// slice of the campaign's experiment index space and one private journal;
/// everything else (journaled experiments reused, failures re-run as
/// `parentExperiment`-linked children, crash-then-resume equivalence) works
/// exactly as in [`resume_campaign`]. Journal entries keep their *global*
/// campaign indices, so the scheduler can merge shard journals into one
/// database with simple per-experiment idempotence.
///
/// # Errors
///
/// As [`resume_campaign`].
pub fn resume_campaign_shard<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    journal_path: impl AsRef<Path>,
    range: std::ops::Range<usize>,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    resume_campaign_shard_vfs(
        make_target,
        make_env,
        campaign,
        monitor,
        workers,
        &crate::vfs::RealFs,
        journal_path,
        range,
    )
}

/// [`resume_campaign_shard`] over an explicit [`crate::vfs::Vfs`] — the
/// seam the durability torture harness injects faults through.
///
/// # Errors
///
/// As [`resume_campaign`].
#[allow(clippy::too_many_arguments)]
pub fn resume_campaign_shard_vfs<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    vfs: &dyn crate::vfs::Vfs,
    journal_path: impl AsRef<Path>,
    range: std::ops::Range<usize>,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    let path = journal_path.as_ref();
    if workers == 0 {
        return Err(GoofiError::Config("worker count must be at least 1".into()));
    }
    campaign.validate()?;
    let total = campaign.faults.len();
    let range = range.start.min(total)..range.end.min(total);
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);
    if !vfs.exists(path) {
        ExperimentJournal::create_with(vfs, path, &campaign.name)?;
    } else {
        // Auto-fsck before appending: a crash can leave a torn or garbled
        // line mid-file, and anything appended after it would be invisible
        // to every later load. Salvage rewrites the journal down to its
        // valid entries; a file that is not recognisably a journal is
        // quarantined aside and a fresh journal started.
        crate::journal::salvage_with(vfs, path)?;
        if !vfs.exists(path) {
            ExperimentJournal::create_with(vfs, path, &campaign.name)?;
        }
    }
    let state = ExperimentJournal::load_with(vfs, path, &campaign.name)?;
    let mut journal_file = ExperimentJournal::open_append_with(vfs, path)?;
    let journal = parking_lot::Mutex::new(&mut journal_file);

    // Reuse the journaled reference run, the golden cache's copy from an
    // earlier run over the same configuration, or make (and journal) one
    // now. A resumed shard whose journal already holds the reference never
    // consults the cache — the journal is the more authoritative source.
    let reference = match state.reference {
        Some(reference) => reference,
        None => {
            let mut ref_env: Box<dyn Environment> = match &make_env {
                Some(f) => f(),
                None => Box::new(envsim::NullEnvironment),
            };
            let cache = GoldenCache::new(vfs, path, campaign, ref_env.name());
            let reference = match cache.load(campaign) {
                Some(cached) => {
                    tel.count(Metric::GoldenCacheHits, 1);
                    cached
                }
                None => {
                    tel.count(Metric::GoldenCacheMisses, 1);
                    let mut ref_target = make_target();
                    let fresh = algorithms::reference_run_traced(
                        &mut ref_target,
                        campaign,
                        ref_env.as_mut(),
                        &tel,
                    )?;
                    cache.store(campaign, &fresh);
                    fresh
                }
            };
            tel.time(Stage::DbWrite, || {
                journal.lock().append_record(None, &reference)
            })?;
            reference
        }
    };

    // Journaled completions within the shard count as progress without
    // re-running.
    let preloaded: BTreeMap<usize, ExperimentRecord> = state
        .completed
        .into_iter()
        .filter(|(index, _)| range.contains(index))
        .collect();
    for record in preloaded.values() {
        monitor.record(&record.termination);
    }

    let items: Vec<WorkItem> = range
        .clone()
        .filter(|index| !preloaded.contains_key(index))
        .map(|index| {
            let link = state.failed.get(&index).map(|_| {
                let original = campaign.experiment_name(index);
                let round = state.failed_rounds.get(&index).copied().unwrap_or(1);
                (format!("{original}/rerun{round}"), original)
            });
            WorkItem { index, link }
        })
        .collect();

    execute_items(
        &make_target,
        &make_env,
        campaign,
        monitor,
        workers,
        &items,
        &preloaded,
        reference,
        Some(&journal),
        true,
    )
}

/// Shared parallel executor: runs `items` across `workers` threads,
/// merges the outcomes with `preloaded` records (from a resumed journal)
/// and assembles the campaign result. The journal is committed on every
/// return path, `Ok` or `Err`, so no result leaves the executor before the
/// journal entries behind it are synced; a failed sync replaces the
/// result, which the journal cannot back.
#[allow(clippy::too_many_arguments)]
fn execute_items<T, FT, FE>(
    make_target: &FT,
    make_env: &Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    items: &[WorkItem],
    preloaded: &BTreeMap<usize, ExperimentRecord>,
    reference: ExperimentRecord,
    journal: Option<&parking_lot::Mutex<&mut ExperimentJournal>>,
    snapshots: bool,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    let result = run_items(
        make_target,
        make_env,
        campaign,
        monitor,
        workers,
        items,
        preloaded,
        reference,
        journal,
        snapshots,
    );
    match journal {
        Some(j) => j.lock().commit().and(result),
        None => result,
    }
}

/// The body of [`execute_items`], minus the final journal commit.
#[allow(clippy::too_many_arguments)]
fn run_items<T, FT, FE>(
    make_target: &FT,
    make_env: &Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    items: &[WorkItem],
    preloaded: &BTreeMap<usize, ExperimentRecord>,
    reference: ExperimentRecord,
    journal: Option<&parking_lot::Mutex<&mut ExperimentJournal>>,
    snapshots: bool,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    // Snapshot mode executes in trigger order (stable sort, ties keep
    // campaign-index order): workers claim items off a shared counter, so
    // a sorted item list keeps every worker's claimed subsequence
    // monotonic in trigger time and its [`ExperimentSession`]
    // fast-forwarding instead of re-executing prefixes. Assembly below
    // keys records by campaign index, so results and journals are
    // unaffected by execution order.
    let mut trigger_sorted;
    let items = if snapshots {
        trigger_sorted = items.to_vec();
        trigger_sorted.sort_by_key(|item| {
            algorithms::trigger_order_key(&campaign.faults[item.index].trigger)
        });
        &trigger_sorted[..]
    } else {
        items
    };
    let workers = workers.min(items.len().max(1));
    let mut slots: Vec<parking_lot::Mutex<Option<Outcome>>> = Vec::new();
    slots.resize_with(items.len(), || parking_lot::Mutex::new(None));
    let next = AtomicUsize::new(0);
    // Graceful-degradation plumbing: a retiring worker (target offline)
    // hands its in-flight slot back through `requeue`; `in_flight` keeps
    // idle workers alive while a retirement could still requeue work;
    // `retired` counts dead targets so the fan-in can tell "campaign
    // degraded but completed" from "every target died".
    let requeue: parking_lot::Mutex<Vec<usize>> = parking_lot::Mutex::new(Vec::new());
    let in_flight = AtomicUsize::new(0);
    let retired = AtomicUsize::new(0);
    let supervisor = Supervisor::from_campaign(campaign, &reference);
    let sup_quarantined: parking_lot::Mutex<Vec<ExperimentRecord>> =
        parking_lot::Mutex::new(Vec::new());
    let recoveries: parking_lot::Mutex<Vec<RecoveryRecord>> = parking_lot::Mutex::new(Vec::new());

    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let mut target = make_target();
                let mut env: Box<dyn Environment> = match make_env {
                    Some(f) => f(),
                    None => Box::new(envsim::NullEnvironment),
                };
                // Each worker owns its target, so it also owns the
                // snapshot session for that target's experiment prefixes.
                let mut session = snapshots.then(ExperimentSession::new);
                let mut done_here: usize = 0;
                loop {
                    if monitor.checkpoint().is_err() {
                        return;
                    }
                    let slot = match requeue.lock().pop() {
                        Some(slot) => slot,
                        None => {
                            let claim = next.fetch_add(1, Ordering::Relaxed);
                            if claim >= items.len() {
                                if in_flight.load(Ordering::Acquire) == 0 {
                                    return;
                                }
                                // A busy worker may yet retire and requeue
                                // its item; stay alive until all work is
                                // accounted for.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                continue;
                            }
                            claim
                        }
                    };
                    let item = &items[slot];
                    in_flight.fetch_add(1, Ordering::AcqRel);
                    let outcome = match algorithms::run_linked_experiment_with_policy(
                        &mut target,
                        campaign,
                        item.index,
                        item.link.clone(),
                        monitor,
                        env.as_mut(),
                        session.as_mut(),
                    ) {
                        Ok(Ok(record)) => {
                            let supervised = match &supervisor {
                                Some(sup) => supervise_worker_record(
                                    &mut target,
                                    campaign,
                                    sup,
                                    record,
                                    item,
                                    monitor,
                                    env.as_mut(),
                                    journal,
                                    &sup_quarantined,
                                    &recoveries,
                                ),
                                None => Ok(WorkerSupervise::Record(record)),
                            };
                            match supervised {
                                Ok(WorkerSupervise::Record(record)) => {
                                    monitor.record(&record.termination);
                                    match journal
                                        .map(|j| {
                                            monitor.telemetry().time(Stage::DbWrite, || {
                                                j.lock().append_record(Some(item.index), &record)
                                            })
                                        })
                                        .unwrap_or(Ok(()))
                                    {
                                        Ok(()) => Outcome::Completed(record),
                                        Err(e) => Outcome::Error(e),
                                    }
                                }
                                Ok(WorkerSupervise::Failure(failure)) => {
                                    monitor.record_failed();
                                    match journal
                                        .map(|j| {
                                            monitor.telemetry().time(Stage::DbWrite, || {
                                                j.lock().append_failure(&failure)
                                            })
                                        })
                                        .unwrap_or(Ok(()))
                                    {
                                        Ok(()) if campaign.policy.fails_campaign() => {
                                            Outcome::Fatal(failure)
                                        }
                                        Ok(()) => Outcome::Skipped(failure),
                                        Err(e) => Outcome::Error(e),
                                    }
                                }
                                Ok(WorkerSupervise::Offline) => {
                                    // Hand the experiment to the surviving
                                    // workers, then retire this one. Requeue
                                    // before the in-flight decrement so idle
                                    // workers never miss the hand-off.
                                    requeue.lock().push(slot);
                                    in_flight.fetch_sub(1, Ordering::AcqRel);
                                    retired.fetch_add(1, Ordering::AcqRel);
                                    return;
                                }
                                Err(GoofiError::Stopped) => {
                                    in_flight.fetch_sub(1, Ordering::AcqRel);
                                    return;
                                }
                                Err(e) => Outcome::Error(e),
                            }
                        }
                        Ok(Err(failure)) => {
                            monitor.record_failed();
                            match journal
                                .map(|j| {
                                    monitor
                                        .telemetry()
                                        .time(Stage::DbWrite, || j.lock().append_failure(&failure))
                                })
                                .unwrap_or(Ok(()))
                            {
                                Ok(()) if campaign.policy.fails_campaign() => {
                                    Outcome::Fatal(failure)
                                }
                                Ok(()) => Outcome::Skipped(failure),
                                Err(e) => Outcome::Error(e),
                            }
                        }
                        // User stop mid-experiment: claim no more work.
                        Err(_) => {
                            in_flight.fetch_sub(1, Ordering::AcqRel);
                            return;
                        }
                    };
                    let abort = matches!(outcome, Outcome::Fatal(_) | Outcome::Error(_));
                    *slots[slot].lock() = Some(outcome);
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    if abort {
                        // Let other workers finish their current item, but
                        // claim no more work.
                        monitor.stop();
                        return;
                    }
                    done_here += 1;
                    // Scheduled health probes, per worker: each target gets
                    // probed every `n` experiments it completed.
                    if let Some(sup) = &supervisor {
                        if sup.probe_due(done_here)
                            && !sup.probe(&mut target, env.as_mut(), monitor).passed()
                        {
                            let context = campaign.experiment_name(item.index);
                            let recovery = sup.recover(
                                &mut target,
                                env.as_mut(),
                                monitor,
                                &context,
                                RecoveryTrigger::ProbeFailure,
                            );
                            let recovered = recovery.recovered;
                            recoveries.lock().push(recovery);
                            if !recovered {
                                // Nothing in flight to requeue: the item
                                // already completed. Just retire.
                                retired.fetch_add(1, Ordering::AcqRel);
                                return;
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("campaign worker panicked");
    let retired = retired.into_inner();
    let mut recoveries = recoveries.into_inner();
    let mut quarantined = sup_quarantined.into_inner();
    // Worker interleaving makes the raw push order nondeterministic; sort
    // for stable results and reports.
    recoveries.sort_by(|a, b| a.experiment.cmp(&b.experiment));
    quarantined.sort_by(|a, b| a.name.cmp(&b.name));

    // Assemble in campaign-index order. `items` is deterministically
    // ordered (index-sorted, or trigger-sorted with index tiebreak in
    // snapshot mode), so the first Fatal/Error outcome kept is the same
    // one no matter which worker failed first.
    let mut completed: BTreeMap<usize, ExperimentRecord> = preloaded.clone();
    let mut failures: Vec<ExperimentFailure> = Vec::new();
    let mut first_abort: Option<Outcome> = None;
    let mut fresh: Vec<usize> = Vec::new();
    for (item, cell) in items.iter().zip(slots) {
        match cell.into_inner() {
            Some(Outcome::Completed(record)) => {
                completed.insert(item.index, record);
                fresh.push(item.index);
            }
            Some(Outcome::Skipped(failure)) => failures.push(failure),
            Some(outcome @ (Outcome::Fatal(_) | Outcome::Error(_))) => {
                first_abort.get_or_insert(outcome);
            }
            // Unclaimed slot: the campaign stopped before this item ran.
            None => {}
        }
    }
    // Trigger-order execution must not leak into reported order.
    failures.sort_by_key(|failure| failure.index);
    fresh.sort_unstable();

    // End-of-run golden revalidation. The serial runner revalidates every
    // `revalidate_every` experiments; with workers interleaving, the
    // parallel runner makes one coarser check after the fan-in: re-run the
    // fault-free reference and, on drift, quarantine every experiment
    // completed *this run* (preloaded journal records were validated by the
    // run that produced them) and re-run each as a `parentExperiment`-linked
    // rerun on a fresh target.
    let revalidate = campaign.policy.revalidate_every.is_some_and(|n| n > 0);
    if revalidate && first_abort.is_none() && !monitor.is_stopped() && !fresh.is_empty() {
        let mut target = make_target();
        let mut env: Box<dyn Environment> = match make_env {
            Some(f) => f(),
            None => Box::new(envsim::NullEnvironment),
        };
        let golden = algorithms::reference_run_traced(
            &mut target,
            campaign,
            env.as_mut(),
            monitor.telemetry(),
        )?;
        if !algorithms::golden_run_matches(&reference, &golden) {
            // Mark-first across the whole batch: every quarantine entry
            // reaches the journal before any rerun starts, so a crash at
            // any later point still reruns all suspects on resume.
            for &index in &fresh {
                let slot = completed.get_mut(&index).expect("fresh index is completed");
                slot.validity = Validity::Invalid;
                if let Some(j) = journal {
                    monitor
                        .telemetry()
                        .time(Stage::DbWrite, || j.lock().append_record(Some(index), slot))?;
                }
                monitor.record_quarantined();
            }
            for index in fresh {
                let original = completed[&index].name.clone();
                let link = Some((format!("{original}/rerun1"), original));
                // Quarantine re-runs stay on the slow path: the whole point
                // of a revalidation rerun is a from-scratch execution.
                match algorithms::run_linked_experiment_with_policy(
                    &mut target,
                    campaign,
                    index,
                    link,
                    monitor,
                    env.as_mut(),
                    None,
                ) {
                    // Reruns replace the quarantined record; they are not
                    // re-counted as completed progress (the original was).
                    Ok(Ok(rerun)) => {
                        if let Some(j) = journal {
                            monitor.telemetry().time(Stage::DbWrite, || {
                                j.lock().append_record(Some(index), &rerun)
                            })?;
                        }
                        let slot = completed.get_mut(&index).expect("fresh index is completed");
                        quarantined.push(std::mem::replace(slot, rerun));
                    }
                    Ok(Err(failure)) => {
                        if let Some(j) = journal {
                            monitor
                                .telemetry()
                                .time(Stage::DbWrite, || j.lock().append_failure(&failure))?;
                        }
                        if campaign.policy.fails_campaign() {
                            first_abort = Some(Outcome::Fatal(failure));
                            break;
                        }
                        failures.push(failure);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    failures.sort_by_key(|f| f.index);
    let partial = CampaignResult {
        reference,
        records: completed.into_values().collect(),
        failures,
        quarantined,
        recoveries,
    };
    let incomplete = partial.records.len() + partial.failures.len() < preloaded.len() + items.len();
    match first_abort {
        Some(Outcome::Fatal(failure)) => Err(GoofiError::ExperimentFailed {
            failure,
            partial: Box::new(partial),
        }),
        Some(Outcome::Error(e)) => Err(e),
        _ if monitor.is_stopped() => Err(GoofiError::Stopped),
        _ if incomplete && retired >= workers => {
            // Every worker's target died: the campaign could not degrade
            // any further. The completed shard is preserved.
            Err(GoofiError::TargetOffline {
                context: format!("all {workers} worker target(s) retired"),
                partial: Box::new(partial),
            })
        }
        _ if incomplete => {
            // Unclaimed slots without a stop request should be impossible;
            // report rather than fabricate a partial result silently.
            Err(GoofiError::Stopped)
        }
        _ => Ok(partial),
    }
}

/// What worker-side supervision decided about a freshly-completed record.
#[allow(clippy::large_enum_variant)] // transient per-experiment value, never stored in bulk
enum WorkerSupervise {
    /// The record stands (possibly a linked re-run replacing a hang).
    Record(ExperimentRecord),
    /// The experiment kept hanging (or its re-run failed).
    Failure(ExperimentFailure),
    /// The ladder was exhausted: the worker must requeue its item and
    /// retire.
    Offline,
}

/// The worker-side twin of the serial runner's hang resolution: confirms a
/// `Timeout` with the probe suite, quarantines confirmed hangs (rewritten
/// to [`TerminationCause::TargetHang`]), climbs the recovery ladder and
/// re-runs the experiment as a `parentExperiment`-linked child, bounded by
/// the ladder's `max_hang_rounds`.
///
/// # Errors
///
/// [`GoofiError::Stopped`] or journal I/O errors.
#[allow(clippy::too_many_arguments)]
fn supervise_worker_record<T: TargetAccess>(
    target: &mut T,
    campaign: &Campaign,
    sup: &Supervisor<'_>,
    mut record: ExperimentRecord,
    item: &WorkItem,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    journal: Option<&parking_lot::Mutex<&mut ExperimentJournal>>,
    quarantined: &parking_lot::Mutex<Vec<ExperimentRecord>>,
    recoveries: &parking_lot::Mutex<Vec<RecoveryRecord>>,
) -> Result<WorkerSupervise> {
    let mut round: u32 = 0;
    loop {
        if record.termination != TerminationCause::Timeout {
            return Ok(WorkerSupervise::Record(record));
        }
        if sup.probe(target, &mut *env, monitor).passed() {
            // A slow workload, not a wedge: the Timeout stands.
            return Ok(WorkerSupervise::Record(record));
        }
        round += 1;
        monitor.record_hang();
        record.termination = TerminationCause::TargetHang;
        record.validity = Validity::Invalid;
        if let Some(j) = journal {
            monitor.telemetry().time(Stage::DbWrite, || {
                j.lock().append_record(Some(item.index), &record)
            })?;
        }
        monitor.record_quarantined();
        let parent = record.name.clone();
        quarantined.lock().push(record);
        let recovery = sup.recover(
            target,
            &mut *env,
            monitor,
            &parent,
            RecoveryTrigger::TargetHang,
        );
        let recovered = recovery.recovered;
        recoveries.lock().push(recovery);
        if !recovered {
            return Ok(WorkerSupervise::Offline);
        }
        if round > sup.ladder().max_hang_rounds {
            return Ok(WorkerSupervise::Failure(ExperimentFailure {
                index: item.index,
                name: parent,
                attempts: round,
                error: "target hang persisted across recovery re-runs".into(),
            }));
        }
        let base = match &item.link {
            Some((name, _)) => name.clone(),
            None => campaign.experiment_name(item.index),
        };
        let link = Some((format!("{base}/rerun{round}"), parent));
        // The target just climbed the recovery ladder; any snapshot taken
        // before the hang is stale, so this re-run executes from scratch.
        match algorithms::run_linked_experiment_with_policy(
            target, campaign, item.index, link, monitor, env, None,
        )? {
            Ok(rerun) => record = rerun,
            Err(failure) => return Ok(WorkerSupervise::Failure(failure)),
        }
    }
}
