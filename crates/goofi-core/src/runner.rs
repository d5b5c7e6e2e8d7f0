//! The campaign executor: one per-worker loop behind every way a campaign
//! runs — serial, threaded, resumed from a journal, or one shard of a
//! service job.
//!
//! Fault-injection experiments are independent: each one reloads the
//! workload and resets the target, so a campaign shards perfectly across
//! workers, each owning a private target instance (a simulator affords as
//! many "test cards" as there are cores — the one place this reproduction
//! can go beyond the paper's single-target hardware setup).
//!
//! [`execute`] runs one loop per worker: claim an item, run it under the
//! campaign's retry policy, resolve hangs, journal the outcome, run the
//! scheduled health probes and, with one worker, revalidate the golden
//! run every `revalidate_every` experiments. One worker drives the
//! caller's target on the calling thread; more workers run on scoped
//! threads, each building its own target. One fan-in assembles the
//! [`CampaignResult`] by campaign index, so results do not depend on the
//! worker count or the execution order, which the integration tests
//! assert.
//!
//! Resilience guarantees of this module:
//!
//! - A failing experiment never discards completed records: the error is
//!   [`GoofiError::ExperimentFailed`] carrying the partial
//!   [`CampaignResult`], and when several workers fail concurrently the
//!   failure of the *earliest item* in execution order is reported,
//!   deterministically.
//! - With a journal attached, every finished experiment is written to an
//!   append-only log before the worker moves on, the log is synced in
//!   groups and once more before any result is returned, and a resumed
//!   run (a journal plus its loaded [`JournalState`]) re-runs only what is
//!   missing — previously *failed* experiments are re-run as new
//!   experiments linked to the original via `parentExperiment` (paper
//!   §2.3).
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
use crate::journal::{ExperimentJournal, JournalState};
use crate::logging::{ExperimentRecord, TerminationCause, Validity};
use crate::monitor::ProgressMonitor;
use crate::policy::ExperimentFailure;
use crate::supervisor::{RecoveryRecord, RecoveryTrigger, Supervisor};
use crate::target::TargetAccess;
use crate::telemetry::{Metric, Stage};
use crate::{GoofiError, Result};
use envsim::Environment;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Where [`execute`] gets its targets and environment simulators.
pub enum Targets<'a, T: ?Sized> {
    /// The caller's own target and environment: one worker, driven on the
    /// calling thread.
    Own(&'a mut T, &'a mut dyn Environment),
    /// Builds targets and environments on demand: one pair per worker,
    /// plus, with more than one worker, a dedicated pair for the reference
    /// run and one for the end-of-run golden check.
    Factory {
        /// Builds one target.
        target: Box<dyn Fn() -> Box<T> + Sync + 'a>,
        /// Builds one environment simulator.
        env: Box<dyn Fn() -> Box<dyn Environment> + Sync + 'a>,
    },
}

impl<'a, T: TargetAccess + 'a> Targets<'a, T> {
    /// Targets built by `make_target`, each paired with a
    /// [`envsim::NullEnvironment`] (see [`Targets::with_env`]).
    pub fn factory(make_target: impl Fn() -> T + Sync + 'a) -> Self {
        Targets::Factory {
            target: Box::new(move || Box::new(make_target())),
            env: Box::new(|| Box::new(envsim::NullEnvironment)),
        }
    }
}

impl<'a, T: ?Sized> Targets<'a, T> {
    /// Pairs every built target with an environment from `make_env`. An
    /// [`Targets::Own`] pair keeps the caller's environment.
    pub fn with_env(self, make_env: impl Fn() -> Box<dyn Environment> + Sync + 'a) -> Self {
        match self {
            Targets::Factory { target, .. } => Targets::Factory {
                target,
                env: Box::new(make_env),
            },
            own => own,
        }
    }
}

/// How [`execute`] runs a campaign. The default is one worker over the
/// whole campaign, without a journal or golden cache, on the snapshot fast
/// path.
pub struct RunOptions<'a> {
    /// Worker count. More than one needs [`Targets::Factory`].
    pub workers: usize,
    /// Campaign indices to run, clamped to the campaign — a service shard
    /// runs one contiguous slice. Records keep their global indices.
    pub range: Range<usize>,
    /// Crash-safe journal: the reference (unless it came from `resume`)
    /// and every finished experiment are appended as they complete, and
    /// the journal is committed on every return path (see
    /// [`crate::journal`]).
    pub journal: Option<&'a mut ExperimentJournal>,
    /// What the journal already holds, for a resumed run: its reference
    /// and completed records are reused verbatim, its failures re-run as
    /// `<original>/rerun<k>` children linked by `parentExperiment`.
    pub resume: Option<JournalState>,
    /// A [`GoldenCache`] consulted when the journal holds no reference; a
    /// revalidation drift invalidates it and a clean check re-stores it.
    pub cache: Option<&'a GoldenCache<'a>>,
    /// `false` forces the slow per-experiment path even on
    /// snapshot-capable targets (the CLI's `--no-snapshot`).
    pub snapshots: bool,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            workers: 1,
            range: 0..usize::MAX,
            journal: None,
            resume: None,
            cache: None,
            snapshots: true,
        }
    }
}

/// Runs a campaign: the reference run, then every experiment of
/// `opts.range` not already in `opts.resume`, on `opts.workers` workers.
///
/// The reference comes from the resumed journal, else the golden cache,
/// else a fresh run — on the lone worker's target, or with more workers on
/// a dedicated target built first. Snapshot mode executes experiments in
/// trigger order; records come back in campaign-index order, preceded by
/// the reference run, whatever the worker count.
///
/// Golden-run revalidation (`revalidate_every = n`) checks every `n`
/// completed experiments on the lone worker's own target. Threads
/// interleave, so with more workers one check runs after the fan-in on a
/// fresh target and covers every experiment completed by this run.
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign early;
/// [`GoofiError::ExperimentFailed`] (earliest failing item, completed
/// records preserved) when an experiment fails and the campaign's
/// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) aborts on
/// failure; [`GoofiError::TargetOffline`] when every worker's target died
/// with experiments left; target, configuration and journal I/O errors.
pub fn execute<T: TargetAccess + ?Sized>(
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    targets: Targets<'_, T>,
    mut opts: RunOptions<'_>,
) -> Result<CampaignResult> {
    let result = run(campaign, monitor, targets, &mut opts);
    // Commit on every return path, `Ok` or `Err`: no result leaves the
    // executor before the journal entries behind it are synced, and a
    // failed sync replaces the result, which the journal cannot back.
    match opts.journal {
        Some(j) => j.commit().and(result),
        None => result,
    }
}

/// Runs a campaign across `workers` workers, each with a target from
/// `make_target` and an environment from `make_env` (a
/// [`envsim::NullEnvironment`] when `None`), optionally journaled; the
/// threaded form of [`algorithms::run_campaign_journaled_opts`].
///
/// # Errors
///
/// As [`execute`].
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
    let targets = Targets::factory(make_target);
    let targets = match make_env {
        Some(make_env) => targets.with_env(make_env),
        None => targets,
    };
    execute(
        campaign,
        monitor,
        targets,
        RunOptions {
            workers,
            journal,
            snapshots,
            ..RunOptions::default()
        },
    )
}

/// The body of [`execute`], minus the final journal commit.
fn run<T: TargetAccess + ?Sized>(
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    targets: Targets<'_, T>,
    opts: &mut RunOptions<'_>,
) -> Result<CampaignResult> {
    let workers = opts.workers;
    if workers == 0 {
        return Err(GoofiError::Config("worker count must be at least 1".into()));
    }
    campaign.validate()?;
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);

    // One worker drives a single target on this thread: a factory builds
    // it up front. More workers each build their own.
    let mut built: Option<(Box<T>, Box<dyn Environment>)> = None;
    let mut targets = match targets {
        Targets::Own(..) if workers > 1 => {
            return Err(GoofiError::Config(
                "a caller-owned target runs one worker; pass a target factory for more".into(),
            ))
        }
        Targets::Factory { target, env } if workers == 1 => {
            let (target, env) = built.insert((target(), env()));
            Targets::Own(&mut **target, &mut **env)
        }
        // Rebuilt rather than moved, to borrow for this call only.
        Targets::Own(target, env) => Targets::Own(target, env),
        Targets::Factory { target, env } => Targets::Factory { target, env },
    };

    let journal = opts.journal.as_deref_mut().map(Mutex::new);
    let state = opts.resume.take().unwrap_or_default();
    let journaled = state.reference.is_some();
    let reference = match state.reference {
        Some(reference) => reference,
        None => match opts.cache.and_then(|c| c.load(campaign)) {
            Some(cached) => {
                tel.count(Metric::GoldenCacheHits, 1);
                cached
            }
            None => {
                let fresh = match &mut targets {
                    Targets::Own(target, env) => {
                        algorithms::reference_run_traced(&mut **target, campaign, &mut **env, &tel)?
                    }
                    Targets::Factory { target, env } => algorithms::reference_run_traced(
                        &mut *target(),
                        campaign,
                        env().as_mut(),
                        &tel,
                    )?,
                };
                if let Some(c) = opts.cache {
                    tel.count(Metric::GoldenCacheMisses, 1);
                    c.store(campaign, &fresh);
                }
                fresh
            }
        },
    };
    if !journaled {
        if let Some(j) = &journal {
            tel.time(Stage::DbWrite, || j.lock().append_record(None, &reference))?;
        }
    }

    // Journaled completions within the range count as progress without
    // re-running; journaled failures re-run as linked children.
    let total = campaign.faults.len();
    let range = opts.range.start.min(total)..opts.range.end.min(total);
    let preloaded: BTreeMap<usize, ExperimentRecord> = state
        .completed
        .into_iter()
        .filter(|(index, _)| range.contains(index))
        .collect();
    for record in preloaded.values() {
        monitor.record(&record.termination);
    }
    let mut items: Vec<WorkItem> = range
        .filter(|index| !preloaded.contains_key(index))
        .map(|index| {
            let link = state.failed.contains_key(&index).then(|| {
                let original = campaign.experiment_name(index);
                let round = state.failed_rounds.get(&index).copied().unwrap_or(1);
                (format!("{original}/rerun{round}"), original)
            });
            WorkItem { index, link }
        })
        .collect();

    // Snapshot mode executes in trigger order (stable sort, ties keep
    // campaign-index order): each worker's claimed subsequence stays
    // monotonic in trigger time, so its session fast-forwards from the
    // previous trigger snapshot instead of re-executing prefixes. A lone
    // target that cannot take or safely reuse snapshots keeps the slow
    // path and its execution order.
    let snapshots = opts.snapshots
        && match &targets {
            Targets::Own(target, _) => target.supports_snapshot() && target.prefix_restore_safe(),
            Targets::Factory { .. } => true,
        };
    if snapshots {
        items.sort_by_key(|item| {
            algorithms::trigger_order_key(&campaign.faults[item.index].trigger)
        });
    }

    let revalidate_every = campaign
        .policy
        .revalidate_every
        .map(|n| n as usize)
        .filter(|n| *n > 0);
    let shared = Shared {
        campaign,
        monitor,
        items: &items,
        reference: &reference,
        supervisor: Supervisor::from_campaign(campaign, &reference),
        journal: journal.as_ref(),
        cache: opts.cache,
        snapshots,
        window: revalidate_every.filter(|_| matches!(targets, Targets::Own(..))),
        next: AtomicUsize::new(0),
        requeue: Mutex::new(Vec::new()),
        in_flight: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    };
    let (reports, threads) = match &mut targets {
        Targets::Own(target, env) => (vec![shared.work(&mut **target, &mut **env)], 1),
        Targets::Factory { target, env } => {
            let threads = workers.min(items.len().max(1));
            let reports = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|_| shared.work(&mut *target(), env().as_mut())))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect::<Vec<_>>()
            })
            .expect("campaign worker panicked");
            (reports, threads)
        }
    };

    // Fan-in by campaign index. Worker interleaving makes the raw push
    // order nondeterministic; sort everything for stable results and
    // reports.
    let mut records = preloaded;
    let mut fresh: Vec<usize> = Vec::new();
    let mut failures: Vec<ExperimentFailure> = Vec::new();
    let mut quarantined: Vec<ExperimentRecord> = Vec::new();
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    let mut abort: Option<(usize, Abort)> = None;
    let mut offline: Vec<String> = Vec::new();
    for report in reports {
        for (index, record) in report.completed {
            fresh.push(index);
            records.insert(index, record);
        }
        failures.extend(report.failures);
        quarantined.extend(report.quarantined);
        recoveries.extend(report.recoveries);
        offline.extend(report.offline);
        if let Some((pos, a)) = report.abort {
            if abort.as_ref().is_none_or(|(first, _)| pos < *first) {
                abort = Some((pos, a));
            }
        }
    }
    recoveries.sort_by(|a, b| a.experiment.cmp(&b.experiment));
    quarantined.sort_by(|a, b| a.name.cmp(&b.name));

    // The end-of-run golden check of a threaded run. Records preloaded
    // from a resumed journal were validated by the run that produced them.
    if let (Targets::Factory { target, env }, Some(_)) = (&targets, revalidate_every) {
        if abort.is_none() && !monitor.is_stopped() && !fresh.is_empty() {
            fresh.sort_unstable();
            let mut suspects: Vec<(usize, &mut ExperimentRecord)> = records
                .iter_mut()
                .filter(|(index, _)| fresh.binary_search(index).is_ok())
                .map(|(index, record)| (*index, record))
                .collect();
            if let Some(failure) = shared.revalidate(
                &mut *target(),
                env().as_mut(),
                &mut suspects,
                &mut failures,
                &mut quarantined,
            )? {
                abort = Some((items.len(), Abort::Fatal(failure)));
            }
        }
    }

    failures.sort_by_key(|f| f.index);
    let incomplete = fresh.len() + failures.len() < items.len();
    let partial = CampaignResult {
        reference,
        records: records.into_values().collect(),
        failures,
        quarantined,
        recoveries,
    };
    match abort.map(|(_, a)| a) {
        Some(Abort::Fatal(failure)) => Err(GoofiError::ExperimentFailed {
            failure,
            partial: Box::new(partial),
        }),
        Some(Abort::Error(e)) => Err(e),
        None if monitor.is_stopped() => Err(GoofiError::Stopped),
        None if incomplete && offline.len() >= threads => {
            // Every worker's target died: the campaign could not degrade
            // any further. The completed part is preserved. A lone worker
            // names the experiment its target died on.
            let context = match (workers, offline.pop()) {
                (1, Some(experiment)) => experiment,
                _ => format!("all {threads} worker target(s) retired"),
            };
            Err(GoofiError::TargetOffline {
                context,
                partial: Box::new(partial),
            })
        }
        // Unclaimed items without a stop request should be impossible;
        // report rather than fabricate a partial result silently.
        None if incomplete => Err(GoofiError::Stopped),
        None => Ok(partial),
    }
}

/// One unit of work: a campaign experiment index plus, for re-runs of
/// previously failed experiments, the `(name, parent)` link of the record
/// to produce.
#[derive(Debug)]
struct WorkItem {
    index: usize,
    link: Option<(String, String)>,
}

/// A failure that ends the whole campaign.
enum Abort {
    /// An experiment failed and the policy aborts the campaign.
    Fatal(ExperimentFailure),
    /// An infrastructure error (journal I/O, a failed golden run).
    Error(GoofiError),
}

/// What one worker hands the fan-in.
#[derive(Default)]
struct WorkerReport {
    /// Completed records by campaign index, in execution order.
    completed: Vec<(usize, ExperimentRecord)>,
    /// Failures the policy skipped.
    failures: Vec<ExperimentFailure>,
    quarantined: Vec<ExperimentRecord>,
    recoveries: Vec<RecoveryRecord>,
    /// The failure that stopped this worker, with its item's position in
    /// the execution order.
    abort: Option<(usize, Abort)>,
    /// The experiment this worker's target died on, when it retired.
    offline: Option<String>,
}

/// What hang resolution decided about a freshly-completed record.
#[allow(clippy::large_enum_variant)] // transient per-experiment value, never stored in bulk
enum Resolved {
    /// The record stands (possibly a linked re-run replacing a hang).
    Record(ExperimentRecord),
    /// The experiment kept hanging (or its re-run failed).
    Failure(ExperimentFailure),
    /// The ladder was exhausted on the named experiment: the target is
    /// offline.
    Offline(String),
}

/// What running one claimed item left the worker to do.
enum Step {
    /// The outcome is in the report; carry on.
    Done,
    /// The policy aborts the campaign on this failure.
    Fatal(ExperimentFailure),
    /// The target went offline on the named experiment.
    Offline(String),
}

/// The state every worker of one run shares.
struct Shared<'s> {
    campaign: &'s Campaign,
    monitor: &'s ProgressMonitor,
    /// Every item of the run, in execution order.
    items: &'s [WorkItem],
    reference: &'s ExperimentRecord,
    supervisor: Option<Supervisor<'s>>,
    journal: Option<&'s Mutex<&'s mut ExperimentJournal>>,
    cache: Option<&'s GoldenCache<'s>>,
    snapshots: bool,
    /// Revalidate every `n` completions on the worker's own target (one
    /// worker only).
    window: Option<usize>,
    /// Next unclaimed item position.
    next: AtomicUsize,
    /// Items handed back by retiring workers.
    requeue: Mutex<Vec<usize>>,
    /// Workers holding or looking for an item: while one is busy, idle
    /// workers stay alive in case it retires and requeues its item.
    in_flight: AtomicUsize,
    /// Set by the first worker that aborts the campaign: the others finish
    /// their current item but claim no more.
    abort: AtomicBool,
}

impl Shared<'_> {
    /// The per-worker loop: claim an item, run it, probe the target when
    /// due and, with one worker, revalidate each full window and the tail.
    fn work<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
    ) -> WorkerReport {
        let mut report = WorkerReport::default();
        // Each worker owns its target, so it also owns the snapshot session
        // for that target's experiment prefixes.
        let mut session = self.snapshots.then(ExperimentSession::new);
        let mut done: usize = 0;
        // Where the current revalidation window starts in `completed`.
        let mut window_start: usize = 0;
        loop {
            let claimed = self.claim();
            if let Some(slot) = claimed {
                let item = &self.items[slot];
                let step = self.run_item(target, env, session.as_mut(), item, &mut report);
                if let Ok(Step::Offline(_)) = step {
                    // Hand the experiment to the surviving workers before
                    // leaving the in-flight count, so idle workers never
                    // miss the hand-off.
                    self.requeue.lock().push(slot);
                }
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                match step {
                    Ok(Step::Done) => {}
                    Ok(Step::Offline(experiment)) => {
                        report.offline = Some(experiment);
                        return report;
                    }
                    Ok(Step::Fatal(failure)) => {
                        return self.aborted(report, slot, Abort::Fatal(failure))
                    }
                    // User stop mid-experiment: claim no more work.
                    Err(GoofiError::Stopped) => return report,
                    Err(e) => return self.aborted(report, slot, Abort::Error(e)),
                }
                done += 1;
                // Scheduled health probes: each target gets probed every
                // `n` experiments it completed.
                if let Some(sup) = &self.supervisor {
                    if sup.probe_due(done) && !sup.probe(target, env, self.monitor).passed() {
                        let context = self.campaign.experiment_name(item.index);
                        let recovery = sup.recover(
                            target,
                            env,
                            self.monitor,
                            &context,
                            RecoveryTrigger::ProbeFailure,
                        );
                        let recovered = recovery.recovered;
                        report.recoveries.push(recovery);
                        if !recovered {
                            // Nothing in flight to requeue: the item
                            // already completed. Just retire.
                            report.offline = Some(context);
                            return report;
                        }
                    }
                }
            }
            // Revalidate a full window, and once more for the tail when
            // the queue runs dry (a campaign whose length is not a multiple
            // of the interval).
            if let Some(n) = self.window {
                let pending = report.completed.len() - window_start;
                let tail = claimed.is_none() && pending > 0 && !self.monitor.is_stopped();
                if pending >= n || tail {
                    let WorkerReport {
                        completed,
                        failures,
                        quarantined,
                        ..
                    } = &mut report;
                    let mut suspects: Vec<(usize, &mut ExperimentRecord)> = completed
                        [window_start..]
                        .iter_mut()
                        .map(|(index, record)| (*index, record))
                        .collect();
                    let checked =
                        self.revalidate(target, env, &mut suspects, failures, quarantined);
                    window_start = report.completed.len();
                    let slot = claimed.unwrap_or(self.items.len());
                    match checked {
                        Ok(None) => {}
                        Ok(Some(failure)) => {
                            return self.aborted(report, slot, Abort::Fatal(failure))
                        }
                        Err(e) => return self.aborted(report, slot, Abort::Error(e)),
                    }
                }
            }
            if claimed.is_none() {
                return report;
            }
        }
    }

    /// Records the failure that stops this worker and tells the others to
    /// claim no more work.
    fn aborted(&self, mut report: WorkerReport, slot: usize, abort: Abort) -> WorkerReport {
        report.abort = Some((slot, abort));
        self.abort.store(true, Ordering::Release);
        report
    }

    /// Claims the next item position: a requeued item first, then the next
    /// unclaimed one. `None` once the run is stopped or aborted, or every
    /// item is claimed and no busy worker could still requeue one.
    fn claim(&self) -> Option<usize> {
        loop {
            if self.abort.load(Ordering::Acquire) || self.monitor.checkpoint().is_err() {
                return None;
            }
            // Count in before looking: a busy worker that retires requeues
            // before counting out, so whoever counts out last sees its item.
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            let slot = self.requeue.lock().pop().or_else(|| {
                let next = self.next.fetch_add(1, Ordering::Relaxed);
                (next < self.items.len()).then_some(next)
            });
            if slot.is_some() {
                return slot;
            }
            if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 && self.requeue.lock().is_empty()
            {
                return None;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    /// Runs one item under the retry policy, resolves hangs and journals
    /// the outcome. Completed records and skipped failures go into
    /// `report`.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Stopped`] or journal I/O errors.
    fn run_item<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        session: Option<&mut ExperimentSession>,
        item: &WorkItem,
        report: &mut WorkerReport,
    ) -> Result<Step> {
        let resolved = match algorithms::run_linked_experiment_with_policy(
            target,
            self.campaign,
            item.index,
            item.link.clone(),
            self.monitor,
            env,
            session,
        )? {
            Ok(record) => self.resolve_hangs(target, env, record, item, report)?,
            Err(failure) => Resolved::Failure(failure),
        };
        match resolved {
            Resolved::Record(record) => {
                self.monitor.record(&record.termination);
                self.journal(|j| j.append_record(Some(item.index), &record))?;
                report.completed.push((item.index, record));
                Ok(Step::Done)
            }
            Resolved::Failure(failure) => {
                self.monitor.record_failed();
                self.journal(|j| j.append_failure(&failure))?;
                if self.campaign.policy.fails_campaign() {
                    return Ok(Step::Fatal(failure));
                }
                report.failures.push(failure);
                Ok(Step::Done)
            }
            Resolved::Offline(experiment) => Ok(Step::Offline(experiment)),
        }
    }

    /// Confirms a `Timeout` termination with the health-probe suite and,
    /// for a real target hang, quarantines the record (termination
    /// rewritten to [`TerminationCause::TargetHang`]), climbs the recovery
    /// ladder and re-runs the experiment as a `parentExperiment`-linked
    /// child — looping, bounded by the ladder's `max_hang_rounds`, in case
    /// the re-run wedges the target again. A `Timeout` whose probes pass is
    /// a slow workload and stands unchanged; without a supervisor every
    /// record stands unchanged.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Stopped`] or journal I/O errors.
    fn resolve_hangs<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        mut record: ExperimentRecord,
        item: &WorkItem,
        report: &mut WorkerReport,
    ) -> Result<Resolved> {
        let Some(sup) = &self.supervisor else {
            return Ok(Resolved::Record(record));
        };
        let mut round: u32 = 0;
        loop {
            // A target that answers its probes ran a slow workload, not a
            // wedge: the Timeout stands.
            if record.termination != TerminationCause::Timeout
                || sup.probe(target, env, self.monitor).passed()
            {
                return Ok(Resolved::Record(record));
            }
            // Confirmed hang: quarantine the record, recover, re-run.
            round += 1;
            self.monitor.record_hang();
            record.termination = TerminationCause::TargetHang;
            record.validity = Validity::Invalid;
            self.journal(|j| j.append_record(Some(item.index), &record))?;
            self.monitor.record_quarantined();
            let parent = record.name.clone();
            report.quarantined.push(record);
            let recovery = sup.recover(
                target,
                env,
                self.monitor,
                &parent,
                RecoveryTrigger::TargetHang,
            );
            let recovered = recovery.recovered;
            report.recoveries.push(recovery);
            if !recovered {
                return Ok(Resolved::Offline(parent));
            }
            if round > sup.ladder().max_hang_rounds {
                return Ok(Resolved::Failure(ExperimentFailure {
                    index: item.index,
                    name: parent,
                    attempts: round,
                    error: "target hang persisted across recovery re-runs".into(),
                }));
            }
            let base = match &item.link {
                Some((name, _)) => name.clone(),
                None => self.campaign.experiment_name(item.index),
            };
            let link = Some((format!("{base}/rerun{round}"), parent));
            // The target just climbed the recovery ladder; any snapshot
            // taken before the hang is stale, so this re-run executes from
            // scratch.
            match algorithms::run_linked_experiment_with_policy(
                target,
                self.campaign,
                item.index,
                link,
                self.monitor,
                env,
                None,
            )? {
                Ok(rerun) => record = rerun,
                Err(failure) => return Ok(Resolved::Failure(failure)),
            }
        }
    }

    /// Re-runs the fault-free reference on `target` and, on drift from the
    /// stored golden log, quarantines every record in `suspects` (marked
    /// invalid, re-journaled) and re-runs each as a fresh
    /// `parentExperiment`-linked experiment that replaces the quarantined
    /// original — the paper's §2.3 re-run workflow turned into a
    /// link-integrity countermeasure. Re-run failures the policy skips go
    /// to `failures`; the one it aborts on is returned.
    ///
    /// # Errors
    ///
    /// Target errors in the golden run, [`GoofiError::Stopped`] or journal
    /// I/O errors.
    fn revalidate<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        suspects: &mut [(usize, &mut ExperimentRecord)],
        failures: &mut Vec<ExperimentFailure>,
        quarantined: &mut Vec<ExperimentRecord>,
    ) -> Result<Option<ExperimentFailure>> {
        // Revalidation goldens are always genuinely re-executed — never
        // served from the cache — because their whole purpose is to
        // exercise the link and target afresh.
        let golden =
            algorithms::reference_run_traced(target, self.campaign, env, self.monitor.telemetry())?;
        if algorithms::golden_run_matches(self.reference, &golden) {
            // A clean check is also the moment the cache entry is known
            // good: store it if a previous store failed or never ran.
            if let Some(c) = self.cache {
                c.store(self.campaign, self.reference);
            }
            return Ok(None);
        }
        // Drift: the cached golden can no longer be trusted by future runs.
        if let Some(c) = self.cache {
            c.invalidate(self.campaign);
        }
        // Mark every suspect first, re-run second: once the quarantine
        // entries hit the journal, a crash at any later point still re-runs
        // every suspect experiment on resume.
        for (index, record) in suspects.iter_mut() {
            record.validity = Validity::Invalid;
            self.journal(|j| j.append_record(Some(*index), record))?;
            self.monitor.record_quarantined();
        }
        for (index, record) in suspects.iter_mut() {
            let original = record.name.clone();
            let link = Some((format!("{original}/rerun1"), original));
            // The experiment already counted toward progress when it first
            // completed, so re-run outcomes update only the quarantine
            // counter. Quarantine re-runs stay on the slow path: they
            // replace results produced over a suspect link, so nothing from
            // before the drift may be reused.
            match algorithms::run_linked_experiment_with_policy(
                target,
                self.campaign,
                *index,
                link,
                self.monitor,
                env,
                None,
            )? {
                Ok(rerun) => {
                    self.journal(|j| j.append_record(Some(*index), &rerun))?;
                    quarantined.push(std::mem::replace(*record, rerun));
                }
                Err(failure) => {
                    self.journal(|j| j.append_failure(&failure))?;
                    // The invalid original stays in place (still
                    // quarantined); a later resume re-runs it from the
                    // journal.
                    if self.campaign.policy.fails_campaign() {
                        return Ok(Some(failure));
                    }
                    failures.push(failure);
                }
            }
        }
        Ok(None)
    }

    /// Appends to the journal, if any, timed as a database write.
    fn journal(&self, append: impl FnOnce(&mut ExperimentJournal) -> Result<()>) -> Result<()> {
        match self.journal {
            Some(j) => self
                .monitor
                .telemetry()
                .time(Stage::DbWrite, || append(&mut j.lock())),
            None => Ok(()),
        }
    }
}
