//! Campaign progress monitoring: the paper's progress window (Figure 7).
//!
//! "During the fault injection campaign, a progress window is shown enabling
//! the user to monitor the experiments, e.g. getting information about the
//! number of faults injected and also to pause, restart or end the campaign"
//! (§3.3). [`ProgressMonitor`] is that component as a thread-safe API: the
//! campaign loop calls [`ProgressMonitor::checkpoint`] between experiments,
//! which blocks while paused and aborts when stopped; any thread (a CLI, a
//! UI, a test) can pause/resume/stop and read the live counters.

use crate::logging::TerminationCause;
use crate::telemetry::{Metric, Telemetry};
use crate::{GoofiError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Pause,
    Stop,
}

/// Live campaign counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress {
    /// Experiments configured in the campaign.
    pub total: usize,
    /// Experiments completed so far.
    pub completed: usize,
    /// Experiments skipped (e.g. pruned by pre-injection analysis).
    pub skipped: usize,
    /// Experiments that failed despite the campaign's retry policy.
    pub failed: usize,
    /// Experiment retries attempted so far.
    pub retried: usize,
    /// Link faults detected and recovered by a
    /// [`VerifiedTarget`](crate::link::VerifiedTarget).
    pub link_recovered: usize,
    /// Link faults that exhausted the recovery budget.
    pub link_unrecovered: usize,
    /// Records quarantined by golden-run revalidation.
    pub quarantined: usize,
    /// Health-probe suites run between experiments.
    pub probes_run: usize,
    /// Health-probe suites that failed (triggering the recovery ladder).
    pub probes_failed: usize,
    /// Watchdog timeouts confirmed as wedged targets
    /// ([`TerminationCause::TargetHang`]).
    pub hangs: usize,
    /// Soft-reset recovery attempts applied.
    pub soft_resets: usize,
    /// Test-card re-init recovery attempts applied.
    pub card_reinits: usize,
    /// Power-cycle recovery attempts applied.
    pub power_cycles: usize,
    /// Targets that exhausted the recovery ladder and went offline
    /// (with several workers, the executor retires the worker and
    /// redistributes its remaining experiments).
    pub targets_offline: usize,
    /// Completed experiments per termination cause (encoded form).
    pub by_termination: BTreeMap<String, usize>,
}

impl Progress {
    /// Fraction of experiments done, 0.0..=1.0.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.completed + self.skipped + self.failed) as f64 / self.total as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    command: Mutex<Command>,
    wakeup: Condvar,
    progress: Mutex<Progress>,
    // Paired with `progress` (a condvar must never be used with two
    // different mutexes); notified on every counter change so watchers
    // such as `goofi submit --watch` can stream live progress.
    progress_changed: Condvar,
    // Set (under `progress`) once the campaign loop has returned: the
    // counters are final and `wait_for_change` no longer blocks.
    finished: AtomicBool,
    telemetry: Telemetry,
}

/// Thread-safe pause/resume/stop control plus progress counters.
#[derive(Debug, Clone)]
pub struct ProgressMonitor {
    inner: Arc<Inner>,
}

impl Default for ProgressMonitor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ProgressMonitor {
    /// Creates a monitor for a campaign of `total` experiments, with
    /// telemetry disabled.
    pub fn new(total: usize) -> Self {
        Self::with_telemetry(total, Telemetry::disabled())
    }

    /// Creates a monitor whose counters are mirrored into `telemetry`'s
    /// metrics registry, and which carries the handle to every component
    /// the monitor reaches (runner, algorithms, supervisor, link).
    pub fn with_telemetry(total: usize, telemetry: Telemetry) -> Self {
        ProgressMonitor {
            inner: Arc::new(Inner {
                command: Mutex::new(Command::Run),
                wakeup: Condvar::new(),
                progress: Mutex::new(Progress {
                    total,
                    ..Progress::default()
                }),
                progress_changed: Condvar::new(),
                finished: AtomicBool::new(false),
                telemetry,
            }),
        }
    }

    /// The telemetry handle this monitor carries (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Pauses the campaign after the current experiment.
    pub fn pause(&self) {
        *self.inner.command.lock() = Command::Pause;
    }

    /// Resumes a paused campaign.
    pub fn resume(&self) {
        let mut cmd = self.inner.command.lock();
        if *cmd == Command::Pause {
            *cmd = Command::Run;
        }
        self.inner.wakeup.notify_all();
    }

    /// Ends the campaign after the current experiment.
    pub fn stop(&self) {
        *self.inner.command.lock() = Command::Stop;
        self.inner.wakeup.notify_all();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        *self.inner.command.lock() == Command::Stop
    }

    /// Called by the campaign loop between experiments: blocks while
    /// paused.
    ///
    /// # Errors
    ///
    /// Returns [`GoofiError::Stopped`] once the user has ended the campaign.
    pub fn checkpoint(&self) -> Result<()> {
        let mut cmd = self.inner.command.lock();
        while *cmd == Command::Pause {
            self.inner.wakeup.wait(&mut cmd);
        }
        if *cmd == Command::Stop {
            return Err(GoofiError::Stopped);
        }
        Ok(())
    }

    /// Mutates the counters under the lock and wakes progress watchers.
    fn update(&self, mutate: impl FnOnce(&mut Progress)) {
        let mut p = self.inner.progress.lock();
        mutate(&mut p);
        self.inner.progress_changed.notify_all();
    }

    /// Records a completed experiment and its termination cause.
    pub fn record(&self, cause: &TerminationCause) {
        self.update(|p| {
            p.completed += 1;
            *p.by_termination.entry(cause.encode()).or_insert(0) += 1;
        });
        self.inner.telemetry.count(Metric::Completed, 1);
    }

    /// Records an experiment skipped without running (pre-injection
    /// analysis).
    pub fn record_skipped(&self) {
        self.update(|p| p.skipped += 1);
        self.inner.telemetry.count(Metric::Skipped, 1);
    }

    /// Records an experiment that failed despite the campaign's policy.
    pub fn record_failed(&self) {
        self.update(|p| p.failed += 1);
        self.inner.telemetry.count(Metric::Failed, 1);
    }

    /// Records one retry attempt of a failing experiment.
    pub fn record_retry(&self) {
        self.update(|p| p.retried += 1);
        self.inner.telemetry.count(Metric::Retried, 1);
    }

    /// Records a link fault that was detected and recovered.
    pub fn record_link_recovered(&self) {
        self.update(|p| p.link_recovered += 1);
        self.inner.telemetry.count(Metric::LinkRecovered, 1);
    }

    /// Records a link fault that exhausted the recovery budget.
    pub fn record_link_unrecovered(&self) {
        self.update(|p| p.link_unrecovered += 1);
        self.inner.telemetry.count(Metric::LinkUnrecovered, 1);
    }

    /// Records one experiment record quarantined by golden-run
    /// revalidation.
    pub fn record_quarantined(&self) {
        self.update(|p| p.quarantined += 1);
        self.inner.telemetry.count(Metric::Quarantined, 1);
    }

    /// Records one health-probe suite and whether it passed.
    pub fn record_probe(&self, passed: bool) {
        self.update(|p| {
            p.probes_run += 1;
            if !passed {
                p.probes_failed += 1;
            }
        });
        self.inner.telemetry.count(Metric::ProbesRun, 1);
        if !passed {
            self.inner.telemetry.count(Metric::ProbesFailed, 1);
        }
    }

    /// Records a watchdog timeout confirmed as a wedged target.
    pub fn record_hang(&self) {
        self.update(|p| p.hangs += 1);
        self.inner.telemetry.count(Metric::Hangs, 1);
    }

    /// Records a soft-reset recovery attempt.
    pub fn record_soft_reset(&self) {
        self.update(|p| p.soft_resets += 1);
        self.inner.telemetry.count(Metric::SoftResets, 1);
    }

    /// Records a test-card re-init recovery attempt.
    pub fn record_card_reinit(&self) {
        self.update(|p| p.card_reinits += 1);
        self.inner.telemetry.count(Metric::CardReinits, 1);
    }

    /// Records a power-cycle recovery attempt.
    pub fn record_power_cycle(&self) {
        self.update(|p| p.power_cycles += 1);
        self.inner.telemetry.count(Metric::PowerCycles, 1);
    }

    /// Records a target that exhausted the recovery ladder.
    pub fn record_target_offline(&self) {
        self.update(|p| p.targets_offline += 1);
        self.inner.telemetry.count(Metric::TargetsOffline, 1);
    }

    /// Marks previously-journaled work as done when a campaign resumes:
    /// bumps the completed/failed counters without re-running anything.
    pub fn record_resumed(&self, completed: usize, failed: usize) {
        self.update(|p| {
            p.completed += completed;
            p.failed += failed;
        });
        self.inner
            .telemetry
            .count(Metric::Completed, completed as u64);
        self.inner.telemetry.count(Metric::Failed, failed as u64);
    }

    /// Adjusts the expected experiment count (e.g. when campaigns merge).
    pub fn set_total(&self, total: usize) {
        self.update(|p| p.total = total);
    }

    /// A copy of the current counters.
    pub fn snapshot(&self) -> Progress {
        self.inner.progress.lock().clone()
    }

    /// Declares the counters final once the campaign loop has returned:
    /// wakes every [`ProgressMonitor::wait_for_change`] caller, and later
    /// calls return at once.
    pub fn finish(&self) {
        let _p = self.inner.progress.lock();
        self.inner.finished.store(true, Ordering::Release);
        self.inner.progress_changed.notify_all();
    }

    /// Whether [`ProgressMonitor::finish`] was called.
    pub fn is_finished(&self) -> bool {
        self.inner.finished.load(Ordering::Acquire)
    }

    /// Blocks until the counters differ from `last`, the monitor is
    /// [finished](ProgressMonitor::finish) or `timeout` elapses, then
    /// returns a copy of the current counters. This is the push side of
    /// live progress streaming: shard workers loop on it to emit one wire
    /// event per change instead of polling [`ProgressMonitor::snapshot`].
    pub fn wait_for_change(&self, last: &Progress, timeout: std::time::Duration) -> Progress {
        let deadline = std::time::Instant::now() + timeout;
        let mut p = self.inner.progress.lock();
        while *p == *last && !self.is_finished() {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            if self
                .inner
                .progress_changed
                .wait_for(&mut p, deadline - now)
                .timed_out()
            {
                break;
            }
        }
        p.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::DetectionInfo;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn records_and_fractions() {
        let m = ProgressMonitor::new(4);
        m.record(&TerminationCause::WorkloadEnd);
        m.record(&TerminationCause::Detected(DetectionInfo {
            mechanism: "parity_icache".into(),
            code: 1,
        }));
        m.record_skipped();
        let p = m.snapshot();
        assert_eq!(p.completed, 2);
        assert_eq!(p.skipped, 1);
        assert_eq!(p.fraction(), 0.75);
        assert_eq!(p.by_termination.get("end"), Some(&1));
    }

    #[test]
    fn failed_experiments_count_toward_progress() {
        let m = ProgressMonitor::new(4);
        m.record(&TerminationCause::WorkloadEnd);
        m.record_retry();
        m.record_retry();
        m.record_failed();
        m.record_resumed(1, 1);
        let p = m.snapshot();
        assert_eq!(p.completed, 2);
        assert_eq!(p.failed, 2);
        assert_eq!(p.retried, 2);
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn link_and_quarantine_counters_accumulate() {
        let m = ProgressMonitor::new(2);
        m.record_link_recovered();
        m.record_link_recovered();
        m.record_link_unrecovered();
        m.record_quarantined();
        let p = m.snapshot();
        assert_eq!(p.link_recovered, 2);
        assert_eq!(p.link_unrecovered, 1);
        assert_eq!(p.quarantined, 1);
        // Link events are not experiment progress.
        assert_eq!(p.completed, 0);
    }

    #[test]
    fn supervision_counters_accumulate() {
        let m = ProgressMonitor::new(2);
        m.record_probe(true);
        m.record_probe(false);
        m.record_hang();
        m.record_soft_reset();
        m.record_soft_reset();
        m.record_card_reinit();
        m.record_power_cycle();
        m.record_target_offline();
        let p = m.snapshot();
        assert_eq!(p.probes_run, 2);
        assert_eq!(p.probes_failed, 1);
        assert_eq!(p.hangs, 1);
        assert_eq!(p.soft_resets, 2);
        assert_eq!(p.card_reinits, 1);
        assert_eq!(p.power_cycles, 1);
        assert_eq!(p.targets_offline, 1);
        // Supervision events are not experiment progress.
        assert_eq!(p.completed, 0);
    }

    #[test]
    fn stop_aborts_checkpoint() {
        let m = ProgressMonitor::new(1);
        m.checkpoint().unwrap();
        m.stop();
        assert!(m.is_stopped());
        assert!(matches!(m.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn pause_blocks_until_resume() {
        let m = ProgressMonitor::new(1);
        m.pause();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.checkpoint());
        // Give the worker time to block on the pause.
        thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished());
        m.resume();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stop_wakes_a_paused_campaign() {
        let m = ProgressMonitor::new(1);
        m.pause();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.checkpoint());
        thread::sleep(Duration::from_millis(50));
        m.stop();
        assert!(matches!(handle.join().unwrap(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn resume_does_not_cancel_stop() {
        let m = ProgressMonitor::new(1);
        m.stop();
        m.resume();
        assert!(m.is_stopped());
    }

    #[test]
    fn empty_campaign_fraction_is_one() {
        assert_eq!(ProgressMonitor::new(0).snapshot().fraction(), 1.0);
    }

    #[test]
    fn wait_for_change_wakes_on_record() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.wait_for_change(&last, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        m.record(&TerminationCause::WorkloadEnd);
        let p = handle.join().unwrap();
        assert_eq!(p.completed, 1);
    }

    #[test]
    fn finish_wakes_a_waiter_at_once() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let m2 = m.clone();
        let handle = thread::spawn(move || {
            let start = std::time::Instant::now();
            m2.wait_for_change(&last, Duration::from_secs(10));
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(30));
        m.finish();
        assert!(handle.join().unwrap() < Duration::from_secs(1));
        // Finishing is sticky: a later wait does not block either.
        let start = std::time::Instant::now();
        m.wait_for_change(&m.snapshot(), Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(m.is_finished());
    }

    #[test]
    fn wait_for_change_times_out_unchanged() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let p = m.wait_for_change(&last, Duration::from_millis(20));
        assert_eq!(p, last);
    }

    #[test]
    fn counters_mirror_into_telemetry() {
        let m = ProgressMonitor::with_telemetry(3, Telemetry::enabled());
        m.record(&TerminationCause::WorkloadEnd);
        m.record_retry();
        m.record_probe(false);
        m.record_resumed(2, 1);
        m.record_quarantined();
        let p = m.snapshot();
        let t = m.telemetry().metrics().unwrap();
        assert_eq!(t.counter("completed"), p.completed as u64);
        assert_eq!(t.counter("failed"), p.failed as u64);
        assert_eq!(t.counter("retried"), p.retried as u64);
        assert_eq!(t.counter("probes-run"), p.probes_run as u64);
        assert_eq!(t.counter("probes-failed"), p.probes_failed as u64);
        assert_eq!(t.counter("quarantined"), p.quarantined as u64);
    }
}
