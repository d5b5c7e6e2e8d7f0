//! Executor identity: every way [`runner::execute`] can run a campaign
//! produces, by campaign index, the records of the paper's serial driver
//! [`algorithms::run_campaign`].
//!
//! One table covers the executor's inputs: one worker or three, the
//! snapshot fast path on or off, the whole campaign or two shard ranges
//! merged afterwards, a fresh run or a resume from a journal cut
//! mid-campaign, and a cold or a warm golden cache.

use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::framework::SimTarget;
use goofi_core::golden::GoldenCache;
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::ExperimentRecord;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::telemetry::Telemetry;
use goofi_core::trigger::Trigger;
use goofi_core::vfs::{unique_temp_dir, RealFs};
use std::ops::Range;
use std::path::Path;

const EXPERIMENTS: usize = 12;

/// A campaign whose trigger order differs from its index order, so the
/// snapshot path's trigger-sorted execution is visible to the fan-in.
fn campaign() -> Campaign {
    Campaign::builder("identity")
        .workload(WorkloadImage {
            name: "sim-wl".into(),
            words: vec![60],
            code_words: 1,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 1_000,
            max_iterations: None,
        })
        .faults(
            (0..EXPERIMENTS)
                .map(|i| {
                    FaultSpec::single(
                        FaultLocation::ScanCell {
                            chain: "internal".into(),
                            cell: "A".into(),
                            bit: i % 8,
                        },
                        Trigger::AfterInstructions(5 + (i as u64 * 7) % 23),
                    )
                })
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

#[derive(Debug, Clone, Copy)]
struct Case {
    workers: usize,
    snapshots: bool,
    shards: bool,
    resume: bool,
    warm_cache: bool,
}

/// Runs `range` of `c` as `case` describes, in its own directory, and
/// returns the result with the golden-cache hits it counted.
fn run_range(c: &Campaign, case: Case, range: Range<usize>) -> (CampaignResult, u64) {
    let dir = unique_temp_dir("executor-identity").unwrap();
    let path = dir.join("shard.gjl");
    let cache = GoldenCache::new(&RealFs, &path, c, "none");
    if case.warm_cache {
        let reference =
            algorithms::make_reference_run(&mut SimTarget::new(), c, &mut envsim::NullEnvironment)
                .unwrap();
        cache.store(c, &reference);
    }
    if case.resume {
        // An earlier run of the range, cut after the reference and half
        // of its experiments.
        let mut journal = ExperimentJournal::create(&path, &c.name).unwrap();
        runner::execute(
            c,
            &ProgressMonitor::new(range.len()),
            Targets::factory(SimTarget::new),
            RunOptions {
                workers: case.workers,
                range: range.clone(),
                journal: Some(&mut journal),
                snapshots: case.snapshots,
                ..RunOptions::default()
            },
        )
        .unwrap();
        drop(journal);
        cut_journal(&path, 3 + range.len() / 2);
    }
    let (mut journal, state) = ExperimentJournal::reopen_with(&RealFs, &path, &c.name).unwrap();
    assert_eq!(
        state.completed.len(),
        if case.resume { range.len() / 2 } else { 0 }
    );
    let range_len = range.len();
    let tel = Telemetry::enabled();
    let monitor = ProgressMonitor::with_telemetry(range.len(), tel.clone());
    let result = runner::execute(
        c,
        &monitor,
        Targets::factory(SimTarget::new),
        RunOptions {
            workers: case.workers,
            range,
            journal: Some(&mut journal),
            resume: Some(state),
            cache: Some(&cache),
            snapshots: case.snapshots,
        },
    )
    .unwrap_or_else(|e| panic!("{case:?}: {e}"));
    drop(journal);
    // Journaled experiments count as progress once and are not re-run.
    assert_eq!(monitor.snapshot().completed, range_len, "{case:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    let hits = tel.metrics().unwrap().counter("golden-cache-hits");
    (result, hits)
}

/// Keeps the first `lines` lines of the journal at `path`.
fn cut_journal(path: &Path, lines: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let kept: Vec<&str> = text.lines().take(lines).collect();
    std::fs::write(path, format!("{}\n", kept.join("\n"))).unwrap();
}

#[test]
fn every_executor_input_reproduces_the_serial_driver() {
    let c = campaign();
    let serial = algorithms::run_campaign(
        &mut SimTarget::new(),
        &c,
        &ProgressMonitor::new(EXPERIMENTS),
        &mut envsim::NullEnvironment,
    )
    .unwrap();
    assert_eq!(serial.records.len(), EXPERIMENTS);

    let mut cases = Vec::new();
    for workers in [1, 3] {
        for snapshots in [true, false] {
            for shards in [false, true] {
                for resume in [false, true] {
                    for warm_cache in [false, true] {
                        cases.push(Case {
                            workers,
                            snapshots,
                            shards,
                            resume,
                            warm_cache,
                        });
                    }
                }
            }
        }
    }
    for case in cases {
        let split = if case.shards { 5 } else { EXPERIMENTS };
        let mut records: Vec<ExperimentRecord> = Vec::new();
        for range in [0..split, split..EXPERIMENTS] {
            if range.is_empty() {
                continue;
            }
            let (result, hits) = run_range(&c, case, range);
            assert_eq!(result.reference, serial.reference, "{case:?}");
            assert!(result.failures.is_empty(), "{case:?}");
            assert!(result.quarantined.is_empty(), "{case:?}");
            // A resumed journal already holds the reference, which wins
            // over the cache; otherwise a warm cache must be hit.
            let want_hits = u64::from(case.warm_cache && !case.resume);
            assert_eq!(hits, want_hits, "{case:?}: golden-cache hits");
            records.extend(result.records);
        }
        assert_eq!(records, serial.records, "{case:?}");
    }
}
