//! Durability torture harness: the framework injecting faults into
//! *itself*.
//!
//! Every persistence artifact — run journal, database file, service spool —
//! is written through the [`goofi_core::vfs`] seam, so a seeded
//! [`FaultFs`] can tear a write, garble a sector, drop every fsync, or
//! fail with `ENOSPC`/`EIO` at *any* chosen operation. The torture
//! discipline is always the same:
//!
//! 1. count the mutating operations of an uninterrupted run,
//! 2. crash (or fault) the run at every single one of them,
//! 3. run `fsck --repair` over the wreckage,
//! 4. resume on the clean filesystem,
//! 5. assert the final database is essence-equal to a run that was never
//!    interrupted — and that a second fsck pass finds nothing.
//!
//! Plus a corruption-class matrix (every [`CorruptionClass`] is detected
//! without `--repair` and repaired to convergence with it), scheduler
//! spool-recovery quarantine, and proptests over randomly truncated and
//! bit-flipped journal tails and spool manifests.

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::framework::SimTarget;
use goofi_core::fsck::{self, CorruptionClass};
use goofi_core::golden::GoldenCache;
use goofi_core::journal;
use goofi_core::logging::{ExperimentRecord, TerminationCause, Validity};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::vfs::{unique_temp_dir, FaultFs, FaultKind, FaultPlan, RealFs, Vfs, VfsFile};
use goofi_core::GoofiError;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const CAMPAIGN: &str = "torture";

fn sim_campaign(name: &str, faults: usize) -> Campaign {
    Campaign::builder(name)
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
            (0..faults)
                .map(|i| {
                    FaultSpec::single(
                        FaultLocation::ScanCell {
                            chain: "internal".into(),
                            cell: "A".into(),
                            bit: i % 8,
                        },
                        goofi_core::trigger::Trigger::AfterInstructions(5 + i as u64),
                    )
                })
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

/// The serial in-process ground truth over the same simulated target.
fn serial_records(campaign: &Campaign) -> Vec<ExperimentRecord> {
    let mut target = SimTarget::new();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    algorithms::run_campaign(
        &mut target,
        campaign,
        &monitor,
        &mut envsim::NullEnvironment,
    )
    .unwrap()
    .records
}

/// The part of a record a crash must not change.
fn essence(r: &ExperimentRecord) -> (Option<&FaultSpec>, &TerminationCause, String, Validity) {
    (
        r.fault.as_ref(),
        &r.termination,
        r.state.encode(),
        r.validity,
    )
}

/// Asserts the database's records for `campaign` are essence-equal to
/// `want`: every serial record present exactly once with the same outcome.
fn assert_essence_equal(db_path: &Path, campaign: &str, want: &[ExperimentRecord]) {
    let db = dbio::load_database(&RealFs, db_path).unwrap();
    let got = dbio::load_experiments(&db, campaign).unwrap();
    let by_name: BTreeMap<&str, &ExperimentRecord> =
        got.iter().map(|r| (r.name.as_str(), r)).collect();
    assert_eq!(
        got.len(),
        by_name.len(),
        "duplicate experiments after recovery"
    );
    for record in want {
        let merged = by_name
            .get(record.name.as_str())
            .unwrap_or_else(|| panic!("experiment `{}` missing after recovery", record.name));
        assert_eq!(
            essence(merged),
            essence(record),
            "experiment `{}` diverged from the uninterrupted run",
            record.name
        );
    }
}

/// Runs `campaign` as a service shard worker does: the journal at `path`
/// on `vfs` reopened (created, or salvaged and loaded), the golden cache
/// beside it, and the journal closed again before returning.
fn run_shard(
    vfs: &dyn Vfs,
    campaign: &Campaign,
    path: &Path,
) -> goofi_core::Result<goofi_core::algorithms::CampaignResult> {
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let (mut journal, state) = journal::ExperimentJournal::reopen_with(vfs, path, &campaign.name)?;
    let cache = GoldenCache::new(vfs, path, campaign, "none");
    runner::execute(
        campaign,
        &monitor,
        Targets::factory(SimTarget::new),
        RunOptions {
            journal: Some(&mut journal),
            resume: Some(state),
            cache: Some(&cache),
            ..RunOptions::default()
        },
    )
}

/// One full persistence cycle over `vfs`: a journaled (resuming) run, then
/// merge the journal into the database file with an atomic checksummed
/// save. Exactly the sequence every crash in this harness interrupts.
fn run_and_persist(
    vfs: &dyn Vfs,
    campaign: &Campaign,
    db_path: &Path,
    journal_path: &Path,
) -> goofi_core::Result<()> {
    run_shard(vfs, campaign, journal_path)?;
    let mut db = if vfs.exists(db_path) {
        dbio::load_database(vfs, db_path)?
    } else {
        let mut fresh = goofidb::Database::new();
        dbio::init_schema(&mut fresh)?;
        dbio::store_campaign(&mut fresh, campaign)?;
        fresh
    };
    dbio::import_journal_with(&mut db, vfs, journal_path, &campaign.name)?;
    dbio::save_database(vfs, db_path, &db)
}

/// The tentpole: exhaustively crash a run→persist cycle at every mutating
/// filesystem operation with fault `kind`, then prove crash → fsck →
/// resume converges to the uninterrupted run's database.
fn crash_walk(kind: FaultKind) {
    crash_walk_over(kind, 5);
}

/// [`crash_walk`] over a campaign of `experiments` experiments.
fn crash_walk_over(kind: FaultKind, experiments: usize) {
    let dir = unique_temp_dir(&format!("walk-{}-{experiments}", kind.encode())).unwrap();
    let campaign = sim_campaign(CAMPAIGN, experiments);
    let want = serial_records(&campaign);

    // Pass 0: learn how many mutating operations the walk must cover.
    let count_dir = dir.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    let counting = FaultFs::counting();
    run_and_persist(
        &counting,
        &campaign,
        &count_dir.join("c.gdb"),
        &count_dir.join("c.gjl"),
    )
    .unwrap();
    let total = counting.ops();
    assert!(total > 10, "counting pass looks too small: {total} ops");

    for at in 1..=total {
        let kdir = dir.join(format!("at{at}"));
        std::fs::create_dir_all(&kdir).unwrap();
        let db = kdir.join("campaigns.gdb");
        let journal = kdir.join("run.gjl");
        let fault = FaultFs::new(FaultPlan {
            at,
            kind,
            seed: 0xD15_EA5E ^ at,
        });

        // Phase 1: run until the machine dies. (A fault landing on a
        // best-effort operation like the directory sync can let the run
        // report success; the walk does not care — the wreckage on disk is
        // what matters.)
        let _ = run_and_persist(&fault, &campaign, &db, &journal);

        // Phase 2: repair with the real filesystem, as an operator would.
        let report = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), true)
            .unwrap_or_else(|e| panic!("fsck --repair failed at op {at} ({kind:?}): {e}"));

        // Phase 3: fsck converges — a second pass finds nothing.
        let second = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(
            second.clean(),
            "fsck did not converge at op {at} ({kind:?}):\nsecond: {}\nfirst: {}",
            second.render(),
            report.render()
        );

        // Phase 4: resume on the clean filesystem.
        run_and_persist(&RealFs, &campaign, &db, &journal)
            .unwrap_or_else(|e| panic!("resume failed at op {at} ({kind:?}): {e}"));

        // Phase 5: nothing was lost, nothing was duplicated.
        assert_essence_equal(&db, CAMPAIGN, &want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_crash_at_every_operation_converges() {
    crash_walk(FaultKind::Torn);
}

#[test]
fn garbled_write_crash_at_every_operation_converges() {
    crash_walk(FaultKind::Garble);
}

#[test]
fn lost_sync_crash_at_every_operation_converges() {
    crash_walk(FaultKind::LostSync);
}

/// The journal's group-commit cadence, mirroring the private
/// `COMMIT_EVERY` in `goofi_core::journal`.
const COMMIT_EVERY: usize = 64;

/// A campaign long enough that its journal crosses a group commit: the
/// walks below crash between two commits as well as before the first.
const PAST_ONE_GROUP: usize = COMMIT_EVERY + 6;

#[test]
fn torn_write_crash_walk_crosses_a_group_commit() {
    crash_walk_over(FaultKind::Torn, PAST_ONE_GROUP);
}

#[test]
fn lost_sync_crash_walk_crosses_a_group_commit() {
    crash_walk_over(FaultKind::LostSync, PAST_ONE_GROUP);
}

#[test]
fn power_cut_crash_walk_crosses_a_group_commit() {
    crash_walk_over(FaultKind::PowerCut, PAST_ONE_GROUP);
}

/// The three ways a campaign runs against a journal: a resumable shard
/// (the journal opened and closed inside the call), and the serial and
/// parallel executors writing to a journal their caller holds open.
#[derive(Debug, Clone, Copy)]
enum Executor {
    Shard,
    Serial,
    Parallel,
}

/// Runs `campaign` through `executor` with its journal at `path` on
/// `vfs`. The journal stays open until `after` has run, as in a caller
/// that saves its database before closing the journal.
fn run_executor(
    executor: Executor,
    vfs: &dyn Vfs,
    campaign: &Campaign,
    path: &Path,
    after: impl FnOnce(),
) -> goofi_core::Result<()> {
    if let Executor::Shard = executor {
        let result = run_shard(vfs, campaign, path);
        after();
        return result.map(drop);
    }
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let mut journal = journal::ExperimentJournal::create_with(vfs, path, &campaign.name)?;
    let result = match executor {
        Executor::Serial => runner::execute(
            campaign,
            &monitor,
            Targets::Own(&mut SimTarget::new(), &mut envsim::NullEnvironment),
            RunOptions {
                journal: Some(&mut journal),
                ..RunOptions::default()
            },
        ),
        _ => runner::execute(
            campaign,
            &monitor,
            Targets::factory(SimTarget::new),
            RunOptions {
                workers: 2,
                journal: Some(&mut journal),
                ..RunOptions::default()
            },
        ),
    };
    after();
    drop(journal);
    result.map(drop)
}

/// Whatever an executor acknowledged is durable. Each run
/// returns `Ok`, then the power fails at the very next filesystem
/// operation, while a caller could still be holding the journal open:
/// the journal, rolled back to its synced length, must still hold the
/// reference and every record. And a final commit that fails is never
/// acknowledged: an `EIO` on the run's last operation — that commit's
/// sync — fails the run instead of being swallowed.
#[test]
fn acknowledged_journal_entries_survive_a_power_cut() {
    let dir = unique_temp_dir("acknowledged").unwrap();
    let campaign = sim_campaign(CAMPAIGN, 5);
    let want = serial_records(&campaign);
    for executor in [Executor::Shard, Executor::Serial, Executor::Parallel] {
        let run_dir = |label: &str| {
            let d = dir.join(format!("{executor:?}-{label}"));
            std::fs::create_dir_all(&d).unwrap();
            d
        };
        // The operations an executor performs before it returns.
        let count_dir = run_dir("count");
        let counting = FaultFs::counting();
        let mut total = 0;
        run_executor(
            executor,
            &counting,
            &campaign,
            &count_dir.join("j.gjl"),
            || {
                total = counting.ops();
            },
        )
        .unwrap();

        let cut_dir = run_dir("cut");
        let path = cut_dir.join("j.gjl");
        let fault = FaultFs::new(FaultPlan {
            at: total + 1,
            kind: FaultKind::PowerCut,
            seed: 11,
        });
        run_executor(executor, &fault, &campaign, &path, || {
            // The power fails at the next operation after the return.
            assert!(fault.sync_dir(&cut_dir).is_err());
        })
        .unwrap_or_else(|e| panic!("{executor:?}: run failed before the cut: {e}"));
        assert!(fault.crashed(), "{executor:?}: the cut never fired");
        let state = journal::ExperimentJournal::load_with(&RealFs, &path, CAMPAIGN)
            .unwrap_or_else(|e| panic!("{executor:?}: journal lost its head: {e}"));
        assert!(
            state.reference.is_some(),
            "{executor:?}: reference lost by the cut"
        );
        assert_eq!(
            state.completed.len(),
            want.len(),
            "{executor:?}: acknowledged records lost by the cut"
        );
        for (record, got) in want.iter().zip(state.completed.values()) {
            assert_eq!(essence(got), essence(record), "{executor:?}");
        }

        let eio_dir = run_dir("eio");
        let fault = FaultFs::new(FaultPlan {
            at: total,
            kind: FaultKind::Eio,
            seed: 11,
        });
        match run_executor(executor, &fault, &campaign, &eio_dir.join("j.gjl"), || {}) {
            Err(GoofiError::Io { path, .. }) => assert!(path.starts_with(&eio_dir)),
            other => panic!("{executor:?}: a failed final commit was acknowledged: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`RealFs`] counting the syncs issued on one file.
#[derive(Debug)]
struct SyncCounter {
    path: PathBuf,
    syncs: Arc<AtomicUsize>,
}

struct CountedFile {
    file: Box<dyn VfsFile>,
    syncs: Option<Arc<AtomicUsize>>,
}

impl VfsFile for CountedFile {
    fn write_all(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.file.write_all(data)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if let Some(syncs) = &self.syncs {
            syncs.fetch_add(1, Ordering::Relaxed);
        }
        self.file.sync()
    }
}

impl SyncCounter {
    fn counted(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let syncs = (path == self.path).then(|| Arc::clone(&self.syncs));
        Box::new(CountedFile { file, syncs })
    }
}

impl Vfs for SyncCounter {
    fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
        RealFs.read_to_string(path)
    }
    fn read_bytes(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealFs.read_bytes(path)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, RealFs.create(path)?))
    }
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, RealFs.open_append(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealFs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealFs.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        RealFs.read_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealFs.sync_dir(path)
    }
}

/// The journal syncs once per commit group, not once per
/// entry. A 200-experiment campaign appends 201 entries (the reference
/// and 200 records); with the header sync and the executor's final
/// commit that bounds the journal's syncs by ⌈201 / COMMIT_EVERY⌉ + 2.
/// A journal syncing every entry issues 202.
#[test]
fn journal_syncs_are_bounded_by_commit_groups() {
    const EXPERIMENTS: usize = 200;
    let bound = (EXPERIMENTS + 1).div_ceil(COMMIT_EVERY) + 2;
    let dir = unique_temp_dir("sync-count").unwrap();
    let campaign = sim_campaign(CAMPAIGN, EXPERIMENTS);
    for executor in [Executor::Shard, Executor::Serial, Executor::Parallel] {
        let path = dir.join(format!("{executor:?}.gjl"));
        let vfs = SyncCounter {
            path: path.clone(),
            syncs: Arc::default(),
        };
        run_executor(executor, &vfs, &campaign, &path, || {}).unwrap();
        let syncs = vfs.syncs.load(Ordering::Relaxed);
        assert!(
            syncs <= bound,
            "{executor:?}: {syncs} journal syncs for {EXPERIMENTS} experiments (bound {bound})"
        );
        let state = journal::ExperimentJournal::load(&path, CAMPAIGN).unwrap();
        assert_eq!(state.completed.len(), EXPERIMENTS, "{executor:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: `ENOSPC`/`EIO` at any operation surface as
/// [`GoofiError::Io`] naming the damaged file — never a panic — and since
/// they are transient, simply re-running the same cycle completes.
#[test]
fn transient_disk_errors_surface_as_io_and_retry_completes() {
    let dir = unique_temp_dir("transient").unwrap();
    let campaign = sim_campaign(CAMPAIGN, 4);
    let want = serial_records(&campaign);

    let count_dir = dir.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    let counting = FaultFs::counting();
    run_and_persist(
        &counting,
        &campaign,
        &count_dir.join("c.gdb"),
        &count_dir.join("c.gjl"),
    )
    .unwrap();
    let total = counting.ops();

    for kind in [FaultKind::Enospc, FaultKind::Eio] {
        let mut surfaced = 0;
        for at in 1..=total {
            let kdir = dir.join(format!("{}-at{at}", kind.encode()));
            std::fs::create_dir_all(&kdir).unwrap();
            let db = kdir.join("campaigns.gdb");
            let journal = kdir.join("run.gjl");
            let fault = FaultFs::new(FaultPlan { at, kind, seed: 7 });
            match run_and_persist(&fault, &campaign, &db, &journal) {
                // The fault landed on a best-effort step (directory sync).
                Ok(()) => {}
                Err(GoofiError::Io { path, detail, .. }) => {
                    surfaced += 1;
                    assert!(
                        path.starts_with(&kdir),
                        "I/O error names a foreign path {path:?} (op {at}, {kind:?})"
                    );
                    assert!(!detail.is_empty());
                    assert!(
                        !fault.crashed(),
                        "transient fault must not kill the machine"
                    );
                    // The disk recovered; the identical retry completes.
                    run_and_persist(&fault, &campaign, &db, &journal).unwrap_or_else(|e| {
                        panic!("retry after transient {kind:?} at op {at} failed: {e}")
                    });
                }
                Err(other) => {
                    panic!("op {at} {kind:?}: expected GoofiError::Io, got: {other}")
                }
            }
            assert_essence_equal(&db, CAMPAIGN, &want);
        }
        assert!(
            surfaced > 0,
            "{kind:?} walk never surfaced an I/O error — the fault plan is dead"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full corruption-class matrix: every [`CorruptionClass`] is detected
/// (and named) by a plain fsck pass, and `--repair` converges — after one
/// repair pass, a second plain pass is clean.
#[test]
fn fsck_detects_and_repairs_every_corruption_class() {
    let dir = unique_temp_dir("classes").unwrap();
    let campaign = sim_campaign(CAMPAIGN, 3);

    // Pristine fixtures to mutate per case.
    let fixture = dir.join("fixture");
    std::fs::create_dir_all(&fixture).unwrap();
    let fdb = fixture.join("campaigns.gdb");
    let fjournal = fixture.join("run.gjl");
    run_and_persist(&RealFs, &campaign, &fdb, &fjournal).unwrap();
    let db_text = std::fs::read_to_string(&fdb).unwrap();
    let journal_text = std::fs::read_to_string(&fjournal).unwrap();
    assert!(
        fsck::fsck_all(&RealFs, &fdb, Some((&fjournal, CAMPAIGN)), false)
            .unwrap()
            .clean()
    );
    assert!(db_text.contains("T:end"), "fixture rows look unexpected");

    let check = |name: &str, class: CorruptionClass, corrupt: &dyn Fn(&Path, &Path)| {
        let cdir = dir.join(name);
        std::fs::create_dir_all(&cdir).unwrap();
        let db = cdir.join("campaigns.gdb");
        let journal = cdir.join("run.gjl");
        std::fs::write(&db, &db_text).unwrap();
        std::fs::write(&journal, &journal_text).unwrap();
        corrupt(&db, &journal);

        // Detection names the class without touching anything.
        let found = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(!found.clean(), "{name}: corruption not detected");
        assert!(
            found.findings.iter().any(|f| f.class == class),
            "{name}: expected {class} among:\n{}",
            found.render()
        );
        assert_eq!(found.repaired(), 0, "{name}: plain pass must not repair");

        // Repair converges.
        let repaired = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), true).unwrap();
        assert!(
            repaired.repaired() >= 1,
            "{name}: nothing repaired:\n{}",
            repaired.render()
        );
        let after = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(
            after.clean(),
            "{name}: fsck did not converge:\n{}",
            after.render()
        );
    };

    check(
        "journal-bad-header",
        CorruptionClass::JournalBadHeader,
        &|_, j| std::fs::write(j, "definitely not a journal\nnoise\n").unwrap(),
    );
    check(
        "journal-torn-tail",
        CorruptionClass::JournalTornTail,
        &|_, j| {
            let t = journal_text.trim_end_matches('\n');
            std::fs::write(j, &t[..t.len() - 3]).unwrap();
        },
    );
    check(
        "journal-garbled-entry",
        CorruptionClass::JournalGarbledEntry,
        &|_, j| {
            let mut lines: Vec<String> = journal_text.lines().map(String::from).collect();
            assert!(lines.len() > 4, "fixture journal too short to garble");
            let mid = lines[2].clone();
            lines[2] = format!("{}XX", &mid[..mid.len() - 2]);
            std::fs::write(j, format!("{}\n", lines.join("\n"))).unwrap();
        },
    );
    check("db-unreadable", CorruptionClass::DbUnreadable, &|db, _| {
        std::fs::write(db, "garbage, not a database\n").unwrap();
    });
    check(
        "db-checksum-mismatch",
        CorruptionClass::DbChecksumMismatch,
        &|db, _| std::fs::write(db, db_text.replacen("T:end", "T:foo", 1)).unwrap(),
    );
    check("db-garbled-row", CorruptionClass::DbGarbledRow, &|db, _| {
        std::fs::write(db, db_text.replacen("T:end", "X?end", 1)).unwrap()
    });
    check("db-stray-temp", CorruptionClass::DbStrayTemp, &|db, _| {
        std::fs::write(format!("{}.tmp", db.display()), "half a save").unwrap();
    });
    check(
        "spool-orphan-dir",
        CorruptionClass::SpoolOrphanDir,
        &|db, _| {
            let spool = PathBuf::from(format!("{}.spool", db.display()));
            std::fs::create_dir_all(spool.join("job-1")).unwrap();
        },
    );
    check(
        "spool-bad-manifest",
        CorruptionClass::SpoolBadManifest,
        &|db, _| {
            let job = PathBuf::from(format!("{}.spool", db.display())).join("job-2");
            std::fs::create_dir_all(&job).unwrap();
            std::fs::write(job.join("manifest"), "wat\n").unwrap();
        },
    );
    check(
        "spool-shard-mismatch",
        CorruptionClass::SpoolShardMismatch,
        &|db, _| {
            let job = PathBuf::from(format!("{}.spool", db.display())).join("job-3");
            std::fs::create_dir_all(&job).unwrap();
            std::fs::write(
                job.join("manifest"),
                "#goofi-job v1\ncampaign someone-else\nworkers 1\n",
            )
            .unwrap();
            std::fs::write(job.join("shard-0.gjl"), &journal_text).unwrap();
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spool recovery after a daemon SIGKILL: a job directory whose manifest
/// was destroyed is quarantined aside (never resumed, never deleted) while
/// the intact job resumes and completes.
#[test]
fn recover_quarantines_damaged_spool_jobs_and_resumes_intact_ones() {
    use goofi_core::service::{JobState, Scheduler, ServiceConfig, WorkerCommand};

    let dir = unique_temp_dir("recover").unwrap();
    let campaign = sim_campaign("torture-spool", 6);
    let want = serial_records(&campaign);
    let db = dir.join("campaigns.gdb");
    let mut dbo = goofidb::Database::new();
    dbio::init_schema(&mut dbo).unwrap();
    dbio::store_campaign(&mut dbo, &campaign).unwrap();
    dbio::save_database(&RealFs, &db, &dbo).unwrap();

    // A spool as a killed daemon leaves it: one intact in-flight job, one
    // whose manifest a crash destroyed.
    let spool = dir.join("campaigns.gdb.spool");
    let good = spool.join("job-1");
    std::fs::create_dir_all(&good).unwrap();
    std::fs::write(
        good.join("manifest"),
        "#goofi-job v1\ncampaign torture-spool\nworkers 2\n",
    )
    .unwrap();
    let bad = spool.join("job-2");
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::write(bad.join("manifest"), "\u{1}\u{2}garbage").unwrap();

    let mut cfg = ServiceConfig::new(
        &db,
        WorkerCommand {
            program: PathBuf::from(env!("CARGO_BIN_EXE_goofi-mock-worker")),
            args: Vec::new(),
        },
    );
    cfg.default_workers = 2;
    cfg.lease = std::time::Duration::from_secs(5);
    let scheduler = Scheduler::new(cfg).unwrap();
    let recovered = scheduler.recover().unwrap();
    assert_eq!(recovered.resumed, vec!["job-1".to_string()]);
    assert_eq!(recovered.quarantined, vec!["job-2".to_string()]);
    assert!(!bad.exists(), "damaged job dir must be renamed aside");
    assert!(
        spool.join("quarantined-job-2").join("manifest").exists(),
        "quarantine must preserve the damaged artifacts"
    );

    let done = scheduler.watch("job-1").unwrap().wait();
    assert_eq!(done.state, JobState::Done, "{}", done.detail);
    assert_essence_equal(&db, "torture-spool", &want);
    scheduler.shutdown();

    // A second daemon generation skips the quarantined directory forever.
    let recovered2 = {
        let mut cfg = ServiceConfig::new(
            &db,
            WorkerCommand {
                program: PathBuf::from(env!("CARGO_BIN_EXE_goofi-mock-worker")),
                args: Vec::new(),
            },
        );
        cfg.default_workers = 2;
        let scheduler2 = Scheduler::new(cfg).unwrap();
        let outcome = scheduler2.recover().unwrap();
        scheduler2.shutdown();
        outcome
    };
    assert!(recovered2.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Proptests: random truncation and bit-rot over journal tails and spool
// manifests. The decoders must be total, and salvage must always converge
// to a clean (or quarantined) journal.
// ---------------------------------------------------------------------------

/// A pristine journal produced by a real run, fixed across cases.
fn fixture_journal() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = unique_temp_dir("prop-fixture").unwrap();
        let campaign = sim_campaign(CAMPAIGN, 4);
        run_and_persist(&RealFs, &campaign, &dir.join("c.gdb"), &dir.join("c.gjl")).unwrap();
        let text = std::fs::read_to_string(dir.join("c.gjl")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.is_ascii(), "fixture journal must be ASCII");
        text
    })
}

/// Writes `bytes` to a scratch journal, salvages it, and asserts the
/// result is either a clean journal or a quarantined (renamed) file —
/// never an error, never a still-damaged journal.
fn salvage_converges(case: &str, bytes: &[u8]) {
    let dir = unique_temp_dir(&format!("prop-{case}")).unwrap();
    let path = dir.join("t.gjl");
    std::fs::write(&path, bytes).unwrap();
    let outcome = journal::salvage_with(&RealFs, &path)
        .unwrap_or_else(|e| panic!("salvage errored on damaged input: {e}"));
    if outcome.quarantined.is_some() {
        assert!(!path.exists(), "quarantine must move the file aside");
    } else {
        let after = std::fs::read_to_string(&path).unwrap();
        let scan = journal::scan_text(&after);
        assert!(
            scan.clean(),
            "journal still damaged after salvage (kept {}, dropped {})",
            outcome.kept,
            outcome.dropped
        );
        assert_eq!(scan.valid.len(), outcome.kept);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn truncated_journal_tails_salvage_clean(cut in 0usize..4096) {
        let text = fixture_journal();
        let cut = cut.min(text.len());
        let scan = journal::scan_text(&text[..cut]);
        prop_assert!(scan.valid.len() <= text.lines().count());
        salvage_converges("trunc", &text.as_bytes()[..cut]);
    }

    #[test]
    fn bit_flipped_journals_salvage_clean(pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = fixture_journal().as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Total even when the flip breaks UTF-8.
        let _ = journal::scan_text(&String::from_utf8_lossy(&bytes));
        salvage_converges("flip", &bytes);
    }

    #[test]
    fn journal_scan_is_total_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = journal::scan_text(&String::from_utf8_lossy(&bytes));
        salvage_converges("noise", &bytes);
    }

    #[test]
    fn manifest_parser_is_total_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = fsck::parse_manifest(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_manifests_never_misparse(cut in 0usize..64) {
        let valid = "#goofi-job v1\ncampaign tort camp\nworkers 3\n";
        let cut = cut.min(valid.len());
        if let Some((campaign, workers)) = fsck::parse_manifest(&valid[..cut]) {
            // A prefix either fails to parse or yields the original values.
            prop_assert_eq!(campaign, "tort camp");
            prop_assert_eq!(workers, 3);
        }
    }
}
