//! One campaign from set-up to verdict, in the order `goofi run` and
//! `goofi report` make their calls, plus the output checks made after it,
//! outside the timed window.

use crate::ledger::{self, CampaignInfo, Ledger, ServiceInfo};
use crate::trace::{timed, Span, Timed, TimedVfs, Tracer};
use goofi::analysis::classify_campaign;
use goofi::analysis::queries;
use goofi::analysis::report::{self, CATEGORIES};
use goofi::analysis::stats::CampaignStats;
use goofi::core::algorithms::{self, CampaignResult};
use goofi::core::campaign::{
    Campaign, OutputRegion, TargetSystemData, Technique, Termination, WorkloadImage,
};
use goofi::core::fault::{FaultLocation, FaultSpace, FaultSpec};
use goofi::core::golden::GoldenCache;
use goofi::core::journal::ExperimentJournal;
use goofi::core::logging::{ExperimentRecord, LoggingMode};
use goofi::core::monitor::ProgressMonitor;
use goofi::core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi::core::service::{
    self, Client, RealNet, Request, Response, Scheduler, ServiceConfig, Transport, WorkerArgs,
    WorkerCommand,
};
use goofi::core::telemetry::{SpanKind, SpanRecord, Telemetry, TraceSink};
use goofi::core::trigger::Trigger;
use goofi::core::vfs::{RealFs, Vfs};
use goofi::core::{dbio, runner, GoofiError, TargetAccess};
use goofi::envsim::{Environment, NullEnvironment};
use goofi::goofi_riscv::RiscvTarget;
use goofi::goofi_thor::ThorTarget;
use goofi::goofidb::Database;
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn e2s(e: GoofiError) -> String {
    e.to_string()
}

/// Where fault triggers fall in the reference run.
#[derive(Clone, Copy)]
pub enum Window {
    Whole,
    /// The last tenth (deep-prefix campaigns).
    LastTenth,
}

/// How the injection phase is executed.
#[derive(Clone, Copy)]
pub enum Exec {
    /// `goofi run --journal`: one worker, a journal and the golden cache
    /// beside it.
    Serial,
    /// `goofi run --workers N`: the threaded runner, no journal.
    Threads(usize),
    /// `goofi serve` + `goofi submit --workers N`.
    Service(usize),
}

/// One workload: what `goofi new` is asked for, and how it is run.
#[derive(Clone, Copy)]
pub struct Shape {
    pub kind: TargetKind,
    pub workload: &'static str,
    pub technique: Technique,
    pub window: Window,
    pub experiments: usize,
    pub logging: LoggingMode,
    pub max_instructions: u64,
    pub exec: Exec,
}

/// One finished campaign: its timings, its checks and, until the identity
/// guard has compared them, its records.
pub struct Outcome {
    pub experiments: usize,
    pub setup_s: f64,
    pub phase_s: f64,
    pub report_s: f64,
    pub verdict_s: f64,
    pub wall_s: f64,
    /// Peak resident memory during the campaign's timed window.
    pub peak_rss_mb: f64,
    /// Failed, missing and duplicate records plus failed output checks.
    pub violations: usize,
    pub notes: Vec<String>,
    /// In-process campaigns: the executor's result.
    result: Option<CampaignResult>,
    /// Service campaigns: the job's database rows, as essence strings.
    rows: Vec<String>,
    /// `restores` and `snapshots-taken` from the monitor's metrics.
    counters: Option<(u64, u64)>,
    info: CampaignInfo,
    remote: Vec<Span>,
}

impl Outcome {
    /// Drops the records once the identity guard no longer needs them.
    pub fn forget_records(&mut self) {
        self.result = None;
        self.rows = Vec::new();
    }
}

/// Marks the end of the first experiment that is not the reference run:
/// the end of set-up.
#[derive(Default)]
struct FirstExperiment {
    at: OnceLock<Instant>,
}

impl TraceSink for FirstExperiment {
    fn record(&self, span: &SpanRecord) -> bool {
        if span.kind == SpanKind::Experiment
            && self.at.get().is_none()
            && !span.name.ends_with(ExperimentRecord::REFERENCE_NAME)
        {
            let _ = self.at.set(Instant::now());
        }
        true
    }

    fn flush(&self) {}
}

/// The workload image and output spec, whichever library it comes from.
struct Picked {
    image: WorkloadImage,
    output: OutputRegion,
}

pub struct Bench {
    shape: Shape,
    seed: u64,
    run_dir: PathBuf,
    goofi: Option<PathBuf>,
    picked: Picked,
    data: TargetSystemData,
    reference_length: u64,
}

fn output_region(spec: &goofi::workloads::OutputSpec) -> OutputRegion {
    match *spec {
        goofi::workloads::OutputSpec::Memory { addr, len } => OutputRegion::Memory { addr, len },
        goofi::workloads::OutputSpec::Ports => OutputRegion::Ports,
    }
}

/// Seed of campaign `i` of a run.
fn campaign_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
        .rotate_left(17)
}

impl Bench {
    pub fn new(
        shape: Shape,
        seed: u64,
        run_dir: PathBuf,
        goofi: Option<PathBuf>,
    ) -> Result<Bench, String> {
        let picked = match shape.kind {
            TargetKind::Thor => goofi::workloads::by_name(shape.workload).map(|w| Picked {
                image: WorkloadImage {
                    name: w.name.clone(),
                    words: w.image.words.clone(),
                    code_words: w.image.code_words,
                    entry: w.image.entry,
                },
                output: output_region(&w.output),
            }),
            TargetKind::Riscv => goofi::workloads::riscv_by_name(shape.workload).map(|w| Picked {
                image: WorkloadImage {
                    name: w.name.clone(),
                    words: w.image.words.clone(),
                    code_words: w.image.code_words,
                    entry: w.image.entry,
                },
                output: output_region(&w.output),
            }),
        }
        .ok_or_else(|| format!("no workload {}", shape.workload))?;
        let target = shape.kind.build();
        let data = TargetSystemData::from_target(&*target, shape.kind.description());
        let mut bench = Bench {
            shape,
            seed,
            run_dir,
            goofi,
            picked,
            data,
            reference_length: 0,
        };
        // The trigger window spans the fault-free run, so measure it once.
        let trigger = match shape.technique {
            Technique::SwifiPreRuntime => Trigger::PreRuntime,
            _ => Trigger::AfterInstructions(1),
        };
        let probe = bench.build_campaign(
            "probe",
            vec![FaultSpec::single(
                FaultLocation::Memory { addr: 0, bit: 0 },
                trigger,
            )],
        )?;
        let mut target = shape.kind.build();
        bench.reference_length =
            algorithms::make_reference_run(&mut target, &probe, &mut NullEnvironment)
                .map_err(e2s)?
                .state
                .instructions;
        Ok(bench)
    }

    fn build_campaign(&self, name: &str, faults: Vec<FaultSpec>) -> Result<Campaign, String> {
        Campaign::builder(name)
            .target_system(&self.data.name)
            .technique(self.shape.technique)
            .workload(self.picked.image.clone())
            .observe_chains(["internal"])
            .output(self.picked.output)
            .termination(Termination {
                max_instructions: self.shape.max_instructions,
                max_iterations: None,
            })
            .logging(self.shape.logging)
            .policy(ExperimentPolicy::fail_fast().with_watchdog(WatchdogBudget::default()))
            .faults(faults)
            .build()
            .map_err(e2s)
    }

    /// The set-up `goofi new` does: sample the fault list from the seed.
    fn make_campaign(&self, name: &str, seed: u64) -> Result<Campaign, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.shape.experiments;
        let len = self.reference_length;
        let window = match self.shape.window {
            Window::Whole => 0..len,
            Window::LastTenth => len - len / 10..len,
        };
        let faults = match self.shape.technique {
            Technique::Scifi => {
                let mut space = self.data.fault_space(None, window);
                space.scan_cells.retain(|(chain, _, _)| {
                    matches!(chain.as_str(), "internal" | "icache" | "dcache")
                });
                space.sample_campaign(n, &mut rng)
            }
            Technique::SwifiPreRuntime => FaultSpace {
                scan_cells: vec![],
                memory: Some(0..self.picked.image.words.len() as u32),
                time_window: 0..1,
            }
            .sample_campaign(n, &mut rng)
            .into_iter()
            .map(|mut f| {
                f.trigger = Trigger::PreRuntime;
                f
            })
            .collect(),
            other => return Err(format!("technique {other:?} has no workload here")),
        };
        self.build_campaign(name, faults)
    }

    fn create_db(&self, path: &Path, campaign: &Campaign) -> Result<(), String> {
        let mut db = Database::new();
        dbio::init_schema(&mut db).map_err(e2s)?;
        dbio::store_target_system(&mut db, &self.data).map_err(e2s)?;
        dbio::store_campaign(&mut db, campaign).map_err(e2s)?;
        dbio::save_database(&RealFs, path, &db).map_err(e2s)
    }

    /// Runs campaign `i` of the run, bare or under `tracer`, then checks
    /// its outputs.
    pub fn campaign(&self, i: usize, tracer: Option<Arc<Tracer>>) -> Result<Outcome, String> {
        let dir = self.run_dir.join(format!(
            "c{i}{}",
            if tracer.is_some() { "-traced" } else { "" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let name = format!("c{i}");
        let campaign = self.make_campaign(&name, campaign_seed(self.seed, i))?;
        let db_path = dir.join("campaign.gdb");
        self.create_db(&db_path, &campaign)?;
        let mut out = match self.shape.exec {
            Exec::Service(workers) => self.service(&dir, &db_path, &name, workers, tracer)?,
            _ => self.in_process(&dir, &db_path, &name, tracer)?,
        };
        self.check(&mut out, &campaign, &db_path, i)?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(out)
    }

    fn target_factory(
        &self,
        tracer: Option<&Arc<Tracer>>,
    ) -> Box<dyn Fn() -> Box<dyn TargetAccess> + Sync> {
        let kind = self.shape.kind;
        match tracer {
            None => Box::new(move || kind.build()),
            Some(t) => {
                let t = Arc::clone(t);
                match kind {
                    TargetKind::Thor => Box::new(move || {
                        Box::new(Timed::new(ThorTarget::default(), Arc::clone(&t), "thor"))
                            as Box<dyn TargetAccess>
                    }),
                    TargetKind::Riscv => Box::new(move || {
                        Box::new(Timed::new(RiscvTarget::default(), Arc::clone(&t), "riscv"))
                            as Box<dyn TargetAccess>
                    }),
                }
            }
        }
    }

    /// `goofi run` (serial or threaded) followed by `goofi report`.
    fn in_process(
        &self,
        dir: &Path,
        db_path: &Path,
        name: &str,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Outcome, String> {
        let tr = tracer.as_deref();
        let vfs: Box<dyn Vfs> = match &tracer {
            Some(t) => Box::new(TimedVfs::new(Arc::clone(t))),
            None => Box::new(RealFs),
        };
        let make_target = self.target_factory(tracer.as_ref());
        let first = Arc::new(FirstExperiment::default());
        let sinks: Vec<Arc<dyn TraceSink>> = vec![first.clone()];
        let tel = Telemetry::with_sinks(sinks);
        let journal_path = dir.join("campaign.gjl");
        if let Some(t) = tr {
            t.begin_campaign();
        }

        reset_peak_rss();
        let t0 = Instant::now();
        let root = tr.map(Tracer::enter);
        let root_id = root.as_ref().map_or(0, |r| r.id());
        let mut db = timed(tr, "dbio", "load_database", || {
            dbio::load_database(&*vfs, db_path)
        })
        .map_err(e2s)?;
        let campaign = timed(tr, "dbio", "load_campaign", || {
            dbio::load_campaign(&db, name)
        })
        .map_err(e2s)?;
        let monitor = ProgressMonitor::with_telemetry(campaign.experiment_count(), tel);
        let (result, workers) = match self.shape.exec {
            Exec::Serial => {
                let mut target = timed(tr, "port", "construct", &make_target);
                let mut env = NullEnvironment;
                let mut journal = timed(tr, "journal", "create_with", || {
                    ExperimentJournal::create_with(&*vfs, &journal_path, &campaign.name)
                })
                .map_err(e2s)?;
                let cache = timed(tr, "golden", "cache_new", || {
                    GoldenCache::new(&*vfs, &journal_path, &campaign, env.name())
                });
                let result = executor(tr, "algorithms", "run_campaign_journaled_opts", || {
                    algorithms::run_campaign_journaled_opts(
                        &mut target,
                        &campaign,
                        &monitor,
                        &mut env,
                        Some(&mut journal),
                        Some(&cache),
                        true,
                    )
                });
                (result, 1)
            }
            Exec::Threads(workers) => {
                let result = executor(tr, "runner", "run_campaign_parallel_journaled_opts", || {
                    runner::run_campaign_parallel_journaled_opts(
                        &make_target,
                        None::<fn() -> Box<dyn Environment>>,
                        &campaign,
                        &monitor,
                        workers,
                        None,
                        true,
                    )
                });
                (result, workers)
            }
            Exec::Service(_) => unreachable!("service campaigns run through the daemon"),
        };
        let result = result.map_err(e2s)?;
        timed(tr, "dbio", "store_result_traced", || {
            dbio::store_result_traced(&mut db, &result, monitor.telemetry())
        })
        .map_err(e2s)?;
        timed(tr, "dbio", "save_database", || {
            dbio::save_database(&*vfs, db_path, &db)
        })
        .map_err(e2s)?;
        let phase_end = Instant::now();
        let db_bytes = file_len(db_path);
        let verdict_at = report_phase(&*vfs, db_path, name, tr)?;
        let end = Instant::now();
        if let (Some(t), Some(root)) = (tr, root) {
            t.exit(root, "bench", "campaign", 0);
        }
        let peak_rss_mb = peak_rss_mb();
        drop(db);

        let first_at = first.at.get().copied().unwrap_or(phase_end);
        let metrics = monitor.telemetry().metrics().unwrap_or_default();
        let golden_bytes = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("golden-"))
                    .map(|e| e.metadata().map_or(0, |m| m.len()))
                    .sum()
            })
            .unwrap_or(0);
        Ok(Outcome {
            experiments: campaign.experiment_count(),
            setup_s: secs(t0, first_at),
            phase_s: secs(first_at, phase_end),
            report_s: secs(phase_end, end),
            verdict_s: secs(t0, verdict_at),
            wall_s: secs(t0, end),
            peak_rss_mb,
            violations: 0,
            notes: Vec::new(),
            counters: Some((
                metrics.counter("restores"),
                metrics.counter("snapshots-taken"),
            )),
            result: Some(result),
            rows: Vec::new(),
            info: CampaignInfo {
                root: root_id,
                setup_end_ns: tr.map_or(0, |t| t.ns_at(first_at)),
                experiments: campaign.experiment_count(),
                workers,
                golden_bytes,
                db_bytes,
                service: None,
            },
            remote: Vec::new(),
        })
    }

    /// `goofi serve` on a fresh database, one `goofi submit --watch` over a
    /// single connection, then `goofi report`.
    fn service(
        &self,
        dir: &Path,
        db_path: &Path,
        name: &str,
        workers: usize,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Outcome, String> {
        let side_dir = dir.join("workers");
        let worker_cmd = match &tracer {
            None => WorkerCommand {
                program: self
                    .goofi
                    .clone()
                    .ok_or("the service workload needs --goofi")?,
                args: vec!["worker".into()],
            },
            Some(_) => {
                std::fs::create_dir_all(&side_dir).map_err(|e| e.to_string())?;
                WorkerCommand {
                    program: std::env::current_exe().map_err(|e| e.to_string())?,
                    args: vec!["worker".into(), side_dir.display().to_string()],
                }
            }
        };
        let mut cfg = ServiceConfig::new(db_path, worker_cmd);
        cfg.default_workers = workers;
        let spool = cfg.spool_dir.clone();
        let scheduler = Arc::new(Scheduler::new(cfg).map_err(e2s)?);
        let listener = RealNet
            .listen("127.0.0.1:0")
            .map_err(|e| format!("listening: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listening: {e}"))?;
        scheduler.recover().map_err(e2s)?;
        let daemon = Daemon::start(listener, scheduler);

        let tr = tracer.as_deref();
        let vfs: Box<dyn Vfs> = match &tracer {
            Some(t) => Box::new(TimedVfs::new(Arc::clone(t))),
            None => Box::new(RealFs),
        };
        if let Some(t) = tr {
            t.begin_campaign();
        }
        reset_peak_rss();
        let t0 = Instant::now();
        let root = tr.map(Tracer::enter);
        let root_id = root.as_ref().map_or(0, |r| r.id());
        let job = tr.map(Tracer::enter);
        let mut client = Client::connect(&addr).map_err(e2s)?;
        client.set_read_timeout(Duration::from_secs(60));
        client
            .send(&Request::Submit {
                id: service::new_request_id(),
                campaign: name.to_string(),
                workers,
                watch: true,
                target: TargetKind::Thor.system_name().to_string(),
            })
            .map_err(e2s)?;
        let mut accepted_at = None;
        let mut events: Vec<(Instant, u64)> = Vec::new();
        let mut last_seq = 0;
        let state = loop {
            match client.recv().map_err(e2s)? {
                Some(Response::Accepted { .. }) => accepted_at = Some(Instant::now()),
                Some(Response::Progress {
                    seq,
                    state,
                    completed,
                    detail,
                    ..
                }) => {
                    let now = Instant::now();
                    let terminal = state == "done" || state == "failed";
                    if seq <= last_seq && !terminal {
                        continue;
                    }
                    last_seq = seq;
                    events.push((now, completed));
                    if terminal {
                        break (state, detail);
                    }
                }
                Some(Response::Error { detail }) => return Err(format!("daemon: {detail}")),
                Some(_) => {}
                None => return Err("daemon closed the watch stream".into()),
            }
        };
        if let (Some(t), Some(job)) = (tr, job) {
            t.exit(job, "service", "job", 0);
        }
        if state.0 != "done" {
            return Err(format!("job ended {}: {}", state.0, state.1));
        }
        let done_at = events.last().map_or(t0, |e| e.0);
        let phase_end = Instant::now();
        let db_bytes = file_len(db_path);
        let verdict_at = report_phase(&*vfs, db_path, name, tr)?;
        let end = Instant::now();
        if let (Some(t), Some(root)) = (tr, root) {
            t.exit(root, "bench", "campaign", 0);
        }
        let peak_rss_mb = peak_rss_mb();
        drop(daemon);

        let first = events
            .iter()
            .find(|e| e.1 > 0)
            .copied()
            .unwrap_or((done_at, 0));
        let mut last_change = first;
        for pair in events.windows(2) {
            if pair[1].1 > pair[0].1 {
                last_change = pair[1];
            }
        }
        let steady = if last_change.0 > first.0 {
            (last_change.1 - first.1) as f64 / secs(first.0, last_change.0)
        } else {
            0.0
        };
        let remote = if tracer.is_some() {
            read_side_files(&side_dir)?
        } else {
            Vec::new()
        };
        let experiments = self.shape.experiments;
        Ok(Outcome {
            experiments,
            setup_s: secs(t0, first.0),
            phase_s: secs(first.0, done_at),
            report_s: secs(phase_end, end),
            verdict_s: secs(t0, verdict_at),
            wall_s: secs(t0, end),
            peak_rss_mb,
            violations: 0,
            notes: Vec::new(),
            result: None,
            rows: Vec::new(),
            counters: None,
            info: CampaignInfo {
                root: root_id,
                setup_end_ns: tr.map_or(0, |t| t.ns_at(first.0)),
                experiments,
                workers,
                golden_bytes: 0,
                db_bytes,
                service: Some(ServiceInfo {
                    submit_s: accepted_at.map_or(0.0, |a| secs(t0, a)),
                    first_exp_s: secs(t0, first.0),
                    steady_exp_per_s: steady,
                    drain_s: secs(last_change.0, done_at),
                    progress_events: events.len() as u64,
                    spool_bytes: dir_bytes(&spool),
                }),
            },
            remote,
        })
    }

    /// The output checks, run after the timed window. Every violation is
    /// counted and explained.
    fn check(
        &self,
        out: &mut Outcome,
        campaign: &Campaign,
        db_path: &Path,
        i: usize,
    ) -> Result<(), String> {
        let mut violations = 0usize;
        let mut notes = Vec::new();
        let db = dbio::load_database(&RealFs, db_path).map_err(e2s)?;
        let stored = dbio::load_experiments(&db, &campaign.name).map_err(e2s)?;

        // Every campaign index logged exactly once, plus one reference.
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &stored {
            *seen.entry(r.name.as_str()).or_insert(0) += 1;
        }
        let reference_name = format!("{}/{}", campaign.name, ExperimentRecord::REFERENCE_NAME);
        let mut expected: Vec<String> = (0..campaign.experiment_count())
            .map(|i| campaign.experiment_name(i))
            .collect();
        expected.push(reference_name);
        let mut bad = 0;
        for name in &expected {
            match seen.remove(name.as_str()) {
                Some(1) => {}
                Some(n) => bad += n - 1,
                None => bad += 1,
            }
        }
        bad += seen.values().sum::<usize>();
        if bad > 0 {
            notes.push(format!(
                "{}: {bad} missing, duplicate or unexpected record(s)",
                campaign.name
            ));
        }
        violations += bad;

        let mut target = self.shape.kind.build();
        let service = matches!(self.shape.exec, Exec::Service(_));
        if service {
            let mut rows: Vec<String> = stored.iter().map(essence).collect();
            rows.sort();
            // Once per run, the job's rows must equal a serial run of the
            // same campaign.
            if i == 0 {
                let monitor = ProgressMonitor::new(campaign.experiment_count());
                let serial = algorithms::run_campaign_journaled_opts(
                    &mut target,
                    campaign,
                    &monitor,
                    &mut NullEnvironment,
                    None,
                    None,
                    true,
                )
                .map_err(e2s)?;
                let mut expected_rows = essence_rows(&serial);
                expected_rows.sort();
                let differ = expected_rows
                    .iter()
                    .zip(&rows)
                    .filter(|(a, b)| a != b)
                    .count()
                    + expected_rows.len().abs_diff(rows.len());
                if differ > 0 {
                    notes.push(format!(
                        "{}: {differ} job row(s) differ from a serial run",
                        campaign.name
                    ));
                }
                violations += differ;
            }
            out.rows = rows;
            // The job's result is what it stored.
            let (references, records): (Vec<ExperimentRecord>, Vec<ExperimentRecord>) = stored
                .iter()
                .cloned()
                .partition(ExperimentRecord::is_reference);
            out.result = Some(CampaignResult {
                reference: references
                    .into_iter()
                    .next()
                    .ok_or("the job stored no reference run")?,
                records,
                failures: Vec::new(),
                quarantined: Vec::new(),
                recoveries: Vec::new(),
            });
        }
        let result = out.result.as_ref().ok_or("no result to check")?;

        // The rendered outcome table against a classification of the
        // in-memory result.
        let rendered = {
            let mut db = db;
            let classified = queries::analyse_campaign(&mut db, &campaign.name).map_err(e2s)?;
            report::full_report(
                &format!("campaign `{}`", campaign.name),
                &CampaignStats::from_classified(&classified),
            )
        };
        let truth =
            CampaignStats::from_classified(&classify_campaign(&result.reference, &result.records));
        for category in CATEGORIES {
            let shown = rendered_count(&rendered, category);
            let want = truth.category_count(category);
            if shown != Some(want) {
                notes.push(format!(
                    "{}: outcome table shows {category} = {shown:?}, classification gives {want}",
                    campaign.name
                ));
                violations += 1;
            }
        }

        // B11 identity on a seeded subsample: the slow path (reload and
        // replay, no snapshots) gives the same records.
        let samples = match self.shape.logging {
            LoggingMode::Detail => 2,
            LoggingMode::Normal => 8,
        };
        let mut rng = StdRng::seed_from_u64(campaign_seed(self.seed ^ 0x5EED, i));
        for _ in 0..samples.min(campaign.experiment_count()) {
            let index = rng.gen_range(0..campaign.experiment_count());
            let slow =
                algorithms::run_experiment(&mut target, campaign, index, &mut NullEnvironment)
                    .map_err(e2s)?;
            let fast = result.records.iter().find(|r| r.name == slow.name);
            let same = match fast {
                // Stored rows keep a record's essence, not every field.
                Some(fast) if service => essence(fast) == essence(&slow),
                Some(fast) => *fast == slow,
                None => false,
            };
            if !same {
                notes.push(format!("{}: slow-path record differs", slow.name));
                violations += 1;
            }
        }
        out.violations += violations;
        out.notes.extend(notes);
        Ok(())
    }
}

/// The analysis phase as `goofi report` runs it. Returns when the outcome
/// table was rendered.
fn report_phase(
    vfs: &dyn Vfs,
    db_path: &Path,
    name: &str,
    tr: Option<&Tracer>,
) -> Result<Instant, String> {
    let mut db = timed(tr, "dbio", "load_database", || {
        dbio::load_database(vfs, db_path)
    })
    .map_err(e2s)?;
    let classified = timed(tr, "analysis", "analyse_campaign", || {
        queries::analyse_campaign(&mut db, name)
    })
    .map_err(e2s)?;
    let rendered = timed(tr, "analysis", "render", || {
        let stats = CampaignStats::from_classified(&classified);
        report::full_report(&format!("campaign `{name}`"), &stats)
    });
    black_box(&rendered);
    let verdict_at = Instant::now();
    let listed = timed(tr, "analysis", "render", || -> Result<usize, GoofiError> {
        let escaped = queries::escaped_experiments(&db, name)?;
        let recoveries = dbio::load_recovery_actions(&db, name)?;
        Ok(escaped.rows.len() + recoveries.len())
    })
    .map_err(e2s)?;
    black_box(listed);
    timed(tr, "analysis", "save_database", || {
        dbio::save_database(vfs, db_path, &db)
    })
    .map_err(e2s)?;
    Ok(verdict_at)
}

/// Times an executor call; target calls on its worker threads parent to it.
fn executor<R>(
    tr: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.executor_span(layer, name, f),
        None => f(),
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// The part of a record sharding must preserve, as stored.
fn essence(r: &ExperimentRecord) -> String {
    format!(
        "{}|{:?}|{:?}|{}|{:?}",
        r.name,
        r.fault,
        r.termination,
        r.state.encode(),
        r.validity
    )
}

fn essence_rows(result: &CampaignResult) -> Vec<String> {
    std::iter::once(&result.reference)
        .chain(&result.records)
        .map(essence)
        .collect()
}

/// The count a rendered outcome table shows for `category`.
fn rendered_count(rendered: &str, category: &str) -> Option<usize> {
    rendered.lines().find_map(|line| {
        let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
        if cells.next()? != category {
            return None;
        }
        cells.next()?.split_whitespace().next()?.parse().ok()
    })
}

/// The identity guard: a traced campaign must produce the records and
/// executor counters of the same campaign run bare. Returns the number of
/// violations and their explanations.
pub fn identity(bare: &Outcome, traced: &Outcome) -> (usize, Vec<String>) {
    let mut notes = Vec::new();
    if !bare.rows.is_empty() || !traced.rows.is_empty() {
        if bare.rows != traced.rows {
            notes.push("traced service job stored different rows".into());
        }
    } else {
        match (&bare.result, &traced.result) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                let differ = a
                    .records
                    .iter()
                    .zip(&b.records)
                    .filter(|(x, y)| x != y)
                    .count()
                    + usize::from(a.reference != b.reference)
                    + a.records.len().abs_diff(b.records.len());
                notes.push(format!("traced run changed {differ} record(s)"));
            }
            _ => notes.push("identity guard: a result is missing".into()),
        }
    }
    if !traced.remote.is_empty() && !traced.remote.iter().any(|s| s.name == "restore") {
        notes.push("traced service workers never restored a snapshot: slow path".into());
    }
    if bare.counters != traced.counters {
        notes.push(format!(
            "traced run counters (restores, snapshots-taken) {:?} differ from bare {:?}",
            traced.counters, bare.counters
        ));
    }
    (notes.len(), notes)
}

/// Stops the in-process daemon and waits for it when dropped.
struct Daemon {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<goofi::core::Result<()>>>,
}

impl Daemon {
    fn start(
        listener: Box<dyn goofi::core::service::net::Listener>,
        scheduler: Arc<Scheduler>,
    ) -> Daemon {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || service::serve(listener, scheduler, flag));
        Daemon {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The worker entry of the traced service run: `goofi worker` with the
/// timing wrapper around the target. Writes its spans to a side file in
/// `args[0]` when the shard ends.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let (side_dir, rest) = args
        .split_first()
        .ok_or("worker: missing side-file directory")?;
    let parsed = WorkerArgs::parse(rest).map_err(e2s)?;
    let tracer = Tracer::new();
    tracer.begin_campaign();
    // The runner makes its target calls on a thread of its own; they
    // parent to the worker span through the executor fallback.
    let result = tracer.executor_span("service", "worker", || {
        service::run_worker(&parsed, || {
            Timed::new(ThorTarget::default(), Arc::clone(&tracer), "thor")
        })
    });
    let mut text = String::new();
    for s in tracer.take_spans() {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.work
        ));
    }
    let path = Path::new(side_dir).join(format!(
        "worker-{}-{}-{}.tsv",
        parsed.shard,
        parsed.attempt,
        std::process::id()
    ));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    result.map_err(e2s)
}

/// Interns a layer or call name read back from a side file.
fn intern(s: &str) -> &'static str {
    const KNOWN: [&str; 26] = [
        "service",
        "worker",
        "thor",
        "riscv",
        "scanchain",
        "port",
        "vfs",
        "run_workload",
        "step_instruction",
        "step_traced",
        "read_scan_chain",
        "write_scan_chain",
        "init_test_card",
        "load_workload",
        "reset_target",
        "write_memory",
        "read_memory",
        "flip_memory_bit",
        "set_breakpoint",
        "clear_breakpoints",
        "write_input_ports",
        "read_output_ports",
        "power_cycle",
        "snapshot",
        "restore",
        "memory_digest",
    ];
    KNOWN.into_iter().find(|k| *k == s).unwrap_or("other")
}

/// Reads the workers' spans back, renumbering ids so that files from
/// different processes cannot collide.
fn read_side_files(dir: &Path) -> Result<Vec<Span>, String> {
    static NEXT_FILE: AtomicU64 = AtomicU64::new(1);
    let mut spans = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    for file in files {
        let offset = NEXT_FILE.fetch_add(1, Ordering::Relaxed) << 40;
        let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
            let (Some(id), Some(parent), Some(start_ns), Some(end_ns), Some(work)) =
                (num(0), num(1), num(4), num(5), num(6))
            else {
                return Err(format!("malformed side file {}", file.display()));
            };
            spans.push(Span {
                id: id + offset,
                parent: if parent == 0 { 0 } else { parent + offset },
                campaign: 0,
                layer: intern(f[2]),
                name: intern(f[3]),
                start_ns,
                end_ns,
                work,
            });
        }
    }
    Ok(spans)
}

/// Builds the ledger of a traced run and writes its spans out.
pub fn ledger(
    bare: &[Outcome],
    traced: &[Outcome],
    tracer: &Tracer,
    run_dir: &Path,
) -> Result<Ledger, String> {
    let local = tracer.take_spans();
    let remote: Vec<Span> = traced
        .iter()
        .flat_map(|o| o.remote.iter().cloned())
        .collect();
    let infos: Vec<CampaignInfo> = traced.iter().map(|o| o.info.clone()).collect();
    let untraced_wall: f64 = bare.iter().map(|o| o.wall_s).sum();
    let ledger = ledger::build(&local, &remote, &infos, untraced_wall);
    let mut text =
        String::from("origin\tcampaign\tid\tparent\tlayer\tname\tstart_ns\tend_ns\twork\n");
    for (origin, spans) in [("local", &local), ("worker", &remote)] {
        for s in spans {
            text.push_str(&format!(
                "{origin}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.campaign, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.work
            ));
        }
    }
    let path = run_dir.join("spans.tsv");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(ledger)
}

/// Starts a new peak-memory window for this process: the kernel resets
/// its high-water mark (`VmHWM`) to the current resident size.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since [`reset_peak_rss`], of this process and of
/// the largest child it has waited for (the service's worker processes),
/// in MB.
fn peak_rss_mb() -> f64 {
    let own_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .unwrap_or(0);
    own_kb.max(children_max_rss_kb()) as f64 / 1024.0
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn children_max_rss_kb() -> u64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as Linux's 64-bit
    // `struct rusage` (two `timeval`s, then fourteen `long`s), and
    // getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.maxrss).unwrap_or(0)
    } else {
        0
    }
}

/// What the result was measured on, for the line printed before it.
pub fn meta(workload: &str, seed: u64, run_dir: &Path, outcomes: &[Outcome]) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir()
                .ok()
                .and_then(|d| d.parent().map(Path::to_path_buf))
                .unwrap_or_default(),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fs_type = std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    run_dir
                        .starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max()
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into());
    let per_campaign = outcomes.first().map_or(0, |o| o.experiments);
    let total: usize = outcomes.iter().map(|o| o.experiments).sum();
    format!(
        "{{\"git_rev\": \"{rev}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \"fs_type\": \"{fs_type}\", \"experiments_per_campaign\": {per_campaign}, \"campaigns\": {}, \"experiments\": {total}}}",
        outcomes.len()
    )
}
