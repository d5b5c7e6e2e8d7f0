//! GOOFI campaign benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--goofi <path>]
//! perfbench worker <side-dir> <goofi worker flags>   (spawned by the traced service run)
//! ```
//!
//! One run repeats whole campaigns back to back — a closed loop of one
//! user — for `--seconds`, each in a fresh work directory, and prints one
//! JSON line last. A campaign walks the calls `goofi new`, `goofi run` and
//! `goofi report` make, in their order: set-up (database load, campaign
//! decode, target, journal, cold golden run), injection, result store and
//! save, then the analysis phase. `--trace 1` runs every campaign twice,
//! once bare and once with the timing wrappers of [`trace`], checks that
//! both give the same records and counters, and prints the per-layer
//! ledger of [`ledger`] instead of the end-to-end metrics.

mod flow;
mod ledger;
mod trace;

use flow::{Exec, Outcome, Shape, Window};
use goofi::core::campaign::Technique;
use goofi::core::logging::LoggingMode;
use goofi::targets::TargetKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads. Sizes are chosen so that one campaign takes
/// one to three seconds and a run holds several of them.
fn shape(workload: &str) -> Option<Shape> {
    Some(match workload {
        // The everyday campaign: durable per-record logging (one journal
        // fsync per record) takes about as much wall time as the simulator.
        // Not among BENCHMARK.json's workloads: its rate follows the disk's
        // fsync latency, which on shared virtual disks shifts by up to a
        // factor of two from one run to the next.
        "thor-scifi-journal" => Shape {
            kind: TargetKind::Thor,
            workload: "crc32",
            technique: Technique::Scifi,
            window: Window::Whole,
            experiments: 3000,
            logging: LoggingMode::Normal,
            max_instructions: 1_000_000,
            exec: Exec::Serial,
        },
        // Simulator-bound (hangs run to the instruction limit) on the
        // second CPU and the threaded runner; no journal, little scan work.
        "rv-swifi-threads" => Shape {
            kind: TargetKind::Riscv,
            workload: "rv-memcpy",
            technique: Technique::SwifiPreRuntime,
            window: Window::Whole,
            experiments: 2500,
            logging: LoggingMode::Normal,
            max_instructions: 1_000_000,
            exec: Exec::Threads(2),
        },
        // Deep-prefix triggers leave little simulation per experiment, so
        // service coordination, worker start-up and fold-in dominate.
        "thor-deep-service" => Shape {
            kind: TargetKind::Thor,
            workload: "fibonacci",
            technique: Technique::Scifi,
            window: Window::LastTenth,
            experiments: 8000,
            logging: LoggingMode::Normal,
            max_instructions: 1_000_000,
            exec: Exec::Service(2),
        },
        // Detail logging: a scan readout after every instruction, bulk
        // rows and whole-file database rewrites. The instruction limit is
        // about five reference runs: a hang logged in detail up to the
        // default limit of a million instructions takes minutes and GBs.
        "thor-detail-rerun" => Shape {
            kind: TargetKind::Thor,
            workload: "crc32",
            technique: Technique::Scifi,
            window: Window::Whole,
            experiments: 10,
            logging: LoggingMode::Detail,
            max_instructions: 20_000,
            exec: Exec::Serial,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    goofi: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut goofi = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--goofi" => goofi = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        goofi,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("worker") {
        flow::worker_main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Campaigns a run makes at least, whatever `--seconds` says, so every
/// median has several samples.
const MIN_CAMPAIGNS: usize = 3;

fn run(args: &Args) -> Result<(), String> {
    let shape =
        shape(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // A fresh work directory per run: no golden cache, journal, spool or
    // daemon is carried over from an earlier run.
    let run_dir = Path::new(".bench_work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let run_dir = run_dir
        .canonicalize()
        .map_err(|e| format!("resolving {}: {e}", run_dir.display()))?;

    let bench = flow::Bench::new(shape, args.seed, run_dir.clone(), args.goofi.clone())?;
    let started = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut notes: Vec<String> = Vec::new();
    let tracer = args.trace.then(trace::Tracer::new);
    let mut i = 0;
    while i < MIN_CAMPAIGNS || started.elapsed().as_secs_f64() < args.seconds {
        let mut bare = bench.campaign(i, None)?;
        eprintln!(
            "perfbench: campaign {i}: setup {:.6} s, injection {:.6} s ({:.1} exp/s), report {:.6} s, verdict {:.6} s",
            bare.setup_s,
            bare.phase_s,
            bare.experiments as f64 / bare.phase_s,
            bare.report_s,
            bare.verdict_s
        );
        attempted += bare.experiments;
        failed += bare.violations;
        notes.append(&mut bare.notes);
        if let Some(tracer) = &tracer {
            let mut t = bench.campaign(i, Some(tracer.clone()))?;
            let (v, why) = flow::identity(&bare, &t);
            attempted += t.experiments;
            failed += v + t.violations;
            notes.extend(why);
            notes.append(&mut t.notes);
            t.forget_records();
            traced.push(t);
        }
        bare.forget_records();
        outcomes.push(bare);
        i += 1;
    }

    let meta = flow::meta(&args.workload, args.seed, &run_dir, &outcomes);
    println!("perfbench: {meta}");
    let _ = std::fs::write(run_dir.join("meta.json"), format!("{meta}\n"));
    for note in &notes {
        eprintln!("perfbench: check failed: {note}");
    }

    let metrics: Vec<(&str, f64, &str)> = if let Some(tracer) = &tracer {
        let ledger = flow::ledger(&outcomes, &traced, tracer, &run_dir)?;
        eprintln!("{}", ledger.table);
        for (i, (wall, layers)) in ledger.accounting.iter().enumerate() {
            let rest = wall - layers;
            eprintln!(
                "perfbench: accounting, campaign {i}: wall {wall:.6} s = layers {layers:.6} s + unattributed {rest:.6} s{}",
                if rest < 0.0 {
                    " (negative: layer times overlap, double counting)"
                } else {
                    ""
                }
            );
        }
        let failed_frac = failed as f64 / attempted.max(1) as f64;
        ledger
            .metrics
            .iter()
            .map(|(k, v)| (*k, *v, unit_of(k)))
            .chain([("exp_failed_frac", failed_frac, "ratio")])
            .collect()
    } else {
        let col = |f: &dyn Fn(&Outcome) -> f64| median(&outcomes.iter().map(f).collect::<Vec<_>>());
        vec![
            (
                "campaign_exp_per_s",
                col(&|o| o.experiments as f64 / o.phase_s),
                "exp/s",
            ),
            ("setup_s", col(&|o| o.setup_s), "s"),
            ("report_s", col(&|o| o.report_s), "s"),
            ("verdict_s", col(&|o| o.verdict_s), "s"),
            (
                "exp_ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", col(&|o| o.peak_rss_mb), "MB"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("minstr_per_s") {
        "Minstr/s"
    } else if name.ends_with("exp_per_s") {
        "exp/s"
    } else if name.ends_with("_per_exp") {
        "1/exp"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_frac") {
        "ratio"
    } else if name.ends_with(".instr") {
        "instr"
    } else if name.ends_with("bits_read") {
        "bits"
    } else {
        "count"
    }
}
