//! Integration tests of the `goofi` CLI — the operator workflow the
//! paper's GUI provided, driven end to end through a database file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn goofi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_goofi"))
        .args(args)
        .output()
        .expect("spawn goofi")
}

fn tmp_db(name: &str) -> (tempdir::TempDirGuard, String) {
    let dir = tempdir::create(name);
    let path = dir.path.join("campaign.gdb").to_string_lossy().into_owned();
    (dir, path)
}

/// Minimal self-cleaning temp dir (std-only).
mod tempdir {
    use std::path::PathBuf;

    pub struct TempDirGuard {
        pub path: PathBuf,
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    pub fn create(name: &str) -> TempDirGuard {
        let path = std::env::temp_dir().join(format!("goofi-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("mkdir");
        TempDirGuard { path }
    }
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_and_listings() {
    let out = stdout(&goofi(&["help"]));
    assert!(out.contains("usage:"));

    let out = stdout(&goofi(&["workloads"]));
    for name in [
        "bubblesort",
        "matmul",
        "crc32",
        "primes",
        "fibonacci",
        "pi-control",
    ] {
        assert!(out.contains(name), "{out}");
    }

    let out = stdout(&goofi(&["targets"]));
    assert!(out.contains("thor-rd"));
    assert!(out.contains("internal"));
    assert!(out.contains("icache"));
}

#[test]
fn full_campaign_workflow() {
    let (_guard, db) = tmp_db("flow");
    // Set-up phase.
    let out = stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c1",
        "--workload",
        "bubblesort",
        "--experiments",
        "25",
        "--seed",
        "9",
        "--time-window",
        "0:2000",
    ]));
    assert!(out.contains("25 experiments"), "{out}");

    // Fault-injection phase.
    let out = stdout(&goofi(&["run", &db, "--name", "c1"]));
    assert!(out.contains("25 experiments logged"), "{out}");

    // Analysis phase.
    let out = stdout(&goofi(&["report", &db, "--name", "c1"]));
    assert!(out.contains("outcome"), "{out}");
    assert!(out.contains("error detection coverage"), "{out}");

    // Ad-hoc SQL over the analysis results.
    let out = stdout(&goofi(&[
        "sql",
        &db,
        "SELECT COUNT(*) AS n FROM LoggedSystemState WHERE campaignName = 'c1'",
    ]));
    assert!(out.contains("26"), "reference + 25 experiments: {out}"); // 25 + reference
}

/// The experiment rows that define a run's essence, sorted for
/// order-independent comparison.
fn essence_rows(db: &str) -> Vec<String> {
    let out = stdout(&goofi(&[
        "sql",
        db,
        "SELECT experimentName, termination, stateVector, validity FROM LoggedSystemState",
    ]));
    let mut rows: Vec<String> = out.lines().map(str::to_string).collect();
    rows.sort();
    rows
}

/// The snapshot fast path must be invisible in the results, even with
/// fault-model decorators stacked on the target: a flaky transport (with
/// read verification) forwards snapshots cleanly, and a wedgeable target
/// vetoes prefix reuse entirely — either way the logged essence must be
/// bit-identical to a `--no-snapshot` run of the same campaign.
#[test]
fn snapshot_path_matches_slow_path_under_fault_stacks() {
    let stacks: [(&str, &[&str]); 2] = [
        (
            "link",
            &[
                "--link-faults",
                "seed=42,corrupt=0.01,drop=0.002,stall=0.001",
                "--verify-reads",
            ],
        ),
        ("wedge", &["--wedge", "seed=7,hang=0.05,recover=power"]),
    ];
    for (label, extra) in stacks {
        let guard = tempdir::create(&format!("snapeq-{label}"));
        let mut dbs = Vec::new();
        for mode in ["fast", "slow"] {
            let db = guard
                .path
                .join(format!("{mode}.gdb"))
                .to_string_lossy()
                .into_owned();
            stdout(&goofi(&[
                "new",
                &db,
                "--name",
                "c1",
                "--workload",
                "crc32",
                "--experiments",
                "8",
                "--seed",
                "42",
                "--max-instr",
                "200000",
                "--on-error",
                "skip",
            ]));
            let mut args = vec!["run", &db, "--name", "c1"];
            args.extend_from_slice(extra);
            if mode == "slow" {
                args.push("--no-snapshot");
            }
            stdout(&goofi(&args));
            dbs.push(db);
        }
        let fast = essence_rows(&dbs[0]);
        let slow = essence_rows(&dbs[1]);
        assert!(!fast.is_empty(), "{label}: no rows logged");
        assert_eq!(fast, slow, "{label}: snapshot path diverged from slow path");
    }
}

#[test]
fn swifi_campaign_via_cli() {
    let (_guard, db) = tmp_db("swifi");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "s1",
        "--workload",
        "primes",
        "--experiments",
        "10",
        "--technique",
        "swifi-pre",
    ]));
    let out = stdout(&goofi(&["run", &db, "--name", "s1"]));
    assert!(out.contains("10 experiments logged"), "{out}");
    let out = stdout(&goofi(&["report", &db, "--name", "s1"]));
    assert!(out.contains("effectiveness"), "{out}");
}

/// Collapses every digit run to `N` and every space run to one space, so
/// a timing table can be compared against a golden shape even though the
/// measured durations differ run to run.
fn normalize_timings(line: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in line.trim_end().chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            in_digits = false;
            if c == ' ' && out.ends_with(' ') {
                continue;
            }
            out.push(c);
        }
    }
    out
}

#[test]
fn report_timings_matches_golden_table() {
    let (guard, db) = tmp_db("timings");
    let trace = guard.path.join("c.trace").to_string_lossy().into_owned();
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "t1",
        "--workload",
        "bubblesort",
        "--experiments",
        "8",
        "--seed",
        "7",
        "--time-window",
        "0:2000",
    ]));
    // The run records the trace; --metrics prints the live summary too.
    let out = stdout(&goofi(&[
        "run",
        &db,
        "--name",
        "t1",
        "--trace",
        &trace,
        "--metrics",
    ]));
    assert!(out.contains("per-stage timings:"), "{out}");
    assert!(out.contains("counters:"), "{out}");
    assert!(out.contains("completed"), "{out}");

    // The report appends its classify spans to the same trace, then
    // rebuilds the per-stage histograms from the file.
    let out = stdout(&goofi(&[
        "report",
        &db,
        "--name",
        "t1",
        "--trace",
        &trace,
        "--timings",
        &trace,
    ]));
    let section = out
        .lines()
        .skip_while(|l| !l.starts_with("per-stage timings (from "))
        .skip(1)
        .take(11)
        .map(normalize_timings)
        .collect::<Vec<_>>();
    let golden = [
        "stage spans total_us mean_us pN<=us pN<=us",
        "load N N N N N",
        "run N N N N N",
        "inject N N N N N",
        "scan N N N N N",
        "classify N N N N N",
        "db-write N N N N N",
        "probe N N N N N",
        "recover N N N N N",
        "fsck N N N N N",
        "snapshot-restore N N N N N",
    ];
    assert_eq!(section, golden, "full output:\n{out}");

    // The trace itself is well-formed JSONL with the whole hierarchy.
    let text = std::fs::read_to_string(&trace).expect("trace file");
    assert!(text.lines().count() > 8, "{text}");
    for kind in [
        "\"kind\":\"campaign\"",
        "\"kind\":\"experiment\"",
        "\"kind\":\"stage\"",
    ] {
        assert!(text.contains(kind), "{text}");
    }
}

#[test]
fn errors_are_reported() {
    let (_guard, db) = tmp_db("errs");
    let out = goofi(&["new", &db, "--name", "x", "--workload", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let out = goofi(&["run", &db, "--name", "missing"]);
    assert!(!out.status.success());

    let out = goofi(&["bogus"]);
    assert!(!out.status.success());

    let out = goofi(&["sql", &db, "SELEKT"]);
    assert!(!out.status.success());
}

#[test]
fn fsck_reports_classes_and_repairs() {
    let (_guard, db) = tmp_db("fsck");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "f1",
        "--workload",
        "crc32",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "f1"]));

    // A healthy database passes and exits zero.
    let out = stdout(&goofi(&["fsck", &db]));
    assert!(out.contains("fsck: clean"), "{out}");

    // Flip one stored byte: plain fsck names the class and exits non-zero.
    let text = std::fs::read_to_string(&db).expect("db file");
    std::fs::write(&db, text.replacen("T:end", "T:foo", 1)).unwrap();
    let out = goofi(&["fsck", &db]);
    assert!(!out.status.success(), "plain fsck must fail on corruption");
    let printed =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(printed.contains("db-checksum-mismatch"), "{printed}");
    assert!(printed.contains("--repair"), "{printed}");

    // --repair salvages, and a second pass is clean again.
    let out = stdout(&goofi(&["fsck", &db, "--repair"]));
    assert!(out.contains("repaired"), "{out}");
    let out = stdout(&goofi(&["fsck", &db]));
    assert!(out.contains("fsck: clean"), "{out}");
}

#[test]
fn db_file_is_portable_across_invocations() {
    let (_guard, db) = tmp_db("portable");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "p1",
        "--workload",
        "fibonacci",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "p1"]));
    // A second campaign lands in the same file.
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "p2",
        "--workload",
        "crc32",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "p2"]));
    let out = stdout(&goofi(&[
        "sql",
        &db,
        "SELECT campaignName, COUNT(*) AS n FROM LoggedSystemState GROUP BY campaignName ORDER BY campaignName",
    ]));
    assert!(out.contains("p1"), "{out}");
    assert!(out.contains("p2"), "{out}");
    let _ = PathBuf::from(&db);
}

/// The counter lines `--metrics` prints, by name.
fn counter(out: &str, name: &str) -> Option<u64> {
    out.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(name)).then(|| fields.next()?.parse().ok())?
    })
}

/// `goofi run` keeps a golden cache beside the journal for any worker
/// count: a second threaded run with the same journal path reuses the
/// reference the first one stored.
#[test]
fn threaded_run_reuses_the_golden_cache() {
    let (guard, db) = tmp_db("golden-threads");
    let again = guard.path.join("again.gdb").to_string_lossy().into_owned();
    let journal = guard.path.join("c.gjl").to_string_lossy().into_owned();
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "g1",
        "--workload",
        "crc32",
        "--experiments",
        "6",
        "--seed",
        "3",
    ]));
    std::fs::copy(&db, &again).unwrap();
    let run = |db: &str| {
        stdout(&goofi(&[
            "run",
            db,
            "--name",
            "g1",
            "--workers",
            "2",
            "--journal",
            &journal,
            "--metrics",
        ]))
    };
    let first = run(&db);
    assert_eq!(counter(&first, "golden-cache-misses"), Some(1), "{first}");
    assert_eq!(counter(&first, "golden-cache-hits"), None, "{first}");
    let second = run(&again);
    assert_eq!(counter(&second, "golden-cache-hits"), Some(1), "{second}");
    assert_eq!(counter(&second, "golden-cache-misses"), None, "{second}");
}
