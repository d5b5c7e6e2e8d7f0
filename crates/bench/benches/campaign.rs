//! B4–B9: campaign-level benchmarks — experiment throughput per technique,
//! parallel-runner scaling, journaling overhead, verified-link overhead,
//! health-probe supervision overhead, and telemetry overhead.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, Technique};
use goofi_core::fault::{FaultLocation, FaultSpace, FaultSpec};
use goofi_core::journal::ExperimentJournal;
use goofi_core::link::{UnreliableTarget, VerifiedTarget, VerifyConfig};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::preinject;
use goofi_core::runner::{self, RunOptions, Targets};
use goofi_core::telemetry::{RingSink, Telemetry, FLIGHT_RECORDER_SPANS};
use goofi_core::trigger::Trigger;
use goofi_thor::ThorTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scanchain::LinkFaultConfig;

fn scifi_campaign(n: usize) -> Campaign {
    let wl = workloads::by_name("bubblesort").unwrap();
    let data = bench::thor_description();
    let space = bench::internal_fault_space(&data, 0..3_000);
    bench::campaign_for("bench-scifi", &wl)
        .faults(space.sample_campaign(n, &mut StdRng::seed_from_u64(42)))
        .build()
        .unwrap()
}

fn swifi_campaign(n: usize) -> Campaign {
    let wl = workloads::by_name("bubblesort").unwrap();
    let space = FaultSpace {
        scan_cells: vec![],
        memory: Some(0..wl.image.words.len() as u32),
        time_window: 0..1,
    };
    let faults: Vec<FaultSpec> = space
        .sample_campaign(n, &mut StdRng::seed_from_u64(43))
        .into_iter()
        .map(|mut f| {
            f.trigger = Trigger::PreRuntime;
            f
        })
        .collect();
    bench::campaign_for("bench-swifi", &wl)
        .technique(Technique::SwifiPreRuntime)
        .faults(faults)
        .build()
        .unwrap()
}

fn bench_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign-throughput");
    let n = 20;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);

    let scifi = scifi_campaign(n);
    group.bench_function("scifi_20_experiments", |b| {
        b.iter(|| {
            let mut target = ThorTarget::default();
            algorithms::run_campaign(
                &mut target,
                &scifi,
                &ProgressMonitor::new(n),
                &mut envsim::NullEnvironment,
            )
            .unwrap()
        });
    });

    let swifi = swifi_campaign(n);
    group.bench_function("swifi_20_experiments", |b| {
        b.iter(|| {
            let mut target = ThorTarget::default();
            algorithms::run_campaign(
                &mut target,
                &swifi,
                &ProgressMonitor::new(n),
                &mut envsim::NullEnvironment,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel-scaling");
    let n = 64;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    let campaign = scifi_campaign(n);
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(&format!("workers_{workers}"), |b| {
            b.iter(|| {
                runner::execute(
                    &campaign,
                    &ProgressMonitor::new(n),
                    Targets::factory(ThorTarget::default),
                    RunOptions {
                        workers,
                        ..RunOptions::default()
                    },
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_journal_overhead(c: &mut Criterion) {
    // B6: cost of crash-safe checkpointing — the same campaign with and
    // without the append-only experiment journal enabled.
    let mut group = c.benchmark_group("journal-overhead");
    let n = 20;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    let campaign = scifi_campaign(n);

    group.bench_function("serial_plain", |b| {
        b.iter(|| {
            let mut target = ThorTarget::default();
            algorithms::run_campaign(
                &mut target,
                &campaign,
                &ProgressMonitor::new(n),
                &mut envsim::NullEnvironment,
            )
            .unwrap()
        });
    });

    let journal_path =
        std::env::temp_dir().join(format!("goofi-bench-{}.journal", std::process::id()));
    group.bench_function("serial_journaled", |b| {
        b.iter(|| {
            let mut journal = ExperimentJournal::create(&journal_path, &campaign.name).unwrap();
            let mut target = ThorTarget::default();
            runner::execute(
                &campaign,
                &ProgressMonitor::new(n),
                Targets::Own(&mut target, &mut envsim::NullEnvironment),
                RunOptions {
                    journal: Some(&mut journal),
                    ..RunOptions::default()
                },
            )
            .unwrap()
        });
    });

    group.bench_function("parallel4_journaled", |b| {
        b.iter(|| {
            let mut journal = ExperimentJournal::create(&journal_path, &campaign.name).unwrap();
            runner::execute(
                &campaign,
                &ProgressMonitor::new(n),
                Targets::factory(ThorTarget::default),
                RunOptions {
                    workers: 4,
                    journal: Some(&mut journal),
                    ..RunOptions::default()
                },
            )
            .unwrap()
        });
    });
    let _ = std::fs::remove_file(&journal_path);
    group.finish();
}

fn bench_fault_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault-primitives");
    group.bench_function("inject_scan_fault", |b| {
        let mut target = ThorTarget::default();
        goofi_core::TargetAccess::init_test_card(&mut target).unwrap();
        let spec = FaultSpec::single(
            FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "R5".into(),
                bit: 9,
            },
            Trigger::AfterInstructions(0),
        );
        b.iter(|| algorithms::apply_fault(&mut target, &spec).unwrap());
    });
    group.bench_function("collect_liveness_trace", |b| {
        let campaign = scifi_campaign(1);
        b.iter(|| {
            let mut target = ThorTarget::default();
            preinject::collect_trace(&mut target, &campaign, 5_000, &mut envsim::NullEnvironment)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_verified_link_overhead(c: &mut Criterion) {
    // B7: cost of the verified-transport layer. The baseline is the raw
    // target; the other cases run the same campaign through
    // `VerifiedTarget(UnreliableTarget(..))` at increasing transport fault
    // rates, so the delta decomposes into (a) the fixed double-read /
    // readback-verify tax and (b) the retry-and-recover cost that scales
    // with the fault rate.
    let mut group = c.benchmark_group("verified-link-overhead");
    let n = 20;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    let campaign = scifi_campaign(n);

    group.bench_function("raw_target", |b| {
        b.iter(|| {
            let mut target = ThorTarget::default();
            algorithms::run_campaign(
                &mut target,
                &campaign,
                &ProgressMonitor::new(n),
                &mut envsim::NullEnvironment,
            )
            .unwrap()
        });
    });

    for (label, rate) in [
        ("verified_fault_free", 0.0),
        ("verified_0.1pct_faults", 0.001),
        ("verified_1pct_faults", 0.01),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let lossy = UnreliableTarget::new(
                    ThorTarget::default(),
                    LinkFaultConfig {
                        seed: 0xB7,
                        corrupt_rate: rate / 2.0,
                        drop_rate: rate / 2.0,
                        ..Default::default()
                    },
                );
                let mut target =
                    VerifiedTarget::with_config(lossy, VerifyConfig { max_attempts: 5 });
                algorithms::run_campaign(
                    &mut target,
                    &campaign,
                    &ProgressMonitor::new(n),
                    &mut envsim::NullEnvironment,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_supervision_overhead(c: &mut Criterion) {
    // B8: cost of between-experiment health probing on a *healthy* target —
    // the steady-state tax a cautious campaign pays for hang detection. The
    // probe suite is dominated by its golden smoke-workload run, so the
    // expected overhead is roughly one reference run per cadence interval.
    let mut group = c.benchmark_group("supervision-overhead");
    let n = 20;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    let base = scifi_campaign(n);

    for (label, cadence) in [
        ("probes_off", 0u32),
        ("probe_every_10", 10),
        ("probe_every_5", 5),
        ("probe_every_1", 1),
    ] {
        let mut campaign = base.clone();
        campaign.policy = campaign.policy.with_health_check(cadence);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut target = ThorTarget::default();
                algorithms::run_campaign(
                    &mut target,
                    &campaign,
                    &ProgressMonitor::new(n),
                    &mut envsim::NullEnvironment,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// A labelled way to build the telemetry a B9 campaign runs under.
type TelemetryCase = (&'static str, fn() -> Telemetry);

fn bench_telemetry_overhead(c: &mut Criterion) {
    // B9: cost of the observability layer on the standard SCIFI campaign.
    // Disabled telemetry is the tax every campaign pays (one `Option`
    // branch per instrumentation point, no clock reads); the enabled cases
    // add the metrics registry alone, then a full in-memory span ring of
    // flight-recorder size.
    let mut group = c.benchmark_group("telemetry-overhead");
    let n = 20;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    let campaign = scifi_campaign(n);

    let cases: [TelemetryCase; 3] = [
        ("telemetry_disabled", Telemetry::disabled),
        ("metrics_only", Telemetry::enabled),
        ("metrics_and_ring_trace", || {
            Telemetry::with_sinks(vec![std::sync::Arc::new(RingSink::new(
                FLIGHT_RECORDER_SPANS,
            ))])
        }),
    ];
    for (label, make_tel) in cases {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut target = ThorTarget::default();
                algorithms::run_campaign(
                    &mut target,
                    &campaign,
                    &ProgressMonitor::with_telemetry(n, make_tel()),
                    &mut envsim::NullEnvironment,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4));
    targets = bench_techniques, bench_parallel_scaling, bench_journal_overhead, bench_fault_primitives, bench_verified_link_overhead, bench_supervision_overhead, bench_telemetry_overhead
}
criterion_main!(benches);
