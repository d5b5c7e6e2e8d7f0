//! Framework-level invariants checked over randomized campaigns.

use goofi::analysis::{classify_campaign, stats::CampaignStats};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, OutputRegion, TargetSystemData, Termination};
use goofi::core::logging::ExperimentRecord;
use goofi::core::monitor::ProgressMonitor;
use goofi::core::preinject;
use goofi::core::runner::{self, RunOptions, Targets};
use goofi::core::{dbio, GoofiError};
use goofi::envsim::NullEnvironment;
use goofi::goofi_thor::ThorTarget;
use goofi::goofidb::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn random_campaign(seed: u64, n: usize, workload: &str) -> Campaign {
    let wl = workloads::by_name(workload).expect("workload");
    let data = TargetSystemData::from_target(&ThorTarget::default(), "sim");
    let mut space = data.fault_space(Some(0..wl.image.words.len() as u32), 0..3_000);
    // Drop the infrastructure chains so faults land in architectural state.
    space
        .scan_cells
        .retain(|(chain, _, _)| chain == "internal" || chain == "icache" || chain == "dcache");
    Campaign::builder(format!("inv-{workload}-{seed}"))
        .target_system("thor-rd")
        .workload(goofi::core::campaign::WorkloadImage {
            name: wl.name.clone(),
            words: wl.image.words.clone(),
            code_words: wl.image.code_words,
            entry: wl.image.entry,
        })
        .observe_chains(["internal"])
        .output(match wl.output {
            workloads::OutputSpec::Memory { addr, len } => OutputRegion::Memory { addr, len },
            workloads::OutputSpec::Ports => OutputRegion::Ports,
        })
        .termination(Termination {
            max_instructions: 300_000,
            max_iterations: None,
        })
        .faults(space.sample_campaign(n, &mut StdRng::seed_from_u64(seed)))
        .build()
        .expect("valid campaign")
}

#[test]
fn every_experiment_classifies_and_names_are_unique() {
    for (seed, workload) in [(1u64, "bubblesort"), (2, "primes"), (3, "crc32")] {
        let campaign = random_campaign(seed, 30, workload);
        let mut target = ThorTarget::default();
        let result = algorithms::run_campaign(
            &mut target,
            &campaign,
            &ProgressMonitor::new(30),
            &mut NullEnvironment,
        )
        .unwrap();

        // Names unique and well-formed.
        let names: HashSet<&str> = result.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), result.records.len());
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.name, campaign.experiment_name(i));
            assert_eq!(r.campaign, campaign.name);
            assert!(r.fault.is_some());
        }

        // Classification is total and consistent with the taxonomy.
        let classified = classify_campaign(&result.reference, &result.records);
        assert_eq!(classified.len(), 30);
        let stats = CampaignStats::from_classified(&classified);
        assert_eq!(stats.by_category.values().sum::<usize>(), 30);
        assert_eq!(
            stats.by_mechanism.values().sum::<usize>(),
            stats.category_count("detected"),
        );
    }
}

#[test]
fn preinjection_pruning_is_sound_on_random_campaigns() {
    for seed in [11u64, 12] {
        let campaign = random_campaign(seed, 60, "matmul");
        let mut target = ThorTarget::default();
        let trace = preinject::collect_trace(&mut target, &campaign, 100_000, &mut NullEnvironment)
            .unwrap();
        let map = preinject::LivenessMap::from_trace(&trace);
        let (_kept, pruned) = preinject::filter_campaign(&campaign, &map, false);

        // Every pruned fault, when actually run, is non-effective.
        let mut pruned_campaign = campaign.clone();
        pruned_campaign.faults = pruned;
        if pruned_campaign.faults.is_empty() {
            continue;
        }
        let result = algorithms::run_campaign(
            &mut target,
            &pruned_campaign,
            &ProgressMonitor::new(pruned_campaign.faults.len()),
            &mut NullEnvironment,
        )
        .unwrap();
        for (record, classified) in result
            .records
            .iter()
            .zip(classify_campaign(&result.reference, &result.records))
        {
            assert!(
                !classified.outcome.is_effective(),
                "pruned fault was effective: {:?} -> {}",
                record.fault,
                classified.outcome,
            );
        }
    }
}

#[test]
fn database_roundtrip_preserves_records_exactly() {
    let campaign = random_campaign(21, 15, "fibonacci");
    let mut target = ThorTarget::default();
    let result = algorithms::run_campaign(
        &mut target,
        &campaign,
        &ProgressMonitor::new(15),
        &mut NullEnvironment,
    )
    .unwrap();

    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_target_system(
        &mut db,
        &TargetSystemData::from_target(&ThorTarget::default(), "sim"),
    )
    .unwrap();
    dbio::store_campaign(&mut db, &campaign).unwrap();
    dbio::store_result(&mut db, &result).unwrap();

    let loaded = dbio::load_experiments(&db, &campaign.name).unwrap();
    let reference: &ExperimentRecord = &loaded[0];
    assert_eq!(reference, &result.reference);
    assert_eq!(&loaded[1..], result.records.as_slice());

    // And after text persistence too.
    let restored = Database::load_from_string(&db.save_to_string()).unwrap();
    let reloaded = dbio::load_experiments(&restored, &campaign.name).unwrap();
    assert_eq!(reloaded, loaded);
}

#[test]
fn duplicate_campaign_name_is_rejected() {
    let campaign = random_campaign(31, 2, "primes");
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_target_system(
        &mut db,
        &TargetSystemData::from_target(&ThorTarget::default(), "sim"),
    )
    .unwrap();
    dbio::store_campaign(&mut db, &campaign).unwrap();
    let err = dbio::store_campaign(&mut db, &campaign).unwrap_err();
    assert!(matches!(err, GoofiError::Db(_)));
}

#[test]
fn parallel_runner_surfaces_worker_errors_and_validates_workers() {
    use goofi::core::framework::NullTarget;
    let campaign = random_campaign(41, 4, "primes");
    // An unported target fails on the very first building block.
    let err = runner::execute(
        &campaign,
        &ProgressMonitor::new(4),
        Targets::factory(NullTarget::new),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, GoofiError::Unimplemented("init_test_card")));

    // Zero workers is a configuration error.
    let err = runner::execute(
        &campaign,
        &ProgressMonitor::new(4),
        Targets::factory(ThorTarget::default),
        RunOptions {
            workers: 0,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, GoofiError::Config(_)));

    // A pre-stopped monitor aborts the parallel run too.
    let monitor = ProgressMonitor::new(4);
    monitor.stop();
    let err = runner::execute(
        &campaign,
        &monitor,
        Targets::factory(ThorTarget::default),
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, GoofiError::Stopped));
}

#[test]
fn decorators_and_trait_objects_forward_power_cycle_to_the_real_target() {
    use goofi::core::link::{UnreliableTarget, VerifiedTarget};
    use goofi::core::supervisor::WedgeableTarget;
    use goofi::core::TargetAccess;
    use goofi::scanchain::{LinkFaultConfig, WedgeConfig};

    // Wedge the target so deeply that only its own cold reset clears it —
    // if any layer of the stack substituted the trait's default
    // (init+reset) power cycle, the wedge would survive.
    let mut cfg = WedgeConfig::hang(7, 1.0);
    cfg.max_events = Some(1);
    let wedged = WedgeableTarget::new(ThorTarget::default(), cfg);
    let unreliable = UnreliableTarget::new(wedged, LinkFaultConfig::default());
    let boxed: Box<dyn TargetAccess> = Box::new(VerifiedTarget::new(unreliable));
    let mut stack: Box<dyn TargetAccess> = Box::new(boxed); // Box-in-Box: blanket impl too

    stack.init_test_card().unwrap();
    let wl = workloads::by_name("primes").unwrap();
    stack
        .load_workload(&goofi::core::campaign::WorkloadImage {
            name: wl.name.clone(),
            words: wl.image.words.clone(),
            code_words: wl.image.code_words,
            entry: wl.image.entry,
        })
        .unwrap();
    // The armed run draws the wedge: the whole budget burns with no
    // progress.
    let before = stack.instructions_executed();
    let event = stack
        .run_workload(goofi::core::RunBudget {
            max_instructions: 500,
        })
        .unwrap();
    assert!(
        matches!(event, goofi::core::RunEvent::BudgetExhausted),
        "wedged run must time out, got {event:?}"
    );
    assert!(
        stack.instructions_executed() >= before + 500,
        "hang burns budget"
    );

    stack.power_cycle().unwrap();
    // After a forwarded power cycle the workload is reloaded and the wedge
    // is gone: the run completes for real.
    let event = stack
        .run_workload(goofi::core::RunBudget::default())
        .unwrap();
    assert!(
        matches!(event, goofi::core::RunEvent::Halted),
        "target must run to completion after power cycle, got {event:?}"
    );
}

#[test]
fn readonly_scan_cells_are_rejected_as_fault_locations() {
    let wl = workloads::by_name("primes").unwrap();
    let campaign = Campaign::builder("ro")
        .workload(goofi::core::campaign::WorkloadImage {
            name: wl.name.clone(),
            words: wl.image.words.clone(),
            code_words: wl.image.code_words,
            entry: wl.image.entry,
        })
        .output(OutputRegion::Ports)
        .fault(goofi::core::fault::FaultSpec::single(
            goofi::core::fault::FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "DETECT".into(), // read-only status cell
                bit: 0,
            },
            goofi::core::trigger::Trigger::AfterInstructions(5),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let err = algorithms::run_campaign(
        &mut target,
        &campaign,
        &ProgressMonitor::new(1),
        &mut NullEnvironment,
    )
    .unwrap_err();
    // The default fail-fast policy wraps the experiment error, preserving
    // whatever completed before it (here: nothing but the reference run).
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 0);
            assert_eq!(failure.attempts, 1);
            assert!(failure.error.contains("read-only"), "{failure}");
            assert!(partial.records.is_empty());
        }
        other => panic!("expected ExperimentFailed, got {other}"),
    }
}
