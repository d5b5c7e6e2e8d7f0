//! The text formats GOOFI writes are frozen byte for byte: a journal, a
//! golden-run cache entry and a database dump written today must equal
//! the bytes checked in below, so that files from earlier versions keep
//! loading and no encoder change slips in a silent format drift.
//!
//! The record is the hard case for every encoder: a detail-mode trace of
//! several snapshots, a fault, a parent link, and a name holding a tab, a
//! newline, a carriage return and backslashes.

use goofi_core::campaign::{Campaign, OutputRegion, TargetSystemData, Technique, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::golden::GoldenCache;
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::{ExperimentRecord, StateSnapshot, TerminationCause, Validity};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::{unique_temp_dir, RealFs};
use goofidb::Database;

const NAME: &str = "fz\t1/exp\n00001\\r\r\\";

fn campaign() -> Campaign {
    Campaign::builder("fz\t1")
        .target_system("thor-rd")
        .technique(Technique::Scifi)
        .workload(WorkloadImage {
            name: "w".into(),
            words: vec![0xDEAD_BEEF, 0x0100_0000],
            code_words: 2,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Memory { addr: 10, len: 2 })
        .fault(fault())
        .build()
        .unwrap()
}

fn fault() -> FaultSpec {
    FaultSpec::single(
        FaultLocation::ScanCell {
            chain: "internal".into(),
            cell: "R1".into(),
            bit: 4,
        },
        Trigger::AfterInstructions(100),
    )
}

fn snapshot(step: u64, bits: &str) -> StateSnapshot {
    let mut snapshot = StateSnapshot {
        memory_digest: step * 1_000_003,
        outputs: vec![7, step as u32],
        iterations: 0,
        instructions: step,
        cycles: 2 * step + 1,
        ..StateSnapshot::default()
    };
    snapshot.scan.insert("internal".into(), bits.into());
    snapshot.scan.insert("boundary".into(), "01".into());
    snapshot
}

fn record(name: &str, parent: Option<&str>, fault: Option<FaultSpec>) -> ExperimentRecord {
    ExperimentRecord {
        name: name.into(),
        parent: parent.map(str::to_string),
        campaign: "fz\t1".into(),
        fault,
        termination: TerminationCause::WorkloadEnd,
        state: snapshot(3, "0110"),
        trace: vec![
            snapshot(1, "0100"),
            snapshot(2, "0101"),
            snapshot(3, "0110"),
        ],
        validity: Validity::Valid,
    }
}

fn reference() -> ExperimentRecord {
    record("fz\t1/reference", None, None)
}

fn experiment() -> ExperimentRecord {
    record(NAME, Some("fz\t1/exp00001"), Some(fault()))
}

#[test]
fn journal_golden_cache_and_dump_bytes_are_frozen() {
    let dir = unique_temp_dir("frozen-formats").unwrap();
    let campaign = campaign();

    let journal_path = dir.join("c.gjl");
    let mut journal = ExperimentJournal::create(&journal_path, &campaign.name).unwrap();
    journal.append_record(None, &reference()).unwrap();
    journal.append_record(Some(1), &experiment()).unwrap();
    drop(journal);
    let journal = std::fs::read_to_string(&journal_path).unwrap();

    let cache = GoldenCache::new(&RealFs, &journal_path, &campaign, "none");
    cache.store(&campaign, &reference());
    let cache_file = std::fs::read_to_string(cache.path()).unwrap();

    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_target_system(
        &mut db,
        &TargetSystemData {
            name: "thor-rd".into(),
            description: "simulated\tthor\\rd".into(),
            memory_words: 65536,
            locations: vec![("internal".into(), "R1".into(), 32, true)],
        },
    )
    .unwrap();
    dbio::store_campaign(&mut db, &campaign).unwrap();
    dbio::log_experiment(&mut db, &reference()).unwrap();
    dbio::log_experiment(&mut db, &experiment()).unwrap();
    let dump = db.save_to_string();
    assert_eq!(journal, JOURNAL);
    assert_eq!(cache_file, CACHE);
    assert_eq!(dump, DUMP);

    // And the frozen bytes still read back to the records written.
    let state = ExperimentJournal::load(&journal_path, &campaign.name).unwrap();
    assert_eq!(state.reference, Some(reference()));
    assert_eq!(state.completed[&1], experiment());
    assert_eq!(cache.load(&campaign), Some(reference()));
    let db = Database::load_from_string(DUMP).unwrap();
    assert_eq!(
        dbio::load_experiments(&db, &campaign.name).unwrap(),
        [reference(), experiment()]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const JOURNAL: &str = concat!(
    "#goofi-journal v1\n",
    "C\tfz\\t1\n",
    "R\t-\tfz\\t1/reference\t-\t-\tend\tchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tchain boundary 01\\nchain internal 0100\\nmemdigest 1000003\\noutputs 7,1\\ncounters 0 1 3\\n---\\nchain boundary 01\\nchain internal 0101\\nmemdigest 2000006\\noutputs 7,2\\ncounters 0 2 5\\n---\\nchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tvalid\t#3b5f9a8b\n",
    "R\t1\tfz\\t1/exp\\n00001\\\\r\\r\\\\\tfz\\t1/exp00001\tmodel=flip;trigger=instr:100;locations=scan:internal:R1:4\tend\tchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tchain boundary 01\\nchain internal 0100\\nmemdigest 1000003\\noutputs 7,1\\ncounters 0 1 3\\n---\\nchain boundary 01\\nchain internal 0101\\nmemdigest 2000006\\noutputs 7,2\\ncounters 0 2 5\\n---\\nchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tvalid\t#e4bfd4d3\n",
);

const CACHE: &str = concat!(
    "#goofi-golden v1\n",
    "131dcb82a6e5f6cd\n",
    "R\t-\tfz\\t1/reference\t-\t-\tend\tchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tchain boundary 01\\nchain internal 0100\\nmemdigest 1000003\\noutputs 7,1\\ncounters 0 1 3\\n---\\nchain boundary 01\\nchain internal 0101\\nmemdigest 2000006\\noutputs 7,2\\ncounters 0 2 5\\n---\\nchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tvalid\t#3b5f9a8b\n",
);

const DUMP: &str = concat!(
    "#goofidb v1\n",
    "TABLE TargetSystemData\n",
    "COLUMN name TEXT PK\n",
    "COLUMN description TEXT\n",
    "COLUMN memoryWords INTEGER\n",
    "COLUMN locations TEXT\n",
    "ROW\tT:thor-rd\tT:simulated\\tthor\\\\rd\tI:65536\tT:internal:R1:32:rw\n",
    "CHECK 6048e66c\n",
    "END\n",
    "TABLE CampaignData\n",
    "COLUMN campaignName TEXT PK\n",
    "COLUMN targetSystem TEXT\n",
    "COLUMN technique TEXT\n",
    "COLUMN workloadName TEXT\n",
    "COLUMN workloadImage TEXT\n",
    "COLUMN codeWords INTEGER\n",
    "COLUMN entry INTEGER\n",
    "COLUMN nrOfExperiments INTEGER\n",
    "COLUMN maxInstructions INTEGER\n",
    "COLUMN maxIterations INTEGER\n",
    "COLUMN loggingMode TEXT\n",
    "COLUMN observeChains TEXT\n",
    "COLUMN outputRegion TEXT\n",
    "COLUMN initialInputs TEXT\n",
    "COLUMN envExchange TEXT\n",
    "COLUMN faults TEXT\n",
    "COLUMN policy TEXT\n",
    "FK targetSystem TargetSystemData name\n",
    "ROW\tT:fz\\t1\tT:thor-rd\tT:scifi\tT:w\tT:deadbeef01000000\tI:2\tI:0\tI:1\tI:1000000\tN\tT:normal\tT:internal\tT:mem:10:2\tT:\tT:ports\tT:model=flip;trigger=instr:100;locations=scan:internal:R1:4\tT:onerr=failfast;retries=0;backoff=0:0;wd=-:-;reval=-;hc=-\n",
    "CHECK 9af1c2bb\n",
    "END\n",
    "TABLE LoggedSystemState\n",
    "COLUMN experimentName TEXT PK\n",
    "COLUMN parentExperiment TEXT\n",
    "COLUMN campaignName TEXT\n",
    "COLUMN experimentData TEXT\n",
    "COLUMN termination TEXT\n",
    "COLUMN stateVector TEXT\n",
    "COLUMN trace TEXT\n",
    "COLUMN validity TEXT\n",
    "FK campaignName CampaignData campaignName\n",
    "ROW\tT:fz\\t1/reference\tN\tT:fz\\t1\tN\tT:end\tT:chain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tT:chain boundary 01\\nchain internal 0100\\nmemdigest 1000003\\noutputs 7,1\\ncounters 0 1 3\\n---\\nchain boundary 01\\nchain internal 0101\\nmemdigest 2000006\\noutputs 7,2\\ncounters 0 2 5\\n---\\nchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tT:valid\n",
    "ROW\tT:fz\\t1/exp\\n00001\\\\r\\r\\\\\tT:fz\\t1/exp00001\tT:fz\\t1\tT:model=flip;trigger=instr:100;locations=scan:internal:R1:4\tT:end\tT:chain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tT:chain boundary 01\\nchain internal 0100\\nmemdigest 1000003\\noutputs 7,1\\ncounters 0 1 3\\n---\\nchain boundary 01\\nchain internal 0101\\nmemdigest 2000006\\noutputs 7,2\\ncounters 0 2 5\\n---\\nchain boundary 01\\nchain internal 0110\\nmemdigest 3000009\\noutputs 7,3\\ncounters 0 3 7\\n\tT:valid\n",
    "CHECK f97b85ad\n",
    "END\n",
    "TABLE RecoveryActions\n",
    "COLUMN actionName TEXT PK\n",
    "COLUMN campaignName TEXT\n",
    "COLUMN experimentName TEXT\n",
    "COLUMN trigger TEXT\n",
    "COLUMN seq INTEGER\n",
    "COLUMN stage TEXT\n",
    "COLUMN attempt INTEGER\n",
    "COLUMN recovered INTEGER\n",
    "COLUMN detail TEXT\n",
    "FK campaignName CampaignData campaignName\n",
    "CHECK 811c9dc5\n",
    "END\n",
);
