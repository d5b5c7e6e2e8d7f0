//! Crash-safe experiment journal: append-only campaign checkpointing.
//!
//! `goofidb` persistence is a whole-file rewrite — atomic (see
//! `Database::save_to_path`) but only written when someone asks. A
//! campaign that dies 4 000 experiments into 5 000 would lose everything
//! since the last save. The journal closes that gap: the campaign driver
//! appends one entry per finished experiment, so after a crash
//! a resumed [`crate::runner::execute`] can reload exactly the completed
//! set, skip it, and re-run only what is missing or failed.
//!
//! ## Durability: group commit
//!
//! Every entry is sealed and handed to the OS with one `write` before its
//! append returns, so a killed or panicking process loses at most the
//! entry it was writing. `fsync` is batched: the journal syncs once every
//! `COMMIT_EVERY` entries, at [`ExperimentJournal::commit`], and (best
//! effort) when it is dropped. An OS crash or power loss therefore rolls
//! the file back to a synced prefix and costs at most the entries since
//! the last commit, which resume simply re-runs. The campaign executor
//! commits on every return path before handing results back, so anything
//! acknowledged *outside* the journal — a worker's `Done` event, a
//! database save, a resumed run — only ever follows a synced journal.
//! The cadence counts entries, never time, so a run's filesystem
//! operation sequence is a pure function of the campaign.
//!
//! The campaign service ([`crate::service`]) leans on the same property
//! one level up: each shard worker keeps a private journal under
//! [`crate::runner::execute`] over its index range (entries carry *global*
//! campaign indices), so a crashed or lease-revoked worker's replacement
//! replays the journal instead of redoing its work, and the scheduler
//! merges shard journals into the database idempotently via
//! [`crate::dbio::import_journal`].
//!
//! ## Format
//!
//! A journal is a line-oriented text file:
//!
//! ```text
//! #goofi-journal v1
//! C <campaign-name>
//! R <index|-> <name> <parent|-> <fault|-> <termination> <state> <trace|-> <validity> #<fnv>
//! F <index> <attempts> <error> #<fnv>
//! ```
//!
//! Fields are tab-separated and escaped (`\t`, `\n`, `\\`); `R` entries
//! are completed experiment records (`-` in the index column marks the
//! reference run), `F` entries are experiments that failed despite the
//! policy's retries. Every entry line ends with an FNV-1a checksum of its
//! payload. Loading stops at the first torn or corrupt line — precisely
//! the tail a crash mid-append can leave — so a damaged tail never
//! poisons the records before it.

use crate::logging::{
    decode_trace, encode_trace, ExperimentRecord, StateSnapshot, TerminationCause, Validity,
};
use crate::policy::ExperimentFailure;
use crate::vfs::{self, Vfs, VfsFile};
use crate::{fault::FaultSpec, GoofiError, Result};
use goofidb::codec::{escape, escape_into, fnv1a, unescape_lenient};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};

const HEADER: &str = "#goofi-journal v1";

/// Entries appended between two group commits.
const COMMIT_EVERY: usize = 64;

/// What a journal file says about a partially-run campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Campaign name recorded in the journal header.
    pub campaign: String,
    /// The reference run, when it completed before the crash.
    pub reference: Option<ExperimentRecord>,
    /// Completed experiment records by campaign index.
    pub completed: BTreeMap<usize, ExperimentRecord>,
    /// Experiments that failed (index → failure), unless a later `R`
    /// entry for the same index superseded the failure.
    pub failed: BTreeMap<usize, ExperimentFailure>,
    /// How many `F` entries each index has accumulated across runs —
    /// superseded or not (quarantined `R` entries count a round too).
    /// Resume derives unique `…/rerun<k>` names from this, so an
    /// experiment that fails on every resume still gets a fresh child name
    /// each time.
    pub failed_rounds: BTreeMap<usize, u32>,
    /// Records quarantined by golden-run revalidation (validity
    /// `invalid`), unless a later valid `R` entry superseded them. Their
    /// indices appear in [`JournalState::failed`] so resume re-runs them;
    /// the records themselves are kept for database import.
    pub quarantined: Vec<ExperimentRecord>,
}

impl JournalState {
    /// Total entries that survived loading.
    pub fn len(&self) -> usize {
        self.completed.len() + self.failed.len() + usize::from(self.reference.is_some())
    }

    /// Whether nothing was journaled yet.
    pub fn is_empty(&self) -> bool {
        self.reference.is_none() && self.completed.is_empty() && self.failed.is_empty()
    }
}

/// An open, append-only experiment journal.
///
/// Each append is written as one line before returning, so an entry
/// either fully exists or is a recognisable torn tail. Appends are synced
/// to disk in groups (see the module docs): call
/// [`ExperimentJournal::commit`] before acknowledging anything the
/// journal must back.
pub struct ExperimentJournal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Entries written since the last sync.
    unsynced: usize,
}

impl std::fmt::Debug for ExperimentJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentJournal")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Drop for ExperimentJournal {
    /// Best-effort backstop for a journal dropped without a final
    /// [`ExperimentJournal::commit`]; errors have nowhere to go here.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

impl ExperimentJournal {
    /// Creates a fresh journal for `campaign`, truncating any existing
    /// file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn create(path: impl AsRef<Path>, campaign: &str) -> Result<Self> {
        Self::create_with(&vfs::RealFs, path, campaign)
    }

    /// [`ExperimentJournal::create`] over an explicit [`Vfs`] — the seam
    /// the durability torture harness injects faults through.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn create_with(vfs: &dyn Vfs, path: impl AsRef<Path>, campaign: &str) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs
            .create(&path)
            .map_err(|e| GoofiError::io("creating", &path, &e))?;
        let header = format!("{HEADER}\nC\t{}\n", escape(campaign));
        file.write_all(header.as_bytes())
            .and_then(|()| file.sync())
            .map_err(|e| GoofiError::io("writing header to", &path, &e))?;
        Ok(ExperimentJournal {
            file,
            path,
            unsynced: 0,
        })
    }

    /// Opens an existing journal for appending (after [`load`]).
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    ///
    /// [`load`]: ExperimentJournal::load
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_append_with(&vfs::RealFs, path)
    }

    /// [`ExperimentJournal::open_append`] over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn open_append_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open_append(&path)
            .map_err(|e| GoofiError::io("opening", &path, &e))?;
        Ok(ExperimentJournal {
            file,
            path,
            unsynced: 0,
        })
    }

    /// Opens the journal at `path` to resume `campaign` from it: what the
    /// journal already holds, plus the journal open for appending. A
    /// missing file starts a fresh journal. An existing one is salvaged
    /// first, because a crash can leave a torn or garbled line mid-file and
    /// anything appended after it would be invisible to every later load; a
    /// file that is not recognisably a journal is quarantined aside and a
    /// fresh journal started (see [`salvage_with`]).
    ///
    /// # Errors
    ///
    /// I/O errors and a journal recorded for another campaign.
    pub fn reopen_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        campaign: &str,
    ) -> Result<(Self, JournalState)> {
        let path = path.as_ref();
        if vfs.exists(path) {
            salvage_with(vfs, path)?;
        }
        if !vfs.exists(path) {
            Self::create_with(vfs, path, campaign)?;
        }
        let state = Self::load_with(vfs, path, campaign)?;
        Ok((Self::open_append_with(vfs, path)?, state))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed experiment record. `index` is the experiment's
    /// campaign index; `None` marks the reference run.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn append_record(&mut self, index: Option<usize>, record: &ExperimentRecord) -> Result<()> {
        let mut line = String::new();
        encode_record_payload(&mut line, index, record);
        self.append_line(line)
    }

    /// Appends an experiment failure.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn append_failure(&mut self, failure: &ExperimentFailure) -> Result<()> {
        let mut line = format!("F\t{}\t{}\t", failure.index, failure.attempts);
        escape_into(&mut line, &failure.error);
        self.append_line(line)
    }

    /// Seals an entry's payload into its line and writes it, syncing once
    /// every [`COMMIT_EVERY`] entries.
    fn append_line(&mut self, mut line: String) -> Result<()> {
        seal_line(&mut line, 0);
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| GoofiError::io("appending to", &self.path, &e))?;
        self.unsynced += 1;
        if self.unsynced >= COMMIT_EVERY {
            self.commit()?;
        }
        Ok(())
    }

    /// Syncs every entry written so far to stable storage; a no-op when
    /// nothing was appended since the last sync.
    ///
    /// # Errors
    ///
    /// A failed sync, surfaced as [`GoofiError::Io`] naming the journal.
    pub fn commit(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file
            .sync()
            .map_err(|e| GoofiError::io("syncing", &self.path, &e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Loads a journal, tolerating a torn tail: parsing stops at the first
    /// incomplete, checksum-mismatched or malformed entry line.
    ///
    /// # Errors
    ///
    /// I/O errors and a missing/mismatched header — a damaged *tail* is
    /// expected after a crash, a damaged *head* means this is not a
    /// journal.
    pub fn load(path: impl AsRef<Path>, campaign_name: &str) -> Result<JournalState> {
        Self::load_with(&vfs::RealFs, path, campaign_name)
    }

    /// [`ExperimentJournal::load`] over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// As [`ExperimentJournal::load`].
    pub fn load_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        campaign_name: &str,
    ) -> Result<JournalState> {
        let path = path.as_ref();
        let text = vfs
            .read_to_string(path)
            .map_err(|e| GoofiError::io("reading", path, &e))?;
        let complete = text.ends_with('\n');
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(GoofiError::Journal(format!(
                "{}: not a goofi journal (bad header)",
                path.display()
            )));
        }
        let mut state = JournalState::default();
        match lines.next().and_then(|l| l.strip_prefix("C\t")) {
            Some(name) => state.campaign = unescape_lenient(name),
            None => {
                return Err(GoofiError::Journal(format!(
                    "{}: missing campaign line",
                    path.display()
                )))
            }
        }
        if state.campaign != campaign_name {
            return Err(GoofiError::Journal(format!(
                "{}: journal belongs to campaign `{}`, not `{campaign_name}`",
                path.display(),
                state.campaign
            )));
        }
        let mut rest = lines.peekable();
        while let Some(line) = rest.next() {
            // The final line is torn if the file lacks a trailing newline.
            if rest.peek().is_none() && !complete {
                break;
            }
            match parse_entry(line, campaign_name) {
                Some(Entry::Reference(record)) => state.reference = Some(record),
                Some(Entry::Completed(index, record)) => {
                    if record.validity == Validity::Invalid {
                        // Quarantined: drop any completed record so resume
                        // re-runs the experiment; the round keeps the
                        // rerun name unique.
                        state.completed.remove(&index);
                        *state.failed_rounds.entry(index).or_insert(0) += 1;
                        state.failed.insert(
                            index,
                            ExperimentFailure {
                                index,
                                name: record.name.clone(),
                                attempts: 1,
                                error: "quarantined by golden-run revalidation".into(),
                            },
                        );
                        state.quarantined.push(record);
                    } else {
                        state.failed.remove(&index);
                        state.completed.insert(index, record);
                    }
                }
                Some(Entry::Failed(failure)) => {
                    *state.failed_rounds.entry(failure.index).or_insert(0) += 1;
                    if !state.completed.contains_key(&failure.index) {
                        state.failed.insert(failure.index, failure);
                    }
                }
                // Corrupt line: everything after it is suspect too.
                None => break,
            }
        }
        Ok(state)
    }
}

/// A line-level integrity scan of a journal file — finer-grained than
/// [`ExperimentJournal::load`], which stops at the first bad line. The
/// scan validates every entry line *individually*, so `goofi fsck` can
/// salvage valid records that sit beyond a garbled middle line.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Campaign named in the header, or `None` when the header itself is
    /// damaged (this is not recognisably a journal).
    pub campaign: Option<String>,
    /// Entry lines (verbatim) whose checksum and format both validate.
    pub valid: Vec<String>,
    /// Complete-but-invalid lines before the end of the file — corruption
    /// that the plain loader's torn-tail tolerance does *not* cover.
    pub garbled: usize,
    /// The final line is torn: invalid, or valid but missing its
    /// terminating newline (in which case it is also in `valid` — the
    /// record survives, the file still needs rewriting before appends).
    pub torn_tail: bool,
}

impl JournalScan {
    /// Whether the file is a pristine journal.
    pub fn clean(&self) -> bool {
        self.campaign.is_some() && self.garbled == 0 && !self.torn_tail
    }
}

/// Scans journal text line by line. See [`JournalScan`].
pub fn scan_text(text: &str) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return scan;
    }
    let campaign = match lines.next().and_then(|l| l.strip_prefix("C\t")) {
        Some(name) => unescape_lenient(name),
        None => return scan,
    };
    scan.campaign = Some(campaign.clone());
    let complete = text.ends_with('\n');
    let mut rest = lines.peekable();
    while let Some(line) = rest.next() {
        let last = rest.peek().is_none();
        if parse_entry(line, &campaign).is_some() {
            scan.valid.push(line.to_string());
            if last && !complete {
                // Valid payload but the newline never landed: the record
                // survives, yet appending to the file as-is would
                // concatenate onto this line. Flag it for rewriting.
                scan.torn_tail = true;
            }
        } else if last {
            // An invalid final line — unterminated or complete-but-bad —
            // is the residue of a crash mid-append: a torn tail.
            scan.torn_tail = true;
        } else {
            scan.garbled += 1;
        }
    }
    scan
}

/// What [`salvage_with`] did to a journal file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageOutcome {
    /// The file was rewritten (damage was found and cut out).
    pub rewritten: bool,
    /// Valid entry lines kept.
    pub kept: usize,
    /// Damaged lines dropped (garbled entries plus a torn tail).
    pub dropped: usize,
    /// The file was not recognisably a journal and was renamed aside to
    /// this quarantine path instead of rewritten.
    pub quarantined: Option<PathBuf>,
}

/// Repairs a journal in place: keeps the header and every entry line that
/// individually validates, atomically rewriting the file. A file whose
/// *header* is damaged is renamed aside to `<path>.corrupt` (quarantined,
/// never silently deleted) so its owner can start a fresh journal. A
/// pristine journal is left untouched.
///
/// # Errors
///
/// I/O errors, surfaced as [`GoofiError::Io`]. A missing file is one of
/// them. The runner and the scheduler, which may start without a
/// journal, check that it exists first; `goofi resume` wants the error.
/// A journal that vanishes mid-salvage was moved by a second writer,
/// which the one-owner journal design rules out, so it is reported
/// rather than mistaken for a clean journal.
pub fn salvage_with(vfs: &dyn Vfs, path: &Path) -> Result<SalvageOutcome> {
    // Lossy read: a garbled sector is rarely valid UTF-8, and salvage must
    // still be able to look at the rest of the file.
    let text =
        crate::vfs::read_lossy(vfs, path).map_err(|e| GoofiError::io("reading", path, &e))?;
    let scan = scan_text(&text);
    let Some(campaign) = &scan.campaign else {
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        let corrupt = PathBuf::from(corrupt);
        vfs.rename(path, &corrupt)
            .map_err(|e| GoofiError::io("quarantining", path, &e))?;
        return Ok(SalvageOutcome {
            rewritten: false,
            kept: 0,
            dropped: 0,
            quarantined: Some(corrupt),
        });
    };
    if scan.clean() {
        return Ok(SalvageOutcome {
            kept: scan.valid.len(),
            ..SalvageOutcome::default()
        });
    }
    let mut body = format!("{HEADER}\nC\t{}\n", escape(campaign));
    for line in &scan.valid {
        body.push_str(line);
        body.push('\n');
    }
    vfs::atomic_write(vfs, path, body.as_bytes())
        .map_err(|e| GoofiError::io("rewriting", path, &e))?;
    let entry_lines = text.lines().count().saturating_sub(2);
    Ok(SalvageOutcome {
        rewritten: true,
        kept: scan.valid.len(),
        dropped: entry_lines - scan.valid.len(),
        quarantined: None,
    })
}

pub(crate) enum Entry {
    Reference(ExperimentRecord),
    Completed(usize, ExperimentRecord),
    Failed(ExperimentFailure),
}

/// Appends one journal record line, minus the trailing checksum column,
/// to `out` (shared with the golden-run cache, which persists a reference
/// record in the same checksummed format).
pub(crate) fn encode_record_payload(
    out: &mut String,
    index: Option<usize>,
    record: &ExperimentRecord,
) {
    out.push_str("R\t");
    match index {
        Some(i) => {
            let _ = write!(out, "{i}");
        }
        None => out.push('-'),
    }
    out.push('\t');
    escape_into(out, &record.name);
    out.push('\t');
    match &record.parent {
        Some(parent) => escape_into(out, parent),
        None => out.push('-'),
    }
    out.push('\t');
    match &record.fault {
        Some(fault) => escape_into(out, &fault.encode()),
        None => out.push('-'),
    }
    out.push('\t');
    escape_into(out, &record.termination.encode());
    out.push('\t');
    escape_into(out, &record.state.encode());
    out.push('\t');
    if record.trace.is_empty() {
        out.push('-');
    } else {
        let trace = encode_trace(&record.trace);
        // Escaping adds one byte per snapshot line, a few percent.
        out.reserve(trace.len() + trace.len() / 16);
        escape_into(out, &trace);
    }
    out.push('\t');
    out.push_str(record.validity.encode());
}

/// Ends the entry whose payload starts at byte `start` of `out`: appends
/// the payload's FNV-1a checksum column and the newline.
pub(crate) fn seal_line(out: &mut String, start: usize) {
    let sum = fnv1a(&out.as_bytes()[start..]);
    let _ = writeln!(out, "\t#{sum:08x}");
}

pub(crate) fn parse_entry(line: &str, campaign: &str) -> Option<Entry> {
    let (payload, checksum) = line.rsplit_once("\t#")?;
    if u32::from_str_radix(checksum, 16).ok()? != fnv1a(payload.as_bytes()) {
        return None;
    }
    let fields: Vec<&str> = payload.split('\t').collect();
    match fields.as_slice() {
        // The validity column was added later; 8-field entries written by
        // older versions load as valid records.
        ["R", index, name, parent, fault, termination, state, trace]
        | ["R", index, name, parent, fault, termination, state, trace, _] => {
            let validity = match fields.get(8) {
                Some(v) => Validity::decode(v)?,
                None => Validity::Valid,
            };
            let record = ExperimentRecord {
                name: unescape_lenient(name),
                parent: (*parent != "-").then(|| unescape_lenient(parent)),
                campaign: campaign.to_string(),
                fault: if *fault == "-" {
                    None
                } else {
                    Some(FaultSpec::decode(&unescape_lenient(fault))?)
                },
                termination: TerminationCause::decode(&unescape_lenient(termination))?,
                state: StateSnapshot::decode(&unescape_lenient(state))?,
                trace: if *trace == "-" {
                    Vec::new()
                } else {
                    decode_trace(&unescape_lenient(trace))?
                },
                validity,
            };
            if *index == "-" {
                Some(Entry::Reference(record))
            } else {
                Some(Entry::Completed(index.parse().ok()?, record))
            }
        }
        ["F", index, attempts, error] => {
            let index = index.parse().ok()?;
            Some(Entry::Failed(ExperimentFailure {
                index,
                name: format!("{campaign}/exp{index:05}"),
                attempts: attempts.parse().ok()?,
                error: unescape_lenient(error),
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "goofi-journal-test-{}-{name}.gjl",
            std::process::id()
        ));
        p
    }

    fn record(name: &str, parent: Option<&str>) -> ExperimentRecord {
        let mut state = StateSnapshot {
            memory_digest: 7,
            outputs: vec![1, 2, 3],
            iterations: 1,
            instructions: 100,
            cycles: 150,
            ..StateSnapshot::default()
        };
        state.scan.insert("internal".into(), "0101".into());
        ExperimentRecord {
            name: name.into(),
            parent: parent.map(str::to_string),
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state,
            trace: vec![StateSnapshot::default()],
            validity: Validity::Valid,
        }
    }

    #[test]
    fn validity_roundtrips_and_supersedes() {
        let path = temp_journal("validity");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        let good = record("c1/exp00000", None);
        let mut bad = good.clone();
        bad.validity = Validity::Invalid;
        j.append_record(Some(0), &good).unwrap();
        // Quarantine re-journals the same index with validity=invalid: the
        // record leaves `completed` (so resume re-runs it as a linked
        // rerun) and is kept aside for database import.
        j.append_record(Some(0), &bad).unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(!state.completed.contains_key(&0));
        assert_eq!(
            state.failed[&0].error,
            "quarantined by golden-run revalidation"
        );
        assert_eq!(state.failed_rounds[&0], 1);
        assert_eq!(state.quarantined.len(), 1);
        assert_eq!(state.quarantined[0].validity, Validity::Invalid);

        // … and an eight-field entry from an older version loads as valid.
        let mut jv = ExperimentJournal::create(&path, "c1").unwrap();
        jv.append_record(Some(1), &good).unwrap();
        drop(jv);
        let text = std::fs::read_to_string(&path).unwrap();
        let legacy: String = text
            .lines()
            .map(|line| match line.split_once("\t#") {
                Some((payload, _)) if payload.starts_with("R\t") => {
                    let stripped = payload.rsplit_once('\t').unwrap().0;
                    format!("{stripped}\t#{:08x}\n", fnv1a(stripped.as_bytes()))
                }
                _ => format!("{line}\n"),
            })
            .collect();
        std::fs::write(&path, legacy).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed[&1].validity, Validity::Valid);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrips_records_and_failures() {
        let path = temp_journal("roundtrip");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        let reference = record("c1/reference", None);
        let exp0 = record("c1/exp00000", None);
        let rerun = record("c1/exp00002/rerun1", Some("c1/exp00002"));
        j.append_record(None, &reference).unwrap();
        j.append_record(Some(0), &exp0).unwrap();
        j.append_failure(&ExperimentFailure {
            index: 1,
            name: "c1/exp00001".into(),
            attempts: 3,
            error: "target system error: tab\there".into(),
        })
        .unwrap();
        j.append_record(Some(2), &rerun).unwrap();
        drop(j);

        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.campaign, "c1");
        assert_eq!(state.reference.as_ref(), Some(&reference));
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.completed[&0], exp0);
        assert_eq!(state.completed[&2], rerun);
        assert_eq!(state.failed.len(), 1);
        assert_eq!(state.failed[&1].attempts, 3);
        assert_eq!(state.failed_rounds[&1], 1);
        assert!(state.failed[&1].error.contains("tab\there"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_record_supersedes_failure() {
        let path = temp_journal("supersede");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_failure(&ExperimentFailure {
            index: 0,
            name: "c1/exp00000".into(),
            attempts: 1,
            error: "flaky".into(),
        })
        .unwrap();
        j.append_record(Some(0), &record("c1/exp00000/rerun1", Some("c1/exp00000")))
            .unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(state.failed.is_empty());
        // The F entry still counts a round, keeping future rerun names
        // unique.
        assert_eq!(state.failed_rounds[&0], 1);
        assert_eq!(state.completed.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_journal("torn");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(Some(0), &record("c1/exp00000", None))
            .unwrap();
        j.append_record(Some(1), &record("c1/exp00001", None))
            .unwrap();
        drop(j);
        // Simulate a crash mid-append: truncate the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains_key(&0));

        // A corrupted middle line cuts the journal there.
        let corrupt = text.replace("exp00000", "exp0?¿00");
        std::fs::write(&path, corrupt).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(state.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_load_continues_the_journal() {
        let path = temp_journal("append");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(Some(0), &record("c1/exp00000", None))
            .unwrap();
        drop(j);
        let mut j = ExperimentJournal::open_append(&path).unwrap();
        j.append_record(Some(1), &record("c1/exp00001", None))
            .unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_campaign_is_rejected() {
        let path = temp_journal("wrong");
        ExperimentJournal::create(&path, "c1").unwrap();
        assert!(matches!(
            ExperimentJournal::load(&path, "other"),
            Err(GoofiError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = temp_journal("notjournal");
        std::fs::write(&path, "hello\n").unwrap();
        assert!(ExperimentJournal::load(&path, "c1").is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(ExperimentJournal::load(&path, "c1").is_err()); // missing file
    }
}
