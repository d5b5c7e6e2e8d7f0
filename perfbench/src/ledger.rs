//! The per-layer ledger: turns the spans of the traced campaigns into the
//! `per_layer` metrics and a table of every timed call.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans cover. Summing self time per layer splits a campaign's wall time
//! into layers; whatever no layer's call covers is `unattributed_s`.

use crate::trace::Span;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Layers whose calls run on the target system.
const TARGET_LAYERS: [&str; 4] = ["thor", "riscv", "scanchain", "port"];

/// What the benchmark knows about one traced campaign besides its spans.
#[derive(Debug, Clone, Default)]
pub struct CampaignInfo {
    /// Root span id (the whole verdict: set-up, injection, report).
    pub root: u64,
    /// Tracer clock at the first completed experiment (end of set-up).
    pub setup_end_ns: u64,
    pub experiments: usize,
    /// Threads or worker processes the executor ran on.
    pub workers: usize,
    pub golden_bytes: u64,
    pub db_bytes: u64,
    pub service: Option<ServiceInfo>,
}

/// What the client saw on its one service connection.
#[derive(Debug, Clone, Default)]
pub struct ServiceInfo {
    pub submit_s: f64,
    pub first_exp_s: f64,
    pub steady_exp_per_s: f64,
    pub drain_s: f64,
    pub progress_events: u64,
    pub spool_bytes: u64,
}

#[derive(Default)]
struct CallStats {
    calls: u64,
    busy_ns: u64,
    self_ns: u64,
    work: u64,
    durations: Vec<u64>,
}

fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[pos] as f64 / 1e3
}

/// Self time of every span in `spans`, keyed by span id.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Each span's share of wall time: its self time, scaled down where the
/// span ran in parallel with its siblings (the runner's worker threads), so
/// that the shares of one tree add up to its root's duration.
fn wall_shares(spans: &[Span], selfs: &HashMap<u64, u64>) -> HashMap<u64, f64> {
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s);
    }
    let mut shares = HashMap::new();
    let mut stack: Vec<(&Span, f64)> = kids
        .get(&0)
        .map(|roots| roots.iter().map(|s| (*s, 1.0)).collect())
        .unwrap_or_default();
    while let Some((span, factor)) = stack.pop() {
        shares.insert(span.id, selfs[&span.id] as f64 * factor);
        if let Some(children) = kids.get(&span.id) {
            let busy: u64 = children.iter().map(|c| c.dur_ns()).sum();
            let covered = span.dur_ns() - selfs[&span.id];
            let overlap = if busy > covered {
                covered as f64 / busy as f64
            } else {
                1.0
            };
            stack.extend(children.iter().map(|c| (*c, factor * overlap)));
        }
    }
    shares
}

/// The ledger of one traced run.
pub struct Ledger {
    pub metrics: BTreeMap<&'static str, f64>,
    pub table: String,
    /// Per-campaign `(wall, sum of the layers' wall shares)`, in seconds.
    pub accounting: Vec<(f64, f64)>,
}

/// Builds the ledger. `local` are the spans of this process, `remote` those
/// the service's worker processes reported; remote spans count towards the
/// per-call rows but not towards this process's wall-time accounting.
/// `untraced_wall_s` is the wall time of the same campaigns run without
/// the wrappers.
pub fn build(
    local: &[Span],
    remote: &[Span],
    campaigns: &[CampaignInfo],
    untraced_wall_s: f64,
) -> Ledger {
    let n = campaigns.len().max(1) as f64;
    let local_self = self_times(local);
    let remote_self = self_times(remote);
    let shares = wall_shares(local, &local_self);
    let by_id: HashMap<u64, &Span> = local.iter().map(|s| (s.id, s)).collect();

    let mut calls: BTreeMap<(&'static str, &'static str), CallStats> = BTreeMap::new();
    for (spans, selfs) in [(local, &local_self), (remote, &remote_self)] {
        for s in spans {
            let c = calls.entry((s.layer, s.name)).or_default();
            c.calls += 1;
            c.busy_ns += s.dur_ns();
            c.self_ns += selfs[&s.id];
            c.work += s.work;
            c.durations.push(s.dur_ns());
        }
    }
    for c in calls.values_mut() {
        c.durations.sort_unstable();
    }
    let get = |layer: &'static str, name: &'static str| calls.get(&(layer, name));
    let count = |layer: &'static str, name: &'static str| {
        get(layer, name).map_or(0.0, |c| c.calls as f64) / n
    };
    let busy = |layer: &'static str, name: &'static str| {
        get(layer, name).map_or(0.0, |c| c.busy_ns as f64) / n / 1e9
    };
    let p99 = |layer: &'static str, name: &'static str| {
        get(layer, name).map_or(0.0, |c| quantile_us(&c.durations, 0.99))
    };
    let layer_sum = |layer: &str, f: &dyn Fn(&CallStats) -> u64| {
        calls
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, c)| f(c))
            .sum::<u64>() as f64
            / n
    };
    let layer_busy_s = |layer: &str| layer_sum(layer, &|c| c.busy_ns) / 1e9;
    let layer_self_s = |layer: &str| layer_sum(layer, &|c| c.self_ns) / 1e9;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (core, busy_key, instr_key, rate_key) in [
        ("thor", "thor.busy_s", "thor.instr", "thor.minstr_per_s"),
        ("riscv", "riscv.busy_s", "riscv.instr", "riscv.minstr_per_s"),
    ] {
        let b = layer_busy_s(core);
        let instr = layer_sum(core, &|c| c.work);
        m.insert(busy_key, b);
        m.insert(instr_key, instr);
        m.insert(rate_key, if b > 0.0 { instr / b / 1e6 } else { 0.0 });
    }

    m.insert("scanchain.reads", count("scanchain", "read_scan_chain"));
    m.insert(
        "scanchain.read_busy_s",
        busy("scanchain", "read_scan_chain"),
    );
    m.insert("scanchain.read_p99_us", p99("scanchain", "read_scan_chain"));
    m.insert(
        "scanchain.bits_read",
        get("scanchain", "read_scan_chain").map_or(0.0, |c| c.work as f64) / n,
    );
    m.insert("scanchain.writes", count("scanchain", "write_scan_chain"));
    m.insert(
        "scanchain.write_busy_s",
        busy("scanchain", "write_scan_chain"),
    );

    m.insert("port.loads", count("port", "load_workload"));
    m.insert("port.load_busy_s", busy("port", "load_workload"));
    m.insert("port.snapshots", count("port", "snapshot"));
    m.insert("port.snapshot_busy_s", busy("port", "snapshot"));
    m.insert("port.restores", count("port", "restore"));
    m.insert("port.restore_busy_s", busy("port", "restore"));
    m.insert("port.restore_p99_us", p99("port", "restore"));
    m.insert("port.digest_busy_s", busy("port", "memory_digest"));
    m.insert("port.busy_s", layer_busy_s("port"));

    // Executor: self time of the campaign call, i.e. its wall time minus
    // the target, vfs and dbio calls made inside it.
    m.insert("algorithms.self_s", layer_self_s("algorithms"));
    m.insert("runner.self_s", layer_self_s("runner"));
    let mut runner_wall = 0.0;
    let mut runner_target = 0.0;
    for s in local.iter().filter(|s| s.layer == "runner") {
        let workers = campaigns
            .iter()
            .find(|c| by_id.get(&c.root).is_some_and(|r| r.campaign == s.campaign))
            .map_or(1, |c| c.workers.max(1));
        runner_wall += s.dur_ns() as f64 * workers as f64;
        runner_target += local
            .iter()
            .filter(|t| t.parent == s.id && TARGET_LAYERS.contains(&t.layer))
            .map(|t| t.dur_ns() as f64)
            .sum::<f64>();
    }
    m.insert(
        "runner.idle_frac",
        if runner_wall > 0.0 {
            1.0 - runner_target / runner_wall
        } else {
            0.0
        },
    );

    m.insert("vfs.writes", count("vfs", "write"));
    m.insert(
        "vfs.write_bytes",
        get("vfs", "write").map_or(0.0, |c| c.work as f64) / n,
    );
    m.insert("vfs.write_busy_s", busy("vfs", "write"));
    m.insert("vfs.syncs", count("vfs", "sync"));
    m.insert("vfs.sync_busy_s", busy("vfs", "sync"));
    m.insert("vfs.sync_p99_us", p99("vfs", "sync"));
    let experiments: usize = campaigns.iter().map(|c| c.experiments).sum();
    let executor_syncs = local
        .iter()
        .filter(|s| {
            s.layer == "vfs"
                && s.name == "sync"
                && by_id
                    .get(&s.parent)
                    .is_some_and(|p| matches!(p.layer, "algorithms" | "runner"))
        })
        .count();
    m.insert(
        "journal.syncs_per_exp",
        executor_syncs as f64 / experiments.max(1) as f64,
    );

    // Golden run: target busy time before the first experiment completed.
    let mut golden_ns = 0u64;
    for c in campaigns {
        let Some(root) = by_id.get(&c.root) else {
            continue;
        };
        golden_ns += local
            .iter()
            .filter(|s| {
                s.campaign == root.campaign
                    && TARGET_LAYERS.contains(&s.layer)
                    && s.end_ns <= c.setup_end_ns
            })
            .map(Span::dur_ns)
            .sum::<u64>();
    }
    m.insert("golden.reference_s", golden_ns as f64 / n / 1e9);
    m.insert(
        "golden.cache_bytes",
        campaigns.iter().map(|c| c.golden_bytes as f64).sum::<f64>() / n,
    );

    m.insert("dbio.load_s", busy("dbio", "load_database"));
    m.insert("dbio.load_campaign_s", busy("dbio", "load_campaign"));
    m.insert("dbio.store_s", busy("dbio", "store_result_traced"));
    m.insert("dbio.save_s", busy("dbio", "save_database"));
    m.insert(
        "dbio.db_bytes",
        campaigns.iter().map(|c| c.db_bytes as f64).sum::<f64>() / n,
    );

    m.insert("analysis.classify_s", busy("analysis", "analyse_campaign"));
    m.insert("analysis.render_s", busy("analysis", "render"));
    m.insert("analysis.store_s", busy("analysis", "save_database"));

    let services: Vec<&ServiceInfo> = campaigns
        .iter()
        .filter_map(|c| c.service.as_ref())
        .collect();
    let mean = |f: &dyn Fn(&ServiceInfo) -> f64| {
        if services.is_empty() {
            0.0
        } else {
            services.iter().map(|s| f(s)).sum::<f64>() / services.len() as f64
        }
    };
    m.insert("service.submit_s", mean(&|s| s.submit_s));
    m.insert("service.first_exp_s", mean(&|s| s.first_exp_s));
    m.insert("service.steady_exp_per_s", mean(&|s| s.steady_exp_per_s));
    m.insert("service.drain_s", mean(&|s| s.drain_s));
    m.insert(
        "service.progress_events",
        mean(&|s| s.progress_events as f64),
    );
    m.insert("service.spool_bytes", mean(&|s| s.spool_bytes as f64));
    let worker_wall = remote
        .iter()
        .filter(|s| s.layer == "service" && s.name == "worker")
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / n
        / 1e9;
    let worker_target = remote
        .iter()
        .filter(|s| TARGET_LAYERS.contains(&s.layer))
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / n
        / 1e9;
    m.insert("service.worker_wall_s", worker_wall);
    m.insert("service.worker_target_busy_s", worker_target);
    m.insert("service.worker_self_s", worker_wall - worker_target);

    // Accounting: per campaign, wall time against the sum of layer self
    // times over this process's spans.
    let mut accounting = Vec::new();
    for c in campaigns {
        let Some(root) = by_id.get(&c.root) else {
            continue;
        };
        let attributed: f64 = local
            .iter()
            .filter(|s| s.campaign == root.campaign && s.layer != "bench")
            .map(|s| shares.get(&s.id).copied().unwrap_or(0.0))
            .sum();
        accounting.push((root.dur_ns() as f64 / 1e9, attributed / 1e9));
    }
    let wall: f64 = accounting.iter().map(|(w, _)| w).sum();
    let attributed: f64 = accounting.iter().map(|(_, a)| a).sum();
    m.insert("unattributed_s", (wall - attributed) / n);
    m.insert(
        "trace.overhead_frac",
        if untraced_wall_s > 0.0 {
            wall / untraced_wall_s - 1.0
        } else {
            0.0
        },
    );

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<34} {:>10} {:>11} {:>11} {:>10} {:>10}",
        "call (per campaign)", "calls", "busy_s", "self_s", "p50_us", "p99_us"
    );
    for ((layer, name), c) in &calls {
        let _ = writeln!(
            table,
            "{:<34} {:>10.1} {:>11.6} {:>11.6} {:>10.2} {:>10.2}",
            format!("{layer}.{name}"),
            c.calls as f64 / n,
            c.busy_ns as f64 / n / 1e9,
            c.self_ns as f64 / n / 1e9,
            quantile_us(&c.durations, 0.5),
            quantile_us(&c.durations, 0.99),
        );
    }
    // Wall-time shares of this process's layers; they add up to the wall
    // time together with the unattributed rest.
    let mut layer_share: BTreeMap<&str, f64> = BTreeMap::new();
    for s in local.iter().filter(|s| s.layer != "bench") {
        *layer_share.entry(s.layer).or_default() += shares.get(&s.id).copied().unwrap_or(0.0);
    }
    let _ = writeln!(
        table,
        "\n{:<34} {:>11}",
        "layer share of wall (per campaign)", "s"
    );
    for (layer, share) in &layer_share {
        let _ = writeln!(table, "{layer:<34} {:>11.6}", share / n / 1e9);
    }
    let _ = writeln!(
        table,
        "{:<34} {:>11.6}\n{:<34} {:>11.6}",
        "unattributed_s",
        m["unattributed_s"],
        "wall (traced)",
        wall / n
    );
    Ledger {
        metrics: m,
        table,
        accounting,
    }
}
