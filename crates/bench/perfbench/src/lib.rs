//! The repository benchmark: three workloads over the adversary and the
//! sharded quantile service, an untraced run that reports the end-to-end
//! metrics, and a traced run that splits the time by layer. See
//! `README.md` in this directory for the workloads, the metrics and how
//! they relate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod report;
pub mod service;
pub mod timed;

use std::str::FromStr;
use std::time::Duration;

use cqs_core::StreamRepr;

use report::{json_str, median, Checks, Metric};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The adversary on materialized streams (arena treap index).
    AdvMaterialized,
    /// The adversary on interval-compressed implicit streams.
    AdvImplicit,
    /// The sharded service under mixed ingest, reads and exports.
    ServiceMixed,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "adv-materialized" => Ok(Workload::AdvMaterialized),
            "adv-implicit" => Ok(Workload::AdvImplicit),
            "service-mixed" => Ok(Workload::ServiceMixed),
            _ => Err(format!(
                "unknown workload {s:?} (adv-materialized, adv-implicit, service-mixed)"
            )),
        }
    }
}

/// Compile-time audit required by the workspace `sharding-send-sync`
/// lint, which resolves types by name and so follows `Workload` into
/// the sweep pool of `cqs-bench`.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<X: Send>() {}
    assert_send::<Workload>();
}

/// Every per-layer metric of the traced run, with its unit. A layer a
/// workload does not execute reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("universe.mint_s", "s"),
    ("universe.mint_calls", "count"),
    ("state.index_s", "s"),
    ("gk.insert_run_s", "s"),
    ("gk.insert_run_calls", "count"),
    ("gk.scan_s", "s"),
    ("gk.scan_calls", "count"),
    ("gk.query_s", "s"),
    ("gk.query_calls", "count"),
    ("gk.merge_s", "s"),
    ("gk.merge_calls", "count"),
    ("gk.clone_s", "s"),
    ("gap.self_s", "s"),
    ("gap.calls", "count"),
    ("refine.self_s", "s"),
    ("equiv.self_s", "s"),
    ("equiv.calls", "count"),
    ("registry.handle_s", "s"),
    ("service.record_s", "s"),
    ("service.record_calls", "count"),
    ("service.fold_s", "s"),
    ("service.fold_calls", "count"),
    ("service.fold_cache_hit_ratio", "ratio"),
    ("service.export_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.export_bytes", "bytes"),
    ("worker.fold_errors", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Medians over repetitions of each named per-layer value, in
/// [`PER_LAYER`] order; names no repetition measured report 0.
/// `trace.overhead_frac` is left for the caller to append.
pub fn per_layer_medians(per_rep: &[Vec<(&'static str, f64)>]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .filter(|(name, _)| *name != "trace.overhead_frac")
        .map(|&(name, unit)| {
            let xs: Vec<f64> = per_rep
                .iter()
                .filter_map(|rep| rep.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            Metric::new(name, median(&xs), unit)
        })
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload and returns its metrics: the end-to-end metrics,
/// or with `trace` the per-layer metrics.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    checks: &mut Checks,
) -> Vec<Metric> {
    let budget = Duration::from_secs(seconds);
    let mut metrics = match (workload, trace) {
        (Workload::AdvMaterialized, false) => {
            adversary::run_e2e(StreamRepr::Materialized, seed, budget, checks)
        }
        (Workload::AdvImplicit, false) => {
            adversary::run_e2e(StreamRepr::Implicit, seed, budget, checks)
        }
        (Workload::ServiceMixed, false) => service::run_e2e(&service::PARAMS, seed, budget, checks),
        (Workload::AdvMaterialized, true) => {
            adversary::run_traced_workload(StreamRepr::Materialized, seed, budget, checks)
        }
        (Workload::AdvImplicit, true) => {
            adversary::run_traced_workload(StreamRepr::Implicit, seed, budget, checks)
        }
        (Workload::ServiceMixed, true) => {
            service::run_traced_workload(&service::PARAMS, seed, budget, checks)
        }
    };
    if !trace {
        let rss = peak_rss_mb();
        checks.expect(rss.is_some(), || "VmHWM unreadable".into());
        metrics.insert(1, Metric::new("peak_rss_mb", rss.unwrap_or(0.0), "MB"));
    }
    metrics
}

/// The run identity line: what ran, where, with which parameters.
pub fn identity(workload: Workload, seed: u64, seconds: u64, trace: bool) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params = match workload {
        Workload::AdvMaterialized | Workload::AdvImplicit => {
            let repr = if workload == Workload::AdvMaterialized {
                "materialized"
            } else {
                "implicit"
            };
            format!(
                "{{\"target\": \"gk\", \"eps\": \"1/{}\", \"k\": {}, \"repr\": \"{repr}\", \
                 \"n_per_stream\": {}}}",
                adversary::INV_EPS,
                adversary::K,
                cqs_core::Eps::from_inverse(adversary::INV_EPS).stream_len(adversary::K)
            )
        }
        Workload::ServiceMixed => {
            let p = service::PARAMS;
            format!(
                "{{\"summary\": \"gk\", \"shards\": {}, \"stripes\": {}, \"fold_cadence\": {}, \
                 \"callers\": {}, \"keys_per_caller\": {}, \"batch\": {}, \
                 \"batches_per_caller\": {}, \"read_every\": {}, \"export_every\": {}, \
                 \"served_eps\": {}, \"shard_eps\": {}}}",
                p.shards,
                p.stripes,
                p.fold_cadence,
                service::callers(),
                p.keys_per_caller,
                p.batch,
                p.batches_per_caller,
                p.read_every,
                p.export_every,
                p.served_eps,
                p.shard_eps()
            )
        }
    };
    format!(
        "{{\"identity\": {{\"rev\": {}, \"rustc\": {}, \"available_parallelism\": {cores}, \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"params\": {params}, \
         \"unmeasured\": {}}}}}",
        json_str(&rev),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&format!(
            "scaling beyond {cores} cores; callers are capped at the host's cores"
        )),
    )
}
