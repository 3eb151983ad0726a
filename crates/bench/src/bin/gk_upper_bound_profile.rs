//! T4 — the GK upper bound O((1/ε)·log εN), profiled.
//!
//! Measures GK's peak item-array size across stream lengths, ε values
//! and workloads (benign sorted/shuffled streams plus the lower bound's
//! adversarial stream), against the shape (1/ε)·(log₂ εN + 1).
//!
//! Expected: the ratio peak/shape is a modest constant on every
//! workload, grows with neither N (beyond the log) nor 1/ε — i.e. the
//! upper bound's *shape* holds — and the adversarial stream is the most
//! expensive, as the tight lower bound predicts.
//!
//! Run: `cargo run -p cqs-bench --release --bin gk_upper_bound_profile`

use cqs_bench::{drive_u64, emit, f1, try_attack, Target};
use cqs_core::{ComparisonSummary, Eps};
use cqs_gk::GkSummary;
use cqs_streams::{workload, Table, Workload};

fn shape(eps: f64, n: u64) -> f64 {
    (1.0 / eps) * ((eps * n as f64).max(2.0).log2() + 1.0)
}

fn main() -> std::process::ExitCode {
    let mut t = Table::new(&[
        "eps",
        "N",
        "workload",
        "peak|I|",
        "(1/e)(log2 eN+1)",
        "ratio",
        "max-rank-err",
        "eps*N",
    ]);

    for inv in [32u64, 128] {
        let eps_f = 1.0 / inv as f64;
        for exp in [12u32, 14, 16, 18] {
            let n = 1u64 << exp;
            for w in [Workload::Sorted, Workload::Shuffled, Workload::Sawtooth] {
                let vals = workload(w, n, 7).expect("non-empty");
                let mut gk = GkSummary::new(eps_f);
                let mut peak = 0usize;
                for &v in &vals {
                    gk.insert(v);
                    peak = peak.max(gk.stored_count());
                }
                let stats = drive_u64(&mut GkSummary::new(eps_f), &vals, 128);
                t.row(&[
                    &format!("1/{inv}"),
                    &n.to_string(),
                    w.name(),
                    &peak.to_string(),
                    &f1(shape(eps_f, n)),
                    &f1(peak as f64 / shape(eps_f, n)),
                    &stats.max_rank_error.to_string(),
                    &(n / inv).to_string(),
                ]);
            }
        }
        // Adversarial stream from the lower-bound construction.
        let eps = Eps::from_inverse(inv);
        for k in [6u32, 8] {
            let rep = try_attack(eps, k, Target::Gk).unwrap_or_else(|e| panic!("{e}"));
            let n = rep.n;
            t.row(&[
                &format!("1/{inv}"),
                &n.to_string(),
                "adversarial",
                &rep.max_stored.to_string(),
                &f1(shape(eps.value(), n)),
                &f1(rep.max_stored as f64 / shape(eps.value(), n)),
                "-",
                &(n / inv).to_string(),
            ]);
        }
    }

    emit(
        "GK upper bound — peak space vs (1/eps)(log2 epsN + 1) across workloads",
        &t,
        "gk_upper_bound_profile.csv",
    );
    cqs_bench::exit_status()
}
