//! T8 — Theorems 6.3/6.4: the randomized lower bound via
//! derandomization.
//!
//! Two parts:
//!
//! 1. The arithmetic of the reduction at δ = 1/N!: log₂(1/δ) = log₂ N!,
//!    whose log is Θ(log N) — so the randomized Ω((1/ε)·log log 1/δ)
//!    and the deterministic Ω((1/ε)·log εN) bounds coincide up to
//!    constants at every stream length (the improvement Theorem 6.4
//!    makes over Theorem 6.3's single length).
//! 2. The executable side: a fixed-seed KLL sketch *is* the
//!    "hard-coded random bits" summary of the union-bound argument; the
//!    adversary applies to it verbatim, and its space obeys the
//!    deterministic bound.
//!
//! Run: `cargo run -p cqs-bench --release --bin thm64_randomized_reduction`

use cqs_bench::{emit, f1, try_attack, Target};
use cqs_core::randomized::{
    deterministic_bound_shape, ln_factorial, log2_inv_delta, randomized_bound_shape,
    union_bound_applies,
};
use cqs_core::Eps;
use cqs_streams::Table;

fn main() -> std::process::ExitCode {
    let eps = Eps::from_inverse(32);

    let mut t = Table::new(&[
        "N",
        "ln N!",
        "log2(1/delta)",
        "loglog(1/delta)",
        "det-bound",
        "rand-bound",
        "union-bound-ok",
    ]);
    for exp in [10u32, 14, 18, 22, 26] {
        let n = 1u64 << exp;
        let ln_delta = -ln_factorial(n) - 1.0; // δ slightly below 1/N!
        t.row(&[
            &format!("2^{exp}"),
            &f1(ln_factorial(n)),
            &f1(log2_inv_delta(n)),
            &f1(log2_inv_delta(n).log2()),
            &f1(deterministic_bound_shape(eps, n)),
            &f1(randomized_bound_shape(eps, n)),
            &union_bound_applies(ln_delta, n).to_string(),
        ]);
    }
    emit(
        "Theorem 6.4 — derandomization arithmetic at delta = 1/N!",
        &t,
        "thm64_randomized_arithmetic.csv",
    );

    let mut t2 = Table::new(&["k", "N", "gap", "ceil", "peak|I|", "thm2.2-bound", "meets"]);
    for k in 4..=9u32 {
        let rep = try_attack(eps, k, Target::KllFixed).unwrap_or_else(|e| panic!("{e}"));
        t2.row(&[
            &k.to_string(),
            &rep.n.to_string(),
            &rep.final_gap.to_string(),
            &rep.gap_ceiling.to_string(),
            &rep.max_stored.to_string(),
            &f1(rep.theorem22_bound),
            &(rep.final_gap > rep.gap_ceiling || rep.max_stored as f64 >= rep.theorem22_bound)
                .to_string(),
        ]);
    }
    emit(
        "Theorem 6.4 — fixed-seed KLL under the deterministic adversary",
        &t2,
        "thm64_kll_fixed_adversary.csv",
    );
    println!("\n(a fixed-seed sketch must either blow the gap ceiling — failing as a");
    println!(" deterministic summary — or obey the deterministic space bound)");
    cqs_bench::exit_status()
}
