//! Cost of the adversarial construction itself (per item), for the
//! standing targets — the harness must scale to the T1 sweep sizes. Run
//! with `cargo bench -p cqs-bench`.

use cqs_bench::micro::{bench, print_header};
use cqs_bench::{try_attack, Target};
use cqs_core::Eps;

fn main() {
    let eps = Eps::from_inverse(32);
    print_header("adversary_run");
    for k in [4u32, 6] {
        let n = eps.stream_len(k);
        for target in [Target::Gk, Target::GkGreedy] {
            let label = format!("adversary/{}/k{k}", target.name());
            bench(&label, n, 10, || {
                try_attack(eps, k, target)
                    .unwrap_or_else(|e| panic!("{label}: {e}"))
                    .max_stored
            });
        }
    }
}
