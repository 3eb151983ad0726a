//! The traced run must time the program it claims to time: the wrapper
//! forwards every summary method, wrapping changes no adversary report,
//! and the benchmark's rebuilt recursion reproduces `Adversary::run`.

use std::cell::RefCell;
use std::time::Duration;

use cqs_core::{Adversary, ComparisonSummary, Eps, Item, MergeError, MergeableSummary, StreamRepr};
use cqs_gk::GkSummary;
use cqs_perfbench::adversary::{run_traced, AdvLayers};
use cqs_perfbench::report::Checks;
use cqs_perfbench::service::{self, Params};
use cqs_perfbench::timed::{Timed, Traced, Untraced};

/// A summary that logs which of its own methods ran, overriding every
/// defaulted trait method so a fallback in the wrapper would show up
/// as a missing or different log entry.
#[derive(Default)]
struct Probe {
    log: RefCell<Vec<&'static str>>,
}

impl Probe {
    fn saw(&self, what: &'static str) {
        self.log.borrow_mut().push(what);
    }
}

impl ComparisonSummary<u64> for Probe {
    fn insert(&mut self, _item: u64) {
        self.saw("insert");
    }
    fn insert_sorted_run(&mut self, _run: &[u64]) -> usize {
        self.saw("insert_sorted_run");
        0
    }
    fn item_array(&self) -> Vec<u64> {
        self.saw("item_array");
        Vec::new()
    }
    fn for_each_item(&self, _f: &mut dyn FnMut(&u64)) {
        self.saw("for_each_item");
    }
    fn for_each_item_between(
        &self,
        _lo: Option<&u64>,
        _hi: Option<&u64>,
        _f: &mut dyn FnMut(&u64),
    ) {
        self.saw("for_each_item_between");
    }
    fn stored_count(&self) -> usize {
        self.saw("stored_count");
        0
    }
    fn items_processed(&self) -> u64 {
        self.saw("items_processed");
        0
    }
    fn query_rank(&self, _r: u64) -> Option<u64> {
        self.saw("query_rank");
        None
    }
    fn quantile(&self, _phi: f64) -> Option<u64> {
        self.saw("quantile");
        None
    }
    fn name(&self) -> &'static str {
        self.saw("name");
        "probe"
    }
}

impl MergeableSummary<u64> for Probe {
    fn try_merge(&mut self, _other: &Self) -> Result<(), MergeError> {
        self.saw("try_merge");
        Ok(())
    }
    fn eps_bound(&self) -> Option<f64> {
        self.saw("eps_bound");
        None
    }
}

#[test]
fn timed_forwards_every_method() {
    let mut t = Timed(Probe::default());
    let other = Timed(Probe::default());
    t.insert(1);
    t.insert_sorted_run(&[1, 2]);
    t.item_array();
    t.for_each_item(&mut |_| {});
    t.for_each_item_between(Some(&0), None, &mut |_| {});
    t.stored_count();
    t.items_processed();
    t.query_rank(1);
    t.quantile(0.5);
    t.name();
    t.try_merge(&other).expect("probe merge");
    t.eps_bound();
    assert_eq!(
        *t.0.log.borrow(),
        [
            "insert",
            "insert_sorted_run",
            "item_array",
            "for_each_item",
            "for_each_item_between",
            "stored_count",
            "items_processed",
            "query_rank",
            "quantile",
            "name",
            "try_merge",
            "eps_bound",
        ]
    );
}

const REPRS: [StreamRepr; 2] = [StreamRepr::Materialized, StreamRepr::Implicit];

fn gk(eps: Eps) -> GkSummary<Item> {
    GkSummary::new(eps.value())
}

#[test]
fn wrapping_the_summary_changes_no_report() {
    for (inv, k) in [(16, 5), (32, 6), (64, 4)] {
        let eps = Eps::from_inverse(inv);
        for repr in REPRS {
            let plain = Adversary::new(eps, gk(eps), gk(eps))
                .with_stream_repr(repr)
                .run(k);
            let wrapped = Adversary::new(eps, Timed(gk(eps)), Timed(gk(eps)))
                .with_stream_repr(repr)
                .run(k);
            assert_eq!(
                wrapped.report(),
                plain.report(),
                "1/eps={inv} k={k} {repr:?}"
            );
            assert_eq!(wrapped.audits, plain.audits, "1/eps={inv} k={k} {repr:?}");
        }
    }
}

#[test]
fn traced_recursion_reproduces_adversary_run() {
    for (inv, k) in [(16, 5), (32, 7), (64, 5)] {
        let eps = Eps::from_inverse(inv);
        for repr in REPRS {
            let reference = Adversary::new(eps, gk(eps), gk(eps))
                .with_stream_repr(repr)
                .run(k);

            let layers = AdvLayers::default();
            let traced = run_traced(eps, k, repr, || Timed(gk(eps)), &Traced, &layers);
            assert_eq!(
                traced.report(),
                reference.report(),
                "1/eps={inv} k={k} {repr:?}"
            );
            assert_eq!(
                traced.audits, reference.audits,
                "1/eps={inv} k={k} {repr:?}"
            );
            assert_eq!(layers.gap.get().calls, (1 << k) - 1);
            assert_eq!(layers.refine.get().calls, (1 << (k - 1)) - 1);
            assert_eq!(layers.equiv.get().calls, 1 << (k - 1));
            assert!(layers.mint.get().calls >= 1 << (k - 1));

            let untraced = run_traced(eps, k, repr, || gk(eps), &Untraced, &AdvLayers::default());
            assert_eq!(
                untraced.report(),
                reference.report(),
                "1/eps={inv} k={k} {repr:?}"
            );
        }
    }
}

fn tiny_service() -> Params {
    Params {
        keys_per_caller: 4,
        batch: 64,
        batches_per_caller: 64,
        export_every: 16,
        ..service::PARAMS
    }
}

#[test]
fn service_repetition_passes_its_checks_untraced_and_traced() {
    let p = tiny_service();
    let mut checks = Checks::default();
    let metrics = service::run_e2e(&p, 7, Duration::ZERO, &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    assert!(checks.attempted > 0);
    assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");

    let mut checks = Checks::default();
    let layers = service::run_traced_workload(&p, 7, Duration::ZERO, &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert_eq!(
        get("service.record_calls"),
        (service::callers() * 64) as f64
    );
    // The wrapper's totals are process-wide and other tests in this
    // binary run wrapped summaries concurrently, so only a lower bound
    // holds here.
    assert!(get("gk.insert_run_calls") >= (service::callers() * 64) as f64);
    assert_eq!(get("worker.fold_errors"), 0.0);
}

#[test]
fn service_inputs_are_a_function_of_the_seed() {
    let p = tiny_service();
    let a = service::caller_input(&p, 3, 0);
    let b = service::caller_input(&p, 3, 0);
    let c = service::caller_input(&p, 4, 0);
    assert_eq!(a, b);
    assert_ne!(a, c);
}
