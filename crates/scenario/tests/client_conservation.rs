//! Property tests for the closed-loop client population: across random
//! pool configurations — timeout distributions, retry backoff,
//! abandonment limits, retry shedding, and admission
//! controllers — the client-side conservation
//! identities hold at end of run, and the whole run is deterministic
//! across reruns and across thread counts (the runner's fan-out vs one cell
//! per call).
//!
//! The identities are the client analogue of the engine's transaction
//! census: no request is lost or double-counted between issue, commit,
//! and abandonment, and every attempt is either a first attempt or a
//! retry. They must survive the messy paths — timeouts that cancel
//! queued attempts, sheds bounced at the gate, retries run out —
//! not just the happy commit loop.

use alc_scenario::compile::RunPlan;
use alc_scenario::runner::{run_plan, RunRecord};
use proptest::prelude::*;
use serde::Value;

mod common;
use common::{compile, exponential, nums, obj, s, tag};

fn arb_retry() -> impl Strategy<Value = Value> {
    (5.0..400.0f64, 1.0..3.0f64, 100.0..2_000.0f64, 0.0..1.0f64).prop_map(
        |(base_ms, factor, max_ms, jitter)| {
            tag(
                "backoff",
                nums([
                    ("base_ms", base_ms),
                    ("factor", factor),
                    ("max_ms", max_ms),
                    ("jitter", jitter),
                ]),
            )
        },
    )
}

/// Pools tuned so the 5-second horizon actually exercises the edge
/// paths: timeouts short enough to fire against the service times,
/// populations small enough that debug-mode runs stay cheap. Returns the
/// section and the `shed_retries` it drew.
fn arb_clients() -> impl Strategy<Value = (Value, bool)> {
    (
        (2u64..24, 80.0..1_500.0f64, any::<bool>(), 0u64..6),
        (arb_retry(), any::<bool>()),
    )
        .prop_map(
            |((population, timeout_ms, bare, max_retries), (retry, shed_retries))| {
                // A constant timeout, as the bare number or spelt out.
                let timeout = if bare {
                    Value::Num(timeout_ms)
                } else {
                    tag("constant", Value::Num(timeout_ms))
                };
                let clients = obj([
                    ("population", Value::U64(population)),
                    ("timeout", timeout),
                    ("max_retries", Value::U64(max_retries)),
                    ("retry", retry),
                    ("shed_retries", Value::Bool(shed_retries)),
                ]);
                (clients, shed_retries)
            },
        )
}

fn arb_controller() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(s("unlimited")),
        (2u64..32).prop_map(|bound| tag("fixed", obj([("bound", Value::U64(bound))]))),
        (2u64..16, 16u64..64, 0.1..2.0f64).prop_map(|(lo, hi, budget)| tag(
            "retry_budget",
            obj([
                ("initial_bound", Value::U64(lo)),
                ("min_bound", Value::U64(1)),
                ("max_bound", Value::U64(hi)),
                ("budget", Value::Num(budget)),
            ])
        )),
    ]
}

/// A complete runnable spec tree: small contended system, a client
/// pool, and a shed-flipped variant so the plan has two cells (the
/// serial-vs-parallel comparison needs more than one).
fn arb_spec() -> impl Strategy<Value = Value> {
    (
        any::<u64>(),
        (2u64..5, 60u64..300),
        arb_clients(),
        arb_controller(),
        (50.0..400.0f64, any::<bool>()),
    )
        .prop_map(
            |(seed, (cpus, db_size), (clients, shed_retries), controller, (think_ms, short))| {
                let shed_flipped = obj([("clients.shed_retries", Value::Bool(!shed_retries))]);
                obj([
                    ("name", s("conservation")),
                    ("description", s("generated client-pool spec")),
                    ("seed", Value::U64(seed)),
                    ("horizon_ms", Value::Num(5_000.0)),
                    ("clients", clients),
                    (
                        "system",
                        obj([
                            ("cpus", Value::U64(cpus)),
                            ("db_size", Value::U64(db_size)),
                            ("think", exponential(think_ms, short)),
                        ]),
                    ),
                    ("control", nums([("sample_interval_ms", 500.0)])),
                    ("workload", obj([("k", Value::U64(6))])),
                    ("controller", controller),
                    ("columns", Value::Seq(vec![s("throughput_per_s")])),
                    (
                        "variants",
                        Value::Seq(vec![
                            obj([("name", s("base"))]),
                            obj([("name", s("shed-flipped")), ("set", shed_flipped)]),
                        ]),
                    ),
                ])
            },
        )
}

/// One cell per `run_plan` call: with a single job the runner's pool stays
/// on the calling thread, so this is the serial reference execution.
fn run_serial(plan: &RunPlan) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for v in &plan.variants {
        let sub = RunPlan {
            variants: vec![v.clone()],
            ..plan.clone()
        };
        records.extend(run_plan(&sub));
    }
    records
}

fn assert_conserved(rec: &RunRecord) {
    let c = rec
        .clients
        .expect("a spec with a clients section reports client stats");
    assert_eq!(
        c.issued,
        c.committed + c.abandoned + c.in_flight,
        "`{}`: issued != committed + abandoned + in_flight: {c:?}",
        rec.label
    );
    assert_eq!(
        c.attempts,
        c.first_attempts + c.retries,
        "`{}`: attempts != first_attempts + retries: {c:?}",
        rec.label
    );
    assert!(
        c.issued >= c.first_attempts,
        "`{}`: more first attempts than requests: {c:?}",
        rec.label
    );
    assert!(
        c.shed <= c.retries,
        "`{}`: shed a retry that was never counted: {c:?}",
        rec.label
    );
}

fn assert_same(a: &[RunRecord], b: &[RunRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label, "{what}: order");
        assert_eq!(x.stats, y.stats, "{what}: stats of `{}`", x.label);
        assert_eq!(
            x.clients, y.clients,
            "{what}: client stats of `{}`",
            x.label
        );
    }
}

proptest! {
    // Every case runs six full simulations (2 variants × rerun × serial);
    // a modest case count still covers all three retry-policy families
    // and both shed settings because the variant pair flips shedding
    // within each case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn client_accounting_conserves_requests_and_attempts(tree in arb_spec()) {
        let plan = compile(&tree);
        let a = run_plan(&plan);
        for rec in &a {
            assert_conserved(rec);
        }
        let b = run_plan(&plan);
        assert_same(&a, &b, "rerun");
        let serial = run_serial(&plan);
        assert_same(&a, &serial, "parallel vs serial");
    }
}
