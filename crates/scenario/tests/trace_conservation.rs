//! Span-conservation property tests for the lifecycle trace.
//!
//! Across random small systems — with and without client pools, with
//! and without capacity faults, under different admission controllers —
//! the trace emitted by a run must be *conservative*: every span that
//! opens closes exactly once (the horizon closes stragglers), every
//! admitted attempt ends in exactly one of commit / displaced / cancel,
//! and the span/instant tallies reconcile with the run's own report
//! counters ([`trace_cell`] checks the full identity list). The written
//! Chrome-trace JSON must parse, hold every counted event, and be
//! byte-identical across reruns — tracing must never perturb or be
//! perturbed by anything nondeterministic.

use alc_scenario::runner::cell_file_name;
use alc_scenario::trace::{trace_cell, validate_trace_file};
use proptest::prelude::*;
use serde::Value;

mod common;
use common::{compile, exponential, nums, obj, s, tag};

fn arb_clients() -> impl Strategy<Value = Value> {
    (
        2u64..16,
        80.0..1_200.0f64,
        0u64..5,
        any::<bool>(),
        prop_oneof![
            (5.0..300.0f64).prop_map(|base_ms| tag(
                "backoff",
                nums([("base_ms", base_ms), ("max_ms", 2_000.0)])
            )),
            (10.0..600.0f64).prop_map(|base_ms| tag(
                "backoff",
                nums([("base_ms", base_ms), ("factor", 1.0), ("jitter", 0.0)])
            )),
        ],
    )
        .prop_map(
            |(population, timeout_ms, max_retries, shed_retries, retry)| {
                obj([
                    ("population", Value::U64(population)),
                    ("timeout", Value::Num(timeout_ms)),
                    ("max_retries", Value::U64(max_retries)),
                    ("retry", retry),
                    ("shed_retries", Value::Bool(shed_retries)),
                ])
            },
        )
}

fn arb_controller() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(s("unlimited")),
        (2u64..24).prop_map(|bound| tag("fixed", obj([("bound", Value::U64(bound))]))),
    ]
}

fn arb_spec() -> impl Strategy<Value = Value> {
    (
        any::<u64>(),
        (2u64..5, 60u64..300, 50.0..400.0f64, any::<bool>()),
        prop_oneof![Just(None), arb_clients().prop_map(Some)],
        arb_controller(),
        any::<bool>(),
        0.0..2_000.0f64,
    )
        .prop_map(
            |(seed, (cpus, db_size, think_ms, short), clients, controller, fault, warmup_ms)| {
                let mut m = vec![
                    ("name", s("trace-conservation")),
                    ("description", s("generated trace-conservation spec")),
                    ("seed", Value::U64(seed)),
                    ("horizon_ms", Value::Num(5_000.0)),
                    (
                        "system",
                        obj([
                            ("cpus", Value::U64(cpus)),
                            ("db_size", Value::U64(db_size)),
                            ("think", exponential(think_ms, short)),
                        ]),
                    ),
                    (
                        "control",
                        nums([("sample_interval_ms", 500.0), ("warmup_ms", warmup_ms)]),
                    ),
                    ("workload", obj([("k", Value::U64(6))])),
                    ("controller", controller),
                    ("columns", Value::Seq(vec![s("throughput_per_s")])),
                ];
                if fault {
                    m.push((
                        "faults",
                        Value::Seq(vec![obj([
                            ("at", Value::Num(1_500.0)),
                            ("duration", Value::Num(2_000.0)),
                            ("cpus_down", Value::U64(1)),
                        ])]),
                    ));
                }
                if let Some(c) = clients {
                    m.push(("clients", c));
                }
                obj(m)
            },
        )
}

fn case_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("alc_trace_prop_{}_{tag}", std::process::id()))
}

proptest! {
    // Each case runs two full traced simulations (for the byte-identity
    // rerun); a modest case count still crosses clients × faults ×
    // warmup × controller because each axis is an independent draw.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_trace_balances_reconciles_and_reruns_identically(tree in arb_spec()) {
        let plan = compile(&tree);
        let v = &plan.variants[0];
        let (dir_a, dir_b) = (case_dir("a"), case_dir("b"));
        let a = trace_cell(&plan, v, 0, &dir_a).expect("traced run");
        prop_assert!(a.unbalanced.is_none(), "unbalanced span: {:?}", a.unbalanced);
        prop_assert_eq!(a.span_begins, a.span_ends, "span begin/end totals differ");
        for check in &a.checks {
            prop_assert!(
                check.ok(),
                "identity `{}` broke: report {} vs trace {}",
                check.what, check.report, check.trace
            );
        }
        let file_a = dir_a.join(cell_file_name(&plan, v, 0, "trace.json"));
        let parsed = validate_trace_file(&file_a).expect("trace file parses");
        prop_assert_eq!(parsed, a.events, "file event count vs counting sink");

        let b = trace_cell(&plan, v, 0, &dir_b).expect("traced rerun");
        let bytes_a = std::fs::read(&file_a).expect("read first trace");
        let bytes_b =
            std::fs::read(dir_b.join(cell_file_name(&plan, v, 0, "trace.json"))).expect("read second trace");
        prop_assert_eq!(a.events, b.events, "rerun event count");
        prop_assert!(bytes_a == bytes_b, "rerun is not byte-identical");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
