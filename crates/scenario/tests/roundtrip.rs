//! Property tests: generated spec trees survive their own JSON text, and
//! compilation is deterministic.
//!
//! The front end only reads, so the generators emit what a user writes:
//! a `serde::Value` tree in the DSL's vocabulary (shorthands included),
//! not a typed `ScenarioSpec` to be written out. What is left of the old
//! round trip is the half the reader relies on: tree → JSON text → tree
//! is the identity (floats included — the writer emits shortest
//! round-trip representations), and the text parses to the same typed
//! spec as the tree it was printed from. Where a property needs a count,
//! it reads the typed view back with `ScenarioSpec::from_value`. Every
//! generated tree is one the reader accepts.

use std::path::Path;

use alc_scenario::compile::compile_value;
use alc_scenario::profile::schedule_from_value;
use alc_scenario::spec::{cc_spec_name, ClientColumn, ScenarioSpec, StatColumn};
use alc_tpsim::config::CcKind;
use proptest::prelude::*;
use proptest::{boxed, collection, Union};
use serde::Value;

mod common;
use common::{exponential, nums, obj, s, tag};

fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(0u32..26, 1..8).prop_map(|v| {
        v.into_iter()
            .map(|i| char::from(b'a' + i as u8))
            .collect::<String>()
    })
}

fn arb_time() -> std::ops::Range<f64> {
    0.0..2_000_000.0
}

/// A level inside every generated field's domain: `k` ≥ 1 and an
/// arrival-rate factor > 0.
fn arb_level() -> std::ops::Range<f64> {
    1.0..64.0
}

/// A `[[t, x], …]` list in ascending time order.
fn timed(mut v: Vec<(f64, Value)>) -> Value {
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    Value::Seq(
        v.into_iter()
            .map(|(t, x)| Value::Seq(vec![Value::Num(t), x]))
            .collect(),
    )
}

fn arb_profile_leaf() -> Union<Value> {
    prop_oneof![
        arb_level().prop_map(Value::Num),
        (arb_time(), arb_level(), arb_level()).prop_map(|(at, before, after)| tag(
            "step",
            nums([("at", at), ("before", before), ("after", after)])
        )),
        (arb_level(), arb_level(), arb_time(), 1.0..500_000.0).prop_map(
            |(from, to, t_start, d)| tag(
                "ramp",
                nums([
                    ("from", from),
                    ("to", to),
                    ("t_start", t_start),
                    ("t_end", t_start + d)
                ])
            )
        ),
        // The trough `mean - amplitude` stays at a level, the peak within
        // the smallest generated database.
        (arb_level(), 0.0..1.0f64, 1.0..1_000_000.0).prop_map(|(mean, swing, period)| tag(
            "sinusoid",
            nums([
                ("mean", mean),
                ("amplitude", ((mean - 1.0) * swing).min(16.0)),
                ("period", period)
            ])
        )),
        (arb_level(), arb_level(), arb_time(), 1.0..500_000.0).prop_map(
            |(base, peak, at, duration)| tag(
                "burst",
                nums([
                    ("base", base),
                    ("peak", peak),
                    ("at", at),
                    ("duration", duration)
                ])
            )
        ),
        collection::vec((arb_time(), arb_level().prop_map(Value::Num)), 1..6)
            .prop_map(|pts| tag("piecewise", timed(pts))),
    ]
}

fn arb_profile(depth: u32) -> Union<Value> {
    if depth == 0 {
        return arb_profile_leaf();
    }
    Union::new(vec![
        (3, boxed(arb_profile_leaf())),
        (
            1,
            boxed(
                collection::vec((arb_time(), arb_profile(depth - 1)), 1..4)
                    .prop_map(|ps| tag("phases", timed(ps))),
            ),
        ),
    ])
}

/// Client retry backoff, drawn inside its legal parameter ranges.
fn arb_retry() -> impl Strategy<Value = Value> {
    (
        10.0..1_000.0f64,
        1.0..4.0f64,
        1_000.0..60_000.0f64,
        0.0..1.0f64,
    )
        .prop_map(|(base_ms, factor, max_ms, jitter)| {
            tag(
                "backoff",
                nums([
                    ("base_ms", base_ms),
                    ("factor", factor),
                    ("max_ms", max_ms),
                    ("jitter", jitter),
                ]),
            )
        })
}

/// Client pool sections: population, impatience timeout, retry policy
/// and shedding flag.
fn arb_clients() -> impl Strategy<Value = Value> {
    (
        (1u64..64, 500.0..60_000.0f64, any::<bool>(), 0u64..8),
        (arb_retry(), any::<bool>()),
    )
        .prop_map(
            |((population, timeout, short, max_retries), (retry, shed_retries))| {
                obj([
                    ("population", Value::U64(population)),
                    ("timeout", exponential(timeout, short)),
                    ("max_retries", Value::U64(max_retries)),
                    ("retry", retry),
                    ("shed_retries", Value::Bool(shed_retries)),
                ])
            },
        )
}

/// A feedback controller's params object: its `[initial_bound,
/// max_bound]` pair (plus `min_bound: 1` where `pin_min`), then the given
/// number fields.
fn params<const N: usize>(lo: u64, hi: u64, pin_min: bool, rest: [(&str, f64); N]) -> Value {
    let mut m = vec![("initial_bound", Value::U64(lo))];
    if pin_min {
        m.push(("min_bound", Value::U64(1)));
    }
    m.push(("max_bound", Value::U64(hi)));
    m.extend(rest.map(|(k, x)| (k, Value::Num(x))));
    obj(m)
}

fn arb_controller() -> Union<Value> {
    prop_oneof![
        Just(s("none")),
        Just(s("unlimited")),
        (1u64..900).prop_map(|bound| tag("fixed", obj([("bound", Value::U64(bound))]))),
        (arb_time(), 2u64..900).prop_map(|(at_ms, n_max)| tag(
            "fixed_analytic_optimum",
            obj([("at_ms", Value::Num(at_ms)), ("n_max", Value::U64(n_max))])
        )),
        // `max_step` at least the default `min_step` of 1.
        (1u64..64, 64u64..900, 0.1..8.0, 1.0..64.0).prop_map(|(lo, hi, beta, max_step)| tag(
            "is",
            params(lo, hi, true, [("beta", beta), ("max_step", max_step)])
        )),
        (1u64..64, 64u64..900, 0.5..0.999, 0.0..16.0).prop_map(|(lo, hi, alpha, dither)| tag(
            "pa",
            params(
                lo,
                hi,
                false,
                [("alpha", alpha), ("dither_amplitude", dither)]
            )
        )),
        (1u64..64, 64u64..900, 0.1..4.0)
            .prop_map(|(lo, hi, target)| tag("iyer", params(lo, hi, false, [("target", target)]))),
        (1u64..32, 16u64..900, any::<bool>()).prop_map(|(k, max_bound, pin_min)| {
            let mut m = vec![("k", Value::U64(k))];
            if pin_min {
                m.push(("min_bound", Value::U64(1)));
            }
            m.push(("max_bound", Value::U64(max_bound)));
            tag("tay", obj(m))
        }),
        (1u64..64, 64u64..900, 0.0..2.0f64, 1.0..64.0f64).prop_map(|(lo, hi, budget, burst)| tag(
            "retry_budget",
            params(lo, hi, true, [("budget", budget), ("burst", burst)])
        )),
        (1u64..64, 64u64..900, 0.1..8.0, any::<bool>()).prop_map(|(lo, hi, beta, outer)| {
            let mut m = vec![("is", params(lo, hi, true, [("beta", beta)]))];
            if outer {
                m.push(("outer", obj([])));
            }
            tag("self_tuning_is", obj(m))
        }),
        (1u64..64, 64u64..900, 0.65..0.98).prop_map(|(lo, hi, alpha)| tag(
            "self_tuning_pa",
            obj([("pa", params(lo, hi, false, [("alpha", alpha)]))])
        )),
        (1u64..64, 64u64..900).prop_map(|(lo, hi)| tag(
            "hybrid",
            obj([
                ("is", params(lo, hi, true, [])),
                ("pa", params(lo, hi, true, []))
            ])
        )),
    ]
}

fn arb_cc() -> impl Strategy<Value = Value> {
    (0usize..CcKind::ALL.len()).prop_map(|i| s(cc_spec_name(CcKind::ALL[i])))
}

/// Strictly ascending CC switch times after t = 0.
fn arb_cc_phases() -> impl Strategy<Value = Vec<(f64, Value)>> {
    collection::vec((1.0..1_000_000.0f64, arb_cc()), 0..3).prop_map(|mut v| {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.dedup_by(|a, b| a.0 == b.0);
        v
    })
}

/// Fault windows that can never exceed the generated CPU counts
/// (`cpus ≥ 2` in `arb_system`, at most two single-CPU kills). Mixes
/// fixed `duration` windows with sampled `repair` distributions.
fn arb_faults() -> impl Strategy<Value = Vec<Value>> {
    collection::vec(
        (
            0.0..800_000.0f64,
            1_000.0..400_000.0f64,
            any::<bool>(),
            any::<bool>(),
        ),
        0..3,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(at_ms, duration_ms, sampled, short)| {
                let recovery = if sampled {
                    ("repair", exponential(duration_ms, short))
                } else {
                    ("duration", Value::Num(duration_ms))
                };
                obj([
                    ("at", Value::Num(at_ms)),
                    recovery,
                    ("cpus_down", Value::U64(1)),
                ])
            })
            .collect()
    })
}

/// Adaptive CC sections: 2–4 distinct candidates, one of the three
/// policies, and guard parameters across their full legal ranges.
fn arb_adaptive() -> impl Strategy<Value = Value> {
    let policy = prop_oneof![
        (0.05..8.0f64, 0.05..1.0f64).prop_map(|(threshold, ewma_weight)| tag(
            "conflict_threshold",
            nums([("threshold", threshold), ("ewma_weight", ewma_weight)])
        )),
        (0.05..0.95f64, 0.05..1.0f64).prop_map(|(threshold, ewma_weight)| tag(
            "restart_rate",
            nums([("threshold", threshold), ("ewma_weight", ewma_weight)])
        )),
        (0.05..1.0f64).prop_map(|w| tag("shadow_score", nums([("ewma_weight", w)]))),
    ];
    (
        2usize..CcKind::ALL.len() + 1,
        0usize..24,
        policy,
        0.0..300.0f64,
        0.0..60.0f64,
        0.0..0.9f64,
    )
        .prop_map(|(n, rot, policy, min_dwell_s, cooldown_s, hysteresis)| {
            // Distinct candidates: a rotation of the protocol list.
            let candidates = (0..n)
                .map(|i| s(cc_spec_name(CcKind::ALL[(i + rot) % CcKind::ALL.len()])))
                .collect();
            obj([
                ("candidates", Value::Seq(candidates)),
                ("policy", policy),
                ("min_dwell_s", Value::Num(min_dwell_s)),
                ("cooldown_s", Value::Num(cooldown_s)),
                ("hysteresis", Value::Num(hysteresis)),
            ])
        })
}

/// What else a column makes the spec carry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Needs {
    Nothing,
    /// `record_optimum: true`.
    Optimum,
    /// A `clients` section.
    Clients,
}

fn arb_columns() -> impl Strategy<Value = Vec<(Value, Needs)>> {
    let stat = (0usize..StatColumn::ALL.len())
        .prop_map(|i| (s(StatColumn::ALL[i].name()), Needs::Nothing));
    let derived = prop_oneof![
        Just((s("post_jump_tracking_err"), Needs::Optimum)),
        Just((s("conflict_ratio_at_peak"), Needs::Nothing)),
        (0.05..0.9f64, 0.05..0.5f64).prop_map(|(after_frac, band)| (
            tag(
                "settling_time_s",
                obj([
                    ("header", s("settle_s")),
                    ("after_frac", Value::Num(after_frac)),
                    ("band", Value::Num(band)),
                ])
            ),
            Needs::Optimum
        )),
        Just((s("switch_count"), Needs::Nothing)),
        (arb_cc(), any::<bool>()).prop_map(|(cc, named)| {
            let mut m = vec![("cc", cc)];
            if named {
                m.push(("header", s("residence_s")));
            }
            (tag("time_in_protocol", obj(m)), Needs::Nothing)
        }),
        Just((s("post_switch_settling_time_s"), Needs::Nothing)),
        (1_000.0..500_000.0f64, 0.05..0.95f64).prop_map(|(after_ms, band)| (
            tag(
                "time_to_recover_s",
                nums([("after_ms", after_ms), ("band", band)])
            ),
            Needs::Nothing
        )),
    ];
    let client = (0usize..ClientColumn::ALL.len())
        .prop_map(|i| (s(ClientColumn::ALL[i].name()), Needs::Clients));
    let literal = arb_name().prop_map(|h| {
        (
            tag("literal", obj([("header", s(&h)), ("value", s("-"))])),
            Needs::Nothing,
        )
    });
    collection::vec(
        prop_oneof![4 => stat, 1 => derived, 1 => client, 1 => literal],
        1..6,
    )
}

/// A `system` section drawn from a menu of valid settings.
fn arb_system() -> impl Strategy<Value = Value> {
    (2u64..64, 100u64..4000, 1u64..17, any::<bool>()).prop_map(|(cpus, db, think_scale, short)| {
        obj([
            ("cpus", Value::U64(cpus)),
            ("db_size", Value::U64(db)),
            ("think", exponential(think_scale as f64 * 50.0, short)),
        ])
    })
}

fn arb_variants() -> impl Strategy<Value = Vec<Value>> {
    collection::vec((arb_name(), any::<bool>()), 0..4).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (name, displacement))| {
                obj([
                    // Deduplicate names (the spec rejects duplicates).
                    ("name", s(&format!("{name}{i}"))),
                    (
                        "set",
                        obj([("control.displacement", Value::Bool(displacement))]),
                    ),
                    ("quick", nums([("horizon_ms", 5_000.0)])),
                ])
            })
            .collect()
    })
}

fn arb_spec() -> impl Strategy<Value = Value> {
    (
        (
            arb_name(),
            any::<u64>(),
            1u64..5,
            1_000.0..3_000_000.0f64,
            arb_cc(),
            arb_system(),
        ),
        (
            arb_profile(2),
            arb_profile(1),
            arb_controller(),
            any::<bool>(),
            any::<bool>(),
            arb_columns(),
        ),
        (
            arb_variants(),
            arb_cc_phases(),
            arb_faults(),
            prop_oneof![2 => Just(None), 1 => arb_adaptive().prop_map(Some)],
            prop_oneof![2 => Just(None), 1 => arb_clients().prop_map(Some)],
        ),
    )
        .prop_map(
            |(
                (name, seed, replications, horizon_ms, cc, system),
                (k, factor, controller, record_optimum, trajectories, columns),
                (variants, cc_phases, faults, adaptive, clients),
            )| {
                // Tracking-error columns require the optimum trajectory.
                let record_optimum =
                    record_optimum || columns.iter().any(|(_, n)| *n == Needs::Optimum);
                // Client columns require a clients section.
                let clients = if columns.iter().any(|(_, n)| *n == Needs::Clients) {
                    clients.or_else(|| {
                        Some(obj([
                            ("population", Value::U64(8)),
                            ("timeout", exponential(5_000.0, true)),
                        ]))
                    })
                } else {
                    clients
                };
                // Adaptive selection replaces scheduled phases (the two
                // are mutually exclusive); a plain protocol is the
                // phase-free form.
                let cc = match adaptive {
                    Some(ad) => tag("adaptive", ad),
                    None if cc_phases.is_empty() => cc,
                    None => {
                        let mut phases = vec![(0.0, cc)];
                        phases.extend(cc_phases);
                        tag("phases", timed(phases))
                    }
                };
                let mut m = vec![
                    ("name", s(&name)),
                    ("description", s("generated spec")),
                    ("seed", Value::U64(seed)),
                    ("replications", Value::U64(replications)),
                    ("horizon_ms", Value::Num(horizon_ms)),
                    ("cc", cc),
                    ("system", system),
                    ("control", nums([("sample_interval_ms", 500.0)])),
                    ("workload", obj([("k", k), ("arrival_rate_factor", factor)])),
                    ("controller", controller),
                    ("record_optimum", Value::Bool(record_optimum)),
                    ("trajectories", Value::Bool(trajectories)),
                    (
                        "columns",
                        Value::Seq(columns.into_iter().map(|(c, _)| c).collect()),
                    ),
                ];
                if !faults.is_empty() {
                    m.push(("faults", Value::Seq(faults)));
                }
                if let Some(c) = clients {
                    m.push(("clients", c));
                }
                if !variants.is_empty() {
                    m.push(("variants", Value::Seq(variants)));
                }
                m.push(("quick", nums([("horizon_ms", 2_000.0)])));
                obj(m)
            },
        )
}

/// A sweep over distinct paths with distinct values per axis; pivoted
/// sweeps take the last axis as columns.
fn arb_sweep_spec() -> impl Strategy<Value = Value> {
    const PATHS: [(&str, &str); 3] = [
        ("mpl_bound", "control.initial_bound"),
        ("terminals", "system.terminals"),
        ("db", "system.db_size"),
    ];
    (
        arb_name(),
        any::<u64>(),
        1usize..4,
        collection::vec(collection::vec(1u64..500, 1..4), 3..4),
        any::<bool>(),
    )
        .prop_map(|(name, seed, n_axes, value_sets, want_pivot)| {
            let axes = (0..n_axes)
                .map(|i| {
                    // Distinct values per axis (duplicate labels collapse
                    // cells and are rejected at parse).
                    let mut values = value_sets[i].clone();
                    values.sort_unstable();
                    values.dedup();
                    obj([
                        ("header", s(PATHS[i].0)),
                        ("path", s(PATHS[i].1)),
                        (
                            "values",
                            Value::Seq(values.into_iter().map(Value::U64).collect()),
                        ),
                    ])
                })
                .collect();
            let mut sweep = vec![("axes", Value::Seq(axes))];
            if want_pivot && n_axes >= 2 {
                sweep.push((
                    "pivot",
                    obj([("stat", s("throughput_per_s")), ("prefix", s("T_"))]),
                ));
            }
            obj([
                ("name", s(&name)),
                ("description", s("generated sweep")),
                ("seed", Value::U64(seed)),
                ("horizon_ms", Value::Num(5_000.0)),
                ("control", nums([("sample_interval_ms", 500.0)])),
                ("columns", Value::Seq(vec![s("throughput_per_s")])),
                ("sweep", obj(sweep)),
            ])
        })
}

/// Tree → pretty JSON → tree is the identity, and the text parses to the
/// typed spec the tree parses to; returns that spec.
fn survives_its_text(tree: &Value) -> ScenarioSpec {
    let json = serde_json::to_string_pretty(tree).expect("serialize");
    let back: Value = serde_json::from_str(&json).expect("reparse");
    assert_eq!(&back, tree, "the text changed the tree:\n{json}");
    let spec = ScenarioSpec::from_value(tree, Path::new("."))
        .unwrap_or_else(|e| panic!("generated spec is invalid: {e}\n{json}"));
    let from_text = ScenarioSpec::from_value(&back, Path::new("."))
        .unwrap_or_else(|e| panic!("reparse failed: {e}\n{json}"));
    assert_eq!(from_text, spec, "the text changed the spec:\n{json}");
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Spec tree → JSON string → tree and typed spec is the identity.
    #[test]
    fn spec_round_trips_through_json(tree in arb_spec()) {
        let spec = survives_its_text(&tree);
        // The typed view holds the drawn numbers exactly.
        prop_assert_eq!(Some(spec.cell.system.seed), tree.get("seed").and_then(Value::as_u64));
        prop_assert_eq!(Some(spec.cell.horizon_ms), tree.get("horizon_ms").and_then(Value::as_f64));
    }

    /// Profile tree → JSON string → tree and schedule is the identity
    /// (deeper nesting than the spec-level test exercises).
    #[test]
    fn profile_round_trips_through_json(tree in arb_profile(3)) {
        let json = serde_json::to_string(&tree).expect("serialize");
        let back: Value = serde_json::from_str(&json).expect("reparse");
        prop_assert_eq!(&back, &tree, "the text changed the tree:\n{}", json);
        let read = |tree: &Value| {
            schedule_from_value(tree, Path::new("."))
                .unwrap_or_else(|e| panic!("generated profile is invalid: {e}\n{json}"))
        };
        prop_assert_eq!(read(&back), read(&tree), "the text changed the schedule:\n{}", json);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiling the same spec twice yields the identical plan.
    /// Generated specs include CC-switch phases, fault windows and
    /// derived columns.
    #[test]
    fn compilation_is_deterministic(tree in arb_spec()) {
        let spec = ScenarioSpec::from_value(&tree, Path::new(".")).expect("generated spec parses");
        let dir = std::path::PathBuf::from(".");
        let a = compile_value(&tree, &dir, false);
        let b = compile_value(&tree, &dir, false);
        prop_assert_eq!(&a, &b);
        if let Ok(plan) = a {
            let quick_a = compile_value(&tree, &dir, true);
            let quick_b = compile_value(&tree, &dir, true);
            prop_assert_eq!(quick_a, quick_b);
            let groups = if spec.variants.is_empty() { 1 } else { spec.variants.len() };
            prop_assert_eq!(plan.variants.len(), groups);
            // The lowered switch and fault schedules survive compilation
            // on every variant.
            for v in &plan.variants {
                prop_assert_eq!(&v.cell.cc, &spec.cell.cc);
                // One fault timeline per replication, each ascending with
                // both edges of every window.
                prop_assert_eq!(v.fault_timelines.len(), v.seeds.len());
                for timeline in &v.fault_timelines {
                    prop_assert_eq!(timeline.len(), 2 * spec.cell.faults.len());
                    prop_assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0));
                }
                // Fixed windows draw nothing: every replication shares them.
                if spec.cell.faults.iter().all(|f| f.outage.as_constant().is_some()) {
                    prop_assert!(v.fault_timelines.windows(2).all(|w| w[0] == w[1]));
                }
            }
        }
    }

    /// Sweep specs survive their JSON text exactly.
    #[test]
    fn sweep_spec_round_trips_through_json(tree in arb_sweep_spec()) {
        let spec = survives_its_text(&tree);
        prop_assert!(spec.sweep.is_some());
    }

    /// Sweep expansion is deterministic, covers the exact cross-product,
    /// and never produces two cells with the same label.
    #[test]
    fn sweep_expansion_covers_the_exact_cross_product(tree in arb_sweep_spec()) {
        let spec = ScenarioSpec::from_value(&tree, Path::new(".")).expect("generated sweep parses");
        let dir = std::path::PathBuf::from(".");
        let a = compile_value(&tree, &dir, false).expect("sweep must compile");
        let b = compile_value(&tree, &dir, false).expect("sweep must compile");
        prop_assert_eq!(&a, &b, "sweep expansion must be deterministic");

        let sweep = spec.sweep.as_ref().expect("generated sweep");
        let expected: usize = sweep.axes.iter().map(|a| a.values.len()).product();
        prop_assert_eq!(a.variants.len(), expected, "wrong cell count");

        let mut seen = std::collections::HashSet::new();
        for v in &a.variants {
            prop_assert!(seen.insert(v.label.clone()), "duplicate cell `{}`", v.label);
        }

        // Every cell carries its own axis values: re-derive the expected
        // coordinate labels in row-major order and compare.
        let plan_sweep = a.sweep.as_ref().expect("plan keeps the sweep shape");
        for (idx, v) in a.variants.iter().enumerate() {
            let coords = plan_sweep.coords(idx);
            let expected_label: Vec<String> = coords
                .iter()
                .enumerate()
                .map(|(ax, &c)| sweep.axes[ax].label(c))
                .collect();
            prop_assert_eq!(v.label.clone(), expected_label.join("_"));
        }
    }
}
