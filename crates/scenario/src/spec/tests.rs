#![cfg(test)]
//! Unit tests of the spec reader. A file of its own so `spec.rs` reads
//! as the model; still `spec::tests`, so every test keeps its id.

use alc_core::controller::IsParams;
use alc_tpsim::client::RetryPolicy;
use alc_tpsim::engine::{RunStats, Trajectories};

use super::sections::retry_policy_from_value;
use super::*;

#[test]
fn minimal_spec_parses_with_defaults() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "mini", "horizon_ms": 1000.0}"#,
    )
    .unwrap();
    assert_eq!(spec.name, "mini");
    assert_eq!(spec.replications, 1);
    assert_eq!(spec.cc, CcKind::Certification);
    assert_eq!(spec.controller, ControllerSpec::None);
    assert_eq!(spec.workload, WorkloadSpec::default());
    assert!(!spec.record_optimum);
}

#[test]
fn unknown_keys_are_rejected_everywhere() {
    for bad in [
        r#"{"name": "x", "horizon_ms": 1.0, "horizn": 2.0}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "workload": {"kk": 8}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "system": {"terminal": 4}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "controller": {"is": {"beta2": 1}}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "columns": ["throughputt"]}"#,
    ] {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
        assert!(r.is_err(), "accepted bad spec {bad}");
    }
}

fn parse_err(body: &str) -> String {
    let json = format!(r#"{{"name": "x", "horizon_ms": 1.0, {body}}}"#);
    match serde_json::from_str::<ScenarioSpec>(&json) {
        Ok(_) => panic!("accepted bad spec {json}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn section_payloads_must_be_objects() {
    // Each of these read as "all defaults" when a payload that is
    // not an object was taken for an empty one.
    for bad in [
        r#""controller": {"hybrid": 7}"#,
        r#""controller": {"self_tuning_pa": "auto"}"#,
        r#""clients": {"population": 4, "timeout": 100, "retry": {"budget": 3}}"#,
        r#""clients": {"population": 4, "timeout": 100, "retry": {"backoff": []}}"#,
        r#""cc": {"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0,
                               "policy": {"shadow_score": "fast"}}}"#,
        r#""columns": [{"settling_time_s": 5}]"#,
        r#""columns": [{"post_switch_settling_time_s": 5}]"#,
    ] {
        let msg = parse_err(bad);
        assert!(msg.contains("must be an object"), "{bad}: {msg}");
    }
}

#[test]
fn repeated_keys_are_rejected() {
    // The last one used to win silently.
    for (bad, section) in [
        (r#""horizon_ms": 2.0"#, "spec"),
        (r#""clients": {"population": 4, "population": 8, "timeout": 100}"#, "clients"),
        (r#""system": {"terminals": 5, "terminals": 50}"#, "system"),
        (r#""quick": {"seed": 1, "seed": 2}"#, "quick"),
        (r#""controller": {"pa": {"alpha": 0.5, "alpha": 0.9}}"#, "controller.pa"),
        (r#""workload": {"k": {"step": {"at": 1, "at": 2, "before": 4, "after": 8}}}"#, "step"),
        (
            r#""faults": [{"at": 1.0, "cpus_down": 1, "repair":
                           {"erlang": {"stages": 2, "mean": 5.0, "mean": 9.0}}}]"#,
            // The derive shim names the type and the key.
            "`Erlang` gives `mean`",
        ),
    ] {
        let msg = parse_err(bad);
        assert!(msg.contains("twice") && msg.contains(section), "{bad}: {msg}");
    }
}

#[test]
fn unknown_key_errors_list_the_known_keys() {
    let msg = parse_err(r#""clients": {"population": 4, "timeout": 100, "patience": 3}"#);
    assert!(msg.contains("unknown `clients` key `patience`"), "{msg}");
    assert!(msg.contains("known: population, timeout, max_retries"), "{msg}");
    // A profile field, and a canonical distribution field that only the
    // derive shim reads.
    let msg = parse_err(
        r#""workload": {"k": {"step": {"at": 1, "before": 4, "after": 8, "aftr": 9}}}"#,
    );
    assert!(msg.contains("unknown `step` key `aftr`"), "{msg}");
    let msg = parse_err(r#""system": {"think": {"ExpZig": {"mean": 300, "men": 3}}}"#);
    // The derive shim's own wording, under the section's name.
    assert!(
        msg.contains("invalid `system`: `ExpZig` has no key `men` (known: mean)"),
        "{msg}"
    );
}

#[test]
fn empty_retry_payloads_are_the_defaults() {
    let v: Value = serde_json::from_str(r#"{"backoff": {}}"#).unwrap();
    assert_eq!(retry_policy_from_value(&v).unwrap(), RetryPolicy::default());
}

#[test]
fn controller_specs_parse_with_partial_params() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "c", "horizon_ms": 1.0,
            "controller": {"is": {"initial_bound": 5, "max_bound": 60}}}"#,
    )
    .unwrap();
    let ControllerSpec::Is(p) = spec.controller else {
        panic!("wrong controller");
    };
    assert_eq!(p.initial_bound, 5);
    assert_eq!(p.max_bound, 60);
    // Unspecified fields keep the crate defaults.
    assert_eq!(p.beta, IsParams::default().beta);
}

#[test]
fn cc_aliases_parse() {
    for (alias, want) in [
        ("certification", CcKind::Certification),
        ("2pl", CcKind::TwoPhaseLocking),
        ("wound-wait", CcKind::WoundWait),
        ("mvto", CcKind::Multiversion),
        ("Certification", CcKind::Certification),
    ] {
        let json = format!(r#"{{"name": "c", "horizon_ms": 1.0, "cc": "{alias}"}}"#);
        let spec: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec.cc, want, "{alias}");
    }
}

#[test]
fn truncating_and_mistyped_integers_are_rejected() {
    for bad in [
        // u32 truncation: 2^32 would silently become 0.
        r#"{"name": "x", "horizon_ms": 1.0, "replications": 4294967296}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "controller": {"fixed": {"bound": 4294967296}}}"#,
        r#"{"name": "x", "horizon_ms": 1.0,
            "controller": {"fixed_analytic_optimum": {"n_max": 4294967296}}}"#,
        r#"{"name": "x", "horizon_ms": 1.0,
            "controller": {"tay": {"k": 4294967296, "max_bound": 60}}}"#,
        // Present-but-mistyped optional fields must error, not
        // silently keep their defaults.
        r#"{"name": "x", "horizon_ms": 1.0,
            "controller": {"fixed_analytic_optimum": {"at_ms": "1e6", "n_max": 100}}}"#,
        r#"{"name": "x", "horizon_ms": 1.0,
            "controller": {"tay": {"k": 4, "min_bound": "two", "max_bound": 60}}}"#,
    ] {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
        assert!(r.is_err(), "accepted bad spec {bad}");
    }
}

#[test]
fn variant_names_are_filename_safe() {
    for bad in ["cc/2pl", "", "a b"] {
        let json = format!(
            r#"{{"name": "x", "horizon_ms": 1.0, "variants": [{{"name": "{bad}"}}]}}"#
        );
        let r: Result<ScenarioSpec, _> = serde_json::from_str(&json);
        assert!(r.is_err(), "accepted variant name `{bad}`");
    }
    // The dot stays legal: `iyer-0.75` is a real ported label.
    let ok: ScenarioSpec = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0, "variants": [{"name": "iyer-0.75"}]}"#,
    )
    .unwrap();
    assert_eq!(ok.variants[0].name, "iyer-0.75");
}

#[test]
fn open_arrival_rejects_stray_keys() {
    let r: Result<ScenarioSpec, _> = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"arrival": {"open": {
                "interarrival": {"exponential": 5}, "rate_per_s": 200}}}}"#,
    );
    assert!(r.is_err(), "stray `rate_per_s` key silently dropped");
}

#[test]
fn offered_load_lowers_to_interarrival_mean() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"terminals": 80, "offered_load_per_s": 250}}"#,
    )
    .unwrap();
    let sys: SystemConfig = crate::value_util::from_overrides(&spec.system, "system").unwrap();
    let alc_tpsim::config::ArrivalProcess::Open { interarrival } = sys.arrival else {
        panic!("offered load must lower to an open arrival stream");
    };
    assert_eq!(interarrival, alc_des::dist::Dist::exponential(4.0));

    // Both arrival vocabularies at once are ambiguous.
    let r: Result<ScenarioSpec, _> = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"arrival": "closed", "offered_load_per_s": 250}}"#,
    );
    assert!(r.is_err(), "conflicting arrival sources accepted");
    // And the rate must be a positive number.
    let r: Result<ScenarioSpec, _> = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"offered_load_per_s": "fast"}}"#,
    );
    assert!(r.is_err());
}

#[test]
fn seed_belongs_at_top_level() {
    let r: Result<ScenarioSpec, _> = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0, "system": {"seed": 42}}"#,
    );
    assert!(r.is_err());
}

#[test]
fn cross_field_validations_reject_unsatisfiable_specs() {
    for (bad, why) in [
        (
            r#"{"name": "x", "horizon_ms": 1.0, "columns": [{"input": "alpha"}]}"#,
            "input column without variants",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0, "label_from": "alpha"}"#,
            "label_from without variants",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "variants": [{"name": "a"}],
                "columns": [{"input": "alpha"}]}"#,
            "input column with no matching cell",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "columns": ["post_jump_tracking_err"]}"#,
            "tracking column without record_optimum",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "variants": [{"name": "a"}],
                "sweep": {"axes": [{"header": "h", "path": "cc",
                                    "values": ["2pl"]}]}}"#,
            "sweep and variants together",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "sweep": {"axes": [{"header": "h", "path": "system.terminals",
                                    "values": [5, 5]}]}}"#,
            "duplicate axis labels collapse cells",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "cc": {"phases": [[100.0, "2pl"]]}}"#,
            "cc phases must start at 0",
        ),
        (
            r#"{"name": "x", "horizon_ms": 1.0,
                "faults": [{"at": 1.0, "cpus_down": 2}]}"#,
            "fault without duration",
        ),
    ] {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
        assert!(r.is_err(), "accepted bad spec ({why}): {bad}");
    }
}

#[test]
fn cc_phases_parse_and_split() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "x", "horizon_ms": 1.0,
            "cc": {"phases": [[0.0, "certification"], [500.0, "2pl"]]}}"#,
    )
    .unwrap();
    assert_eq!(spec.cc, CcKind::Certification);
    assert_eq!(spec.cc_phases, vec![(500.0, CcKind::TwoPhaseLocking)]);
}

#[test]
fn adaptive_cc_parses_and_pins_initial_protocol() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "a", "horizon_ms": 1.0,
            "cc": {"adaptive": {
                "candidates": ["certification", "2pl"],
                "policy": {"conflict_threshold": {"threshold": 0.8}},
                "min_dwell_s": 30.0,
                "cooldown_s": 4.0,
                "hysteresis": 0.2}}}"#,
    )
    .unwrap();
    assert_eq!(spec.cc, CcKind::Certification);
    assert!(spec.cc_phases.is_empty());
    let ad = spec.cc_adaptive.expect("adaptive section");
    assert_eq!(
        ad.candidates,
        vec![CcKind::Certification, CcKind::TwoPhaseLocking]
    );
    assert_eq!(
        ad.policy,
        MetaPolicySpec::Ladder {
            signal: LadderSignal::ConflictsPerTxn,
            threshold: 0.8,
            ewma_weight: 0.3
        }
    );
    assert_eq!(ad.min_dwell_s, 30.0);
    let (candidates, policy) = ad.build();
    assert_eq!(candidates.len(), 2);
    assert_eq!(policy.candidate_count(), 2);
}

#[test]
fn adaptive_cc_rejects_malformed_sections() {
    let with_cc = |cc: &str| format!(r#"{{"name": "a", "horizon_ms": 1.0, "cc": {cc}}}"#);
    // Each case names the rule it breaks: the policy's own `check` under
    // the full path of its key, or the reader's key and duplicate rules.
    for (bad, names) in [
        (
            r#"{"adaptive": {"candidates": ["2pl"],
                "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
            "cc.adaptive.candidates must number at least 2",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "2pl"],
                "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
            "duplicate adaptive candidate `2pl`",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0}}"#,
            "policy",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"shadow_score": {}}}}"#,
            "min_dwell_s",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"shadow_score": {"threshold": 1.0}}, "min_dwell_s": 1.0}}"#,
            "threshold",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"restart_rate": {"threshold": 1.5}}, "min_dwell_s": 1.0}}"#,
            "cc.adaptive.policy.restart_rate.threshold must be < 1",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"conflict_threshold": {"threshold": 0.0}}, "min_dwell_s": 1.0}}"#,
            "cc.adaptive.policy.conflict_threshold.threshold must be positive and finite",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"shadow_score": {"ewma_weight": 0.0}}, "min_dwell_s": 1.0}}"#,
            "cc.adaptive.policy.shadow_score.ewma_weight must lie in (0, 1]",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"conflict_threshold": {"threshold": 0.5}},
                "min_dwell_s": 1.0, "hysteresis": 1.0}}"#,
            "cc.adaptive.hysteresis must lie in [0, 1)",
        ),
        (
            r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                "policy": {"conflict_threshold": {"threshold": 0.5}},
                "min_dwell_s": 1.0, "dwell": 2.0}}"#,
            "dwell",
        ),
    ] {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(&with_cc(bad));
        let err = r.expect_err(bad).to_string();
        assert!(err.contains(names), "{bad}: `{err}` does not name `{names}`");
    }
}

#[test]
fn adaptive_cc_is_set_addressable() {
    // `--set cc.adaptive.min_dwell_s=5` must reach into the section.
    let mut tree: Value = serde_json::from_str(
        r#"{"name": "a", "horizon_ms": 1.0,
            "cc": {"adaptive": {
                "candidates": ["certification", "2pl"],
                "policy": {"conflict_threshold": {"threshold": 0.8}},
                "min_dwell_s": 30.0}}}"#,
    )
    .unwrap();
    crate::value_util::set_path(&mut tree, "cc.adaptive.min_dwell_s", Value::Num(5.0))
        .unwrap();
    crate::value_util::set_path(
        &mut tree,
        "cc.adaptive.policy.conflict_threshold.threshold",
        Value::Num(2.5),
    )
    .unwrap();
    let spec = ScenarioSpec::from_value(&tree).unwrap();
    let ad = spec.cc_adaptive.unwrap();
    assert_eq!(ad.min_dwell_s, 5.0);
    assert_eq!(
        ad.policy,
        MetaPolicySpec::Ladder {
            signal: LadderSignal::ConflictsPerTxn,
            threshold: 2.5,
            ewma_weight: 0.3
        }
    );
}

#[test]
fn switch_derived_columns_parse_and_format() {
    let spec: ScenarioSpec = serde_json::from_str(
        r#"{"name": "a", "horizon_ms": 1.0, "columns": [
            "switch_count",
            {"time_in_protocol": {"cc": "2pl"}},
            {"time_in_protocol": {"cc": "mvto", "header": "mvto_s"}},
            "post_switch_settling_time_s",
            {"post_switch_settling_time_s": {"band": 0.1, "header": "settle"}}
        ]}"#,
    )
    .unwrap();
    let headers: Vec<String> = spec.columns.iter().map(ColumnSpec::header).collect();
    assert_eq!(
        headers,
        vec![
            "switch_count",
            "time_in_protocol:2pl",
            "mvto_s",
            "post_switch_settling_time_s",
            "settle"
        ]
    );
    assert!(spec.columns.iter().all(ColumnSpec::needs_trajectories));
    assert!(!spec.columns.iter().any(ColumnSpec::needs_optimum));

    // Format against a synthetic trace: cert for 0–10 s, 2pl after.
    use alc_tpsim::engine::SwitchEvent;
    let mut traj = Trajectories::new();
    traj.switches.push(SwitchEvent {
        decided_at_ms: 9_000.0,
        completed_at_ms: 10_000.0,
        from: CcKind::Certification,
        to: CcKind::TwoPhaseLocking,
    });
    for i in 0..20 {
        let t = alc_des::SimTime::new(f64::from(i) * 1_000.0);
        // Throughput recovers to 100 (±1) three samples after the swap.
        let v = if i < 13 { 40.0 } else { 100.0 + f64::from(i % 2) };
        traj.throughput.push(t, v);
    }
    let fmt = |col: &ColumnSpec| match col {
        ColumnSpec::Derived(d) => d.format(&traj, 20_000.0, CcKind::Certification),
        _ => unreachable!(),
    };
    assert_eq!(fmt(&spec.columns[0]), "1");
    // 2pl in force from the swap at 10 s to the 20 s horizon.
    assert_eq!(fmt(&spec.columns[1]), "10.0");
    assert_eq!(fmt(&spec.columns[2]), "0");
    // Settles when throughput reaches the final-quarter level at 13 s.
    assert_eq!(fmt(&spec.columns[3]), "3.00");
}

#[test]
fn stat_columns_cover_run_stats() {
    let stats = RunStats {
        duration_ms: 1000.0,
        commits: 10,
        aborts: 2,
        throughput_per_sec: 10.0,
        mean_response_ms: 55.5,
        mean_mpl: 3.3,
        mean_bound: 8.0,
        abort_ratio: 1.0 / 6.0,
        cpu_utilization: 0.5,
        displaced: 1,
        conflicts_per_commit: 0.2,
        lost: 0,
    };
    assert_eq!(StatColumn::Commits.format(&stats), "10");
    assert_eq!(StatColumn::Displaced.format(&stats), "1");
    assert_eq!(StatColumn::ThroughputPerS.format(&stats), "10.0");
    for c in StatColumn::ALL {
        assert_eq!(StatColumn::parse(c.name()).unwrap(), c);
    }
}
