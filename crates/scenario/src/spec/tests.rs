#![cfg(test)]
//! Unit tests of the spec reader. A file of its own so `spec.rs` reads
//! as the model; still `spec::tests`, so every test keeps its id.

use alc_core::controller::IsParams;
use alc_tpsim::client::RetryPolicy;
use alc_tpsim::engine::{RunStats, Trajectories};

use super::sections::retry_policy_from_value;
use super::*;
use crate::SpecError;

/// Reads a spec from its JSON text, `trace` paths relative to `.`.
fn read(json: &str) -> Result<ScenarioSpec, SpecError> {
    let tree: Value = serde_json::from_str(json).map_err(|e| SpecError::new(e.to_string()))?;
    ScenarioSpec::from_value(&tree, Path::new("."))
}

#[test]
fn minimal_spec_parses_with_defaults() {
    let spec = read(r#"{"name": "mini", "horizon_ms": 1000.0}"#).unwrap();
    assert_eq!(spec.name, "mini");
    assert_eq!(spec.cell.replications, 1);
    assert_eq!(spec.cell.cc, CcSpec::Fixed(CcKind::Certification));
    assert_eq!(spec.cell.controller, ControllerSpec::None);
    assert_eq!(spec.cell.workload, WorkloadConfig::default());
    assert!(!spec.cell.record_optimum);
}

#[test]
fn unknown_keys_are_rejected_everywhere() {
    for bad in [
        r#"{"name": "x", "horizon_ms": 1.0, "horizn": 2.0}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "workload": {"kk": 8}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "system": {"terminal": 4}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "control": {"displacment": true}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "controller": {"is": {"beta2": 1}}}"#,
        r#"{"name": "x", "horizon_ms": 1.0, "columns": ["throughputt"]}"#,
    ] {
        let r = read(bad);
        assert!(r.is_err(), "accepted bad spec {bad}");
    }
}

fn parse_err(body: &str) -> String {
    let json = format!(r#"{{"name": "x", "horizon_ms": 1.0, {body}}}"#);
    match read(&json) {
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
        r#""clients": {"population": 4, "timeout": 100, "retry": {"backoff": []}}"#,
        r#""cc": {"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0,
                               "policy": {"shadow_score": "fast"}}}"#,
        r#""columns": [{"settling_time_s": 5}]"#,
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
            "`faults[].repair.erlang` gives `mean`",
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
    // A profile field, and a distribution's.
    let msg = parse_err(
        r#""workload": {"k": {"step": {"at": 1, "before": 4, "after": 8, "aftr": 9}}}"#,
    );
    assert!(msg.contains("unknown `step` key `aftr`"), "{msg}");
    let msg = parse_err(r#""system": {"think": {"erlang": {"stages": 2, "mean": 3, "men": 3}}}"#);
    assert!(
        msg.contains("unknown `system.think.erlang` key `men` (known: stages, mean)"),
        "{msg}"
    );
    // Keys and tags that no checked-in spec used, and that went.
    for (bad, known) in [
        (r#""timeout": 100, "feedback": {}"#, "`clients` key `feedback` (known: population,"),
        (r#""timeout": 100, "retry": {"hedged": {}}"#, "key `hedged` (known: backoff)"),
        (r#""timeout": 100, "retry": {"budget": {}}"#, "`clients.retry` key `budget` (known: backoff)"),
        (r#""timeout": {"uniform": [1, 2]}"#, "key `uniform` (known: constant, exponential, erlang)"),
        (r#""timeout": {"hyperexp": {}}"#, "key `hyperexp` (known: constant, exponential, erlang)"),
        (r#""timeout": {"exponential_fast": 5}"#, "key `exponential_fast` (known: constant,"),
    ] {
        let msg = parse_err(&format!(r#""clients": {{"population": 4, {bad}}}"#));
        assert!(msg.contains(known), "{bad}: {msg}");
    }
    for (bad, known) in [
        (r#""controller": {"pa": {"min_curvature": 0.1}}"#, "`controller.pa` key `min_curvature`"),
        (r#""controller": {"self_tuning_pa": {"outer": {}}}"#, "key `outer` (known: pa)"),
        (r#""workload": {"k": {"constant": 8}}"#, "`profile` key `constant` (known: step,"),
        (r#""columns": [{"post_switch_settling_time_s": {}}]"#, "key `post_switch_settling_time_s`"),
        (r#""cc": {"phase": []}"#, "unknown `cc` key `phase` (known: phases, adaptive)"),
        (r#""cc": {"adaptiv": {}}"#, "unknown `cc` key `adaptiv` (known: phases, adaptive)"),
        (r#""controller": "lms""#, "unknown `controller` key `lms` (known: none, unlimited)"),
        (r#""controller": "is""#, r#"`controller` `is` is an object: write it {"is": {}}"#),
        // The engine types' own spellings, which a serialize-and-read-back
        // round trip used to accept beside the DSL's.
        (
            r#""system": {"think": {"ExpZig": {"mean": 300}}}"#,
            "unknown `system.think` key `ExpZig` (known: constant, exponential, erlang)",
        ),
        (
            r#""system": {"cpu_phase": {"Exponential": {"mean": 4}}}"#,
            "unknown `system.cpu_phase` key `Exponential` (known: constant, exponential, erlang)",
        ),
        (
            r#""system": {"disk_access": {"Uniform": {"lo": 1, "hi": 2}}}"#,
            "unknown `system.disk_access` key `Uniform` (known: constant, exponential, erlang)",
        ),
        (
            r#""system": {"think": {"HyperExp": {"p": 0.5, "mean_a": 1, "mean_b": 9}}}"#,
            "unknown `system.think` key `HyperExp` (known: constant, exponential, erlang)",
        ),
        (
            r#""system": {"arrival": "Closed"}"#,
            "unknown `system.arrival` key `Closed` (known: closed, open, open_rate_per_s)",
        ),
        (
            r#""system": {"arrival": {"Open": {"interarrival": 5}}}"#,
            "unknown `system.arrival` key `Open` (known: closed, open, open_rate_per_s)",
        ),
        (
            r#""controller": {"pa": {"fallback": "HoldLast"}}"#,
            "unknown `controller.pa` key `fallback` (known: initial_bound, min_bound,",
        ),
        (
            r#""controller": {"pa": {"reset_after_convex": 2}}"#,
            "unknown `controller.pa` key `reset_after_convex` (known: initial_bound,",
        ),
        (
            r#""control": {"indicator": "throughput"}"#,
            "unknown `control.indicator` key `throughput` (known: Throughput, Inverse",
        ),
        (
            r#""control": {"victim_policy": "youngest"}"#,
            "unknown `control.victim_policy` key `youngest` (known: Youngest, Oldest,",
        ),
    ] {
        let msg = parse_err(bad);
        assert!(msg.contains(known), "{bad}: {msg}");
    }
}

#[test]
fn empty_retry_payloads_are_the_defaults() {
    let v: Value = serde_json::from_str(r#"{"backoff": {}}"#).unwrap();
    assert_eq!(retry_policy_from_value(&v).unwrap(), RetryPolicy::default());
}

#[test]
fn controller_specs_parse_with_partial_params() {
    let spec = read(
        r#"{"name": "c", "horizon_ms": 1.0,
            "controller": {"is": {"initial_bound": 5, "max_bound": 60}}}"#,
    )
    .unwrap();
    let ControllerSpec::Is(p) = spec.cell.controller else {
        panic!("wrong controller");
    };
    assert_eq!(p.initial_bound, 5);
    assert_eq!(p.max_bound, 60);
    // Unspecified fields keep the crate defaults.
    assert_eq!(p.beta, IsParams::default().beta);
}

#[test]
fn cc_aliases_parse() {
    // Each protocol has one spelling, its `cc_spec_name`.
    for cc in CcKind::ALL {
        let json = format!(r#"{{"name": "c", "horizon_ms": 1.0, "cc": "{}"}}"#, cc_spec_name(cc));
        assert_eq!(read(&json).unwrap().cell.cc, CcSpec::Fixed(cc), "{}", cc_spec_name(cc));
    }
    // Any other spelling is unknown, the engine's variant names too.
    for alias in ["Certification", "cert", "occ", "two-phase-locking", "to", "multiversion"] {
        let msg = parse_err(&format!(r#""cc": "{alias}""#));
        assert!(
            msg.contains(&format!("unknown `cc` key `{alias}` (known: certification, 2pl,")),
            "{alias}: {msg}"
        );
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
        let r = read(bad);
        assert!(r.is_err(), "accepted bad spec {bad}");
    }
}

#[test]
fn variant_names_are_filename_safe() {
    for bad in ["cc/2pl", "", "a b"] {
        let json = format!(
            r#"{{"name": "x", "horizon_ms": 1.0, "variants": [{{"name": "{bad}"}}]}}"#
        );
        let r = read(&json);
        assert!(r.is_err(), "accepted variant name `{bad}`");
    }
    // The dot stays legal: `iyer-0.75` is a real ported label.
    let ok =
        read(r#"{"name": "x", "horizon_ms": 1.0, "variants": [{"name": "iyer-0.75"}]}"#).unwrap();
    assert_eq!(ok.variants[0].name, "iyer-0.75");
}

#[test]
fn open_arrival_rejects_stray_keys() {
    let r = read(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"arrival": {"open": {
                "interarrival": {"exponential": 5}, "rate_per_s": 200}}}}"#,
    );
    assert!(r.is_err(), "stray `rate_per_s` key silently dropped");
}

#[test]
fn offered_load_lowers_to_interarrival_mean() {
    let spec = read(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"terminals": 80, "offered_load_per_s": 250}}"#,
    )
    .unwrap();
    let alc_tpsim::config::ArrivalProcess::Open { interarrival } = spec.cell.system.arrival else {
        panic!("offered load must lower to an open arrival stream");
    };
    assert_eq!(interarrival, alc_des::dist::Dist::exponential(4.0));

    // Both arrival vocabularies at once are ambiguous.
    let r = read(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"arrival": "closed", "offered_load_per_s": 250}}"#,
    );
    assert!(r.is_err(), "conflicting arrival sources accepted");
    // And the rate must be a positive number.
    let r = read(
        r#"{"name": "x", "horizon_ms": 1.0,
            "system": {"offered_load_per_s": "fast"}}"#,
    );
    assert!(r.is_err());
}

#[test]
fn think_reads_its_mean_as_written_and_the_config_check_rules() {
    // A zero mean has always been a legal think time: it reads, and runs.
    let with_think = |think: &str| {
        format!(
            r#"{{"name": "x", "horizon_ms": 2000.0, "control": {{"warmup_ms": 0}},
                "system": {{"terminals": 4, "think": {think}}}}}"#
        )
    };
    let tree: Value = serde_json::from_str(&with_think(r#"{"exponential": 0}"#)).unwrap();
    let plan = crate::compile::compile_value(&tree, Path::new("."), false)
        .expect("a zero-mean think time compiles");
    let stats = plan.variants[0].simulator(0).run_until(2000.0);
    assert!(stats.commits > 0, "no commit in 2 s");
    // A negative mean is the config's `check()` to refuse, by field.
    let msg = read(&with_think(r#"{"exponential": -1}"#)).unwrap_err().to_string();
    assert!(msg.contains("system.think must draw finite delays"), "{msg}");
}

#[test]
fn seed_belongs_at_top_level() {
    let r = read(r#"{"name": "x", "horizon_ms": 1.0, "system": {"seed": 42}}"#);
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
        let r = read(bad);
        assert!(r.is_err(), "accepted bad spec ({why}): {bad}");
    }
}

#[test]
fn cc_phases_parse_and_split() {
    let spec = read(
        r#"{"name": "x", "horizon_ms": 1.0,
            "cc": {"phases": [[0.0, "certification"], [500.0, "2pl"]]}}"#,
    )
    .unwrap();
    assert_eq!(spec.cell.cc.initial(), CcKind::Certification);
    assert_eq!(
        spec.cell.cc,
        CcSpec::Phases(vec![(0.0, CcKind::Certification), (500.0, CcKind::TwoPhaseLocking)])
    );
}

#[test]
fn adaptive_cc_parses_and_pins_initial_protocol() {
    let spec = read(
        r#"{"name": "a", "horizon_ms": 1.0,
            "cc": {"adaptive": {
                "candidates": ["certification", "2pl"],
                "policy": {"conflict_threshold": {"threshold": 0.8}},
                "min_dwell_s": 30.0,
                "cooldown_s": 4.0,
                "hysteresis": 0.2}}}"#,
    )
    .unwrap();
    assert_eq!(spec.cell.cc.initial(), CcKind::Certification);
    let CcSpec::Adaptive(ad) = spec.cell.cc else {
        panic!("adaptive section read as {:?}", spec.cell.cc);
    };
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
    assert_eq!(ad.guard.min_dwell_ms, 30_000.0);
    assert_eq!(ad.guard.cooldown_ms, 4_000.0);
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
        let r = read(&with_cc(bad));
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
    let spec = ScenarioSpec::from_value(&tree, Path::new(".")).unwrap();
    let CcSpec::Adaptive(ad) = spec.cell.cc else {
        panic!("adaptive section read as {:?}", spec.cell.cc);
    };
    assert_eq!(ad.guard.min_dwell_ms, 5_000.0);
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
    let spec = read(
        r#"{"name": "a", "horizon_ms": 1.0, "columns": [
            "switch_count",
            {"time_in_protocol": {"cc": "2pl"}},
            {"time_in_protocol": {"cc": "mvto", "header": "mvto_s"}},
            "post_switch_settling_time_s"
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
            "post_switch_settling_time_s"
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
    let column = |name| StatColumn::parse(name).unwrap();
    assert_eq!(column("commits").format(&stats), "10");
    assert_eq!(column("displaced").format(&stats), "1");
    assert_eq!(column("throughput_per_s").format(&stats), "10.0");
    for c in StatColumn::ALL {
        assert_eq!(StatColumn::parse(c.name()).unwrap(), c);
    }
}

/// A setting stays only while a checked-in spec sets it. Compiling
/// every `scenarios/*.json` at both scales (variant and `quick` override
/// paths and sweep values landed, as a run lands them) records what the
/// reader takes where it reads it, and the test names:
/// - a tag of a tagged-union table that no spec writes in that table's
///   own position (`constant` as a distribution does not keep it as a
///   profile);
/// - a key of a `controller` tag's parameters or of a `clients.retry`
///   policy that no spec gives. A parameter object's keys pool under its
///   own key wherever it is read, so `beta` counts alike under `is`,
///   `hybrid.is` and `self_tuning_is.is`.
#[test]
fn every_tag_and_parameter_key_is_set_by_a_checked_in_spec() {
    use std::collections::{BTreeMap, BTreeSet};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut specs = 0;
    let reads = crate::value_util::reads::recording(|| {
        for entry in std::fs::read_dir(&dir).expect("scenarios/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).expect("read spec");
                let v: Value = serde_json::from_str(&text).expect("parse spec");
                for quick in [false, true] {
                    crate::compile::compile_value(&v, &dir, quick)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                }
                specs += 1;
            }
        }
    });
    assert!(specs > 0, "no spec read from {}", dir.display());
    let mut unused: Vec<String> = [
        ("CC_FORMS", sections::CC_FORMS),
        ("CONTROLLER", sections::CONTROLLER),
        ("POLICY", sections::POLICY),
        ("RETRY", sections::RETRY),
        ("COLUMN", columns::COLUMN),
        ("PROFILE", crate::profile::PROFILE),
        ("DIST", crate::value_util::DIST),
    ]
    .into_iter()
    .flat_map(|(name, table)| table.iter().map(move |tag| (name, table, *tag)))
    .filter(|&(_, table, tag)| !reads.tags.iter().any(|(t, g)| *t == table && g == tag))
    .map(|(name, _, tag)| format!("{name} `{tag}`"))
    .collect();
    // Per group: the sections it was read at, its known and given keys.
    type Group<'r> = (BTreeSet<&'r str>, BTreeSet<&'r str>, BTreeSet<&'r str>);
    let mut groups: BTreeMap<&str, Group<'_>> = BTreeMap::new();
    let in_scope = |s: &str| s.starts_with("controller.") || s.starts_with("clients.retry.");
    for read in reads.keys.iter().filter(|r| in_scope(&r.section)) {
        let group = read.section.rsplit('.').next().unwrap_or_default();
        let g = groups.entry(group).or_default();
        g.0.insert(&read.section);
        g.1.extend(read.known.iter().map(String::as_str));
        g.2.extend(read.given.iter().map(String::as_str));
    }
    assert!(groups.len() > 1, "no controller or retry section read");
    for (sections, known, given) in groups.values() {
        let at = sections
            .iter()
            .min_by_key(|s| (s.len(), **s))
            .expect("read somewhere");
        unused.extend(known.difference(given).map(|key| format!("KEY `{at}.{key}`")));
    }
    assert!(
        unused.is_empty(),
        "no spec in scenarios/ sets {}",
        unused.join(", ")
    );
}

/// `scenario --help` lists the vocabulary and types no name of it: each
/// bare name it lists reads through the reader, and each tag is in the
/// reader's table for that position.
#[test]
fn every_name_the_vocabulary_lists_is_one_the_reader_reads() {
    use super::columns::{column_from_value, COLUMN};
    use super::sections::{
        cc_from_value, control_from_value, controller_from_value, CC_FORMS, CONTROLLER, POLICY,
        RETRY,
    };
    use crate::profile::PROFILE;
    use crate::value_util::{arrival_process, At, ARRIVAL, DIST};
    let control = |key: &str, bare: &Value| {
        control_from_value(&Value::Map(vec![(key.to_string(), bare.clone())])).is_ok()
    };
    let mut rows: Vec<(String, String)> = Vec::new();
    for line in vocabulary().lines() {
        let (label, names) = line.split_at(VOCABULARY_INDENT);
        match rows.last_mut() {
            Some(row) if label.trim().is_empty() => row.1 += names,
            _ => rows.push((label.trim().to_string(), names.to_string())),
        }
    }
    let mut listed = 0;
    for (label, names) in &rows {
        let mut rest = names.as_str();
        while let Some(open) = rest.find('"') {
            let close = open + 1 + rest[open + 1..].find('"').expect("closing quote");
            let name = &rest[open + 1..close];
            let tagged = rest[..open].ends_with('{');
            rest = &rest[close + 1..];
            listed += 1;
            let bare = Value::Str(name.to_string());
            let ok = match (label.as_str(), tagged) {
                ("controller", false) => controller_from_value(&bare).is_ok(),
                ("controller", true) => CONTROLLER.contains(&name),
                ("cc", false) => cc_from_value(&bare).is_ok(),
                ("cc", true) => CC_FORMS.contains(&name),
                ("cc.adaptive.policy", true) => POLICY.contains(&name),
                ("clients.retry", true) => RETRY.contains(&name),
                ("arrival", false) => arrival_process(&bare, At("system", "arrival")).is_ok(),
                ("arrival", true) => ARRIVAL.contains(&name),
                ("control.indicator", false) => control("indicator", &bare),
                ("control.victim_policy", false) => control("victim_policy", &bare),
                ("profile", true) => PROFILE.contains(&name),
                ("distribution", true) => DIST.contains(&name),
                (_, false) if label.ends_with("columns") => column_from_value(&bare).is_ok(),
                ("other columns", true) => COLUMN.contains(&name),
                _ => false,
            };
            assert!(ok, "`{label}` lists `{name}`, which its reader does not read");
        }
    }
    assert_eq!(rows.len(), 12, "{rows:?}");
    assert!(listed > 50, "only {listed} names listed");
}
