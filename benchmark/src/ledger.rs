//! The ledger's vocabulary: every metric's name, unit and direction, in
//! the order they are printed. `BENCHMARK.json` lists the same metrics;
//! a test holds the two together.

use alc_tpsim::config::CcKind;

use crate::engine::Regime;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system pays; measured with harness tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", "lower"),
        def("cpu_s", "s", "lower"),
        def("work_per_s", "1/s", "higher"),
        def("peak_rss_mb", "MB", "lower"),
        def("setup_s", "s", "lower"),
    ]
}

/// One cost per layer; measured by the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    let ns = |v: &mut Vec<MetricDef>, name: &str| v.push(def(name, "ns", "lower"));

    for name in [
        "des.calendar.op_ns",
        "des.dist.exp_zig_ns",
        "des.dist.exp_inverse_ns",
        "des.dist.zipf_ns",
        "des.rng.distinct_below_ns",
    ] {
        ns(&mut v, name);
    }
    for cc in CcKind::ALL {
        ns(&mut v, &format!("tpsim.cc.{}.cycle_ns", cc.name()));
    }
    for name in [
        "tpsim.cc.2pl.deadlock_check_ns",
        "tpsim.cc.wound-wait.victim_scan_ns",
        "tpsim.cc.multiversion.deep_read_ns",
        "tpsim.gate.arrive_depart_ns",
        "tpsim.engine.event_ns.sink_none",
        "tpsim.engine.event_ns.sink_counting",
        "tpsim.engine.event_ns.sink_chrome",
        "tpsim.engine.event_ns.gatelog",
        "core.sampler.commit_harvest_ns",
    ] {
        ns(&mut v, name);
    }
    for c in [
        "is",
        "pa",
        "hybrid",
        "self_tuning_is",
        "self_tuning_pa",
        "retry_budget",
    ] {
        ns(&mut v, &format!("core.controller.{c}.update_ns"));
    }
    for name in [
        "core.estimator.rls3.update_ns",
        "core.gate.acquire_release_ns",
        "core.gate.try_acquire_refused_ns",
    ] {
        ns(&mut v, name);
    }
    v.push(def("serde_json.parse_mb_per_s", "MB/s", "higher"));
    for name in [
        "runtime.loopcore.commit_ns",
        "runtime.loopcore.harvest_ns",
        "runtime.telemetry.commit_ns",
        "runtime.law.paper_is.update_ns",
        "runtime.law.aimd.update_ns",
        "runtime.law.retry_budget.update_ns",
        "runtime.control.pair_ns.plain",
        "runtime.control.pair_ns.gatelog",
        "runtime.control.pair_ns.sink_counting",
        "runtime.control.pair_ns.sink_chrome",
        "runtime.log.event_line_ns",
    ] {
        ns(&mut v, name);
    }
    v.push(def("runtime.replay.events_per_s", "1/s", "higher"));
    ns(&mut v, "trace.counting.emit_ns");
    ns(&mut v, "trace.chrome.emit_ns");
    v.push(def("trace.chrome.bytes_per_event", "B", "lower"));

    // From the traced pass over the catalog.
    v.push(def("scenario.spec.read_ms", "ms", "lower"));
    v.push(def("scenario.compile.full_ms", "ms", "lower"));
    v.push(def("scenario.compile.quick_ms", "ms", "lower"));
    v.push(def("scenario.runner.run_plan_s", "s", "lower"));
    v.push(def("scenario.runner.cpu_s", "s", "lower"));
    v.push(def(
        "scenario.runner.parallel_efficiency",
        "ratio",
        "higher",
    ));
    v.push(def("scenario.runner.slowest_spec_s", "s", "lower"));
    v.push(def("scenario.report.emit_ms", "ms", "lower"));
    v.push(def("scenario.runner.cells", "count", "higher"));
    v.push(def("scenario.runner.commits", "count", "higher"));

    // From the traced pass over the engine cells.
    for cc in CcKind::ALL {
        for regime in Regime::ALL {
            v.push(def(
                format!("tpsim.engine.{}.{}.events_per_s", cc.name(), regime.name()),
                "1/s",
                "higher",
            ));
        }
    }
    v.push(def("tpsim.engine.events", "count", "lower"));
    v.push(def("tpsim.engine.commits", "count", "higher"));
    v.push(def("tpsim.engine.aborts", "count", "lower"));
    v.push(def("tpsim.engine.useful_ratio", "ratio", "higher"));

    // From the traced trials of the runtime workloads.
    for name in [
        "runtime.control.admit_ns",
        "runtime.control.complete_ns",
        "runtime.control.shed_ns",
        "runtime.control.tick_ns",
        "runtime.control.metrics_ns",
        "runtime.control.op_p50_ns",
        "runtime.control.op_p99_ns",
    ] {
        ns(&mut v, name);
    }
    v.push(def("runtime.control.shed_share", "ratio", "lower"));
    v.push(def("runtime.control.ticks", "count", "higher"));
    v.push(def("runtime.control.trial_spread", "ratio", "lower"));

    v.push(def("harness.trace_overhead", "ratio", "lower"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` is {other:?}"),
        }
    }

    /// `BENCHMARK.json` and the binary agree on every workload and every
    /// metric's name, unit and direction.
    #[test]
    fn benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: Value = serde_json::from_str(&text).unwrap();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(names, crate::Workload::ALL.map(crate::Workload::name));
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<[&str; 3]> = json
                .get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    [
                        str_field(m, "name"),
                        str_field(m, "unit"),
                        str_field(m, "better"),
                    ]
                })
                .collect();
            let ours: Vec<[&str; 3]> = defs
                .iter()
                .map(|d| [d.name.as_str(), d.unit, d.better])
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        for d in &all {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{d:?}"
            );
        }
    }
}
