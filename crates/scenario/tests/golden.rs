//! The workspace's one output-identity pin.
//!
//! `quick_catalog_outputs_are_byte_identical` writes what `scenario
//! figure --quick all` writes into `figure/`, and what `scenario run
//! --quick --gate-log D --out D scenarios/*.json` writes (every spec's
//! table, trajectories and gate logs) into `run/`. Each file is pinned
//! by its path: a figure's tables and trajectories, and the spec tables
//! the hand-written runners left, by their bytes in `tests/golden/`, so
//! a reviewer reads the diff; every other file by its line in
//! `tests/golden/OUTPUTS` (`fnv1a-64 bytes path`, the format of the
//! benchmark's frozen-catalog `MANIFEST`). The files produced must be
//! exactly the goldens and the `OUTPUTS` lines, no path may be both,
//! and a failure lists every path that is off. `direct_sim.jsonl` pins
//! a direct simulator run per CC protocol.
//!
//! `UPDATE_GOLDEN=1 cargo test -p alc-scenario --test golden` reblesses
//! goldens and `OUTPUTS` together, only for changes that intentionally
//! alter simulation results; say so in the commit message. A path with
//! a golden keeps it, and any other becomes an `OUTPUTS` line: to make
//! a new file a golden, copy it into `tests/golden/` first.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use alc_des::series::TimeSeries;
use alc_scenario::figures::{self, CATALOG};
use alc_scenario::runner::{self, GateLogRequest};
use alc_scenario::LoadedSpec;
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::{RunStats, Simulator};
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

const DIRECT_SIM: &str = "direct_sim.jsonl";
const OUTPUTS: &str = "OUTPUTS";

/// File contents by path relative to a root, `/`-separated.
type Files = BTreeMap<String, Vec<u8>>;

/// `OUTPUTS`: the `fnv1a-64 bytes` pin by path.
type Manifest = BTreeMap<String, String>;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The one golden directory of the workspace.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A file's `OUTPUTS` pin: its 64-bit FNV-1a digest and its length.
fn pin(bytes: &[u8]) -> String {
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{fnv1a:016x} {}", bytes.len())
}

/// Every file under `dir`, recursively, keyed by its relative path.
fn read_tree(dir: &Path) -> Files {
    let mut files = Files::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
        if path.is_dir() {
            let nested = read_tree(&path).into_iter();
            files.extend(nested.map(|(sub, bytes)| (format!("{name}/{sub}"), bytes)));
        } else {
            files.insert(name.to_string(), fs::read(&path).expect("read file"));
        }
    }
    files
}

/// Every way `produced` departs from its pins, one line per path, each
/// starting with the path.
fn mismatches(produced: &Files, goldens: &Files, outputs: &Manifest) -> Vec<String> {
    let mut found: Vec<String> = goldens
        .keys()
        .filter(|path| outputs.contains_key(*path))
        .map(|path| format!("{path}: both a golden and an {OUTPUTS} line"))
        .collect();
    for (path, bytes) in produced {
        let problem = match (goldens.get(path), outputs.get(path)) {
            (Some(golden), _) if golden != bytes => "differs from its golden".to_string(),
            (None, Some(line)) if *line != pin(bytes) => {
                format!("fnv1a/bytes {}; {OUTPUTS} has {line}", pin(bytes))
            }
            (None, None) => format!("produced, but neither a golden nor an {OUTPUTS} line"),
            _ => continue,
        };
        found.push(format!("{path}: {problem}"));
    }
    let listed = outputs.keys().filter(|p| !goldens.contains_key(*p));
    for path in goldens.keys().chain(listed) {
        if !produced.contains_key(path) {
            found.push(format!("{path}: pinned, but not produced"));
        }
    }
    found
}

/// The goldens of the `figure/` and `run/` files, and `OUTPUTS`.
fn read_pins() -> (Files, Manifest) {
    let mut goldens = read_tree(&golden_dir());
    goldens.remove(DIRECT_SIM);
    let outputs = String::from_utf8(goldens.remove(OUTPUTS).unwrap_or_default()).expect("utf-8");
    let line = |l: &str| {
        let (pin, path) = l
            .rsplit_once(' ')
            .expect("OUTPUTS lines read `digest bytes path`");
        (path.to_string(), pin.to_string())
    };
    let outputs = outputs.lines().filter(|l| !l.starts_with('#')).map(line);
    (goldens, outputs.collect())
}

/// Writes `produced` as the new pins (see the module doc).
fn bless(produced: &Files, goldens: &Files) {
    let mut outputs = String::from(
        "# fnv1a-64 bytes path — regenerate with `UPDATE_GOLDEN=1 cargo test -p alc-scenario --test golden`\n",
    );
    for (path, bytes) in produced {
        if goldens.contains_key(path) {
            fs::write(golden_dir().join(path), bytes).expect("write golden");
        } else {
            outputs.push_str(&format!("{} {path}\n", pin(bytes)));
        }
    }
    fs::write(golden_dir().join(OUTPUTS), outputs).expect("write OUTPUTS");
}

/// Every checked-in spec, in name order.
fn spec_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
}

/// Everything `scenario figure --quick all` and `scenario run --quick
/// --gate-log` over every spec write must match its pin. Every claim of
/// the quick catalog holds: each figure's paper result, measured on this
/// run, lies inside its stated band. Every quick cell of every spec
/// commits work.
#[test]
fn quick_catalog_outputs_are_byte_identical() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-actual");
    let _ = fs::remove_dir_all(&out);
    let (figure_dir, run_dir) = (out.join("figure"), out.join("run"));
    fs::create_dir_all(&figure_dir).expect("create output dir");
    let mut failed_claims = Vec::new();
    for fig in &CATALOG {
        let report = figures::run(fig, &scenarios_dir(), true, Some(&figure_dir))
            .unwrap_or_else(|e| panic!("{}: {e}", fig.0));
        report.write_csv(&figure_dir).expect("write csv");
        assert!(!report.claims.is_empty(), "{} checks no claim", fig.0);
        let failed = report
            .failed_claims()
            .map(|text| format!("{}: {text}", fig.0));
        failed_claims.extend(failed);
    }
    let gate_log = GateLogRequest {
        dir: run_dir.clone(),
        quick: true,
    };
    for path in spec_paths() {
        let plan = LoadedSpec::read(&path)
            .and_then(|loaded| loaded.compile(true))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let records = runner::run_plan_logged(&plan, Some(&gate_log)).expect("write gate logs");
        if let Some(r) = records.iter().find(|r| r.stats.commits == 0) {
            panic!("{}: cell `{}` starved (0 commits)", plan.name, r.label);
        }
        runner::build_report(&plan, &records)
            .write_csv(&run_dir)
            .expect("write csv");
        runner::write_trajectories(&plan, &records, &run_dir).expect("write trajectories");
    }

    let produced = read_tree(&out);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        bless(&produced, &read_pins().0);
    }
    let (goldens, outputs) = read_pins();
    let found = mismatches(&produced, &goldens, &outputs);
    assert!(
        found.is_empty(),
        "{} output(s) off their pins — the change altered simulation results \
         (rerun with UPDATE_GOLDEN=1 only if this was intentional). This run's \
         files are under {}; diff them against the goldens in {}:\n{}",
        found.len(),
        out.display(),
        golden_dir().display(),
        found.join("\n")
    );
    assert!(
        failed_claims.is_empty(),
        "claims outside their band:\n{}",
        failed_claims.join("\n")
    );
}

/// Direct engine runs (stats + controller trajectories) per CC protocol
/// must match the seed bytes: this pins the event order, the RNG draw
/// sequence and the lock-table grant order all at once.
#[test]
fn direct_sim_runs_are_byte_identical() {
    let mut blob = String::new();
    for cc in CcKind::ALL {
        let mut sim = Simulator::new(
            SystemConfig {
                terminals: 40,
                cpus: 4,
                db_size: 300,
                think: alc_des::dist::Dist::exponential(300.0),
                disk_access: alc_des::dist::Dist::constant(3.0),
                disk_init_commit: alc_des::dist::Dist::constant(40.0),
                seed: 0xA11CE,
                ..SystemConfig::default()
            },
            WorkloadConfig::default(),
            cc,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: 12,
                warmup_ms: 2_000.0,
                displacement: true,
                ..ControlConfig::default()
            },
            Some(Box::new(alc_core::controller::IncrementalSteps::new(
                alc_core::controller::IsParams {
                    initial_bound: 12,
                    max_bound: 40,
                    ..alc_core::controller::IsParams::default()
                },
            ))),
        );
        sim.set_record_optimum(false);
        let stats = sim.run(25_000.0);
        let traj = sim.trajectories();
        blob.push_str(&format!(
            "{{\"cc\":{:?},\"stats\":{},\"bound\":{},\"throughput\":{},\"mpl\":{}}}\n",
            cc,
            json(stats_value(&stats)),
            json(series_value(&traj.bound)),
            json(series_value(&traj.throughput)),
            json(series_value(&traj.observed_mpl)),
        ));
    }
    let path = golden_dir().join(DIRECT_SIM);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &blob).expect("write golden");
    }
    let golden = fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        golden == blob.as_bytes(),
        "{DIRECT_SIM} diverged from the golden output — the change altered \
         simulation results (rerun with UPDATE_GOLDEN=1 only if this was intentional)"
    );
}

fn json(v: Value) -> String {
    serde_json::to_string(&v).expect("rendering a Value cannot fail")
}

/// The pin's form of a run's stats: an object of its fields in
/// declaration order.
fn stats_value(stats: &RunStats) -> Value {
    let RunStats {
        duration_ms,
        commits,
        aborts,
        throughput_per_sec,
        mean_response_ms,
        mean_mpl,
        mean_bound,
        abort_ratio,
        cpu_utilization,
        displaced,
        conflicts_per_commit,
        lost,
    } = *stats;
    let num = |k: &str, x: f64| (k.to_string(), Value::Num(x));
    let int = |k: &str, x: u64| (k.to_string(), Value::U64(x));
    Value::Map(vec![
        num("duration_ms", duration_ms),
        int("commits", commits),
        int("aborts", aborts),
        num("throughput_per_sec", throughput_per_sec),
        num("mean_response_ms", mean_response_ms),
        num("mean_mpl", mean_mpl),
        num("mean_bound", mean_bound),
        num("abort_ratio", abort_ratio),
        num("cpu_utilization", cpu_utilization),
        int("displaced", displaced),
        num("conflicts_per_commit", conflicts_per_commit),
        int("lost", lost),
    ])
}

/// The pin's form of a trajectory: its name and `[t, value]` points.
fn series_value(series: &TimeSeries) -> Value {
    let points = series.points().iter();
    let points = points.map(|&(t, x)| Value::Seq(vec![Value::Num(t), Value::Num(x)]));
    Value::Map(vec![
        ("name".to_string(), Value::Str(series.name().to_string())),
        ("points".to_string(), Value::Seq(points.collect())),
    ])
}

/// The comparator on synthetic inputs: each way a run can leave its
/// pins is reported under the path it concerns.
mod comparator {
    use super::*;

    const TRAJECTORY: &str = "run/fig13_trajectory.csv";
    const GATE_LOG: &str = "run/fig13_IS_0_gatelog.jsonl";
    const LOG_LINES: [&str; 3] = ["{\"header\":1}\n", "{\"t\":500}\n", "{\"t\":501}\n"];

    struct Case {
        produced: Files,
        goldens: Files,
        outputs: Manifest,
    }

    /// A run that reproduces its pins: a trajectory golden, and a gate
    /// log pinned in `OUTPUTS`.
    fn pinned() -> Case {
        let trajectory = b"t_ms,bound\n500,12.5\n1000,13.25\n".to_vec();
        let log = LOG_LINES.concat().into_bytes();
        let case = Case {
            outputs: Manifest::from([(GATE_LOG.to_string(), pin(&log))]),
            goldens: Files::from([(TRAJECTORY.to_string(), trajectory.clone())]),
            produced: Files::from([
                (TRAJECTORY.to_string(), trajectory),
                (GATE_LOG.to_string(), log),
            ]),
        };
        assert_eq!(case.mismatches(), Vec::<String>::new());
        case
    }

    impl Case {
        fn mismatches(&self) -> Vec<String> {
            mismatches(&self.produced, &self.goldens, &self.outputs)
        }

        /// Exactly one problem is reported: on `path`, saying `what`.
        fn fails_on(&self, path: &str, what: &str) {
            let found = self.mismatches();
            let named = |f: &String| f.starts_with(&format!("{path}: ")) && f.contains(what);
            assert!(
                found.len() == 1 && named(&found[0]),
                "want `{path}: …{what}…`, got {found:?}"
            );
        }
    }

    #[test]
    fn a_one_ulp_trajectory_change_names_the_file() {
        let mut case = pinned();
        let next = f64::from_bits(12.5f64.to_bits() + 1);
        let text = format!("t_ms,bound\n500,{next}\n1000,13.25\n");
        case.produced
            .insert(TRAJECTORY.to_string(), text.into_bytes());
        case.fails_on(TRAJECTORY, "differs from its golden");
    }

    #[test]
    fn a_dropped_gate_log_line_names_the_file() {
        let mut case = pinned();
        let dropped = [LOG_LINES[0], LOG_LINES[2]].concat().into_bytes();
        case.produced.insert(GATE_LOG.to_string(), dropped);
        case.fails_on(GATE_LOG, "OUTPUTS has");
    }

    #[test]
    fn an_unlisted_file_names_the_file() {
        let mut case = pinned();
        case.produced
            .insert("run/new.csv".to_string(), b"a\n1\n".to_vec());
        case.fails_on("run/new.csv", "neither a golden nor an OUTPUTS line");
    }

    #[test]
    fn an_outputs_line_with_no_file_names_the_file() {
        let mut case = pinned();
        case.produced.remove(GATE_LOG);
        case.fails_on(GATE_LOG, "not produced");
    }

    #[test]
    fn a_path_both_golden_and_listed_names_the_file() {
        let mut case = pinned();
        let line = pin(&case.produced[TRAJECTORY]);
        case.outputs.insert(TRAJECTORY.to_string(), line);
        case.fails_on(TRAJECTORY, "both a golden and an OUTPUTS line");
    }
}
