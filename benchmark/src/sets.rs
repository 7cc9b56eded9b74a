//! Full sets of runs — every workload untraced, then the traced ledger —
//! each run in a process of its own, and the A/A comparison of two sets.

use std::path::Path;

use crate::runtime::Mode;
use crate::{Options, Workload};

/// What the parent of a set keeps of one child run.
pub struct ChildRun {
    values: Vec<(String, f64)>,
    pub failed: u64,
    /// The `(exact)` lines of its report: output digests.
    exact: Vec<String>,
}

/// Makes one run in a process of its own — every workload is measured
/// alone, so that peak memory and CPU time are its own — echoes its
/// report and parses the result line.
fn run_child(o: &Options, w: Workload, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--bench-dir")
        .arg(&o.bench_dir)
        .args([
            "--workload",
            w.name(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args(["--rustc", &o.rustc, "--commit", &o.commit])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, result) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{}: no result line", w.name()))?;
    // Skip the child's header: the parent has printed its own.
    for line in report.lines().skip(1) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{}: {}", w.name(), out.status));
    }
    let json: serde::Value =
        serde_json::from_str(result).map_err(|e| format!("{}: {e}", w.name()))?;
    let metrics = json
        .get("metrics")
        .and_then(serde::Value::as_map)
        .ok_or("result line has no metrics")?;
    Ok(ChildRun {
        values: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        failed: json
            .get("failed")
            .and_then(serde::Value::as_u64)
            .ok_or("result line has no failed count")?,
        exact: report
            .lines()
            .filter(|l| l.ends_with("(exact)"))
            .map(str::to_string)
            .collect(),
    })
}

/// One full set: every workload untraced, then the traced ledger (with
/// the steady runtime workload, where spans sit in the hot loop, as the
/// one whose overhead is reported). Returns the untraced runs.
pub fn run_set(o: &Options) -> Result<Vec<(Workload, ChildRun)>, String> {
    let mut set = Vec::new();
    for w in Workload::ALL {
        set.push((w, run_child(o, w, false)?));
    }
    let traced = run_child(o, Workload::Runtime(Mode::Steady), true)?;
    println!("  traces: {}/<workload>.trace.json", o.out_dir().display());
    if traced.failed > 0 {
        return Err(format!("the traced run failed {} ops", traced.failed));
    }
    Ok(set)
}

/// `(name, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds(bench_dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(serde::Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(
            |m| match (m.get("name"), m.get("bound").and_then(serde::Value::as_f64)) {
                (Some(serde::Value::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
                _ => Err("end_to_end entries need a name and a bound".to_string()),
            },
        )
        .collect()
}

/// Two sets of runs of the same code, compared metric by metric against
/// the benchmark's own bounds. Returns whether they agree.
pub fn run_aa(o: &Options) -> Result<bool, String> {
    let bounds = bounds(&o.bench_dir)?;
    println!("== set A ==");
    let a = run_set(o)?;
    println!("== set B ==");
    let b = run_set(o)?;
    println!("== A/A ==");
    let mut agree = true;
    for ((w, ra), (_, rb)) in a.iter().zip(&b) {
        for ((name, va), (_, vb)) in ra.values.iter().zip(&rb.values) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let diff = (va - vb).abs() / va.min(*vb);
            let ok = diff <= bound;
            agree &= ok;
            println!(
                "  {:<18} {name:<12} A={va:<14.6} B={vb:<14.6} diff={:>6.2}% bound={:>4.0}% {}",
                w.name(),
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
        let exact = ra.exact == rb.exact;
        agree &= exact && ra.failed == 0 && rb.failed == 0;
        println!(
            "  {:<18} exact counts {} failed A={} B={}",
            w.name(),
            if exact { "identical" } else { "DIFFER" },
            ra.failed,
            rb.failed
        );
    }
    Ok(agree)
}
