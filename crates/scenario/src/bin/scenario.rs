//! `scenario` — run declarative load-control experiments from JSON specs.
//!
//! ```text
//! scenario run [--quick] [--out DIR] [--gate-log DIR] [--set path=value]... <spec.json>...
//! scenario trace [--quick] [--out DIR] [--variant LABEL] [--rep N] [--set path=value]... <spec.json>...
//! scenario report [--quick] [--out DIR] [--html FILE] [--set path=value]... <spec.json>
//! scenario validate <spec.json>...
//! scenario replay <spec.json> <log.jsonl>...
//! scenario list [DIR]
//! scenario figure [--quick] [--out DIR] <all | list | fig01 fig12 ...>
//! ```
//!
//! `run` prints each scenario's report table and writes `<name>.csv`
//! (plus `<name>[_<variant>]_trajectory.csv` when the spec records
//! trajectories) into `--out` (default `results/`); `--gate-log DIR`
//! additionally captures one replayable JSONL gate log per run.
//! `trace` runs one `(variant, replication)` cell with the lifecycle
//! trace sink installed, writes a Perfetto-loadable
//! `<stem>_trace.json`, and exits 1 unless every span balanced and
//! every span/instant tally reconciles with the run's own counters.
//! `report` runs a plan with trajectories retained and renders a
//! dependency-free static-HTML dashboard. `validate` parses and
//! compiles every spec (both full and quick scale) without running
//! anything. `replay` feeds captured gate logs back through the
//! `alc-runtime` control core and requires the re-derived decision
//! sequence to match the recorded one byte-for-byte (exit 1 on
//! divergence). `list` summarizes a directory of specs (default
//! `scenarios/`). `figure` regenerates the paper's figures from the
//! catalog in `alc_scenario::figures`: the engine figures run their spec
//! under `scenarios/` and print the paper's table, chart,
//! paper-vs-measured notes and claims; after writing everything it exits
//! 1, naming them, if any claim's measured value lies outside its band.

use std::path::{Path, PathBuf};

use alc_scenario::compile::RunPlan;
use alc_scenario::figures::{self, CATALOG};
use alc_scenario::{parse_set_arg, spec, LoadedSpec, SpecError};
use serde::Value;

fn usage() {
    println!("usage: scenario <run | trace | report | validate | replay | list | figure> ...");
    println!();
    println!("  run [--quick] [--out DIR] [--gate-log DIR] [--set path=value]... <spec.json>...");
    println!("      execute specs; tables to stdout, CSVs to --out (default results/)");
    println!("  trace [--quick] [--out DIR] [--variant LABEL] [--rep N] [--set path=value]...");
    println!("        <spec.json>...");
    println!("      run one cell per spec with span tracing on; write a Perfetto-");
    println!("      loadable <stem>_trace.json into --out (default results/) and");
    println!("      exit 1 unless the trace reconciles with the run's counters");
    println!("  report [--quick] [--out DIR] [--html FILE] [--set path=value]... <spec.json>");
    println!("      run a plan with trajectories retained and render a static-HTML");
    println!("      dashboard (default --out/<name>_dashboard.html)");
    println!("  validate <spec.json>...");
    println!("      parse + compile each spec (full and quick scale); exit 1 on error");
    println!("  replay <spec.json> <log.jsonl>...");
    println!("      replay captured gate logs through the alc-runtime control core;");
    println!("      exit 1 unless every decision sequence matches byte-for-byte");
    println!("  list [DIR]");
    println!("      summarize the specs in DIR (default scenarios/)");
    println!("  figure [--quick] [--out DIR] <all | list | fig01 fig12 ...>");
    println!("      regenerate the paper's figures (`list` prints the catalog); the engine");
    println!("      figures run scenarios/<id>.json, so run from the repository root;");
    println!("      exit 1 if any figure's claim falls outside its band");
    println!();
    println!("  --quick   apply each spec's `quick` overrides (CI scale)");
    println!("  --gate-log  also write one replayable gate log per run into DIR");
    println!("  --set     override any spec field by dotted path (numeric");
    println!("            segments index lists), e.g.");
    println!("            --set system.terminals=200 --set cc=2pl");
    println!();
    println!("DSL vocabulary:");
    print!("{}", spec::vocabulary());
}

fn fail(e: &SpecError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// The flags `run`, `trace` and `report` share, and the spec list.
struct CommonArgs {
    quick: bool,
    out_dir: PathBuf,
    sets: Vec<(String, Value)>,
    specs: Vec<PathBuf>,
}

impl CommonArgs {
    /// Reads, overrides and compiles one of the selected specs.
    fn plan(&self, path: &Path) -> RunPlan {
        let mut loaded = LoadedSpec::read(path).unwrap_or_else(|e| fail(&e));
        loaded.apply_sets(&self.sets).unwrap_or_else(|e| fail(&e));
        loaded.compile(self.quick).unwrap_or_else(|e| fail(&e))
    }
}

/// The parsed value of a flag, or exit 2 saying what `flag` needs.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    needs: &str,
) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {needs}");
        std::process::exit(2);
    })
}

/// Parses the shared flags; a flag the subcommand adds is offered to
/// `extra`, which answers whether it was one of its own.
fn parse_args(
    args: &[String],
    mut extra: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> bool,
) -> CommonArgs {
    let mut common = CommonArgs {
        quick: false,
        out_dir: PathBuf::from("results"),
        sets: Vec::new(),
        specs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => common.quick = true,
            "--out" => common.out_dir = flag_value(&mut it, a, "a directory"),
            "--set" => {
                let kv: String = flag_value(&mut it, a, "path=value");
                common
                    .sets
                    .push(parse_set_arg(&kv).unwrap_or_else(|e| fail(&e)));
            }
            other if other.starts_with('-') => {
                if !extra(other, &mut it) {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
            other => common.specs.push(PathBuf::from(other)),
        }
    }
    if common.specs.is_empty() {
        usage();
        eprintln!("\nerror: no spec selected");
        std::process::exit(2);
    }
    common
}

fn cmd_run(args: &[String]) {
    let mut gate_log_dir: Option<PathBuf> = None;
    let common = parse_args(args, |flag, it| {
        if flag == "--gate-log" {
            gate_log_dir = Some(flag_value(it, flag, "a directory"));
        }
        flag == "--gate-log"
    });
    let (quick, out_dir) = (common.quick, &common.out_dir);

    // Compile everything before any output lands on disk.
    let plans: Vec<RunPlan> = common.specs.iter().map(|path| common.plan(path)).collect();

    std::fs::create_dir_all(out_dir).expect("create output dir");
    let gate_log = gate_log_dir.map(|dir| alc_scenario::runner::GateLogRequest { dir, quick });
    for plan in &plans {
        let start = std::time::Instant::now();
        let records = alc_scenario::runner::run_plan_logged(plan, gate_log.as_ref())
            .expect("write gate logs");
        let report = alc_scenario::runner::build_report(plan, &records);
        let csv = report.write_csv(out_dir).expect("write csv");
        let trajectories = alc_scenario::runner::write_trajectories(plan, &records, out_dir)
            .expect("write trajectories");
        println!("{}", report.render());
        print!(
            "  [{} in {:.1}s, table → {}",
            plan.name,
            start.elapsed().as_secs_f64(),
            csv.display()
        );
        if !trajectories.is_empty() {
            print!(", {} trajectory file(s)", trajectories.len());
        }
        if let Some(req) = &gate_log {
            print!(", {} gate log(s) → {}", records.len(), req.dir.display());
        }
        println!("]\n");
    }
}

fn cmd_trace(args: &[String]) {
    let mut variant: Option<String> = None;
    let mut rep: usize = 0;
    let common = parse_args(args, |flag, it| {
        match flag {
            "--variant" => variant = Some(flag_value(it, flag, "a label")),
            "--rep" => rep = flag_value(it, flag, "a replication index"),
            _ => return false,
        }
        true
    });
    let out_dir = &common.out_dir;
    let mut failed = false;
    for path in &common.specs {
        let plan = common.plan(path);
        let v = match &variant {
            Some(label) => plan
                .variants
                .iter()
                .find(|v| &v.label == label)
                .unwrap_or_else(|| {
                    eprintln!("{}: no variant labeled `{label}`", plan.name);
                    std::process::exit(2);
                }),
            None => &plan.variants[0],
        };
        if rep >= v.seeds.len() {
            eprintln!(
                "{}: replication {rep} out of range ({} seed(s))",
                plan.name,
                v.seeds.len()
            );
            std::process::exit(2);
        }
        let out = alc_scenario::trace::trace_cell(&plan, v, rep, out_dir).expect("run traced cell");
        let file = out_dir.join(&out.file_name);
        let parsed = alc_scenario::trace::validate_trace_file(&file);
        println!(
            "{} — {} event(s), {} span(s) opened / {} closed → {}",
            plan.name,
            out.events,
            out.span_begins,
            out.span_ends,
            file.display()
        );
        for c in &out.checks {
            println!(
                "  {} {:<58} report {:>8}  trace {:>8}",
                if c.ok() { "OK  " } else { "FAIL" },
                c.what,
                c.report,
                c.trace
            );
        }
        if let Some((pid, tid, name, begins, ends)) = out.unbalanced {
            println!("  FAIL unbalanced span {name} on {pid}/{tid}: {begins} begin(s), {ends} end(s)");
        }
        match parsed {
            Ok(n) if n == out.events => {
                println!("  OK   file parses as trace JSON with all {n} event(s)");
            }
            Ok(n) => {
                println!("  FAIL file parses but holds {n} of {} event(s)", out.events);
                failed = true;
            }
            Err(e) => {
                println!("  FAIL {e}");
                failed = true;
            }
        }
        if !out.ok() {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn cmd_report(args: &[String]) {
    let mut html: Option<PathBuf> = None;
    let common = parse_args(args, |flag, it| {
        if flag == "--html" {
            html = Some(flag_value(it, flag, "a file"));
        }
        flag == "--html"
    });
    let out_dir = &common.out_dir;
    std::fs::create_dir_all(out_dir).expect("create output dir");
    for path in &common.specs {
        let mut plan = common.plan(path);
        // The dashboard needs every cell's trajectories, whether or not
        // the spec asked for CSVs; the CSV writers stay gated on the
        // spec's own `trajectories` flag, so run artifacts don't change.
        for v in &mut plan.variants {
            v.keep_trajectories = true;
        }
        let records = alc_scenario::runner::run_plan(&plan);
        let report = alc_scenario::runner::build_report(&plan, &records);
        let page = alc_scenario::html::render_dashboard(&plan, &records, &report);
        let target = html
            .clone()
            .unwrap_or_else(|| out_dir.join(format!("{}_dashboard.html", plan.name)));
        std::fs::write(&target, &page).expect("write dashboard");
        println!(
            "{} — {} cell(s) → {} ({} bytes)",
            plan.name,
            records.len(),
            target.display(),
            page.len()
        );
    }
}

fn cmd_replay(args: &[String]) {
    let (spec_path, logs) = match args.split_first() {
        Some((s, rest)) if !rest.is_empty() && !s.starts_with('-') => (PathBuf::from(s), rest),
        _ => {
            eprintln!("replay needs a spec file and at least one gate log");
            std::process::exit(2);
        }
    };
    let spec = LoadedSpec::read(&spec_path).unwrap_or_else(|e| fail(&e));
    let mut failed = false;
    for log in logs {
        let log = PathBuf::from(log);
        match alc_scenario::conformance::replay_log(&spec, &log) {
            Ok(outcome) if outcome.conformance.is_identical() => {
                println!(
                    "OK   {} — {}/{}#{}: {} decision(s) byte-identical",
                    log.display(),
                    outcome.scenario,
                    if outcome.variant.is_empty() { "-" } else { &outcome.variant },
                    outcome.replication,
                    outcome.decisions
                );
            }
            Ok(outcome) => {
                let at = outcome.conformance.first_divergence.unwrap_or(0);
                let (rec, rep) = outcome.conformance.decision_lines();
                println!(
                    "FAIL {} — diverges at decision {at}:\n  recorded: {}\n  replayed: {}",
                    log.display(),
                    rec.get(at).map_or("<missing>", String::as_str),
                    rep.get(at).map_or("<missing>", String::as_str)
                );
                failed = true;
            }
            Err(e) => {
                println!("FAIL {} — {e}", log.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn cmd_validate(args: &[String]) {
    if args.is_empty() {
        eprintln!("validate needs at least one spec file");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in args {
        let path = PathBuf::from(path);
        let outcome = LoadedSpec::read(&path).and_then(|loaded| {
            // A spec must compile at both scales: quick overrides are
            // part of the contract, not a best-effort extra.
            let full = loaded.compile(false)?;
            loaded.compile(true)?;
            Ok(full)
        });
        match outcome {
            Ok(plan) => {
                let runs: usize = plan.variants.iter().map(|v| v.seeds.len()).sum();
                println!(
                    "OK   {} — {} variant(s), {} run(s)",
                    path.display(),
                    plan.variants.len(),
                    runs
                );
            }
            Err(e) => {
                println!("FAIL {} — {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn cmd_list(args: &[String]) {
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("scenarios"));
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    entries.sort();
    for path in entries {
        match LoadedSpec::read(&path)
            .and_then(|l| alc_scenario::spec::ScenarioSpec::from_value(&l.value, &l.base_dir))
        {
            Ok(spec) => {
                let variants = if spec.variants.is_empty() {
                    String::new()
                } else {
                    format!(" [{} variants]", spec.variants.len())
                };
                println!("{:<18} {}{}", spec.name, spec.description, variants);
            }
            Err(e) => println!("{:<18} (unreadable: {e})", path.display()),
        }
    }
}

fn cmd_figure(args: &[String]) {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    // Every id resolves here, before any output lands on disk.
    let mut selected: Vec<&figures::Figure> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return usage(),
            "--quick" => quick = true,
            "--out" => out_dir = flag_value(&mut it, a, "a directory"),
            "list" => {
                for (id, title, _) in &CATALOG {
                    println!("{id:<18} {title}");
                }
                return;
            }
            "all" => selected.extend(&CATALOG),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => match CATALOG.iter().find(|(id, _, _)| *id == other) {
                Some(fig) => selected.push(fig),
                None => {
                    eprintln!("unknown figure `{other}` — try `scenario figure list`");
                    std::process::exit(2);
                }
            },
        }
    }
    if selected.is_empty() {
        usage();
        eprintln!("\nerror: no figure selected");
        std::process::exit(2);
    }

    let (mut claims, mut failed) = (0, Vec::new());
    for fig in selected {
        let start = std::time::Instant::now();
        let report = figures::run(fig, Path::new("scenarios"), quick, Some(&out_dir))
            .unwrap_or_else(|e| fail(&e));
        let csv = report.write_csv(&out_dir).expect("write csv");
        println!("{}", report.render());
        println!(
            "  [{} in {:.1}s, table → {}]\n",
            fig.0,
            start.elapsed().as_secs_f64(),
            csv.display()
        );
        claims += report.claims.len();
        failed.extend(report.failed_claims().map(|text| format!("{}: {text}", fig.0)));
    }
    println!("claims: {} hold, {} fail", claims - failed.len(), failed.len());
    if !failed.is_empty() {
        eprintln!("error: {} claim(s) outside their band:\n  {}", failed.len(), failed.join("\n  "));
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") | None => usage(),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("figure") => cmd_figure(&args[1..]),
        Some(other) => {
            usage();
            eprintln!("\nerror: unknown subcommand `{other}`");
            std::process::exit(2);
        }
    }
}
