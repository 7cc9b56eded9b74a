//! The `alc-lint` binary.
//!
//! ```text
//! alc-lint --workspace [--root DIR] [--json PATH] [--quiet]
//! alc-lint [--root DIR] FILE.rs...
//! alc-lint --rules
//! ```
//!
//! Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use alc_lint::config::Scope;
use alc_lint::{report, rules, run_files, run_workspace};

fn usage() {
    println!("alc-lint — repo-specific static analysis (determinism, RNG, hot-path allocs, purity, dead pub items)");
    println!();
    println!("usage: alc-lint --workspace [--root DIR] [--json PATH] [--quiet]");
    println!("       alc-lint [--root DIR] [--json PATH] FILE.rs...");
    println!("       alc-lint --rules");
    println!();
    println!("  --workspace  lint every file the workspace walk reaches");
    println!("  --root DIR   repo root to lint (default: .)");
    println!("  --json PATH  also write the machine-readable report to PATH");
    println!("  --quiet      print only the summary line, not each diagnostic");
    println!("  --rules      list every rule with family, scopes and description, then each scope's paths");
    println!();
    println!("  suppress with: // alc-lint: allow(rule, reason=\"why\")  (reason required)");
}

fn list_rules() {
    let mut scopes: Vec<Scope> = Vec::new();
    for r in rules::RULES {
        let names: Vec<&str> = r.scopes.iter().map(|s| s.name).collect();
        let names = names.join(", ");
        println!("{:<20} {:<12} {names:<27} {}", r.name, r.family, r.summary);
        for s in r.scopes {
            if !scopes.contains(s) {
                scopes.push(*s);
            }
        }
    }
    println!();
    for s in scopes {
        print!("{:<15} {}", s.name, s.include.join(" "));
        if !s.exclude.is_empty() {
            print!(" except {}", s.exclude.join(" "));
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut quiet = false;
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                list_rules();
                return ExitCode::SUCCESS;
            }
            "--workspace" => workspace = true,
            "--quiet" => quiet = true,
            "--root" => match it.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with('-') => {
                usage();
                eprintln!("\nerror: unknown flag {other}");
                return ExitCode::from(2);
            }
            other => files.push(other.to_string()),
        }
    }
    if !workspace && files.is_empty() {
        usage();
        eprintln!("\nerror: pass --workspace or at least one file");
        return ExitCode::from(2);
    }

    let run = if workspace {
        run_workspace(&root, |r| r.scopes)
    } else {
        run_files(&root, |r| r.scopes, &files)
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if !quiet {
        for f in &result.findings {
            if f.suppressed.is_some() {
                continue; // allowed findings appear in the JSON report only
            }
            let abs = root.join(&f.path);
            let text = std::fs::read_to_string(&abs).unwrap_or_default();
            let line = text
                .lines()
                .nth(f.line.saturating_sub(1) as usize)
                .unwrap_or("");
            print!("{}", report::render_text(f, line));
            println!();
        }
    }

    if let Some(path) = &json_out {
        let json = report::render_json(&result.findings, result.files_scanned);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let unsuppressed = result.unsuppressed().count();
    let suppressed = result.findings.len() - unsuppressed;
    println!(
        "alc-lint: {} file(s), {} finding(s) ({} allowed, {} unsuppressed)",
        result.files_scanned,
        result.findings.len(),
        suppressed,
        unsuppressed
    );
    if unsuppressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
