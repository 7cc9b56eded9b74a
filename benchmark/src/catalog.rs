//! `catalog-full`: the frozen 25-spec catalog at full scale through the
//! `scenario run` path — read → compile → `run_plan` (the product's own
//! rayon fan-out) → `build_report` → CSV/trajectory emit. The only
//! workload where the runner's parallelism, the spec front end and the
//! report emit take part.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use alc_scenario::runner;

use crate::spans::Recorder;
use crate::stats::Fnv1a;
use crate::{frozen, host, Pass};

/// Where one catalog run reads its frozen inputs and emits its outputs.
pub struct Catalog {
    specs: Vec<PathBuf>,
    out_dir: PathBuf,
    seed_offset: u64,
}

/// What one pass over the catalog produced, beyond its [`Pass`] timing.
pub struct CatalogPass {
    pub pass: Pass,
    /// `(variant, replication)` cells run.
    pub cells: u64,
}

impl Catalog {
    /// Verifies the frozen inputs against `MANIFEST`.
    pub fn open(bench_dir: &Path, out_dir: &Path, seed_offset: u64) -> Result<Self, String> {
        Ok(Catalog {
            specs: frozen::verify(&bench_dir.join("workloads/catalog"))?,
            out_dir: out_dir.to_path_buf(),
            seed_offset,
        })
    }

    /// One repetition of the set-up users pay before any simulated work:
    /// read and compile every spec at both scales, then one quick-scale
    /// pass so allocator, page cache and output directory are warm.
    /// Returns the quick pass's output digest. Of all this only the
    /// quick-scale compiles are recorded on `rec` (a full-scale pass
    /// never makes them).
    pub fn setup_once(&self, rec: &mut Recorder) -> Result<Option<u64>, String> {
        for (i, path) in self.specs.iter().enumerate() {
            let loaded = frozen::load(path, self.seed_offset)?;
            black_box(loaded.compile(false).map_err(|e| e.to_string())?);
            let quick = rec.span("compile_quick", "", i as u64, |_| loaded.compile(true));
            black_box(quick.map_err(|e| e.to_string())?);
        }
        Ok(self.run_pass(true, &mut Recorder::off())?.pass.digest)
    }

    /// Runs every spec once. Each spec is one op: it fails if a cell
    /// ends without commits or with non-finite statistics, or if nothing
    /// was emitted for it.
    pub fn run_pass(&self, quick: bool, rec: &mut Recorder) -> Result<CatalogPass, String> {
        let dir = self.out_dir.join(if quick { "quick" } else { "full" });
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut emitted: Vec<PathBuf> = Vec::new();
        let (mut cells, mut commits, mut failed) = (0u64, 0u64, 0u64);
        let cpu0 = host::cpu_s();
        let t0 = Instant::now();
        for (i, path) in self.specs.iter().enumerate() {
            let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("spec");
            let ok = rec.span("spec", name, i as u64, |rec| -> Result<bool, String> {
                let loaded = rec.span("read", "", i as u64, |_| {
                    frozen::load(path, self.seed_offset)
                })?;
                let plan = rec
                    .span("compile", "", i as u64, |_| loaded.compile(quick))
                    .map_err(|e| e.to_string())?;
                let records = rec.span("run_plan", "", i as u64, |_| runner::run_plan(&plan));
                let report = rec.span("report", "", i as u64, |_| {
                    let report = runner::build_report(&plan, &records);
                    // `scenario run` prints the table; render it, drop it.
                    black_box(report.render());
                    report
                });
                let files = rec.span("emit", "", i as u64, |_| -> std::io::Result<Vec<PathBuf>> {
                    let mut files = vec![report.write_csv(&dir)?];
                    let names = runner::write_trajectories(&plan, &records, &dir)?;
                    files.extend(names.iter().map(|n| dir.join(n)));
                    Ok(files)
                });
                let files = files.map_err(|e| format!("{name}: emit: {e}"))?;
                cells += records.len() as u64;
                commits += records.iter().map(|r| r.stats.commits).sum::<u64>();
                let healthy = !records.is_empty()
                    && records.iter().all(|r| {
                        r.stats.commits > 0
                            && r.stats.throughput_per_sec.is_finite()
                            && r.stats.mean_response_ms.is_finite()
                            && r.stats.mean_mpl.is_finite()
                    });
                emitted.extend(files);
                Ok(healthy)
            })?;
            failed += u64::from(!ok);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_s() - cpu0;
        // Digest after the clock stops: reading the outputs back is the
        // harness's check, not the product's work.
        let mut digest = Fnv1a::default();
        for file in &emitted {
            let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
            if bytes.is_empty() {
                failed += 1;
            }
            digest.update(
                file.file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("")
                    .as_bytes(),
            );
            digest.update(&bytes);
        }
        Ok(CatalogPass {
            pass: Pass {
                wall_s,
                cpu_s,
                work: commits,
                attempted: self.specs.len() as u64,
                failed,
                digest: Some(digest.digest()),
            },
            cells,
        })
    }
}
