//! Replaying captured gate logs through the runtime: the simulator as
//! the runtime's conformance harness.
//!
//! `scenario run --gate-log DIR` captures every sampler-visible event of
//! a simulated run (MPL changes, commits, aborts, controller decisions)
//! as a JSONL gate log with a provenance header. [`replay_log`] rebuilds
//! the variant's controller from the spec, wraps it in the runtime's
//! `PaperLaw`, feeds the log's event stream through `alc_runtime`'s
//! `LoopCore`, and requires the re-derived decision sequence to match
//! the recorded one byte-for-byte. Any drift between the runtime's
//! telemetry/control path and the simulator's — a rounding mode, an
//! event-ordering change, a sampler-epoch mismatch — snaps the pin.

use std::path::Path;

use alc_runtime::{check_conformance, Conformance, PaperLaw};
use alc_tpsim::config::SystemConfig;

use crate::{LoadedSpec, SpecError};

/// The result of replaying one captured gate log against its spec.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Scenario name from the log header.
    pub scenario: String,
    /// Variant label from the log header ("" for the implicit variant).
    pub variant: String,
    /// Replication index from the log header.
    pub replication: u32,
    /// Number of recorded controller decisions.
    pub decisions: usize,
    /// The byte-level comparison of recorded vs replayed decisions.
    pub conformance: Conformance,
}

/// Replays a captured gate log against the spec it was recorded from.
///
/// The log's header names `(scenario, variant, replication, seed,
/// quick)`; the spec is compiled at the recorded scale, the matching
/// variant's controller is rebuilt exactly as the runner built it, and
/// the event stream is replayed through the runtime's control core.
pub fn replay_log(spec: &LoadedSpec, log_path: &Path) -> Result<ReplayOutcome, SpecError> {
    let file = std::fs::File::open(log_path)
        .map_err(|e| SpecError::new(format!("cannot open `{}`: {e}", log_path.display())))?;
    let (header, events) = alc_runtime::read_gate_log(std::io::BufReader::new(file))
        .map_err(|e| SpecError::new(format!("`{}`: {e}", log_path.display())))?;
    let header = header.ok_or_else(|| {
        SpecError::new(format!(
            "`{}` has no header line; only logs captured by `scenario run --gate-log` replay",
            log_path.display()
        ))
    })?;
    let plan = spec.compile(header.quick)?;
    if plan.name != header.scenario {
        return Err(SpecError::new(format!(
            "log was captured from scenario `{}`, spec compiles to `{}`",
            header.scenario, plan.name
        )));
    }
    let v = plan
        .variants
        .iter()
        .find(|v| v.label == header.variant)
        .ok_or_else(|| {
            SpecError::new(format!(
                "log names variant `{}`, which the spec no longer has",
                header.variant
            ))
        })?;
    let expected_seed = v.seeds.get(header.replication as usize).copied();
    if expected_seed != Some(header.seed) {
        return Err(SpecError::new(format!(
            "log was captured with seed {} for replication {}, spec now yields {:?}",
            header.seed, header.replication, expected_seed
        )));
    }
    let sys = SystemConfig {
        seed: header.seed,
        ..v.cell.system
    };
    let controller = v.cell.controller.build(&sys, &v.cell.workload).ok_or_else(|| {
        SpecError::new(format!(
            "variant `{}` runs without a controller; there are no decisions to replay",
            header.variant
        ))
    })?;
    let law = Box::new(PaperLaw::new(controller));
    let conformance = check_conformance(&events, law, v.cell.control.indicator);
    Ok(ReplayOutcome {
        scenario: header.scenario,
        variant: header.variant,
        replication: header.replication,
        decisions: conformance.recorded.len(),
        conformance,
    })
}
