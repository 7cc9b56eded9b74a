//! `alc-bench` — the experiment harness that regenerates every figure of
//! Heiss & Wagner (VLDB 1991), and the report/table/plot types the
//! scenario runner shares with it.
//!
//! Each `figXX`/ablation experiment lives in [`figures`] as a pure
//! function returning a [`report::Report`]; the `repro` binary prints it
//! and writes `results/<id>.csv`. The [`Scale`] knob switches between the
//! paper-scale configuration (release-mode runs, seconds each) and a
//! down-scaled smoke configuration used by CI and the golden tests.

pub mod figures;
pub mod plot;
pub mod report;
pub mod table;

/// Experiment size: paper-scale or CI-scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-scale configuration (`repro` without `--quick`).
    Full,
    /// A small configuration for smoke tests (`repro --quick`).
    Quick,
}

impl Scale {
    /// Scales a count down in quick mode.
    pub fn pick(self, full: u32, quick: u32) -> u32 {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }

    /// Scales a duration (ms) down in quick mode.
    pub fn pick_ms(self, full: f64, quick: f64) -> f64 {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}
