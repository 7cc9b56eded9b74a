//! Scenario-level results of controllers and rules in the loop, beyond
//! single-module unit tests: each runs a checked-in spec at quick scale.

mod common;

use adaptive_load_control::core::controller::{LoadController, TayRule};
use adaptive_load_control::scenario::runner::RunRecord;

use common::{run_quick, stats};

/// `protocol-thrashing`'s static bounds, in order (the rows before PA).
const BOUNDS: [u32; 6] = [2, 5, 10, 20, 40, 80];

/// A mis-tuned gain (β = 100, absurd for tx/s-scale signals): the §5
/// outer loop must still beat the uncontrolled system on
/// `control-prevents-thrashing`, whose heavy writes make it thrash.
#[test]
fn self_tuning_is_works_in_the_loop() {
    let (_, records) = run_quick("control-prevents-thrashing");
    let tuned = stats(records, "self-tuning-IS-mistuned").throughput_per_sec;
    let uncontrolled = stats(records, "unlimited").throughput_per_sec;
    assert!(
        tuned > uncontrolled,
        "self-tuned IS {tuned} did not beat uncontrolled {uncontrolled}"
    );
}

/// The closed loop holds the conflict rate within a factor ~2.5 of the
/// 0.75 target (per-commit conflicts measured only on commits, so the
/// steady state sits somewhat above), on `control-prevents-thrashing`,
/// where the uncontrolled system's rate is many times the target.
#[test]
fn iyer_rule_keeps_conflicts_near_target() {
    let (_, records) = run_quick("control-prevents-thrashing");
    let iyer = stats(records, "iyer-0.75");
    let uncontrolled = stats(records, "unlimited").conflicts_per_commit;
    assert!(
        iyer.conflicts_per_commit < 2.0 && iyer.conflicts_per_commit < 0.5 * uncontrolled,
        "conflicts/commit {} far above Iyer target (uncontrolled {uncontrolled})",
        iyer.conflicts_per_commit
    );
    assert!(iyer.commits > 500);
}

/// The static bound of `protocol-thrashing` with the highest throughput
/// under `cc`.
fn best_bound(records: &[RunRecord], cc: &str) -> u32 {
    BOUNDS
        .into_iter()
        .max_by(|a, b| {
            let t = |x: &u32| stats(records, &format!("{x}_{cc}")).throughput_per_sec;
            t(a).total_cmp(&t(b))
        })
        .expect("bounds")
}

/// Tay's rule picks one MPL for 2PL and certification alike — and the
/// measured best bounds differ, the certification one far above the
/// rule's blocking-derived value. This is the quantified §1 caution.
#[test]
fn tay_rule_is_protocol_blind() {
    let (plan, records) = run_quick("protocol-thrashing");
    let v = &plan.variants[0].cell;
    let k = v.workload.at(0.0).k;
    let rule_bound = TayRule::new(k, v.system.db_size, 1, BOUNDS[BOUNDS.len() - 1]).current_bound();
    let (best_cert, best_2pl) = (
        best_bound(records, "certification"),
        best_bound(records, "2pl"),
    );
    assert_ne!(best_cert, best_2pl, "one best bound for both protocols");
    assert!(
        f64::from(best_cert) > 2.0 * f64::from(rule_bound),
        "certification best {best_cert} vs Tay rule {rule_bound}"
    );
}

/// Blocking thrash (deadlock victims + convoys) collapses past the
/// optimum much more sharply than certification's waste-driven decay —
/// and it is thrash, not a standstill: 2PL breaks its deadlocks and
/// commits at every bound.
#[test]
fn two_pl_thrashes_harder_than_certification() {
    let (_, records) = run_quick("protocol-thrashing");
    let curve = |cc: &str| -> Vec<f64> {
        BOUNDS
            .iter()
            .map(|b| stats(records, &format!("{b}_{cc}")).throughput_per_sec)
            .collect()
    };
    let (cert, twopl) = (curve("certification"), curve("2pl"));
    let drop = |c: &[f64]| c[c.len() - 1] / c.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        drop(&twopl) < drop(&cert),
        "2PL tail {:.2} should fall below certification tail {:.2}",
        drop(&twopl),
        drop(&cert)
    );
    for (b, t) in BOUNDS.iter().zip(&twopl) {
        assert!(
            *t > 0.0,
            "2PL committed nothing at bound {b}: deadlocks left standing"
        );
    }
}

/// §6: other indicators are usable; effective throughput (abort-
/// discounted) must also prevent thrashing.
#[test]
fn effective_throughput_indicator_also_controls() {
    let (_, records) = run_quick("control-prevents-thrashing");
    let controlled = stats(records, "PA-effective-throughput").throughput_per_sec;
    let uncontrolled = stats(records, "unlimited").throughput_per_sec;
    assert!(
        controlled > uncontrolled,
        "PA on effective throughput {controlled} vs uncontrolled {uncontrolled}"
    );
}
