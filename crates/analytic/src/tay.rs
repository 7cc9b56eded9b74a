//! The Tay–Goodman–Suri locking model (ACM TODS 10(4), 1985).
//!
//! A closed mean-value model of a database with two-phase locking: `n`
//! transactions, each acquiring `k` locks one at a time out of `D` lockable
//! granules. The paper's introduction (§1) quotes its headline result: the
//! mean number of *blocked* transactions `b(n)` grows quadratically in `n`,
//! so past the point where `db/dn > 1` adding a transaction *reduces* the
//! number of active ones — thrashing. (Its `k²n/D < 1.5` rule of thumb is
//! the Tay baseline controller, `alc_core::controller::TayRule`.)
//!
//! The model here is the standard "no-waiting approximation" variant: each
//! lock request conflicts with probability proportional to the locks held
//! by others, and a blocked transaction waits roughly half a transaction
//! lifetime. The engine's 2PL is checked against [`TayModel::blocked`] at
//! low contention (`crates/tpsim/tests/scenarios.rs`).

/// Workload parameters of the locking model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TayModel {
    /// Locks acquired per transaction (`k`).
    pub k: u32,
    /// Number of lockable data granules (`D`).
    pub db_size: u64,
}

impl TayModel {
    /// Creates a model; panics on degenerate parameters.
    pub fn new(k: u32, db_size: u64) -> Self {
        assert!(k > 0 && db_size > 0);
        assert!(
            u64::from(k) <= db_size,
            "transactions cannot lock more granules than exist"
        );
        TayModel { k, db_size }
    }

    /// Probability that one lock request conflicts when `n` transactions
    /// each hold `k/2` locks on average.
    fn conflict_probability(&self, n: f64) -> f64 {
        if n <= 1.0 {
            return 0.0;
        }
        let held_by_others = (n - 1.0) * f64::from(self.k) / 2.0;
        (held_by_others / self.db_size as f64).min(1.0)
    }

    /// Mean number of blocked transactions — the quadratic form
    /// `b(n) ≈ n·k·p_conflict·w`, with `w` the fraction of a lifetime spent
    /// waiting per block (≈ 1/2 in the standard approximation). For small
    /// conflict probabilities this is `b(n) ≈ k²·n·(n−1)/(4D)`: quadratic
    /// in `n`, exactly the statement quoted in the paper's introduction.
    pub fn blocked(&self, n: f64) -> f64 {
        let p = self.conflict_probability(n);
        let b = n * f64::from(self.k) * p * 0.5;
        b.min(n) // cannot block more transactions than exist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TayModel {
        TayModel::new(8, 4000)
    }

    #[test]
    fn blocked_is_quadratic_for_small_n() {
        let m = model();
        // b(n) ≈ k^2 n(n-1) / (4D); check the ratio b(2n)/b(n) ≈ 4 for small n.
        let b10 = m.blocked(10.0);
        let b20 = m.blocked(20.0);
        let ratio = b20 / b10;
        assert!(
            (ratio - 20.0 * 19.0 / (10.0 * 9.0)).abs() < 1e-9,
            "ratio {ratio}"
        );
    }

    #[test]
    fn no_blocking_with_single_transaction() {
        let m = model();
        assert_eq!(m.blocked(1.0), 0.0);
        assert_eq!(m.conflict_probability(1.0), 0.0);
    }

    #[test]
    fn blocked_never_exceeds_population() {
        let m = TayModel::new(32, 100);
        for n in 1..=50 {
            assert!(m.blocked(f64::from(n)) <= f64::from(n));
        }
    }

    #[test]
    #[should_panic(expected = "cannot lock more granules")]
    fn rejects_k_larger_than_db() {
        TayModel::new(10, 5);
    }
}
