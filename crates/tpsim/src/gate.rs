//! The simulator-side admission gate (§4.3, Figure 5).
//!
//! Event-driven counterpart of the runtime [`alc_core::gate::AdaptiveGate`]:
//! a bound `n*`, an in-system count `n`, and a FCFS queue of transaction
//! slots waiting to be admitted. Displacement (§4.3's stronger enforcement
//! option) selects the youngest running transactions as victims and parks
//! them at the *front* of the queue — they were admitted once and should
//! not pay the full queue again.

use std::collections::VecDeque;

/// The event-driven admission gate.
#[derive(Debug, Clone)]
pub struct SimGate {
    bound: u32,
    in_system: u32,
    queue: VecDeque<usize>,
    /// Admission hold: while set, every arrival queues and departures
    /// admit nobody — the engine uses this to drain the system before a
    /// CC-protocol switch. The bound and queue order are untouched.
    hold: bool,
}

impl SimGate {
    /// Creates a gate with the given initial bound.
    pub fn new(bound: u32) -> Self {
        Self::with_queue_capacity(bound, 0)
    }

    /// Creates a gate with the admission queue pre-sized for `cap`
    /// waiters (the engine passes the terminal count — the queue holds at
    /// most one entry per transaction slot, so steady state never
    /// reallocates).
    pub fn with_queue_capacity(bound: u32, cap: usize) -> Self {
        SimGate {
            bound,
            in_system: 0,
            queue: VecDeque::with_capacity(cap),
            hold: false,
        }
    }

    /// Current bound `n*`.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Transactions currently admitted (the actual load `n`).
    pub fn in_system(&self) -> u32 {
        self.in_system
    }

    /// Waiting transactions.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether an admission hold is in force.
    pub fn held(&self) -> bool {
        self.hold
    }

    /// Starts an admission hold: arrivals queue unconditionally and no
    /// departure or bound change admits anyone until
    /// [`SimGate::release_hold_into`].
    pub fn set_hold(&mut self) {
        self.hold = true;
    }

    /// Ends an admission hold and appends the transactions now admitted
    /// (FIFO, up to the bound) to `admitted`.
    pub fn release_hold_into(&mut self, admitted: &mut Vec<usize>) {
        self.hold = false;
        self.drain_queue_into(admitted);
    }

    /// An arrival: admitted immediately (`true`) or queued (`false`).
    pub fn arrive(&mut self, txn: usize) -> bool {
        if !self.hold && self.in_system < self.bound {
            self.in_system += 1;
            true
        } else {
            self.queue.push_back(txn);
            false
        }
    }

    /// A departure (commit or displacement-to-terminal): frees a slot and
    /// appends the transactions admitted from the queue as a result to
    /// `admitted` (the engine passes a pooled buffer).
    pub fn depart_into(&mut self, admitted: &mut Vec<usize>) {
        debug_assert!(self.in_system > 0, "departure from an empty system");
        self.in_system = self.in_system.saturating_sub(1);
        self.drain_queue_into(admitted);
    }

    /// Applies a new bound, appending the slots admitted from the queue
    /// if the bound rose to `admitted`. (Shrinking below the current load
    /// is handled by the engine via [`SimGate::excess`] +
    /// [`SimGate::displace`] when displacement is on, otherwise the
    /// population drains by normal departures.)
    pub fn set_bound_into(&mut self, bound: u32, admitted: &mut Vec<usize>) {
        self.bound = bound;
        self.drain_queue_into(admitted);
    }

    /// How many transactions must be displaced to honor the bound now.
    pub fn excess(&self) -> u32 {
        self.in_system.saturating_sub(self.bound)
    }

    /// Records that a running transaction was displaced: it leaves the
    /// in-system population and re-queues at the front.
    pub fn displace(&mut self, txn: usize) {
        debug_assert!(self.in_system > 0);
        self.in_system -= 1;
        self.queue.push_front(txn);
    }

    /// Removes a *queued* transaction (a client timeout cancelling an
    /// attempt that never got admitted). Returns whether it was found.
    /// O(queue_len), but only ever runs on the timeout path — never in
    /// the steady-state commit loop.
    pub fn remove(&mut self, txn: usize) -> bool {
        match self.queue.iter().position(|&t| t == txn) {
            Some(idx) => {
                self.queue.remove(idx);
                true
            }
            None => false,
        }
    }

    fn drain_queue_into(&mut self, admitted: &mut Vec<usize>) {
        while !self.hold && self.in_system < self.bound {
            match self.queue.pop_front() {
                Some(txn) => {
                    self.in_system += 1;
                    admitted.push(txn);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one pooled-buffer call admits.
    fn admitted(call: impl FnOnce(&mut Vec<usize>)) -> Vec<usize> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    #[test]
    fn admits_below_bound_queues_above() {
        let mut g = SimGate::new(2);
        assert!(g.arrive(0));
        assert!(g.arrive(1));
        assert!(!g.arrive(2));
        assert_eq!(g.in_system(), 2);
        assert_eq!(g.queue_len(), 1);
    }

    #[test]
    fn departure_admits_fifo() {
        let mut g = SimGate::new(1);
        g.arrive(0);
        g.arrive(1);
        g.arrive(2);
        assert_eq!(admitted(|a| g.depart_into(a)), vec![1]);
        assert_eq!(admitted(|a| g.depart_into(a)), vec![2]);
        assert_eq!(admitted(|a| g.depart_into(a)), Vec::<usize>::new());
        assert_eq!(g.in_system(), 0);
    }

    #[test]
    fn raising_bound_drains_queue() {
        let mut g = SimGate::new(0);
        g.arrive(0);
        g.arrive(1);
        g.arrive(2);
        assert_eq!(admitted(|a| g.set_bound_into(2, a)), vec![0, 1]);
        assert_eq!(g.queue_len(), 1);
    }

    #[test]
    fn lowering_bound_reports_excess() {
        let mut g = SimGate::new(5);
        for i in 0..5 {
            g.arrive(i);
        }
        assert!(admitted(|a| g.set_bound_into(2, a)).is_empty());
        assert_eq!(g.excess(), 3);
        assert_eq!(g.in_system(), 5, "no implicit displacement");
    }

    #[test]
    fn displacement_requeues_at_front() {
        let mut g = SimGate::new(3);
        g.arrive(0);
        g.arrive(1);
        g.arrive(2);
        g.arrive(3); // queued
        admitted(|a| g.set_bound_into(1, a));
        g.displace(2);
        g.displace(1);
        assert_eq!(g.in_system(), 1);
        assert_eq!(g.excess(), 0);
        // Front of queue: most recently displaced first, then 2, then the
        // original waiter 3.
        assert_eq!(admitted(|a| g.set_bound_into(4, a)), vec![1, 2, 3]);
    }

    #[test]
    fn hold_blocks_all_admissions_until_released() {
        let mut g = SimGate::new(3);
        g.arrive(0);
        g.arrive(1);
        g.set_hold();
        assert!(g.held());
        // Below the bound, but the hold queues the arrival anyway.
        assert!(!g.arrive(2));
        // Departures and bound raises admit nobody while held.
        assert_eq!(admitted(|a| g.depart_into(a)), Vec::<usize>::new());
        assert_eq!(admitted(|a| g.set_bound_into(10, a)), Vec::<usize>::new());
        assert_eq!(g.in_system(), 1);
        assert_eq!(g.queue_len(), 1);
        assert_eq!(admitted(|a| g.release_hold_into(a)), vec![2]);
        assert!(!g.held());
        assert_eq!(g.in_system(), 2);
    }

    #[test]
    fn remove_cancels_a_waiter_without_touching_admissions() {
        let mut g = SimGate::new(1);
        g.arrive(0);
        g.arrive(1);
        g.arrive(2);
        assert!(g.remove(1));
        assert!(!g.remove(1), "already gone");
        assert_eq!(g.in_system(), 1);
        // Slot 1 no longer exists in the queue; the departure admits 2.
        assert_eq!(admitted(|a| g.depart_into(a)), vec![2]);
    }
}
