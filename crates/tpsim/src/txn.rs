//! Per-transaction (terminal slot) state.
//!
//! The model is closed: each of the `N` terminals owns exactly one
//! transaction slot that cycles Thinking → (gate) → Running → … →
//! commit → Thinking forever. A slot's `generation` increments on every
//! abort/restart/displacement so that in-flight events belonging to a dead
//! run are recognized and dropped when they fire (lazy cancellation).

use alc_des::SimTime;

/// Which half of a phase the transaction is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting for / receiving a CPU burst.
    Cpu,
    /// In the (infinite-server) disk.
    Disk,
}

/// Lifecycle state of a transaction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// At the terminal, waiting out the think time.
    Thinking,
    /// In the gate's FCFS queue.
    Queued,
    /// Executing phase `phase` (0 = init, 1..=k = accesses, k+1 = commit
    /// processing).
    Running {
        /// Current phase index.
        phase: u32,
        /// CPU or disk half of the phase.
        stage: Stage,
    },
    /// Blocked on a lock (2PL only), about to run phase `phase` once
    /// granted.
    Blocked {
        /// The phase whose access is pending.
        phase: u32,
    },
    /// Aborted, waiting out the restart delay inside the system.
    RestartWait,
}

/// One access of a run in one word: the item id in the low 63 bits, the
/// write flag in bit 63. Item ids are below `db_size`, which
/// [`SystemConfig::check`](crate::config::SystemConfig::check) bounds by
/// 2⁶³, so every id fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access(u64);

impl Access {
    /// Bit 63: the access writes its item.
    const WRITE: u64 = 1 << 63;

    /// The access to `item` (below 2⁶³), a write iff `write`.
    #[inline]
    pub fn new(item: u64, write: bool) -> Self {
        debug_assert!(item < Self::WRITE, "item id {item} does not fit in 63 bits");
        Access(item | u64::from(write) << 63)
    }

    /// The accessed item's id.
    #[inline]
    pub fn item(self) -> u64 {
        self.0 & !Self::WRITE
    }

    /// Whether the access writes its item.
    #[inline]
    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }
}

/// One terminal's transaction slot.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Lifecycle state.
    pub state: TxnState,
    /// Run generation for lazy event cancellation.
    pub generation: u64,
    /// Access set of the current instance: one [`Access`] word (8 B) per
    /// access phase, in access order. Refilled in place for each instance
    /// and reserved to exactly its `k`, so the buffer holds the largest
    /// `k` the slot has drawn and no more.
    pub items: Vec<Access>,
    /// Whether the instance is a read-only query.
    pub is_query: bool,
    /// When the instance was submitted by the terminal (queue wait counts
    /// toward response time).
    pub submitted_at: SimTime,
    /// Timestamp (priority) of the current run; larger = younger.
    pub ts: u64,
}

impl Txn {
    /// A fresh slot, thinking at the terminal.
    pub fn new() -> Self {
        Txn {
            state: TxnState::Thinking,
            generation: 0,
            items: Vec::new(),
            is_query: false,
            submitted_at: SimTime::ZERO,
            ts: 0,
        }
    }

    /// The number of access phases `k` of the current instance.
    pub fn k(&self) -> u32 {
        self.items.len() as u32
    }

    /// True if the slot is admitted (occupies an MPL slot): running,
    /// blocked or waiting to restart.
    pub fn in_system(&self) -> bool {
        matches!(
            self.state,
            TxnState::Running { .. } | TxnState::Blocked { .. } | TxnState::RestartWait
        )
    }

    /// Phases the current run has completed (0 while restarting or not in
    /// the system) — the "sunk work" measure the displacement victim
    /// policies compare.
    pub fn progress(&self) -> u32 {
        match self.state {
            TxnState::Running { phase, .. } | TxnState::Blocked { phase } => phase,
            _ => 0,
        }
    }
}

impl Default for Txn {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slot_is_thinking() {
        let t = Txn::new();
        assert_eq!(t.state, TxnState::Thinking);
        assert!(!t.in_system());
        assert_eq!(t.k(), 0);
    }

    #[test]
    fn in_system_classification() {
        let mut t = Txn::new();
        t.state = TxnState::Running {
            phase: 0,
            stage: Stage::Cpu,
        };
        assert!(t.in_system());
        t.state = TxnState::Blocked { phase: 3 };
        assert!(t.in_system());
        t.state = TxnState::RestartWait;
        assert!(t.in_system());
        t.state = TxnState::Queued;
        assert!(!t.in_system());
        t.state = TxnState::Thinking;
        assert!(!t.in_system());
    }

    #[test]
    fn k_reflects_access_set() {
        let mut t = Txn::new();
        t.items = vec![
            Access::new(1, false),
            Access::new(2, true),
            Access::new(3, false),
        ];
        assert_eq!(t.k(), 3);
    }

    #[test]
    fn an_access_word_keeps_its_item_and_write_flag() {
        for item in [0, 1, 1999, (1 << 62) + 5, (1 << 63) - 1] {
            for write in [false, true] {
                let a = Access::new(item, write);
                assert_eq!((a.item(), a.is_write()), (item, write), "{a:?}");
            }
        }
        assert_eq!(std::mem::size_of::<Access>(), 8);
        assert_ne!(Access::new(7, true), Access::new(7, false));
    }

    #[test]
    fn progress_reads_the_phase() {
        let mut t = Txn::new();
        assert_eq!(t.progress(), 0);
        t.state = TxnState::Running {
            phase: 4,
            stage: Stage::Disk,
        };
        assert_eq!(t.progress(), 4);
        t.state = TxnState::Blocked { phase: 2 };
        assert_eq!(t.progress(), 2);
        t.state = TxnState::RestartWait;
        assert_eq!(t.progress(), 0);
    }
}
