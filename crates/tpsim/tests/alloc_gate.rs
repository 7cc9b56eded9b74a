//! Allocation gate: the CC hot paths must be zero-allocation in steady
//! state.
//!
//! This test binary installs a counting global allocator and drives
//! warmed-up protocol instances through contended workloads:
//!
//! * [`TwoPhaseLocking`] — repeated multi-transaction deadlock cycles:
//!   every round builds a waits-for cycle, runs the detector
//!   (`deadlock_victim`), aborts the victim and drains the survivors.
//!   After warm-up (lock-table arena, holder spills, DFS buffers at
//!   working-set capacity) *no* operation may touch the allocator.
//! * [`Certification`], [`TimestampOrdering`] and [`Mvto`] —
//!   begin/access/validate/commit/abort churn over item windows that
//!   slide through a key space far larger than their item tables, so the
//!   tables sweep dead entries throughout the measured rounds. Once the
//!   tables have found their capacity, sweeps drop dead entries in place;
//!   MVTO's swept and retention-capped chains hand their blocks on, and
//!   recycled read/write buffers keep the commit path off the allocator.
//!
//! The allocator also counts live bytes and their high-water mark, and
//! two whole cells, built with `Simulator::new` and run briefly, pin
//! the heap a simulated terminal costs: `abl-cc`'s 800-terminal
//! wound-wait cell and a 500-terminal certification cell at k = 18.
//!
//! Kept as its own integration-test binary so the global allocator
//! cannot race with unrelated tests, and built with `harness = false`:
//! libtest's runner thread lazily allocates its parking state the first
//! time it blocks waiting on a test, which intermittently lands inside
//! the first measurement window. A plain `main` keeps the process truly
//! single-threaded, so the counter sees only the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alc_analytic::surface::Schedule;
use alc_tpsim::cc::{
    AccessOutcome, Certification, ConcurrencyControl, Mvto, TimestampOrdering, TwoPhaseLocking,
};
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::workload::WorkloadConfig;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and their high-water mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow_live(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Counted as the new block in place of the old one.
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow_live(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The high-water of live heap bytes while `f` runs, above what was live
/// when it started.
fn peak_heap_of(f: impl FnOnce()) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

const SLOTS: usize = 32;

/// One contended round with a deadlock cycle of length `cycle`:
/// every transaction grabs its own item exclusively, then requests its
/// neighbour's — the last request closes the cycle. The detector is
/// invoked after every block (exactly the engine's discipline), the
/// victim aborts, and the survivors drain through the FIFO grants.
fn deadlock_round(
    cc: &mut TwoPhaseLocking,
    ts_counter: &mut u64,
    cycle: usize,
    unblocked: &mut Vec<usize>,
) {
    for i in 0..cycle {
        *ts_counter += 1;
        cc.begin(i, *ts_counter);
        assert_eq!(cc.access(i, i as u64, true), AccessOutcome::Granted);
    }
    let mut victim = None;
    for i in 0..cycle {
        assert_eq!(cc.access(i, ((i + 1) % cycle) as u64, true), AccessOutcome::Blocked);
        if let Some(v) = cc.deadlock_victim(i) {
            victim = Some(v);
            break;
        }
    }
    let victim = victim.expect("a full cycle must produce a victim");
    unblocked.clear();
    cc.abort_into(victim, unblocked);
    // Drain the survivors: every release may grant queued requests.
    for i in 0..cycle {
        if i != victim {
            unblocked.clear();
            cc.commit_into(i, unblocked);
        }
    }
    assert_eq!(cc.locked_items(), 0, "round must end with an empty table");
}

fn steady_state_2pl_deadlock_churn_is_allocation_free() {
    const WARMUP_ROUNDS: usize = 400;
    const MEASURED_ROUNDS: usize = 4_000;

    let mut cc = TwoPhaseLocking::new(SLOTS);
    let mut ts = 0u64;
    let mut unblocked: Vec<usize> = Vec::new();
    // Cycle lengths vary round to round so queues, holder buffers and the
    // DFS stack all see their working-set maxima during warm-up.
    let cycle_of = |round: usize| 2 + round * 7 % (SLOTS - 2);

    for round in 0..WARMUP_ROUNDS {
        deadlock_round(&mut cc, &mut ts, cycle_of(round), &mut unblocked);
    }

    let before = allocations();
    for round in 0..MEASURED_ROUNDS {
        deadlock_round(&mut cc, &mut ts, cycle_of(round), &mut unblocked);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "2PL deadlock hot path allocated {} times over {MEASURED_ROUNDS} contended rounds",
        after - before
    );
}

/// The key space the item windows slide through: far more items than a
/// table holds, so the streams keep touching items no table has seen.
const DB: usize = 1 << 40;

/// One certification round: `SLOTS` concurrent transactions access
/// overlapping windows of the database (reads and writes), then validate
/// in order — early committers pass, later ones with stale reads fail
/// and abort. Item windows slide every round.
fn certification_round(cc: &mut Certification, round: usize) {
    for txn in 0..SLOTS {
        cc.begin(txn, (round * SLOTS + txn) as u64);
        for j in 0..8usize {
            let item = ((round * 13 + txn * 5 + j * 3) % DB) as u64;
            let write = (txn + j) % 3 == 0;
            assert_eq!(cc.access(txn, item, write), AccessOutcome::Granted);
        }
    }
    for txn in 0..SLOTS {
        let v = cc.validate(txn);
        if v.ok {
            cc.commit(txn);
        } else {
            cc.abort(txn);
        }
    }
}

fn steady_state_certification_churn_is_allocation_free() {
    const WARMUP_ROUNDS: usize = 200;
    const MEASURED_ROUNDS: usize = 4_000;

    let mut cc = Certification::new(SLOTS);
    for round in 0..WARMUP_ROUNDS {
        certification_round(&mut cc, round);
    }

    let before = allocations();
    for round in 0..MEASURED_ROUNDS {
        certification_round(&mut cc, WARMUP_ROUNDS + round);
    }
    let after = allocations();

    assert!(cc.commits() > 0, "rounds must actually commit");
    assert_eq!(
        after - before,
        0,
        "certification hot path allocated {} times over {MEASURED_ROUNDS} rounds \
         (item-table sweeps must rebuild in place, validation must not allocate)",
        after - before
    );
}

/// One T/O round: every transaction begins, then they take turns over
/// sliding item windows, oldest first; a late access aborts its run.
fn timestamp_round(cc: &mut TimestampOrdering, ts: &mut u64, round: usize) {
    for txn in 0..SLOTS {
        *ts += 1;
        cc.begin(txn, *ts);
    }
    let mut aborted = [false; SLOTS];
    for j in 0..8usize {
        for (txn, txn_aborted) in aborted.iter_mut().enumerate() {
            if *txn_aborted {
                continue;
            }
            let item = ((round * 17 + txn * 3 + j * 5) % DB) as u64;
            let write = (txn + j) % 3 == 0;
            if cc.access(txn, item, write) == AccessOutcome::Abort {
                cc.abort(txn);
                *txn_aborted = true;
            }
        }
    }
    for (txn, txn_aborted) in aborted.iter().enumerate() {
        if !*txn_aborted {
            assert!(cc.validate(txn).ok);
            cc.commit(txn);
        }
    }
}

fn steady_state_timestamp_churn_is_allocation_free() {
    const WARMUP_ROUNDS: usize = 400;
    const MEASURED_ROUNDS: usize = 4_000;

    let mut cc = TimestampOrdering::new(SLOTS);
    let mut ts = 0u64;
    for round in 0..WARMUP_ROUNDS {
        timestamp_round(&mut cc, &mut ts, round);
    }

    let before = allocations();
    for round in 0..MEASURED_ROUNDS {
        timestamp_round(&mut cc, &mut ts, WARMUP_ROUNDS + round);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "T/O hot path allocated {} times over {MEASURED_ROUNDS} rounds \
         (item-table sweeps must rebuild in place)",
        after - before
    );
}

/// One MVTO round: interleaved readers and writers over sliding item
/// windows; writers that would invalidate younger reads abort. Version
/// chains hit their retention cap during warm-up, after which inserts
/// recycle capacity.
fn mvto_round(cc: &mut Mvto, ts: &mut u64, round: usize) {
    for txn in 0..SLOTS {
        *ts += 1;
        cc.begin(txn, *ts);
    }
    let mut aborted = [false; SLOTS];
    for (txn, txn_aborted) in aborted.iter_mut().enumerate() {
        for j in 0..6usize {
            if *txn_aborted {
                break;
            }
            let item = ((round * 11 + txn * 7 + j) % DB) as u64;
            let write = (txn + j) % 2 == 0;
            if cc.access(txn, item, write) == AccessOutcome::Abort {
                cc.abort(txn);
                *txn_aborted = true;
            }
        }
    }
    for (txn, txn_aborted) in aborted.iter().enumerate() {
        if *txn_aborted {
            continue;
        }
        if cc.validate(txn).ok {
            cc.commit(txn);
        } else {
            cc.abort(txn);
        }
    }
}

fn steady_state_mvto_churn_is_allocation_free() {
    const WARMUP_ROUNDS: usize = 400;
    const MEASURED_ROUNDS: usize = 4_000;

    let mut cc = Mvto::new(SLOTS);
    let mut ts = 0u64;
    for round in 0..WARMUP_ROUNDS {
        mvto_round(&mut cc, &mut ts, round);
    }

    let before = allocations();
    for round in 0..MEASURED_ROUNDS {
        mvto_round(&mut cc, &mut ts, WARMUP_ROUNDS + round);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "MVTO hot path allocated {} times over {MEASURED_ROUNDS} rounds \
         (sweeps must rebuild in place and recycle blocks, buffers must recycle)",
        after - before
    );
}

/// The high-water of live heap bytes of one cell built with
/// `Simulator::new` and run for `horizon_ms` simulated ms, no controller
/// at a static bound. Allocation is deterministic, so the figure is too.
fn cell_peak_heap(
    cc: CcKind,
    terminals: u32,
    workload: WorkloadConfig,
    bound: u32,
    horizon_ms: f64,
) -> u64 {
    peak_heap_of(|| {
        let sys = SystemConfig {
            terminals,
            seed: 2743,
            ..SystemConfig::default()
        };
        let control = ControlConfig {
            sample_interval_ms: 2000.0,
            warmup_ms: 0.0,
            initial_bound: bound,
            ..ControlConfig::default()
        };
        let mut sim = Simulator::new(sys, workload, cc, control, None);
        sim.set_record_optimum(false);
        let stats = sim.run(horizon_ms);
        assert!(stats.commits > 0, "{cc:?}: the cell must commit");
    })
}

/// `abl-cc`'s 800-terminal wound-wait cell (`write_frac` 0.4, no
/// controller, bound 800), 16 simulated seconds: its lock table holds
/// one entry per locked item and one wait list per contended item. The
/// high-water read 772,896 B when each access took 16 B in `Txn::items`,
/// a lock entry 96 B and every contended entry a `VecDeque` of its own,
/// and reads 527,816 B with one-word accesses and wait lists threaded
/// through the slots.
fn wound_wait_800_terminal_cell_heap_is_pinned() {
    const BOUND: u64 = 650_000;
    let workload = WorkloadConfig {
        write_frac: Schedule::Constant(0.4),
        ..WorkloadConfig::default()
    };
    let peak = cell_peak_heap(CcKind::WoundWait, 800, workload, 800, 16_000.0);
    assert!(
        peak < BOUND,
        "the 800-terminal wound-wait cell's heap peaked at {peak} B (bound {BOUND})"
    );
}

/// A 500-terminal certification cell at k = 18, 16 simulated seconds:
/// two copies of every access set (the engine's, certification's). The
/// high-water read 688,520 B with 16-B accesses in both copies, each
/// grown by doubling to room for 32, and reads 375,856 B with 8-B
/// accesses and `Txn::items` reserved to exactly k.
fn certification_k18_cell_heap_is_pinned() {
    const BOUND: u64 = 530_000;
    let workload = WorkloadConfig {
        k: Schedule::Constant(18.0),
        ..WorkloadConfig::default()
    };
    let peak = cell_peak_heap(CcKind::Certification, 500, workload, 500, 16_000.0);
    assert!(
        peak < BOUND,
        "the k = 18 certification cell's heap peaked at {peak} B (bound {BOUND})"
    );
}

fn main() {
    steady_state_2pl_deadlock_churn_is_allocation_free();
    steady_state_certification_churn_is_allocation_free();
    steady_state_timestamp_churn_is_allocation_free();
    steady_state_mvto_churn_is_allocation_free();
    wound_wait_800_terminal_cell_heap_is_pinned();
    certification_k18_cell_heap_is_pinned();
    println!(
        "alloc_gate ok: 2PL, certification, T/O and MVTO churn allocation-free; \
         two cells' heap peaks under their pins"
    );
}
