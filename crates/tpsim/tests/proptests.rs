//! Property-based tests of the CC protocols and the simulation engine.
//!
//! The serializability properties are checked against independent oracles
//! that replay the same operation sequence with simple reference
//! semantics.

#![allow(clippy::type_complexity, clippy::needless_range_loop)] // oracle bookkeeping

use proptest::prelude::*;

use alc_tpsim::cc::{
    AccessOutcome, Certification, ConcurrencyControl, Mvto, Prevention, PreventionPolicy,
    TimestampOrdering, TwoPhaseLocking,
};

/// A random workload step for protocol testing.
#[derive(Debug, Clone, Copy)]
enum Step {
    Access { txn: usize, item: u64, write: bool },
    TryCommit { txn: usize },
    Abort { txn: usize },
}

fn steps(txns: usize, items: u64) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        6 => (0..txns, 0..items, any::<bool>())
            .prop_map(|(txn, item, write)| Step::Access { txn, item, write }),
        2 => (0..txns).prop_map(|txn| Step::TryCommit { txn }),
        1 => (0..txns).prop_map(|txn| Step::Abort { txn }),
    ];
    prop::collection::vec(step, 1..200)
}

proptest! {
    /// Certification enforces first-committer-wins: for every committed
    /// transaction, no item it accessed was written by another transaction
    /// that committed within its lifetime. Verified with an independent
    /// commit-log oracle.
    #[test]
    fn certification_first_committer_wins(ops in steps(6, 12)) {
        let mut cc = Certification::new(6);
        let mut ts = 0u64;
        // Oracle state: global commit log of (commit_index, item) writes,
        // plus per-txn (start_index, access set).
        let mut commit_index = 0u64;
        let mut log: Vec<(u64, u64)> = Vec::new();
        let mut active: Vec<Option<(u64, Vec<(u64, bool)>)>> = vec![None; 6];

        let begin = |cc: &mut Certification, active: &mut Vec<Option<(u64, Vec<(u64, bool)>)>>, txn: usize, ts: &mut u64, commit_index: u64| {
            *ts += 1;
            cc.begin(txn, *ts);
            active[txn] = Some((commit_index, Vec::new()));
        };

        for txn in 0..6 {
            begin(&mut cc, &mut active, txn, &mut ts, commit_index);
        }
        for op in ops {
            match op {
                Step::Access { txn, item, write } => {
                    prop_assert_eq!(cc.access(txn, item, write), AccessOutcome::Granted);
                    active[txn].as_mut().expect("active").1.push((item, write));
                }
                Step::TryCommit { txn } => {
                    let v = cc.validate(txn);
                    let (start, accesses) = active[txn].clone().expect("active");
                    // Oracle: conflicts = accessed items written by commits
                    // after `start`.
                    let dirty: std::collections::HashSet<u64> = log
                        .iter()
                        .filter(|&&(idx, _)| idx > start)
                        .map(|&(_, item)| item)
                        .collect();
                    let expect_conflict = accesses.iter().any(|&(item, _)| dirty.contains(&item));
                    prop_assert_eq!(
                        v.ok,
                        !expect_conflict,
                        "validate disagrees with oracle for txn {}", txn
                    );
                    if v.ok {
                        cc.commit(txn);
                        commit_index += 1;
                        for &(item, write) in &accesses {
                            if write {
                                log.push((commit_index, item));
                            }
                        }
                    } else {
                        cc.abort(txn);
                    }
                    begin(&mut cc, &mut active, txn, &mut ts, commit_index);
                }
                Step::Abort { txn } => {
                    cc.abort(txn);
                    begin(&mut cc, &mut active, txn, &mut ts, commit_index);
                }
            }
        }
    }

    /// 2PL never grants incompatible locks simultaneously; an oracle lock
    /// table is maintained from the observed grant/release events.
    #[test]
    fn twopl_grants_are_always_compatible(ops in steps(5, 8)) {
        let mut cc = TwoPhaseLocking::new(5);
        let mut ts = 0u64;
        // Oracle: item -> (writers, readers) currently granted.
        let mut held: std::collections::HashMap<u64, (Vec<usize>, Vec<usize>)> =
            std::collections::HashMap::new();
        let mut blocked = [false; 5];

        for txn in 0..5usize {
            ts += 1;
            cc.begin(txn, ts);
        }
        let release_all = |held: &mut std::collections::HashMap<u64, (Vec<usize>, Vec<usize>)>, txn: usize| {
            for (_, (w, r)) in held.iter_mut() {
                w.retain(|&t| t != txn);
                r.retain(|&t| t != txn);
            }
        };
        for op in ops {
            match op {
                Step::Access { txn, item, write } => {
                    if blocked[txn] {
                        continue; // a blocked txn cannot issue requests
                    }
                    match cc.access(txn, item, write) {
                        AccessOutcome::Granted => {
                            let (w, r) = held.entry(item).or_default();
                            if write {
                                prop_assert!(
                                    w.iter().all(|&t| t == txn) && r.iter().all(|&t| t == txn),
                                    "X granted on {item} while held by others"
                                );
                                if !w.contains(&txn) {
                                    w.push(txn);
                                }
                            } else {
                                prop_assert!(
                                    w.iter().all(|&t| t == txn),
                                    "S granted on {item} while X-held by another"
                                );
                                if !r.contains(&txn) {
                                    r.push(txn);
                                }
                            }
                        }
                        AccessOutcome::Blocked => {
                            blocked[txn] = true;
                            // Deadlock handling: abort the named victim.
                            if let Some(victim) = cc.deadlock_victim(txn) {
                                let unblocked = cc.abort(victim);
                                release_all(&mut held, victim);
                                blocked[victim] = false;
                                for u in unblocked {
                                    blocked[u] = false;
                                    // The granted request is now held: track
                                    // it conservatively as a reader (mode is
                                    // internal; compatibility was checked by
                                    // the protocol itself).
                                }
                                ts += 1;
                                cc.begin(victim, ts);
                            }
                        }
                        AccessOutcome::Abort => unreachable!("2PL never self-aborts on access"),
                    }
                }
                Step::TryCommit { txn } | Step::Abort { txn } => {
                    if blocked[txn] {
                        continue;
                    }
                    let unblocked = if matches!(op, Step::TryCommit { .. }) {
                        prop_assert!(cc.validate(txn).ok);
                        cc.commit(txn)
                    } else {
                        cc.abort(txn)
                    };
                    release_all(&mut held, txn);
                    for u in unblocked {
                        blocked[u] = false;
                    }
                    ts += 1;
                    cc.begin(txn, ts);
                }
            }
        }
    }

    /// The deadlock-prevention protocols never grant incompatible locks,
    /// and their wound/die decisions always unblock the system: no run of
    /// operations can wedge (a blocked transaction either waits for a
    /// live holder or the protocol names a victim).
    #[test]
    fn prevention_grants_are_always_compatible(
        ops in steps(5, 8),
        wound in any::<bool>(),
    ) {
        let policy = if wound { PreventionPolicy::WoundWait } else { PreventionPolicy::WaitDie };
        let mut cc = Prevention::new(policy, 5);
        let mut ts = 0u64;
        // Oracle: item -> (writers, readers) currently granted.
        let mut held: std::collections::HashMap<u64, (Vec<usize>, Vec<usize>)> =
            std::collections::HashMap::new();
        let mut blocked = [false; 5];

        for txn in 0..5usize {
            ts += 1;
            cc.begin(txn, ts);
        }
        let release_all = |held: &mut std::collections::HashMap<u64, (Vec<usize>, Vec<usize>)>, txn: usize| {
            for (_, (w, r)) in held.iter_mut() {
                w.retain(|&t| t != txn);
                r.retain(|&t| t != txn);
            }
        };
        for op in ops {
            match op {
                Step::Access { txn, item, write } => {
                    if blocked[txn] {
                        continue;
                    }
                    match cc.access(txn, item, write) {
                        AccessOutcome::Granted => {
                            let (w, r) = held.entry(item).or_default();
                            if write {
                                prop_assert!(
                                    w.iter().all(|&t| t == txn) && r.iter().all(|&t| t == txn),
                                    "X granted on {item} while held by others"
                                );
                                if !w.contains(&txn) {
                                    w.push(txn);
                                }
                            } else {
                                prop_assert!(
                                    w.iter().all(|&t| t == txn),
                                    "S granted on {item} while X-held by another"
                                );
                                if !r.contains(&txn) {
                                    r.push(txn);
                                }
                            }
                        }
                        AccessOutcome::Blocked => {
                            blocked[txn] = true;
                            // Drain the victim chain exactly as the engine does.
                            let mut guard = 0;
                            while let Some(victim) = cc.deadlock_victim(txn) {
                                let unblocked = cc.abort(victim);
                                release_all(&mut held, victim);
                                blocked[victim] = false;
                                for u in unblocked {
                                    blocked[u] = false;
                                }
                                ts += 1;
                                cc.begin(victim, ts);
                                if victim == txn {
                                    break;
                                }
                                guard += 1;
                                prop_assert!(guard <= 5, "victim chain did not converge");
                            }
                        }
                        AccessOutcome::Abort => unreachable!("prevention never aborts on access"),
                    }
                }
                Step::TryCommit { txn } | Step::Abort { txn } => {
                    if blocked[txn] {
                        continue;
                    }
                    let unblocked = if matches!(op, Step::TryCommit { .. }) {
                        prop_assert!(cc.validate(txn).ok);
                        cc.commit(txn)
                    } else {
                        cc.abort(txn)
                    };
                    release_all(&mut held, txn);
                    for u in unblocked {
                        blocked[u] = false;
                    }
                    ts += 1;
                    cc.begin(txn, ts);
                }
            }
        }
        // No-wedge check: repeatedly aborting every runnable transaction
        // must eventually free all waiters (prevention admits no cycles,
        // so every blocked transaction waits on a live chain of holders).
        let mut done = [false; 5];
        let mut progress = true;
        while progress {
            progress = false;
            for txn in 0..5usize {
                if !blocked[txn] && !done[txn] {
                    let unblocked = cc.abort(txn);
                    release_all(&mut held, txn);
                    done[txn] = true;
                    for u in unblocked {
                        blocked[u] = false;
                    }
                    progress = true;
                }
            }
        }
        prop_assert!(
            blocked.iter().all(|&b| !b),
            "aborting all runners left transactions wedged: {blocked:?}"
        );
    }

    /// MVTO's committed projection is serializable in timestamp order:
    /// every committed reader saw exactly the version the ts-order serial
    /// execution over committed writers would have produced.
    #[test]
    fn mvto_commits_serialize_in_timestamp_order(ops in steps(6, 10)) {
        // A large retention bound keeps GC out of this property.
        let mut cc = Mvto::with_max_versions(6, 1024);
        let mut ts_counter = 0u64;
        let mut txn_ts = [0u64; 6];
        // Committed history: (ts, reads as (item, wts_read), writes).
        let mut committed: Vec<(u64, Vec<(u64, u64)>, Vec<u64>)> = Vec::new();

        for txn in 0..6usize {
            ts_counter += 1;
            txn_ts[txn] = ts_counter;
            cc.begin(txn, ts_counter);
        }
        for op in ops {
            match op {
                Step::Access { txn, item, write } => {
                    if cc.access(txn, item, write) == AccessOutcome::Abort {
                        cc.abort(txn);
                        ts_counter += 1;
                        txn_ts[txn] = ts_counter;
                        cc.begin(txn, ts_counter);
                    }
                }
                Step::TryCommit { txn } => {
                    let reads = cc.reads_of(txn).to_vec();
                    let writes = cc.writes_of(txn).to_vec();
                    if cc.validate(txn).ok {
                        cc.commit(txn);
                        committed.push((txn_ts[txn], reads, writes));
                    } else {
                        cc.abort(txn);
                    }
                    ts_counter += 1;
                    txn_ts[txn] = ts_counter;
                    cc.begin(txn, ts_counter);
                }
                Step::Abort { txn } => {
                    cc.abort(txn);
                    ts_counter += 1;
                    txn_ts[txn] = ts_counter;
                    cc.begin(txn, ts_counter);
                }
            }
        }
        // Serial oracle: the version a reader at `ts` must see is the
        // largest committed write timestamp below ts on that item (0 =
        // initial). Strictly below: the commit-time-install variant
        // serializes a transaction's reads before its own writes, so its
        // own version is never its read target.
        for (reader_ts, reads, _) in &committed {
            for &(item, wts_read) in reads {
                let serial = committed
                    .iter()
                    .filter(|(w_ts, _, writes)| w_ts < reader_ts && writes.contains(&item))
                    .map(|(w_ts, _, _)| *w_ts)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(
                    wts_read, serial,
                    "reader {} on item {} saw {}, serial order says {}",
                    reader_ts, item, wts_read, serial
                );
            }
        }
    }

    /// Timestamp ordering matches the textbook rts/wts oracle exactly.
    #[test]
    fn timestamp_ordering_matches_oracle(ops in steps(5, 10)) {
        let mut cc = TimestampOrdering::new(5);
        let mut ts_counter = 0u64;
        let mut txn_ts = [0u64; 5];
        let mut oracle: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new(); // item -> (rts, wts)
        let mut dead = [false; 5];

        for txn in 0..5usize {
            ts_counter += 1;
            txn_ts[txn] = ts_counter;
            cc.begin(txn, ts_counter);
        }
        for op in ops {
            match op {
                Step::Access { txn, item, write } => {
                    if dead[txn] {
                        continue;
                    }
                    let ts = txn_ts[txn];
                    let e = oracle.entry(item).or_insert((0, 0));
                    let expect = if write {
                        if ts < e.0 || ts < e.1 {
                            AccessOutcome::Abort
                        } else {
                            e.1 = ts;
                            AccessOutcome::Granted
                        }
                    } else if ts < e.1 {
                        AccessOutcome::Abort
                    } else {
                        e.0 = e.0.max(ts);
                        AccessOutcome::Granted
                    };
                    let got = cc.access(txn, item, write);
                    prop_assert_eq!(got, expect, "T/O deviates from oracle");
                    if got == AccessOutcome::Abort {
                        cc.abort(txn);
                        dead[txn] = true;
                    }
                }
                Step::TryCommit { txn } | Step::Abort { txn } => {
                    if matches!(op, Step::TryCommit { .. }) && !dead[txn] {
                        prop_assert!(cc.validate(txn).ok);
                        cc.commit(txn);
                    } else {
                        cc.abort(txn);
                    }
                    ts_counter += 1;
                    txn_ts[txn] = ts_counter;
                    cc.begin(txn, ts_counter);
                    dead[txn] = false;
                }
            }
        }
    }
}

mod engine_props {
    use super::*;
    use alc_core::controller::{IncrementalSteps, IsParams, LoadController};
    use alc_des::dist::Dist;
    use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
    use alc_tpsim::engine::Simulator;
    use alc_tpsim::workload::WorkloadConfig;
    use alc_tpsim::{ClientConfig, RetryPolicy};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(240))]

        /// For arbitrary small configurations (a static bound or an IS
        /// controller displacing down to its own; a scheduled CC switch;
        /// a CPU kill/restore pair; patient terminals or an impatient
        /// client pool, backing off with or without jitter) the engine
        /// terminates, keeps its books at every step, respects a static
        /// bound, and produces finite statistics. In debug builds the lifecycle
        /// writer's legal-edge check runs under all of it.
        #[test]
        fn engine_invariants_hold(
            seed in any::<u64>(),
            terminals in 4u32..40,
            bound in 1u32..50,
            k in 1.0f64..10.0,
            write_frac in 0.0f64..1.0,
            cc_pick in 0usize..CcKind::ALL.len(),
            displacing in any::<bool>(),
            switch in (1_000.0f64..7_000.0, 0usize..CcKind::ALL.len()),
            outage in (1_000.0f64..6_000.0, 100.0f64..1_500.0, 1i32..3),
            clients in 0usize..3,
        ) {
            let cc = CcKind::ALL[cc_pick];
            let sys = SystemConfig {
                terminals,
                cpus: 2,
                db_size: 200,
                think: Dist::exponential(100.0),
                disk_access: Dist::constant(2.0),
                disk_init_commit: Dist::constant(20.0),
                seed,
                ..SystemConfig::default()
            };
            let workload = WorkloadConfig {
                k: alc_analytic::surface::Schedule::Constant(k),
                write_frac: alc_analytic::surface::Schedule::Constant(write_frac),
                ..WorkloadConfig::default()
            };
            let controller = displacing.then(|| {
                Box::new(IncrementalSteps::new(IsParams {
                    initial_bound: bound,
                    max_bound: 50,
                    ..IsParams::default()
                })) as Box<dyn LoadController>
            });
            let mut sim = Simulator::new(
                sys,
                workload,
                cc,
                ControlConfig {
                    initial_bound: bound,
                    sample_interval_ms: 500.0,
                    warmup_ms: 0.0,
                    displacement: displacing,
                    ..ControlConfig::default()
                },
                controller,
            );
            sim.set_record_optimum(false);
            sim.set_cc_switches(&[(switch.0, CcKind::ALL[switch.1])]);
            let (down_at, down_for, servers) = outage;
            sim.set_faults(&[(down_at, -servers), (down_at + down_for, servers)]);
            let fixed_delay = RetryPolicy {
                base_ms: 30.0,
                factor: 1.0,
                jitter: 0.0,
                ..RetryPolicy::default()
            };
            let pool = match clients {
                1 => Some((terminals, RetryPolicy::default())),
                2 => Some((terminals / 2, fixed_delay)),
                _ => None,
            };
            if let Some((population, retry)) = pool {
                sim.set_clients(ClientConfig {
                    retry,
                    ..ClientConfig::new(population, Dist::exponential(400.0))
                });
            }
            let mut stats = sim.run_until(0.0);
            for slice in 1..=136 {
                stats = sim.run_until(60.0 * f64::from(slice));
                let [thinking, queued, running, blocked, restart_wait] = sim.txn_state_census();
                prop_assert_eq!(sim.cc_in_flight() as usize, running + blocked);
                prop_assert_eq!(
                    sim.gate().in_system() as usize,
                    running + blocked + restart_wait
                );
                prop_assert_eq!(sim.gate().queue_len(), queued);
                prop_assert_eq!(
                    thinking + queued + running + blocked + restart_wait,
                    terminals as usize
                );
                if !displacing {
                    prop_assert!(sim.gate().in_system() <= bound);
                }
            }
            if !displacing {
                prop_assert!(stats.mean_mpl <= f64::from(bound) + 1e-9);
            }
            prop_assert!(stats.throughput_per_sec.is_finite());
            prop_assert!(stats.mean_response_ms >= 0.0);
            prop_assert!(stats.abort_ratio >= 0.0 && stats.abort_ratio <= 1.0);
            prop_assert!(stats.cpu_utilization >= 0.0 && stats.cpu_utilization <= 1.0 + 1e-9);
        }

        /// `ControlConfig::check` and `ClientConfig::check` say `Ok`
        /// exactly when `Simulator::new` and `set_clients` take the
        /// configuration: the sample interval at its edges (0, negative,
        /// NaN, ∞), pools of 0 to twice the terminals, under closed or
        /// open arrivals.
        #[test]
        fn control_and_client_checks_agree_with_the_engine(
            interval in prop_oneof![
                Just(0.0), Just(-1.0), Just(f64::NAN), Just(f64::INFINITY), 0.0f64..5_000.0
            ],
            terminals in 1u32..8,
            population in 0u32..16,
            open in any::<bool>(),
        ) {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            use alc_tpsim::config::ArrivalProcess;
            let arrival = if open {
                ArrivalProcess::Open { interarrival: Dist::exponential(10.0) }
            } else {
                ArrivalProcess::Closed
            };
            let sys = SystemConfig { terminals, arrival, ..SystemConfig::default() };
            let control =
                ControlConfig { sample_interval_ms: interval, ..ControlConfig::default() };
            let pool = ClientConfig::new(population, Dist::constant(500.0));
            let workload = WorkloadConfig::default;
            let new = || Simulator::new(sys, workload(), CcKind::Certification, control, None);
            let built = catch_unwind(AssertUnwindSafe(new)).is_ok();
            prop_assert_eq!(control.check().is_ok(), built, "{:?}", control);
            if built {
                let join = || new().set_clients(pool.clone());
                let joined = catch_unwind(AssertUnwindSafe(join)).is_ok();
                prop_assert_eq!(pool.check(&sys).is_ok(), joined, "{:?} on {:?}", pool, sys);
            }
        }

        /// `WorkloadConfig::check` says `Ok` exactly when `Simulator::new`
        /// takes the workload: each field drawn as a constant, a
        /// sinusoid or a (possibly empty) piecewise list whose levels
        /// straddle the field's domain edges.
        #[test]
        fn workload_check_agrees_with_the_engine(
            field in 0usize..6,
            shape in 0usize..3,
            level in prop_oneof![
                Just(-1.0), Just(0.0), Just(0.5), Just(1.0), Just(1.5), Just(f64::NAN),
                -2.0f64..20.0
            ],
            swing in 0.0f64..2.0,
        ) {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            use alc_analytic::surface::Schedule;
            let schedule = match shape {
                0 => Schedule::Constant(level),
                1 => Schedule::Sinusoid { mean: level, amplitude: swing, period: 1_000.0 },
                _ if swing < 0.2 => Schedule::Piecewise(Vec::new()),
                _ => Schedule::Piecewise(vec![(0.0, 1.0), (500.0, level)]),
            };
            let mut workload = WorkloadConfig::default();
            *[
                &mut workload.k,
                &mut workload.query_frac,
                &mut workload.write_frac,
                &mut workload.access_skew,
                &mut workload.arrival_rate_factor,
                &mut workload.think_time_factor,
            ][field] = schedule;
            let new = || {
                let (sys, control) = (SystemConfig::default(), ControlConfig::default());
                Simulator::new(sys, workload.clone(), CcKind::Certification, control, None)
            };
            let built = catch_unwind(AssertUnwindSafe(new)).is_ok();
            prop_assert_eq!(workload.check().is_ok(), built, "{:?}", workload);
        }
    }
}
