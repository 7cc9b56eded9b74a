//! Property-based tests of the DES kernel invariants.

use proptest::prelude::*;

use alc_des::dist::{Dist, Sample};
use alc_des::rng::RngStream;
use alc_des::stats::Welford;
use alc_des::{Calendar, SimTime};

proptest! {
    /// The calendar pops events in nondecreasing time order, with FIFO
    /// order among equal times, for any schedule.
    #[test]
    fn calendar_pops_sorted_fifo(times in prop::collection::vec(0u32..1000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::new(f64::from(t)), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, seq)) = cal.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    prop_assert!(seq > prev, "FIFO violated at equal times");
                }
            }
            last_time = t;
            last_seq_at_time = Some(seq);
        }
    }

    /// Cancelled events never fire; all others do, exactly once.
    #[test]
    fn calendar_cancellation_is_exact(
        times in prop::collection::vec(0u32..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut cal = Calendar::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(SimTime::new(f64::from(t)), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((i, tok), &dead) in tokens.iter().zip(cancel_mask.iter()) {
            if dead {
                cal.cancel(*tok);
                cancelled.insert(*i);
            }
        }
        let mut fired = std::collections::HashSet::new();
        while let Some((_, id)) = cal.pop() {
            prop_assert!(!cancelled.contains(&id), "cancelled event {id} fired");
            prop_assert!(fired.insert(id), "event {id} fired twice");
        }
        prop_assert_eq!(fired.len(), times.len() - cancelled.len());
    }

    /// Welford's running mean matches the two-pass mean on arbitrary data.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let scale = mean.abs().max(1.0);
        prop_assert!((w.mean() - mean).abs() <= 1e-8 * scale);
    }

    /// Distinct sampling returns exactly `count` distinct in-range values.
    #[test]
    fn distinct_below_properties(seed in any::<u64>(), population in 1u64..5000, frac in 0.0f64..1.0) {
        let count = ((population as f64 * frac) as usize).min(512);
        let mut rng = RngStream::from_seed(seed);
        let mut sample = vec![population; 3];
        rng.distinct_below_into(population, count, &mut sample);
        prop_assert_eq!(sample.len(), count);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(set.len(), count, "duplicates in sample");
        prop_assert!(sample.iter().all(|&x| x < population));
    }

    /// Distribution samples are non-negative and the empirical mean is in
    /// the right ballpark for any parameterization.
    #[test]
    fn distributions_sane(seed in any::<u64>(), mean in 0.1f64..1e4) {
        let mut rng = RngStream::from_seed(seed);
        for dist in [Dist::constant(mean), Dist::exponential(mean)] {
            let n = 2000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = dist.sample(&mut rng);
                prop_assert!(x >= 0.0 && x.is_finite());
                sum += x;
            }
            let emp = sum / f64::from(n);
            prop_assert!(
                (emp - mean).abs() < 0.15 * mean,
                "empirical mean {emp} vs {mean}"
            );
        }
    }

    /// Same seed ⇒ same stream; different seeds ⇒ (almost surely)
    /// different streams.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>()) {
        let mut a = RngStream::from_seed(seed);
        let mut b = RngStream::from_seed(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = RngStream::from_seed(seed.wrapping_add(1));
        let distinct = (0..64).any(|_| a.next_u64() != c.next_u64());
        prop_assert!(distinct);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The calendar agrees with a naive reference model (linear scan over
    /// live `(time, seq)` pairs) on arbitrary schedule/cancel/pop
    /// interleavings — including cancels of tokens that already fired,
    /// which must be no-ops, and refused pops that run ahead of the
    /// clock. The
    /// delays mix the time scales a bucketed rung is sensitive to: ties
    /// and zero delays, sub-millisecond to 4 ms service bursts, 1 s think
    /// times and outliers 100× beyond those, so that windows are opened
    /// with widths misjudged in both directions and buckets get split.
    /// Up to three FIFO lanes open along the way, with delays from the
    /// same scales (two of them may share one); to the model an event
    /// scheduled on a lane is one inserted at `now + delay` with the next
    /// `seq`, like any other.
    #[test]
    fn calendar_matches_oracle_under_interleaving(
        ops in prop::collection::vec((0u8..8, 0usize..6, 0u32..50, 0usize..64), 1..600),
    ) {
        const SCALES: [f64; 6] = [1.0, 0.0, 0.003, 0.08, 20.0, 2000.0];
        // Oracle: (time, seq, id, alive); pop = min (time, seq) among alive.
        let mut oracle: Vec<(f64, u64, usize, bool)> = Vec::new();
        let mut oracle_now = 0.0f64;

        let mut cal = Calendar::new();
        // Tokens of the filed events, each with its oracle entry.
        let mut tokens = Vec::new();
        let mut lanes = Vec::new();

        for (kind, scale, time, pick) in ops {
            let next_live = |oracle: &[(f64, u64, usize, bool)]| {
                oracle
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.3)
                    .min_by(|(_, a), (_, b)| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap())
                    .map(|(i, e)| (i, e.0, e.2))
            };
            // Every event's id is its oracle index, which is its `seq`.
            let id = oracle.len();
            let span = f64::from(time) * SCALES[scale];
            match kind {
                // Schedule at `now + time · scale`.
                0 | 1 => {
                    let at = oracle_now + span;
                    tokens.push((cal.schedule(SimTime::new(at), id), id));
                    oracle.push((at, id as u64, id, true));
                }
                // Cancel some previously issued token (may be stale).
                2 => {
                    if !tokens.is_empty() {
                        let (token, idx) = tokens[pick % tokens.len()];
                        cal.cancel(token);
                        // Oracle: kill the entry iff it has not fired yet.
                        oracle[idx].3 = false;
                    }
                }
                // Pop up to just short of the next live event: refused,
                // and the clock stays put.
                3 => {
                    if let Some((_, at, _)) = next_live(&oracle) {
                        if at > 0.0 {
                            let limit = SimTime::new(at.next_down());
                            prop_assert_eq!(cal.pop_until(limit), None);
                        }
                    }
                    prop_assert_eq!(cal.now(), SimTime::new(oracle_now));
                }
                // Open a lane (every fourth with the delay of one that is
                // open already); once three are open, schedule on one.
                5 | 6 => {
                    if kind == 5 && lanes.len() < 3 {
                        let delay = match lanes.get(pick / 4 % 3) {
                            Some(&(_, shared)) if pick % 4 == 0 => shared,
                            _ => span,
                        };
                        lanes.push((cal.lane(delay), delay));
                    } else if !lanes.is_empty() {
                        let (lane, delay) = lanes[pick % lanes.len()];
                        cal.schedule_lane(lane, id);
                        oracle.push((oracle_now + delay, id as u64, id, true));
                    }
                }
                // Pop (4), or pop up to `now + time · scale` (7).
                _ => {
                    let limit = if kind == 7 { oracle_now + span } else { f64::INFINITY };
                    let expect = next_live(&oracle).filter(|&(_, at, _)| at <= limit);
                    let got = if kind == 7 {
                        cal.pop_until(SimTime::new(limit))
                    } else {
                        cal.pop()
                    };
                    match (expect, got) {
                        (None, None) => {}
                        (Some((i, at, id)), Some((t, e))) => {
                            prop_assert_eq!(t, SimTime::new(at));
                            prop_assert_eq!(e, id);
                            oracle[i].3 = false;
                            oracle_now = at;
                        }
                        (exp, got) => panic!("oracle {exp:?} vs calendar {got:?}"),
                    }
                    prop_assert_eq!(cal.now(), SimTime::new(oracle_now));
                }
            }
        }
        // Drain: the remainder must come out in exact oracle order.
        let mut rest: Vec<(f64, u64, usize)> = oracle
            .iter()
            .filter(|e| e.3)
            .map(|e| (e.0, e.1, e.2))
            .collect();
        rest.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        for (at, _, id) in rest {
            let (t, e) = cal.pop().expect("calendar drained early");
            prop_assert_eq!(t, SimTime::new(at));
            prop_assert_eq!(e, id);
        }
        prop_assert!(cal.pop().is_none());
        prop_assert!(cal.is_empty());
    }
}
