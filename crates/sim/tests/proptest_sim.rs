//! Property tests for the simulation substrate.

use loadex_sim::{EventQueue, SimDuration, SimRng, SimTime, TimeWeightedGauge, Welford};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pop one event from both the calendar and the `(time, seq)` reference and
/// require they agree.
fn pop_both(
    q: &mut EventQueue<u64>,
    reference: &mut BTreeMap<(SimTime, u64), u64>,
) -> Result<Option<SimTime>, TestCaseError> {
    let want = reference.pop_first().map(|((t, _), ev)| (t, ev));
    let got = q.pop();
    prop_assert_eq!(got, want);
    Ok(got.map(|(t, _)| t))
}

proptest! {
    /// The calendar pops events in nondecreasing time order, FIFO at ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime(t), seq);
        }
        let mut popped = Vec::new();
        while let Some((t, seq)) = q.pop() {
            popped.push((t, seq));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// `next_below` is always in range and deterministic per seed.
    #[test]
    fn rng_bounds_and_determinism(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = a.next_below(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.next_below(n));
        }
    }

    /// The time-weighted gauge's average matches a straightforward
    /// piecewise-constant reference.
    #[test]
    fn gauge_average_matches_reference(
        steps in prop::collection::vec((1u64..1000, -50.0f64..50.0), 1..50)
    ) {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut integral = 0.0;
        let mut value = 0.0;
        for &(dt, v) in &steps {
            let d = SimDuration::from_nanos(dt);
            integral += value * d.as_secs_f64();
            now += d;
            g.set(now, v);
            value = v;
        }
        let expected = integral / now.since(SimTime::ZERO).as_secs_f64();
        let got = g.time_average(now);
        prop_assert!((got - expected).abs() < 1e-9 * (1.0 + expected.abs()),
            "got {got}, expected {expected}");
    }

    /// Welford statistics agree with naive two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    /// Splitting an RNG yields streams that do not echo the parent.
    #[test]
    fn rng_split_streams_differ(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from_u64(seed);
        let mut child = parent.split();
        let same = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(same < 8);
    }
}

proptest! {
    // Cheap cases, and run bugs need specific interleavings: run many.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Model-based check of the run-grouped calendar: random interleavings of
    /// same-instant bursts, pushes at the current time, and pops that stop in
    /// the middle of a run must match a `BTreeMap` keyed by `(time, seq)`
    /// after every operation, `len()` and `peek_time()` included.
    #[test]
    fn event_queue_matches_btreemap_model(
        ops in prop::collection::vec((0u8..10, 0u64..4, 1usize..12), 1..120)
    ) {
        let mut q = EventQueue::new();
        let mut reference = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for &(kind, dt, n) in &ops {
            match kind {
                // A burst of `n` events at one instant, `dt` from now
                // (`dt == 0`: at the current time).
                0..=3 => {
                    let t = now + SimDuration::from_nanos(dt);
                    for _ in 0..n {
                        q.push(t, seq);
                        reference.insert((t, seq), seq);
                        seq += 1;
                    }
                }
                // Single pushes at scattered instants close the open run.
                4..=5 => {
                    let t = now + SimDuration::from_nanos(dt * 7 + n as u64);
                    q.push(t, seq);
                    reference.insert((t, seq), seq);
                    seq += 1;
                }
                // Up to `n` pops, often ending inside a run; the clock
                // follows the popped events as in the simulator.
                _ => {
                    for _ in 0..n {
                        match pop_both(&mut q, &mut reference)? {
                            Some(t) => now = t,
                            None => break,
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
            prop_assert_eq!(q.peek_time(), reference.keys().next().map(|&(t, _)| t));
        }
        while pop_both(&mut q, &mut reference)?.is_some() {
            prop_assert_eq!(q.len(), reference.len());
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.scheduled_total(), seq);
    }
}
