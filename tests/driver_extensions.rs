//! The extension mechanisms (periodic heartbeat, gossip) running over real
//! threads through the `Driver` runtime — exercising the timer path that
//! the discrete-event engine drives with `MechTimer` events.

use loadex::core::{ChangeOrigin, GossipMechanism, Load, Mechanism, PeriodicMechanism};
use loadex::driver::Driver;
use loadex::net::ThreadNetwork;
use loadex::sim::{ActorId, SimDuration};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn run_until_converged<M, F>(n: usize, mk: F) -> Vec<(usize, f64, Vec<f64>)>
where
    M: Mechanism + Send + 'static,
    F: Fn(ActorId) -> M + Send + Sync + 'static,
{
    let eps = ThreadNetwork::new(n);
    let stop = Arc::new(AtomicBool::new(false));
    let mk = Arc::new(mk);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            let stop = Arc::clone(&stop);
            let mk = Arc::clone(&mk);
            thread::spawn(move || {
                let rank = ep.rank();
                let mech = mk(rank);
                let mut d = Driver::new(mech, ep);
                let my_load = 100.0 * (rank.index() + 1) as f64;
                d.local_change(Load::work(my_load), ChangeOrigin::Local);
                while !stop.load(Ordering::Relaxed) {
                    d.serve(Duration::from_millis(1));
                }
                let views: Vec<f64> = (0..n).map(|q| d.view().get(ActorId(q)).work).collect();
                (rank.index(), my_load, views)
            })
        })
        .collect();
    // Let the timers run a few hundred rounds.
    let deadline = Instant::now() + Duration::from_millis(700);
    while Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn periodic_heartbeat_converges_over_threads() {
    const N: usize = 4;
    let results = run_until_converged(N, |rank| {
        PeriodicMechanism::new(rank, N, SimDuration::from_millis(2))
    });
    for (rank, _, views) in &results {
        for (q, &seen) in views.iter().enumerate() {
            let want = 100.0 * (q + 1) as f64;
            assert_eq!(seen, want, "P{rank}'s view of P{q}");
        }
    }
}

#[test]
fn gossip_converges_over_threads() {
    const N: usize = 6;
    let results = run_until_converged(N, |rank| {
        GossipMechanism::new(rank, N, SimDuration::from_millis(2), 2)
    });
    for (rank, _, views) in &results {
        for (q, &seen) in views.iter().enumerate() {
            let want = 100.0 * (q + 1) as f64;
            assert_eq!(seen, want, "P{rank}'s view of P{q} via gossip");
        }
    }
}
