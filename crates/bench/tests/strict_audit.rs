//! `run --audit` must not judge an event stream the recorder truncated.

use loadex_bench::{config_for, strict_audit};
use loadex_core::MechKind;
use loadex_obs::Recorder;
use loadex_solver::run_observed;
use loadex_sparse::models::by_name;

/// The events and drop count of a recorded 8-process snapshot run.
fn record(rec: Recorder) -> (Vec<loadex_obs::EventRecord>, u64) {
    let tree = by_name("TWOTONE").unwrap().build_tree();
    let cfg = config_for(8).with_mechanism(MechKind::Snapshot);
    run_observed(&tree, &cfg, rec.clone()).unwrap();
    (rec.take(), rec.dropped())
}

#[test]
fn truncated_stream_gets_no_verdict() {
    let (events, dropped) = record(Recorder::enabled());
    assert_eq!(dropped, 0);
    let total = events.len() as u64;
    let (lines, failed) = strict_audit(&events, dropped);
    assert_eq!(
        lines,
        [format!("audit: {total} events, 0 violations (strict)")]
    );
    assert!(!failed);

    let (events, dropped) = record(Recorder::with_capacity(1000));
    assert_eq!((events.len() as u64, dropped), (1000, total - 1000));
    let (lines, failed) = strict_audit(&events, dropped);
    assert_eq!(
        lines,
        [format!(
            "audit: incomplete ({} events dropped), no verdict",
            total - 1000
        )]
    );
    assert!(failed);
}
