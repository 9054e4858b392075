//! # loadex-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (§4.3–4.5) and prints them side by side with the published values. The
//! `tables` binary is the command-line front end; the Criterion benches under
//! `benches/` wrap the same experiments.
//!
//! Absolute numbers are not expected to match the 2005 IBM SP — the
//! simulated platform is calibrated to the same order of magnitude — but the
//! *shapes* (which mechanism wins, by what factor, where the exceptions are)
//! are the reproduction target. See `EXPERIMENTS.md` at the workspace root.

pub mod experiments;
pub mod paper;
pub mod table;

pub use experiments::*;
pub use table::Table;

use loadex_obs::{EventRecord, ProtocolAuditor};

/// `run --audit`: the strict audit of a recorded event stream, as the lines
/// to print and whether the run fails.
///
/// A stream from which the recorder `dropped` events gets no verdict and
/// fails: the auditor would read the missing prefix as protocol faults, and
/// a pass would vouch for events it never saw.
pub fn strict_audit(events: &[EventRecord], dropped: u64) -> (Vec<String>, bool) {
    if dropped > 0 {
        let line = format!("audit: incomplete ({dropped} events dropped), no verdict");
        return (vec![line], true);
    }
    let report = ProtocolAuditor::strict().audit(events);
    let mut lines: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("audit violation: {v}"))
        .collect();
    lines.push(format!(
        "audit: {} events, {} violations (strict)",
        report.events,
        report.violations.len()
    ));
    (lines, !report.is_clean())
}

/// Public lookups of the paper's published values (for external checks).
pub fn paper_lookup_t5(matrix: &str, nprocs: usize) -> Option<(f64, f64)> {
    paper::table5(matrix, nprocs)
}
/// See [`paper_lookup_t5`].
pub fn paper_lookup_t6(matrix: &str, nprocs: usize) -> Option<(u64, u64)> {
    paper::table6(matrix, nprocs)
}
/// See [`paper_lookup_t5`].
pub fn paper_lookup_t7(matrix: &str, nprocs: usize) -> Option<(f64, f64)> {
    paper::table7(matrix, nprocs)
}
