//! The four workloads, the inputs they are built from, and the output
//! check that defines a correct run.
//!
//! Every workload factorizes the `AUDIKW_1` model with the workload-based
//! strategy on the discrete-event (sim) backend, one run at a time on one
//! thread. See `perfbench/README.md` for why each one was chosen.

use loadex_core::MechKind;
use loadex_obs::{jsonl, ProtocolAuditor, Recorder};
use loadex_sim::SimDuration;
use loadex_solver::mapping::{self, MappingParams, TreePlan};
use loadex_solver::{RunReport, Runtime, SolverConfig, Strategy};
use loadex_sparse::models::{by_name, MatrixModel};
use loadex_sparse::AssemblyTree;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The modeled problem every workload factorizes.
pub const MATRIX: &str = "AUDIKW_1";

/// The simulated statistics a run must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stats {
    pub factor_time_ns: u64,
    pub state_msgs: u64,
    pub state_bytes: u64,
    pub app_msgs: u64,
    pub decisions: u64,
    /// `mem_peak_entries()` as its IEEE-754 bit pattern.
    pub mem_peak_bits: u64,
}

impl Stats {
    pub fn of(r: &RunReport) -> Stats {
        Stats {
            factor_time_ns: r.factor_time.as_nanos(),
            state_msgs: r.state_msgs,
            state_bytes: r.state_bytes,
            app_msgs: r.app_msgs,
            decisions: r.decisions,
            mem_peak_bits: r.mem_peak_entries().to_bits(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub procs: usize,
    pub mech: MechKind,
    /// Follow the `run --audit --accuracy-out --events-out` path: enabled
    /// recorder, accuracy probe, strict audit and an in-memory JSONL export.
    pub audit: bool,
    /// Statistics of the default-seed tree, pinned from a reference run.
    pub pinned: Stats,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "incr-p512",
        procs: 512,
        mech: MechKind::Increments,
        audit: false,
        pinned: Stats {
            factor_time_ns: 64_193_069_699,
            state_msgs: 4_285_634,
            state_bytes: 159_273_864,
            app_msgs: 6_786,
            decisions: 656,
            mem_peak_bits: 0x413cf05e80000000,
        },
    },
    Workload {
        name: "snap-p768",
        procs: 768,
        mech: MechKind::Snapshot,
        audit: false,
        pinned: Stats {
            factor_time_ns: 93_209_291_286,
            state_msgs: 2_084_474,
            state_bytes: 61_407_800,
            app_msgs: 8_410,
            decisions: 888,
            mem_peak_bits: 0x413bda412b555555,
        },
    },
    Workload {
        name: "gossip-p256",
        procs: 256,
        mech: MechKind::Gossip,
        audit: false,
        pinned: Stats {
            factor_time_ns: 98_787_808_576,
            state_msgs: 505_344,
            state_bytes: 3_630_391_296,
            app_msgs: 4_526,
            decisions: 396,
            mem_peak_bits: 0x413daaa600000000,
        },
    },
    Workload {
        name: "audit-p128",
        procs: 128,
        mech: MechKind::Increments,
        audit: true,
        pinned: Stats {
            factor_time_ns: 73_148_982_085,
            state_msgs: 577_226,
            state_bytes: 21_469_560,
            app_msgs: 3_013,
            decisions: 234,
            mem_peak_bits: 0x413ddfad00000000,
        },
    },
];

pub fn by_workload_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn model() -> MatrixModel {
    by_name(MATRIX).expect("AUDIKW_1 is one of the paper's models")
}

/// The seed `MatrixModel::build_tree` derives from the model's name.
pub fn default_tree_seed(model: &MatrixModel) -> u64 {
    model.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The only input the program receives: the assembly tree of `seed`.
pub fn build_tree(model: &MatrixModel, seed: u64) -> AssemblyTree {
    model.shape.build(model.sym, seed)
}

impl Workload {
    /// The configuration `run --matrix AUDIKW_1 --procs P --mech M` builds,
    /// plus `--audit --accuracy-out --events-out` on the audit workload.
    pub fn config(&self) -> SolverConfig {
        let mut cfg = SolverConfig::new(self.procs)
            .with_mechanism(self.mech)
            .with_strategy(Strategy::WorkloadBased);
        if self.audit {
            cfg = cfg.with_accuracy(true);
            cfg.coherence_probe = Some(SimDuration::from_millis(500));
        }
        cfg
    }

    /// The same scenario with every observability feature off.
    pub fn unobserved_config(&self) -> SolverConfig {
        let mut cfg = self.config().with_accuracy(false);
        cfg.coherence_probe = None;
        cfg
    }
}

pub fn plan(tree: &AssemblyTree, cfg: &SolverConfig) -> TreePlan {
    mapping::plan(
        tree,
        cfg.nprocs,
        MappingParams {
            alpha: cfg.mapping_alpha,
            type2_min_front: cfg.type2_min_front,
            kmin_rows: cfg.kmin_rows,
            type3_min_front: cfg.type3_min_front,
            speed_factors: cfg.speed_factors.clone(),
        },
    )
}

/// What the observability path produced, with the time of each stage.
pub struct ObsOutcome {
    pub events: usize,
    pub dropped: u64,
    pub audit: Duration,
    pub jsonl: Duration,
}

/// Take the recorded stream, audit it strictly, serialize the accuracy
/// report and export the stream as JSONL into memory. A stream with any
/// dropped event, or any violation, fails the check.
pub fn finish_observed(rec: &Recorder, report: &RunReport) -> Result<ObsOutcome, String> {
    let events = rec.take();
    let dropped = rec.dropped();
    let t = Instant::now();
    let audit = ProtocolAuditor::strict().audit(&events);
    let audit_time = t.elapsed();
    let acc = report
        .accuracy
        .as_ref()
        .ok_or("accuracy probe produced no report")?;
    let acc_json = acc.to_json();
    let t = Instant::now();
    let lines = jsonl::to_string(&events);
    let jsonl_time = t.elapsed();
    if dropped != 0 {
        return Err(format!(
            "recorder dropped {dropped} events: stream truncated"
        ));
    }
    if !audit.is_clean() {
        return Err(format!(
            "strict audit: {} violations, first: {}",
            audit.violations.len(),
            audit.violations[0]
        ));
    }
    if audit.events != events.len() || lines.lines().count() != events.len() {
        return Err("audit or JSONL export did not cover every event".into());
    }
    if !acc.summary.is_finite() || acc.summary.decisions != report.decisions || acc_json.is_empty()
    {
        return Err("accuracy report is not finite or misses decisions".into());
    }
    Ok(ObsOutcome {
        events: events.len(),
        dropped,
        audit: audit_time,
        jsonl: jsonl_time,
    })
}

/// One factorization along the workload's path: `Runtime::run`, or
/// `run_observed` followed by [`finish_observed`] on the audit workload.
pub fn factorize(
    w: &Workload,
    rt: &Runtime,
    tree: &AssemblyTree,
) -> Result<(RunReport, Option<ObsOutcome>), String> {
    if w.audit {
        let rec = Recorder::enabled();
        let r = rt
            .run_observed(tree, rec.clone())
            .map_err(|e| e.to_string())?;
        let obs = finish_observed(&rec, &r)?;
        Ok((r, Some(obs)))
    } else {
        let r = rt.run(tree).map_err(|e| e.to_string())?;
        Ok((r, None))
    }
}

/// Largest memory a process may end holding, as a share of the run's peak.
/// The engine accounts memory in `f64` and adds and removes the same pieces
/// in different orders, so a balanced process can end a few ulps of the
/// peak away from zero. A leaked piece is a front, a contribution block or
/// a share of one, at least an entry / P: hundreds of times this bound.
pub const MEM_RESIDUE_REL: f64 = 1e-12;

/// Invariants that hold on any tree. `undelivered` is the number of state
/// messages sent but not yet received when the run stopped at completion
/// (see `traced::undelivered_at_stop`); every other message must have been
/// received exactly once.
pub fn check_invariants(
    r: &RunReport,
    plan_decisions: usize,
    undelivered: u64,
) -> Result<(), String> {
    if r.decisions != plan_decisions as u64 {
        return Err(format!(
            "decisions {} != planned {plan_decisions}",
            r.decisions
        ));
    }
    let sent: u64 = r.procs.iter().map(|p| p.state_msgs_sent).sum();
    let received = r.metrics.counter("state_msgs_received");
    if sent != r.state_msgs || received + undelivered != r.state_msgs {
        return Err(format!(
            "state messages: sent per process {sent}, reported {}, received {received}, undelivered at stop {undelivered}",
            r.state_msgs
        ));
    }
    let residue = MEM_RESIDUE_REL * r.mem_peak_entries();
    if let Some((p, proc)) = r
        .procs
        .iter()
        .enumerate()
        .find(|(_, p)| p.mem_final_entries.is_nan() || p.mem_final_entries.abs() > residue)
    {
        return Err(format!(
            "process {p} ends holding {} entries (rounding allows {residue})",
            proc.mem_final_entries
        ));
    }
    Ok(())
}

/// Exact equality with the pinned statistics (default seed only).
pub fn check_pinned(got: Stats, pinned: Stats) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!("statistics {got:?} differ from pinned {pinned:?}"))
    }
}
