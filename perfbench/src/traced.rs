//! The traced factorization: the sim backend driven step by step from this
//! crate, with every `Simulator::step` and every `World::handle` timed from
//! outside the program.
//!
//! `Runtime::run` hides its simulator, so this module rebuilds the same
//! pipeline from public pieces: the static plan, the broadcast threshold
//! (`derive_threshold`, a copy of the runtime's private rule), the
//! `SolverWorld`, the event limit and the initial `Kick`s. The caller
//! compares the resulting statistics with an untraced run and refuses to
//! report layer numbers if they differ in any digit.

use crate::alloc;
use crate::spans::SpanLog;
use crate::workload::{self, ObsOutcome, Workload};
use loadex_core::{StateMsg, Threshold};
use loadex_obs::Recorder;
use loadex_sim::{ActorId, Scheduler, SimConfig, SimTime, Simulator, StopReason, World};
use loadex_solver::engine::{Ev, SolverWorld};
use loadex_solver::mapping::{NodeType, TreePlan};
use loadex_solver::{RunReport, SolverConfig};
use loadex_sparse::{AssemblyTree, Symmetry};
use std::time::{Duration, Instant};

/// `Ev` variants, in declaration order.
pub const EV_NAMES: [&str; 7] = [
    "kick",
    "state",
    "app",
    "task_done",
    "poll",
    "probe",
    "mech_timer",
];

/// `StateMsg::kind_name()` of every variant, in declaration order.
pub const KIND_NAMES: [&str; 9] = [
    "update",
    "update_delta",
    "master_to_all",
    "no_more_master",
    "start_snp",
    "snp",
    "end_snp",
    "master_to_slave",
    "gossip",
];

/// Keep one step span (and its handle span) in this many.
const SAMPLE_EVERY: u64 = 2048;

fn ev_index(ev: &Ev) -> usize {
    match ev {
        Ev::Kick => 0,
        Ev::State(..) => 1,
        Ev::App(..) => 2,
        Ev::TaskDone(_) => 3,
        Ev::Poll => 4,
        Ev::Probe => 5,
        Ev::MechTimer => 6,
    }
}

pub fn kind_index(msg: &StateMsg) -> usize {
    match msg {
        StateMsg::Update { .. } => 0,
        StateMsg::UpdateDelta { .. } => 1,
        StateMsg::MasterToAll { .. } => 2,
        StateMsg::NoMoreMaster => 3,
        StateMsg::StartSnp { .. } => 4,
        StateMsg::Snp { .. } => 5,
        StateMsg::EndSnp => 6,
        StateMsg::MasterToSlave { .. } => 7,
        StateMsg::Gossip { .. } => 8,
    }
}

/// Exact sums over every traced factorization, per layer and variant.
#[derive(Default)]
pub struct Totals {
    pub runs: u64,
    /// `Simulator::step` calls, including the final one that stops.
    pub steps: u64,
    pub step_ns: u64,
    pub step_allocs: u64,
    /// `World::handle` calls, i.e. simulated events.
    pub events: u64,
    pub handle_ns: u64,
    pub handle_allocs: u64,
    pub ev_count: [u64; EV_NAMES.len()],
    pub ev_ns: [u64; EV_NAMES.len()],
    pub kind_count: [u64; KIND_NAMES.len()],
    pub kind_ns: [u64; KIND_NAMES.len()],
}

/// `SolverWorld` behind a timing shim.
struct TracedWorld<'a> {
    inner: SolverWorld,
    totals: &'a mut Totals,
    spans: &'a mut SpanLog,
    /// Span id of the current step when it is sampled.
    sampled_step: Option<u64>,
}

impl World for TracedWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, actor: ActorId, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let ev = ev_index(&event);
        let kind = match &event {
            Ev::State(_, msg) => {
                let k = kind_index(msg);
                if self.totals.kind_count[k] == 0 {
                    assert_eq!(KIND_NAMES[k], msg.kind_name(), "kind table out of date");
                }
                Some(k)
            }
            _ => None,
        };
        let a0 = alloc::count();
        let t0 = Instant::now();
        self.inner.handle(now, actor, event, sched);
        let dt = t0.elapsed();
        let da = alloc::count() - a0;
        let ns = dt.as_nanos() as u64;
        let t = &mut *self.totals;
        t.events += 1;
        t.handle_ns += ns;
        t.handle_allocs += da;
        t.ev_count[ev] += 1;
        t.ev_ns[ev] += ns;
        if let Some(k) = kind {
            t.kind_count[k] += 1;
            t.kind_ns[k] += ns;
        }
        if let Some(step) = self.sampled_step {
            let name = kind.map_or(EV_NAMES[ev], |k| KIND_NAMES[k]);
            self.spans.record(Some(step), "loadex-solver", name, t0, dt);
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        self.inner.on_finish(now);
    }
}

/// One traced factorization and the time of its parts.
pub struct TracedRun {
    pub report: RunReport,
    pub obs: Option<ObsOutcome>,
    /// Plan, threshold, world construction, loop, report and (audit
    /// workload) the observability stages: the traced counterpart of one
    /// untraced `run_s` sample.
    pub total: Duration,
    pub sim_loop: Duration,
    pub report_time: Duration,
}

pub fn factorize(
    w: &Workload,
    tree: &AssemblyTree,
    cfg: &SolverConfig,
    totals: &mut Totals,
    spans: &mut SpanLog,
) -> Result<TracedRun, String> {
    let start = Instant::now();
    let root = spans.reserve();
    let plan = workload::plan(tree, cfg);
    let plan_time = start.elapsed();
    spans.record(
        Some(root),
        "loadex-solver",
        "mapping.plan",
        start,
        plan_time,
    );
    let rec = if w.audit {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let (inner, mut sim, max_events) = pipeline(tree, plan, cfg, rec.clone());
    totals.runs += 1;
    let mut world = TracedWorld {
        inner,
        totals,
        spans,
        sampled_step: None,
    };
    let loop_start = Instant::now();
    let stop = loop {
        let sampled = world.totals.steps.is_multiple_of(SAMPLE_EVERY);
        world.sampled_step = sampled.then(|| world.spans.reserve());
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = sim.step(&mut world);
        let dt = t0.elapsed();
        let t = &mut *world.totals;
        t.steps += 1;
        t.step_ns += dt.as_nanos() as u64;
        t.step_allocs += alloc::count() - a0;
        if let Some(id) = world.sampled_step {
            world
                .spans
                .record_as(id, Some(root), "loadex-sim", "step", t0, dt);
        }
        if let Err(reason) = r {
            break reason;
        }
    };
    world.on_finish(sim.now());
    let sim_loop = loop_start.elapsed();
    world
        .spans
        .record(Some(root), "loadex-sim", "run_loop", loop_start, sim_loop);
    match stop {
        StopReason::Requested => {}
        StopReason::Drained if world.inner.is_done() => {}
        StopReason::Drained => return Err("traced run deadlocked".into()),
        StopReason::EventLimit => return Err(format!("traced run hit {max_events} events")),
        StopReason::Horizon => return Err("traced run hit a horizon".into()),
    }
    let t = Instant::now();
    let report = world.inner.report();
    let report_time = t.elapsed();
    let spans = world.spans;
    spans.record(Some(root), "loadex-solver", "report", t, report_time);
    let obs = if w.audit {
        let t = Instant::now();
        let o = workload::finish_observed(&rec, &report)?;
        spans.record(
            Some(root),
            "loadex-obs",
            "take_audit_export",
            t,
            t.elapsed(),
        );
        Some(o)
    } else {
        None
    };
    let total = start.elapsed();
    spans.record_as(root, None, "bench", "factorization", start, total);
    Ok(TracedRun {
        report,
        obs,
        total,
        sim_loop,
        report_time,
    })
}

/// `Runtime`'s sim pipeline rebuilt from public pieces: the world with the
/// derived threshold and `recorder`, and a simulator holding the initial
/// kicks under the runtime's event limit (returned too).
fn pipeline(
    tree: &AssemblyTree,
    plan: TreePlan,
    cfg: &SolverConfig,
    recorder: Recorder,
) -> (SolverWorld, Simulator<Ev>, u64) {
    let mut cfg = cfg.clone();
    if cfg.threshold.is_none() {
        cfg.threshold = Some(derive_threshold(tree, &plan, &cfg));
    }
    let nprocs = cfg.nprocs;
    let mut world = SolverWorld::new(tree.clone(), plan, cfg);
    world.set_recorder(recorder);
    // The runtime's livelock valve, reproduced.
    let max_events = 2_000 * (tree.len() as u64 + 64) * (nprocs as u64 + 4);
    let mut sim = Simulator::new(SimConfig {
        max_events,
        ..Default::default()
    });
    for p in 0..nprocs {
        sim.schedule_at(SimTime::ZERO, ActorId(p), Ev::Kick);
    }
    (world, sim, max_events)
}

/// Counts the state messages left on a stopped simulator's calendar.
struct StateEvents(u64);

impl World for StateEvents {
    type Event = Ev;

    fn handle(&mut self, _: SimTime, _: ActorId, event: Ev, _: &mut Scheduler<'_, Ev>) {
        if let Ev::State(..) = event {
            self.0 += 1;
        }
    }
}

/// One untraced factorization on the rebuilt pipeline, with the number of
/// state messages sent but never received: the simulator stops when the
/// last node completes, so messages still on the calendar, or waiting in
/// the mailbox of a process that was computing, are not delivered.
pub fn undelivered_at_stop(
    tree: &AssemblyTree,
    cfg: &SolverConfig,
) -> Result<(RunReport, u64), String> {
    let plan = workload::plan(tree, cfg);
    let (mut world, mut sim, max_events) = pipeline(tree, plan, cfg, Recorder::disabled());
    match sim.run(&mut world) {
        StopReason::Requested => {}
        StopReason::Drained if world.is_done() => {}
        r => return Err(format!("rebuilt run stopped early: {r:?}")),
    }
    let report = world.report();
    // `debug_dump` is the public view of the mailboxes: one
    // `P<i>: ... state_mb=<n> ...` line per process.
    let mut in_mailboxes = 0u64;
    for line in world.debug_dump().lines().filter(|l| l.starts_with('P')) {
        let n = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("state_mb="))
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| format!("no mailbox size in dump line {line:?}"))?;
        in_mailboxes += n;
    }
    // Drain what is left on the calendar into a counter, not the world.
    let mut on_calendar = StateEvents(0);
    loop {
        match sim.step(&mut on_calendar) {
            Ok(()) => {}
            Err(StopReason::Drained) => break,
            Err(r) => {
                return Err(format!(
                    "calendar drain stopped: {r:?} ({max_events} events)"
                ))
            }
        }
    }
    Ok((report, in_mailboxes + on_calendar.0))
}

/// The broadcast threshold `Runtime` derives when none is configured
/// (§2.3: a quarter of the mean Type 2 slave share). A copy of the
/// runtime's crate-private rule; a divergence shows up as a mismatch of
/// the traced statistics.
pub fn derive_threshold(tree: &AssemblyTree, plan: &TreePlan, cfg: &SolverConfig) -> Threshold {
    let ef = match tree.sym {
        Symmetry::Symmetric => 0.5,
        Symmetry::Unsymmetric => 1.0,
    };
    let mut n = 0u32;
    let mut mem = 0.0f64;
    let mut work = 0.0f64;
    for (i, t) in plan.ntype.iter().enumerate() {
        if *t != NodeType::Type2 {
            continue;
        }
        let node = &tree.nodes[i];
        let ncb = node.ncb().max(1);
        let share_rows = (ncb / 8).clamp(cfg.kmin_rows.min(ncb), cfg.kmax_rows) as f64;
        mem += share_rows * node.nfront as f64 * ef;
        work += tree.flops(i) / ncb as f64 * share_rows;
        n += 1;
    }
    if n == 0 {
        return Threshold::new(
            (tree.total_flops() * 0.01).max(1.0),
            (tree.total_factor_entries() * 0.01).max(1.0),
        );
    }
    Threshold::new(
        (work / n as f64 * 0.25).max(1.0),
        (mem / n as f64 * 0.25).max(1.0),
    )
}
