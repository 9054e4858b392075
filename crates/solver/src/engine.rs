//! The discrete-event driver of Algorithm 1. The per-process logic it runs
//! is the crate's one `ProcessCore` (`process.rs`), shared with the
//! real-thread backend.
//!
//! A process cannot compute and treat messages simultaneously — incoming
//! messages buffer while a task runs and are drained at the next task
//! boundary ([`CommMode::MainLoop`]). The [`CommMode::CommThread`] variant
//! reproduces §4.5: state messages are serviced every `period` even during
//! computation, and the computation is paused while a snapshot is in flight.
//!
//! This module owns what only the simulator has: the event dispatch, the
//! compute/pause/snapshot-wait states of each process and their poll
//! scheduling, the world-level node table and contribution-block stacks
//! (one per run, whatever the process count), and the omniscient ground
//! truth the coherence instrumentation samples.

use crate::config::{CommMode, SolverConfig};
use crate::mapping::{NodeType, TreePlan};
pub use crate::process::AppMsg;
use crate::process::{Host, NodeState, ProcState, ProcessCore, SnapUnion};
use crate::report::{Activity, RunParts, RunReport};
use crate::work::Task;
use loadex_core::{AnyMechanism, ChangeOrigin, Load, Mechanism, OutMsg, Outbox, StateMsg};
use loadex_net::{Channel, SimNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe};
use loadex_sim::{ActorId, Scheduler, SimDuration, SimTime, StatSet, Welford, World};
use loadex_sparse::AssemblyTree;
use std::collections::VecDeque;

/// Simulator events.
#[derive(Clone, Debug)]
pub enum Ev {
    /// Initial activation of a process.
    Kick,
    /// A state-channel message arrived.
    State(ActorId, StateMsg),
    /// A regular-channel message arrived.
    App(ActorId, AppMsg),
    /// The current compute task finished (`gen` guards staleness).
    TaskDone(u64),
    /// Communication-thread poll tick (threaded mode).
    Poll,
    /// Coherence-probe tick (instrumentation; see
    /// [`SolverConfig::coherence_probe`]).
    Probe,
    /// Dissemination timer of the periodic/gossip extension mechanisms.
    MechTimer,
}

#[derive(Clone, Copy, Debug)]
enum PState {
    Idle,
    Computing {
        end: SimTime,
        task: Task,
    },
    /// Threaded mode: compute suspended by a snapshot.
    Paused {
        task: Task,
        remaining: SimDuration,
    },
    /// Blocked in the snapshot receive loop.
    WaitSnapshot,
}

struct ProcRt {
    mech: AnyMechanism,
    outbox: Outbox,
    st: ProcState,
    state_mb: VecDeque<(ActorId, StateMsg)>,
    app_mb: VecDeque<(ActorId, AppMsg)>,
    state: PState,
    gen: u64,
    blocked_since: Option<SimTime>,
    blocked_total: SimDuration,
    poll_scheduled: bool,
}

/// One node of the world-level table: the core's delivery/activation record
/// and the task parts still running (the node completes at 0).
#[derive(Clone, Copy)]
struct SimNode {
    st: NodeState,
    parts_left: u32,
}

/// Everything of the world but the static inputs: per-process runtimes,
/// network, node bookkeeping and instrumentation.
struct SimState {
    procs: Vec<ProcRt>,
    net: SimNetwork,
    nodes: Vec<SimNode>,
    /// Per producing node: `(process, entries)` contribution pieces retained
    /// on that process's stack until the parent assembles.
    cb_pieces: Vec<Vec<(u32, f64)>>,
    nodes_remaining: u64,
    app_msgs: u64,
    snapshots: SnapUnion,
    done_at: Option<SimTime>,
    finished_at: SimTime,
    // Coherence instrumentation.
    /// Committed workload per process: flops irrevocably assigned to it
    /// (including in-flight slave tasks it has not yet received). This is
    /// the ground truth a perfect scheduler would want; the increments
    /// mechanism's reservation broadcast tracks exactly this quantity.
    committed_work: Vec<f64>,
    coh_time_work: Welford,
    coh_time_mem: Welford,
    coh_dec_work: Welford,
    coh_dec_mem: Welford,
    /// View-accuracy probe (enabled by [`SolverConfig::accuracy`]): ground
    /// truth vs. believed views, staleness, decision regret. Pure
    /// bookkeeping — it schedules nothing and never changes a decision.
    probe: Option<ViewAccuracyProbe>,
    // Observability (see [`SolverWorld::set_recorder`]).
    recorder: Recorder,
    metrics: MetricsRegistry,
}

/// The solver world: all processes + network + tree bookkeeping.
pub struct SolverWorld {
    core: ProcessCore,
    sim: SimState,
}

impl SolverWorld {
    /// Build the world. Use [`crate::run::run`] for the full
    /// pipeline (it also seeds initial events).
    pub fn new(tree: AssemblyTree, plan: TreePlan, cfg: SolverConfig) -> Self {
        let core = ProcessCore::new(tree, plan, cfg);
        let nprocs = core.cfg.nprocs;
        let procs: Vec<ProcRt> = (0..nprocs)
            .map(|p| ProcRt {
                mech: core.mechanism(p),
                outbox: Outbox::new(),
                st: ProcState::new(core.plan.masters_per_proc[p]),
                state_mb: VecDeque::new(),
                app_mb: VecDeque::new(),
                state: PState::Idle,
                gen: 0,
                blocked_since: None,
                blocked_total: SimDuration::ZERO,
                poll_scheduled: false,
            })
            .collect();
        let n = core.tree.len();
        // Field order is allocation order, kept as before the core split so
        // the heap layout (and peak RSS) does not move.
        let sim = SimState {
            nodes: (0..n)
                .map(|i| SimNode {
                    st: core.initial_node(i),
                    parts_left: core.initial_parts(i),
                })
                .collect(),
            cb_pieces: vec![Vec::new(); n],
            net: SimNetwork::new(nprocs, core.cfg.network),
            nodes_remaining: core.nodes_to_complete(),
            app_msgs: 0,
            snapshots: SnapUnion::default(),
            done_at: None,
            finished_at: SimTime::ZERO,
            committed_work: core.plan.init_work.clone(),
            coh_time_work: Welford::default(),
            coh_time_mem: Welford::default(),
            coh_dec_work: Welford::default(),
            coh_dec_mem: Welford::default(),
            probe: core
                .cfg
                .accuracy
                .then(|| core.seeded_probe(procs.iter().map(|pr| &pr.mech))),
            recorder: Recorder::disabled(),
            metrics: MetricsRegistry::new(),
            procs,
        };
        SolverWorld { core, sim }
    }

    /// Attach an event recorder. When it is enabled, every mechanism outbox
    /// starts staging [`ProtocolEvent`]s (stamped `(time, rank)` here as they
    /// are flushed), the engine emits its own decision/task/memory/blocking
    /// events, and the latency / snapshot-duration / view-staleness
    /// histograms are populated. A disabled recorder keeps all of this at a
    /// single boolean check per site.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let on = recorder.is_enabled();
        for proc in &mut self.sim.procs {
            proc.outbox.set_observe(on);
        }
        self.sim.recorder = recorder;
    }

    /// Ground-truth memory of each process (for coherence checks in tests).
    pub fn true_mems(&self) -> Vec<f64> {
        self.sim.procs.iter().map(|p| p.st.true_mem).collect()
    }

    /// Whether the factorization completed.
    pub fn is_done(&self) -> bool {
        self.sim.done_at.is_some()
    }

    /// Human-readable dump of per-process and per-node state, for deadlock
    /// diagnostics.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let (w, plan, tree) = (&self.sim, &self.core.plan, &self.core.tree);
        let mut s = String::new();
        let _ = writeln!(s, "nodes_remaining={}", w.nodes_remaining);
        for (p, proc) in w.procs.iter().enumerate() {
            let _ = writeln!(
                s,
                "P{p}: state={:?} blocked={} ready={} state_mb={} app_mb={} pend_dec={:?} inflight={:?}",
                proc.state,
                proc.mech.blocked(),
                proc.st.ready.len(),
                proc.state_mb.len(),
                proc.app_mb.len(),
                proc.st.pending_decisions,
                proc.st.decision_inflight,
            );
            if let AnyMechanism::Snapshot(m) = &proc.mech {
                let _ = writeln!(
                    s,
                    "    snp: missing={} req={} leader_self={}",
                    m.missing_answers(),
                    m.my_request(),
                    m.is_leader(),
                );
            }
        }
        for (i, &SimNode { st, parts_left }) in w.nodes.iter().enumerate() {
            if matches!(plan.ntype[i], NodeType::InSubtree) {
                continue;
            }
            if parts_left > 0 || !st.activated {
                let _ = writeln!(
                    s,
                    "node {i}: type={:?} owner={} activated={} children_done={}/{} plan={:?} recv={} parts_left={}",
                    plan.ntype[i],
                    plan.owner[i],
                    st.activated,
                    st.children_done,
                    tree.nodes[i].children.len(),
                    st.plan_pieces,
                    st.pieces_recv,
                    parts_left,
                );
            }
        }
        s
    }

    /// Build the final report. Call after the simulation stops.
    pub fn report(&self) -> RunReport {
        let w = &self.sim;
        let mut counters = StatSet::new();
        counters.add("net_state_msgs", w.net.sent_state());
        counters.add("net_regular_msgs", w.net.sent_regular());
        counters.add("net_state_bytes", w.net.bytes_state());
        counters.add("net_regular_bytes", w.net.bytes_regular());
        let factor_time = w.done_at.unwrap_or(w.finished_at);
        RunReport::assemble(RunParts {
            backend: "sim",
            factor_time,
            procs: w
                .procs
                .iter()
                .map(|p| p.st.outcome(p.mech.stats(), p.blocked_total))
                .collect(),
            counters,
            app_msgs: w.app_msgs,
            events_dropped: w.recorder.dropped(),
            metrics: w.metrics.snapshot(),
            snapshot_union_time: w.snapshots.union,
            snapshot_max_concurrent: w.snapshots.max,
            view_err: [
                w.coh_time_work,
                w.coh_time_mem,
                w.coh_dec_work,
                w.coh_dec_mem,
            ],
            accuracy: w.probe.as_ref().map(|probe| {
                // Close the integrals at the horizon on a copy: report() can
                // be called repeatedly without double-counting.
                let mut probe = probe.clone();
                probe.finish(factor_time);
                probe.report()
            }),
        })
    }
}

impl SimState {
    /// Ground-truth load of process `q`: committed workload (including
    /// in-flight assignments) and its exact current memory.
    fn true_load(&self, q: usize) -> Load {
        Load::new(self.committed_work[q], self.procs[q].st.true_mem)
    }

    /// Sample the error of `p`'s view against the truth into the given
    /// accumulators.
    fn sample_view_error(&self, p: usize, work: &mut Welford, mem: &mut Welford) {
        for q in (0..self.procs.len()).filter(|&q| q != p) {
            let truth = self.true_load(q);
            let seen = self.procs[p].mech.view().get(ActorId(q));
            work.push((seen.work - truth.work).abs());
            mem.push((seen.mem - truth.mem).abs());
        }
    }

    /// Re-read the ground truth of `q` into the accuracy probe (no-op when
    /// the probe is off). Call after every `committed_work`/`true_mem`
    /// mutation.
    fn touch_truth(&mut self, q: usize, now: SimTime) {
        if self.probe.is_none() {
            return;
        }
        let l = self.true_load(q);
        if let Some(probe) = self.probe.as_mut() {
            probe.set_truth(now, q, l.work, l.mem);
        }
    }

    fn note_block_state(&mut self, record: bool, p: usize, now: SimTime) {
        let proc = &mut self.procs[p];
        let blocked = matches!(proc.state, PState::WaitSnapshot | PState::Paused { .. });
        match (blocked, proc.blocked_since) {
            (true, None) => {
                proc.blocked_since = Some(now);
                self.recorder
                    .emit_with(now, ActorId(p), || ProtocolEvent::Blocked);
            }
            (false, Some(t0)) => {
                proc.blocked_total += now.since(t0);
                proc.blocked_since = None;
                self.recorder
                    .emit_with(now, ActorId(p), || ProtocolEvent::Resumed);
            }
            _ => {}
        }
        if blocked {
            proc.st.note_activity(record, now, Activity::Blocked);
        } else if matches!(proc.state, PState::Idle) {
            proc.st.note_activity(record, now, Activity::Idle);
        }
    }
}

/// One process handling one event: the [`Host`] the core runs against.
struct Proc<'a, 's> {
    core: &'a ProcessCore,
    w: &'a mut SimState,
    sched: &'a mut Scheduler<'s, Ev>,
    p: usize,
    now: SimTime,
}

impl Proc<'_, '_> {
    fn rt(&mut self) -> &mut ProcRt {
        &mut self.w.procs[self.p]
    }

    fn threaded(&self) -> Option<SimDuration> {
        match self.core.cfg.comm {
            CommMode::MainLoop => None,
            CommMode::CommThread { period } => Some(period),
        }
    }

    fn set_mem_of(&mut self, q: usize, delta: f64) {
        let w = &mut *self.w;
        w.procs[q].st.set_mem(self.now, q, delta, &w.recorder);
        w.touch_truth(q, self.now);
    }

    fn local_change_of(&mut self, q: usize, delta: Load, origin: ChangeOrigin) {
        let proc = &mut self.w.procs[q];
        proc.mech.on_local_change(delta, origin, &mut proc.outbox);
        self.flush_outbox(q);
    }

    fn flush_outbox(&mut self, p: usize) {
        let (now, nprocs) = (self.now, self.core.cfg.nprocs);
        let w = &mut *self.w;
        let obs = w.recorder.is_enabled();
        if obs {
            // Stamp the mechanism's staged protocol events with (time, rank).
            for ev in w.procs[p].outbox.drain_events() {
                w.recorder.emit(now, ActorId(p), ev);
            }
        }
        // Drain in place: the sends below touch only disjoint fields, so no
        // per-flush buffer is needed.
        for OutMsg { dest, msg } in w.procs[p].outbox.drain() {
            let size = msg.wire_size();
            match dest {
                loadex_core::Dest::One(to) => {
                    let d = w.net.send(now, ActorId(p), to, Channel::State, size, msg);
                    if obs {
                        w.metrics
                            .observe("state_msg_latency_ns", d.at.since(now).as_nanos() as f64);
                    }
                    self.sched
                        .schedule_at(d.at, to, Ev::State(ActorId(p), d.envelope.msg));
                }
                loadex_core::Dest::AllOthers => {
                    for q in (0..nprocs).filter(|&q| q != p) {
                        let to = ActorId(q);
                        let d = w
                            .net
                            .send(now, ActorId(p), to, Channel::State, size, msg.clone());
                        if obs {
                            w.metrics
                                .observe("state_msg_latency_ns", d.at.since(now).as_nanos() as f64);
                        }
                        self.sched
                            .schedule_at(d.at, to, Ev::State(ActorId(p), d.envelope.msg));
                    }
                }
            }
        }
    }

    fn note_block_state(&mut self) {
        let record = self.core.cfg.record_timeline;
        self.w.note_block_state(record, self.p, self.now);
    }

    /// Align the process state with the mechanism's blocked flag: pause /
    /// resume the computation (threaded mode), enter / leave the snapshot
    /// receive loop.
    fn reconcile_block(&mut self) {
        let now = self.now;
        let threaded = self.threaded().is_some();
        let rt = self.rt();
        match (rt.mech.blocked(), rt.state) {
            // Only the threaded variant can interrupt a computation.
            (true, PState::Computing { end, task }) if threaded => {
                let remaining = end.since(now);
                rt.gen += 1; // invalidate pending TaskDone
                rt.state = PState::Paused { task, remaining };
                self.note_block_state();
            }
            (true, PState::Idle) => {
                rt.state = PState::WaitSnapshot;
                self.note_block_state();
            }
            (false, PState::Paused { task, remaining }) => {
                let end = now + remaining;
                rt.gen += 1;
                let gen = rt.gen;
                rt.state = PState::Computing { end, task };
                self.note_block_state();
                self.sched
                    .schedule_at(end, ActorId(self.p), Ev::TaskDone(gen));
            }
            (false, PState::WaitSnapshot) => {
                rt.state = PState::Idle;
                self.note_block_state();
                self.progress();
            }
            _ => {}
        }
    }

    // ----- the Algorithm 1 loop ------------------------------------------

    fn progress(&mut self) {
        let core = self.core;
        let mainloop = self.threaded().is_none();
        loop {
            match self.rt().state {
                PState::Computing { .. } | PState::Paused { .. } => return,
                _ => {}
            }
            // (1) state messages first (Algorithm 1 line 2) — drained even
            // inside the snapshot receive loop, which *only* treats these.
            // In threaded mode the comm thread owns them instead.
            if mainloop {
                if let Some((from, msg)) = self.rt().state_mb.pop_front() {
                    core.on_state_msg(self, from, msg, true);
                    continue;
                }
            }
            let rt = self.rt();
            if rt.mech.blocked() {
                if !matches!(rt.state, PState::WaitSnapshot) {
                    rt.state = PState::WaitSnapshot;
                    self.note_block_state();
                }
                return;
            }
            if matches!(rt.state, PState::WaitSnapshot) {
                rt.state = PState::Idle;
                self.note_block_state();
            }
            // (2) pending dynamic decisions.
            if core.try_start_decision(self) {
                continue;
            }
            // (3) other messages (line 4).
            if let Some((from, msg)) = self.rt().app_mb.pop_front() {
                core.handle_app(self, from, msg);
                continue;
            }
            // (4) compute a ready task (line 7).
            if let Some(i) = core.pick_task(self) {
                let (task, dur) = core.start_task(self, i);
                let end = self.now + dur;
                let rt = self.rt();
                rt.gen += 1;
                let gen = rt.gen;
                rt.state = PState::Computing { end, task };
                self.sched
                    .schedule_at(end, ActorId(self.p), Ev::TaskDone(gen));
                return;
            }
            self.rt().state = PState::Idle;
            return;
        }
    }

    // ----- event dispatch ------------------------------------------------

    fn kick(&mut self) {
        let (p, now) = (self.p, self.now);
        if p == 0 {
            if let Some(period) = self.core.cfg.coherence_probe {
                self.sched.schedule_at(now + period, ActorId(0), Ev::Probe);
            }
        }
        if let Some(period) = self.rt().mech.timer_period() {
            self.sched
                .schedule_at(now + period, ActorId(p), Ev::MechTimer);
        }
        self.core.seed(self);
        self.progress();
    }

    fn on_state_event(&mut self, from: ActorId, msg: StateMsg) {
        if let Some(period) = self.threaded() {
            let now = self.now;
            let rt = self.rt();
            rt.state_mb.push_back((from, msg));
            if !rt.poll_scheduled {
                rt.poll_scheduled = true;
                let period_ns = period.as_nanos().max(1);
                let next = (now.as_nanos() / period_ns + 1) * period_ns;
                self.sched
                    .schedule_at(SimTime(next), ActorId(self.p), Ev::Poll);
            }
            return;
        }
        match self.rt().state {
            PState::Computing { .. } => self.rt().state_mb.push_back((from, msg)),
            _ => {
                // Idle or in the snapshot receive loop: treat immediately.
                self.core.on_state_msg(self, from, msg, true);
                self.progress();
            }
        }
    }

    fn on_poll(&mut self) {
        let period = self.threaded().expect("poll event outside threaded mode");
        let (p, now) = (self.p, self.now);
        // The comm thread must take the lock protecting MPI calls (§4.5); a
        // bulk send in flight from this process holds it.
        let lock_free = self.w.net.egress_free(ActorId(p));
        if lock_free > now {
            self.sched.schedule_at(lock_free, ActorId(p), Ev::Poll);
            return;
        }
        // One receive per poll iteration: the thread sleeps `period` between
        // channel checks, so a burst drains at one message per tick.
        if let Some((from, msg)) = self.rt().state_mb.pop_front() {
            self.core.on_state_msg(self, from, msg, false);
        }
        if self.rt().state_mb.is_empty() {
            self.rt().poll_scheduled = false;
        } else {
            self.sched.schedule_at(now + period, ActorId(p), Ev::Poll);
        }
        self.reconcile_block();
        if matches!(self.rt().state, PState::Idle) {
            self.progress();
        }
    }

    /// Dissemination timer of the periodic/gossip mechanisms. Modeled as a
    /// lightweight helper thread: it fires even while the main thread
    /// computes (these mechanisms exist precisely to bound staleness).
    fn on_mech_timer(&mut self) {
        let Some(period) = self.rt().mech.timer_period() else {
            return;
        };
        let rt = self.rt();
        rt.mech.on_timer(&mut rt.outbox);
        self.flush_outbox(self.p);
        if self.w.done_at.is_none() {
            let at = self.now + period;
            self.sched.schedule_at(at, ActorId(self.p), Ev::MechTimer);
        }
    }

    fn on_task_done(&mut self, gen: u64) {
        let rt = self.rt();
        if gen != rt.gen {
            return; // cancelled (paused) task
        }
        let PState::Computing { task, .. } = rt.state else {
            return;
        };
        rt.state = PState::Idle;
        self.core.end_chunk(self, task);
        self.progress();
    }

    fn on_probe(&mut self) {
        let Some(period) = self.core.cfg.coherence_probe else {
            return;
        };
        let w = &mut *self.w;
        let mut work = std::mem::take(&mut w.coh_time_work);
        let mut mem = std::mem::take(&mut w.coh_time_mem);
        for p in 0..w.procs.len() {
            w.sample_view_error(p, &mut work, &mut mem);
        }
        w.coh_time_work = work;
        w.coh_time_mem = mem;
        if let Some(probe) = w.probe.as_mut() {
            probe.sample(self.now);
        }
        if w.done_at.is_none() {
            self.sched
                .schedule_at(self.now + period, ActorId(0), Ev::Probe);
        }
    }
}

impl Host for Proc<'_, '_> {
    fn rank(&self) -> usize {
        self.p
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn recorder(&self) -> &Recorder {
        &self.w.recorder
    }

    fn state(&mut self) -> &mut ProcState {
        &mut self.rt().st
    }

    fn node(&mut self, node: u32) -> &mut NodeState {
        &mut self.w.nodes[node as usize].st
    }

    fn mech<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
        let rt = self.rt();
        f(&mut rt.mech, &mut rt.outbox)
    }

    fn flush(&mut self) {
        self.flush_outbox(self.p);
    }

    fn set_mem(&mut self, delta: f64) {
        self.set_mem_of(self.p, delta);
    }

    fn local_change(&mut self, delta: Load, origin: ChangeOrigin) {
        self.local_change_of(self.p, delta, origin);
    }

    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64) {
        let (from, now) = (ActorId(self.p), self.now);
        self.w.app_msgs += 1;
        if to as usize == self.p {
            // Local handoff: process at the same instant through the mailbox
            // (no network, no overhead — the data never moved).
            self.sched.schedule_at(now, from, Ev::App(from, msg));
            return;
        }
        let to = ActorId(to as usize);
        let d = self.w.net.send(now, from, to, Channel::Regular, bytes, msg);
        self.sched
            .schedule_at(d.at, to, Ev::App(from, d.envelope.msg));
    }

    fn retain_cb(&mut self, node: u32, entries: f64) {
        self.w.cb_pieces[node as usize].push((self.p as u32, entries));
    }

    /// The stacked pieces are freed directly on their producers (the
    /// simulator sees every process).
    fn assemble(&mut self, children: &[u32]) {
        for &c in children {
            let pieces = std::mem::take(&mut self.w.cb_pieces[c as usize]);
            for (q, entries) in pieces {
                self.set_mem_of(q as usize, -entries);
                self.local_change_of(q as usize, Load::mem(-entries), ChangeOrigin::Local);
            }
        }
    }

    fn set_parts(&mut self, node: u32, parts: u32) {
        self.w.nodes[node as usize].parts_left = parts;
    }

    fn part_done(&mut self, node: u32) {
        let w = &mut *self.w;
        let left = &mut w.nodes[node as usize].parts_left;
        debug_assert!(*left > 0, "part underflow at node {node}");
        *left -= 1;
        if *left == 0 {
            w.nodes_remaining -= 1;
            if w.nodes_remaining == 0 {
                w.done_at = Some(self.now);
                self.sched.request_stop();
            }
        }
    }

    fn commit_work(&mut self, q: usize, flops: f64) {
        self.w.committed_work[q] += flops;
        self.w.touch_truth(q, self.now);
    }

    fn probe_on(&self) -> bool {
        self.w.probe.is_some()
    }

    fn with_probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe)) {
        if let Some(probe) = self.w.probe.as_mut() {
            f(probe);
        }
    }

    fn refresh_beliefs(&mut self, subjects: impl IntoIterator<Item = ActorId>) {
        let (p, now) = (self.p, self.now);
        if let Some(probe) = self.w.probe.as_mut() {
            let view = self.w.procs[p].mech.view();
            for q in subjects.into_iter().filter(|q| q.index() != p) {
                let l = view.get(q);
                probe.set_belief(now, p, q.index(), l.work, l.mem);
            }
        }
    }

    fn sample_decision_view(&mut self) {
        let (p, w) = (self.p, &mut *self.w);
        let mut dw = std::mem::take(&mut w.coh_dec_work);
        let mut dm = std::mem::take(&mut w.coh_dec_mem);
        w.sample_view_error(p, &mut dw, &mut dm);
        w.coh_dec_work = dw;
        w.coh_dec_mem = dm;
        if w.recorder.is_enabled() {
            // Same samples, but into log-scale histograms: the distribution
            // tail matters more than the mean for scheduling quality.
            for q in (0..w.procs.len()).filter(|&q| q != p) {
                let truth = w.true_load(q);
                let seen = w.procs[p].mech.view().get(ActorId(q));
                w.metrics
                    .observe("view_error_decision_work", (seen.work - truth.work).abs());
                w.metrics
                    .observe("view_error_decision_mem", (seen.mem - truth.mem).abs());
            }
        }
    }

    fn with_snapshots(&mut self, f: impl FnOnce(&mut SnapUnion)) {
        f(&mut self.w.snapshots);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.w.metrics.observe(name, value);
    }

    fn reconcile(&mut self) {
        self.reconcile_block();
    }
}

impl World for SolverWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, actor: ActorId, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let mut h = Proc {
            core: &self.core,
            w: &mut self.sim,
            sched,
            p: actor.index(),
            now,
        };
        match event {
            Ev::Kick => h.kick(),
            Ev::State(from, msg) => h.on_state_event(from, msg),
            Ev::App(from, msg) => {
                let rt = h.rt();
                rt.app_mb.push_back((from, msg));
                if matches!(rt.state, PState::Idle) {
                    h.progress();
                }
            }
            Ev::TaskDone(gen) => h.on_task_done(gen),
            Ev::Poll => h.on_poll(),
            Ev::Probe => h.on_probe(),
            Ev::MechTimer => h.on_mech_timer(),
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        let w = &mut self.sim;
        w.finished_at = now;
        for p in 0..w.procs.len() {
            w.note_block_state(self.core.cfg.record_timeline, p, now);
            let st = &mut w.procs[p].st;
            st.mem_gauge.set(now, st.true_mem);
        }
        w.snapshots.close(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_sparse::models::by_name;

    fn mini_world(nprocs: usize) -> SolverWorld {
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(nprocs);
        let plan = mapping::plan(
            &tree,
            nprocs,
            MappingParams {
                alpha: cfg.mapping_alpha,
                type2_min_front: cfg.type2_min_front,
                kmin_rows: cfg.kmin_rows,
                type3_min_front: cfg.type3_min_front,
                speed_factors: Vec::new(),
            },
        );
        SolverWorld::new(tree, plan, cfg)
    }

    #[test]
    fn true_load_matches_plan_at_start() {
        let w = mini_world(4);
        for p in 0..4 {
            assert_eq!(w.sim.true_load(p).work, w.core.plan.init_work[p]);
            assert_eq!(w.sim.true_load(p).mem, 0.0);
        }
    }
}
