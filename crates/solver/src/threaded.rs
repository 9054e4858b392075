//! The real-thread execution backend (§4.5).
//!
//! One OS thread per simulated process runs the same Algorithm 1 loop as
//! [`crate::engine`], but over real [`loadex_net::thread`] endpoints and the
//! wall clock: compute chunks become scaled sleeps (see
//! [`WallClock`]), and messages travel through cross-thread channels instead
//! of the discrete-event calendar. With
//! [`ThreadedBackend::comm_thread`](crate::config::ThreadedBackend) set, a
//! dedicated communication thread per process polls the state channel every
//! `poll_interval` and services `Mechanism::on_state_msg` *concurrently* with
//! the computation — the paper's §4.5 model, where snapshot answers no longer
//! wait for task-chunk boundaries.
//!
//! Differences from the simulator, by necessity:
//!
//! * Global termination and Type 2/3 part counting use shared atomics
//!   ([`Coord`]). This is run-harness bookkeeping, orthogonal to the load
//!   mechanisms under study — the real MUMPS has the same information through
//!   its symbolic phase.
//! * Cross-process contribution-block frees (the simulator's
//!   `assemble_children` reaches directly into the producer) become explicit
//!   `CbFree` messages on the regular channel (not counted as application
//!   messages: they carry no payload and exist only in this backend).
//! * Coherence probes (the sampled `view_err_*` Welfords) are skipped: there
//!   is no stop-the-world instant to sample every pair against. The
//!   [`ViewAccuracyProbe`] *is* supported, though: each worker is the
//!   authority on its own load (truth updates ride the same `local_change`
//!   funnel the mechanism sees), so the shared probe holds an
//!   eventually-exact ground truth whose only skew is real message latency.
//!   `snapshot_duration_ns` is still recorded (wall time mapped back to
//!   simulated time), and the report uses the same counter and gauge keys as
//!   the simulator, so downstream table code is backend-agnostic.

use crate::config::{SolverConfig, ThreadedBackend};
use crate::engine::AppMsg;
use crate::error::RunError;
use crate::mapping::{NodeType, TreePlan};
use crate::report::{Activity, ProcReport, RunReport, Timeline};
use crate::sched;
use crate::work::{self, Task, TaskKind};
use loadex_core::{
    AnyMechanism, ChangeOrigin, Dest, Gate, Load, LoadTable, MechKind, Mechanism, Notify, OutMsg,
    Outbox, StateMsg,
};
use loadex_net::{Channel, CommEndpoint, Endpoint, Envelope, RecvError, ThreadNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe, WallClock};
use loadex_sim::{ActorId, SimDuration, StatSet, TimeWeightedGauge, Welford};
use loadex_sparse::AssemblyTree;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wall-time granularity of a compute sleep: the worker re-checks the pause
/// flag, the deadline and the done flag this often while "computing".
const COMPUTE_SLICE: Duration = Duration::from_millis(2);
/// Wall-time granularity of idle / blocked waits.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// Everything that travels between processes. State messages ride the state
/// channel; application messages and `CbFree` ride the regular channel.
#[derive(Clone, Debug)]
enum TMsg {
    State(StateMsg),
    App(AppMsg),
    /// The receiver's stacked contribution block of `node` was assembled by
    /// the parent's owner and can be freed.
    CbFree {
        node: u32,
    },
}

/// Snapshot-union accounting (shared: any master may open a snapshot).
#[derive(Debug)]
struct SnapUnion {
    active: u32,
    from: Option<Instant>,
    union: Duration,
    max: u32,
}

impl SnapUnion {
    fn begin(&mut self, now: Instant) {
        if self.active == 0 {
            self.from = Some(now);
        }
        self.active += 1;
        self.max = self.max.max(self.active);
    }

    fn end(&mut self, now: Instant) {
        self.active = self.active.saturating_sub(1);
        if self.active == 0 {
            if let Some(from) = self.from.take() {
                self.union += now.saturating_duration_since(from);
            }
        }
    }

    fn close(&mut self, now: Instant) {
        if self.active > 0 {
            if let Some(from) = self.from.take() {
                self.union += now.saturating_duration_since(from);
            }
            self.active = 0;
        }
    }
}

/// Run-wide shared coordination state. The load-exchange protocols never see
/// any of this; it replaces the simulator's omniscient bookkeeping.
struct Coord {
    done: AtomicBool,
    failed: Mutex<Option<RunError>>,
    done_at: Mutex<Option<Instant>>,
    /// Task parts still running per node; a node completes at 0. Type 2
    /// entries are stored by the master before it sends the slave tasks.
    parts_left: Vec<AtomicU32>,
    nodes_remaining: AtomicU64,
    app_msgs: AtomicU64,
    net_state_msgs: AtomicU64,
    net_state_bytes: AtomicU64,
    net_regular_msgs: AtomicU64,
    net_regular_bytes: AtomicU64,
    snp: Mutex<SnapUnion>,
}

impl Coord {
    fn new(tree: &AssemblyTree, plan: &TreePlan) -> Self {
        let parts_left = (0..tree.len())
            .map(|i| {
                AtomicU32::new(match plan.ntype[i] {
                    NodeType::SubtreeRoot | NodeType::Type1 => 1,
                    NodeType::Type3 => plan.nprocs as u32,
                    // Type 2 plans are decided dynamically; InSubtree never
                    // completes on its own.
                    _ => 0,
                })
            })
            .collect();
        let nodes_remaining = plan
            .ntype
            .iter()
            .filter(|t| !matches!(t, NodeType::InSubtree))
            .count() as u64;
        Coord {
            done: AtomicBool::new(false),
            failed: Mutex::new(None),
            done_at: Mutex::new(None),
            parts_left,
            nodes_remaining: AtomicU64::new(nodes_remaining),
            app_msgs: AtomicU64::new(0),
            net_state_msgs: AtomicU64::new(0),
            net_state_bytes: AtomicU64::new(0),
            net_regular_msgs: AtomicU64::new(0),
            net_regular_bytes: AtomicU64::new(0),
            snp: Mutex::new(SnapUnion {
                active: 0,
                from: None,
                union: Duration::ZERO,
                max: 0,
            }),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Record a failure (first error wins) and stop every thread.
    fn fail(&self, err: RunError) {
        let mut f = self.failed.lock().unwrap();
        if f.is_none() {
            *f = Some(err);
        }
        self.done.store(true, Ordering::SeqCst);
    }
}

/// Mechanism state shared between a worker and its communication thread.
struct MechCell {
    mech: AnyMechanism,
    outbox: Outbox,
    /// Notifications produced by the comm thread for the worker to act on
    /// (the worker owns decisions and tasks).
    notifies: Vec<Notify>,
}

type SharedMech = Arc<(Mutex<MechCell>, Condvar)>;

/// The view-accuracy probe shared by every worker and comm thread. Lock
/// ordering: the probe is only ever taken *after* (or without) the mech cell
/// lock, never before it.
type SharedProbe = Arc<Mutex<ViewAccuracyProbe>>;

/// Collect the belief refreshes a just-consumed state message implies:
/// `(subject, load)` pairs read from the receiver's post-dispatch view.
/// Computed while the cell lock is held; applied to the probe afterwards.
fn belief_updates(cell: &MechCell, subjects: &[ActorId], me: usize) -> Vec<(usize, Load)> {
    let view = cell.mech.view();
    subjects
        .iter()
        .filter(|q| q.index() != me)
        .map(|q| (q.index(), view.get(*q)))
        .collect()
}

/// The state-channel send half a flush uses: the worker's own endpoint, or
/// the dedicated comm endpoint (§4.5's "communication thread takes the lock
/// protecting MPI calls").
enum StateTx<'a> {
    Main(&'a Endpoint<TMsg>),
    Comm(&'a CommEndpoint<TMsg>),
}

impl StateTx<'_> {
    fn send(&self, to: ActorId, size: u64, msg: StateMsg) -> bool {
        match self {
            StateTx::Main(ep) => ep.send(to, Channel::State, size, TMsg::State(msg)),
            StateTx::Comm(c) => c.send(to, size, TMsg::State(msg)),
        }
    }

    fn broadcast(&self, size: u64, msg: &StateMsg) -> usize {
        let wrapped = TMsg::State(msg.clone());
        match self {
            StateTx::Main(ep) => ep.broadcast(Channel::State, size, &wrapped),
            StateTx::Comm(c) => c.broadcast(size, &wrapped),
        }
    }
}

/// Drain the cell's staged events and messages onto the wire. Returns false
/// if any peer was unreachable.
fn flush_cell(
    cell: &mut MechCell,
    tx: StateTx<'_>,
    me: usize,
    nprocs: usize,
    coord: &Coord,
    recorder: &Recorder,
    clock: &WallClock,
) -> bool {
    if recorder.is_enabled() {
        let now = clock.now();
        for ev in cell.outbox.drain_events() {
            recorder.emit(now, ActorId(me), ev);
        }
    }
    let mut ok = true;
    for OutMsg { dest, msg } in cell.outbox.drain() {
        let size = msg.wire_size();
        match dest {
            Dest::One(to) => {
                ok &= tx.send(to, size, msg);
                coord.net_state_msgs.fetch_add(1, Ordering::Relaxed);
                coord.net_state_bytes.fetch_add(size, Ordering::Relaxed);
            }
            Dest::AllOthers => {
                let delivered = tx.broadcast(size, &msg);
                ok &= delivered == nprocs - 1;
                coord
                    .net_state_msgs
                    .fetch_add(delivered as u64, Ordering::Relaxed);
                coord
                    .net_state_bytes
                    .fetch_add(delivered as u64 * size, Ordering::Relaxed);
            }
        }
    }
    ok
}

/// §4.5 communication thread: service the state channel every
/// `poll` (the transport also wakes on arrival, so `poll` bounds the check
/// period), feed the shared mechanism, and wake the worker.
#[allow(clippy::too_many_arguments)]
fn comm_loop(
    comm: CommEndpoint<TMsg>,
    cell: SharedMech,
    coord: &Coord,
    recorder: Recorder,
    clock: WallClock,
    poll: Duration,
    nprocs: usize,
    probe: Option<SharedProbe>,
) {
    let me = comm.rank().index();
    let timer_period = {
        let g = cell.0.lock().unwrap();
        g.mech.timer_period()
    };
    let mut next_timer = timer_period.map(|p| Instant::now() + clock.to_wall(p));
    loop {
        if coord.is_done() {
            break;
        }
        // The dissemination timer of the periodic/gossip mechanisms lives on
        // this thread: it must fire even while the worker computes.
        if let (Some(at), Some(period)) = (next_timer, timer_period) {
            if Instant::now() >= at {
                let mut g = cell.0.lock().unwrap();
                {
                    let MechCell { mech, outbox, .. } = &mut *g;
                    mech.on_timer(outbox);
                }
                let ok = flush_cell(
                    &mut g,
                    StateTx::Comm(&comm),
                    me,
                    nprocs,
                    coord,
                    &recorder,
                    &clock,
                );
                drop(g);
                cell.1.notify_all();
                if !ok && !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                    break;
                }
                next_timer = Some(at + clock.to_wall(period));
            }
        }
        match comm.recv_timeout(poll) {
            Ok(env) => {
                let TMsg::State(msg) = env.msg else {
                    debug_assert!(false, "application traffic on the state channel");
                    continue;
                };
                let subjects = if probe.is_some() {
                    msg.subjects(env.from, ActorId(me))
                } else {
                    Vec::new()
                };
                let mut g = cell.0.lock().unwrap();
                let notifies = {
                    let MechCell { mech, outbox, .. } = &mut *g;
                    mech.on_state_msg(env.from, msg, outbox)
                };
                let ok = flush_cell(
                    &mut g,
                    StateTx::Comm(&comm),
                    me,
                    nprocs,
                    coord,
                    &recorder,
                    &clock,
                );
                let refreshed = belief_updates(&g, &subjects, me);
                g.notifies.extend(notifies);
                drop(g);
                cell.1.notify_all();
                if let Some(probe) = probe.as_ref() {
                    let now = clock.now();
                    let mut pr = probe.lock().unwrap();
                    for (q, l) in refreshed {
                        pr.set_belief(now, me, q, l.work, l.mem);
                    }
                }
                if !ok && !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                    break;
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => {
                if !coord.is_done() {
                    coord.fail(RunError::Disconnected { proc: ActorId(me) });
                }
                break;
            }
        }
    }
}

/// Local per-node bookkeeping. Each entry is only ever touched by one
/// process: delivery fields at the owner of the node's parent, activation
/// fields at the node's own owner (both the same process by construction of
/// the application protocol).
#[derive(Clone, Copy, Debug, Default)]
struct NodeState {
    plan_pieces: Option<u32>,
    pieces_recv: u32,
    counted_done: bool,
    children_done: u32,
    activated: bool,
}

/// Per-process results handed back to the report builder.
struct WorkerOutcome {
    proc: ProcReport,
    msgs_received: u64,
    snapshots_started: u64,
    snapshot_rebroadcasts: u64,
    delayed_answers: u64,
    timeline: Timeline,
    snapshot_durations_ns: Vec<f64>,
}

/// Marks the run failed if this worker's thread unwinds, so the remaining
/// threads stop at the next boundary instead of waiting for the deadline.
struct PanicGuard<'a> {
    coord: &'a Coord,
    p: usize,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.coord.fail(RunError::WorkerPanic {
                proc: ActorId(self.p),
            });
        }
    }
}

/// One process of the factorization: the Algorithm 1 loop on a real thread.
struct Worker<'a> {
    p: usize,
    cfg: &'a SolverConfig,
    tree: &'a AssemblyTree,
    plan: &'a TreePlan,
    coord: &'a Coord,
    cell: SharedMech,
    ep: Endpoint<TMsg>,
    clock: WallClock,
    deadline: Instant,
    wall_timeout: Duration,
    recorder: Recorder,
    comm_enabled: bool,
    ef: f64,
    nodes: Vec<NodeState>,
    /// Producers of each child node's CB pieces, learned from `CbReady`
    /// senders (includes ourselves for locally produced pieces).
    producers: HashMap<u32, Vec<ActorId>>,
    /// Entries this process retains on its stack per producing node.
    retained: HashMap<u32, f64>,
    ready: VecDeque<Task>,
    /// Self-addressed application messages (local handoff: no network).
    local_app: VecDeque<(ActorId, AppMsg)>,
    pending_decisions: VecDeque<u32>,
    decision_inflight: Option<u32>,
    decision_candidates: Option<Vec<ActorId>>,
    true_mem: f64,
    /// Outstanding committed work on this process: `plan.init_work` plus
    /// every `local_change` work delta. Tracks the sim engine's
    /// `committed_work[p]`, observed at receipt time rather than decision
    /// time (the skew is the real message latency).
    true_work: f64,
    /// View-accuracy probe shared across all threads (`None` unless
    /// [`SolverConfig::accuracy`] is set).
    probe: Option<SharedProbe>,
    mem_gauge: TimeWeightedGauge,
    busy: SimDuration,
    blocked_wall: Duration,
    overhead: SimDuration,
    masters_left: u32,
    next_timer: Option<Instant>,
    timer_wall: Option<Duration>,
    timeline: Timeline,
    snp_opened_at: Option<Instant>,
    snapshot_durations_ns: Vec<f64>,
}

impl Worker<'_> {
    fn obs(&self) -> bool {
        self.recorder.is_enabled()
    }

    fn deadline_hit(&self) -> bool {
        Instant::now() >= self.deadline
    }

    fn net_fail(&self) {
        // With no peers at all, a "disconnected" receive is the permanent
        // steady state, not a failure; pace the caller's retry loop instead.
        if self.cfg.nprocs <= 1 {
            std::thread::sleep(WAIT_SLICE);
            return;
        }
        if !self.coord.is_done() {
            self.coord.fail(RunError::Disconnected {
                proc: ActorId(self.p),
            });
        }
    }

    fn blocked(&self) -> bool {
        self.cell.0.lock().unwrap().mech.blocked()
    }

    fn flush_locked(&self, g: &mut MechCell) -> bool {
        flush_cell(
            g,
            StateTx::Main(&self.ep),
            self.p,
            self.cfg.nprocs,
            self.coord,
            &self.recorder,
            &self.clock,
        )
    }

    fn note_activity(&mut self, act: Activity) {
        if !self.cfg.record_timeline {
            return;
        }
        let now = self.clock.now();
        if self.timeline.last().map(|&(_, a)| a) == Some(act) {
            return;
        }
        if self.timeline.last().map(|&(t, _)| t) == Some(now) {
            self.timeline.pop();
            if self.timeline.last().map(|&(_, a)| a) == Some(act) {
                return;
            }
        }
        self.timeline.push((now, act));
    }

    fn set_mem(&mut self, delta: f64) {
        self.true_mem = (self.true_mem + delta).max(0.0);
        let v = self.true_mem;
        let now = self.clock.now();
        self.mem_gauge.set(now, v);
        self.recorder.emit_with(now, ActorId(self.p), || {
            if delta >= 0.0 {
                ProtocolEvent::MemAlloc { entries: delta }
            } else {
                ProtocolEvent::MemFree { entries: -delta }
            }
        });
    }

    fn local_change(&mut self, delta: Load, origin: ChangeOrigin) {
        let ok = {
            let mut g = self.cell.0.lock().unwrap();
            let MechCell { mech, outbox, .. } = &mut *g;
            mech.on_local_change(delta, origin, outbox);
            self.flush_locked(&mut g)
        };
        // Every true-state change funnels through here (each `set_mem` is
        // paired with a `local_change` carrying the same memory delta), so
        // this is the one place the probe's ground truth needs refreshing.
        self.true_work = (self.true_work + delta.work).max(0.0);
        if let Some(probe) = self.probe.as_ref() {
            let now = self.clock.now();
            probe
                .lock()
                .unwrap()
                .set_truth(now, self.p, self.true_work, self.true_mem);
        }
        if !ok {
            self.net_fail();
        }
    }

    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64) {
        self.coord.app_msgs.fetch_add(1, Ordering::Relaxed);
        if to as usize == self.p {
            // Local handoff: the data never moves; processed through the
            // mailbox like the simulator does.
            self.local_app.push_back((ActorId(self.p), msg));
            return;
        }
        let ok = self.ep.send(
            ActorId(to as usize),
            Channel::Regular,
            bytes,
            TMsg::App(msg),
        );
        self.coord.net_regular_msgs.fetch_add(1, Ordering::Relaxed);
        self.coord
            .net_regular_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        if !ok {
            self.net_fail();
        }
    }

    // ----- state messages & notifications ---------------------------------

    fn process_state(&mut self, from: ActorId, msg: StateMsg, charge: bool) {
        let subjects = if self.probe.is_some() {
            msg.subjects(from, ActorId(self.p))
        } else {
            Vec::new()
        };
        let (notifies, refreshed, ok) = {
            let mut g = self.cell.0.lock().unwrap();
            let n = {
                let MechCell { mech, outbox, .. } = &mut *g;
                mech.on_state_msg(from, msg, outbox)
            };
            let ok = self.flush_locked(&mut g);
            let refreshed = belief_updates(&g, &subjects, self.p);
            (n, refreshed, ok)
        };
        if let Some(probe) = self.probe.as_ref() {
            let now = self.clock.now();
            let mut pr = probe.lock().unwrap();
            for (q, l) in refreshed {
                pr.set_belief(now, self.p, q, l.work, l.mem);
            }
        }
        if charge {
            self.overhead += self.cfg.state_msg_cost;
        }
        if !ok {
            self.net_fail();
        }
        self.handle_notifies(notifies);
    }

    fn handle_notifies(&mut self, notifies: Vec<Notify>) {
        for n in notifies {
            if matches!(n, Notify::DecisionReady) {
                if let Some(node) = self.decision_inflight.take() {
                    self.do_selection(node);
                }
            }
            // Blocked/Resumed are reconciled by polling mech.blocked().
        }
    }

    fn apply_stashed(&mut self) {
        let notifies = {
            let mut g = self.cell.0.lock().unwrap();
            std::mem::take(&mut g.notifies)
        };
        self.handle_notifies(notifies);
    }

    /// Fire the periodic/gossip dissemination timer (main-loop mode only —
    /// with a comm thread the timer lives there).
    fn maybe_fire_timer(&mut self) {
        let (Some(at), Some(w)) = (self.next_timer, self.timer_wall) else {
            return;
        };
        if Instant::now() < at {
            return;
        }
        let ok = {
            let mut g = self.cell.0.lock().unwrap();
            let MechCell { mech, outbox, .. } = &mut *g;
            mech.on_timer(outbox);
            self.flush_locked(&mut g)
        };
        if !ok {
            self.net_fail();
        }
        self.next_timer = Some(at + w);
    }

    // ----- blocked waits ---------------------------------------------------

    /// The snapshot receive loop: only state messages are treated until the
    /// mechanism unblocks (Algorithm 1's blocked mode).
    fn wait_unblocked(&mut self) {
        let t0 = Instant::now();
        let now = self.clock.now();
        self.recorder
            .emit_with(now, ActorId(self.p), || ProtocolEvent::Blocked);
        self.note_activity(Activity::Blocked);
        loop {
            if self.coord.is_done() || self.deadline_hit() {
                break;
            }
            if self.comm_enabled {
                let mut g = self.cell.0.lock().unwrap();
                // The comm thread only *stashes* notifications; decisions are
                // the worker's. A DecisionReady must be acted on from here —
                // completing the decision is what unblocks the mechanism.
                let notifies = std::mem::take(&mut g.notifies);
                if !notifies.is_empty() {
                    drop(g);
                    self.handle_notifies(notifies);
                    continue;
                }
                if !g.mech.blocked() {
                    break;
                }
                drop(self.cell.1.wait_timeout(g, WAIT_SLICE).unwrap());
            } else {
                self.maybe_fire_timer();
                match self.ep.recv_state_timeout(WAIT_SLICE) {
                    Ok(env) => {
                        if let TMsg::State(msg) = env.msg {
                            self.process_state(env.from, msg, true);
                        }
                    }
                    Err(RecvError::Timeout) => {}
                    Err(RecvError::Disconnected) => {
                        self.net_fail();
                        break;
                    }
                }
                if !self.blocked() {
                    break;
                }
            }
        }
        self.blocked_wall += t0.elapsed();
        let now = self.clock.now();
        self.recorder
            .emit_with(now, ActorId(self.p), || ProtocolEvent::Resumed);
        self.note_activity(Activity::Idle);
        self.apply_stashed();
    }

    /// §4.5: the computation pauses while the mechanism is blocked by a
    /// snapshot the comm thread is participating in.
    fn pause_while_blocked(&mut self) {
        let t0 = Instant::now();
        let now = self.clock.now();
        self.recorder
            .emit_with(now, ActorId(self.p), || ProtocolEvent::Blocked);
        self.note_activity(Activity::Blocked);
        loop {
            if self.coord.is_done() || self.deadline_hit() {
                break;
            }
            let g = self.cell.0.lock().unwrap();
            if !g.mech.blocked() {
                break;
            }
            drop(self.cell.1.wait_timeout(g, WAIT_SLICE).unwrap());
        }
        self.blocked_wall += t0.elapsed();
        let now = self.clock.now();
        self.recorder
            .emit_with(now, ActorId(self.p), || ProtocolEvent::Resumed);
        self.note_activity(Activity::Busy);
    }

    // ----- decisions --------------------------------------------------------

    fn try_start_decision(&mut self) -> bool {
        if self.decision_inflight.is_some() || self.blocked() {
            return false;
        }
        let Some(node) = self.pending_decisions.pop_front() else {
            return false;
        };
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || {
                ProtocolEvent::DecisionOpen { node: node as u64 }
            });
        let (candidates, gate, ok) = {
            let mut g = self.cell.0.lock().unwrap();
            // §5 extension: partial snapshots query only the k least-loaded
            // candidates (by the master's current view and strategy metric).
            let candidates: Option<Vec<ActorId>> = match (self.cfg.snapshot_candidates, &g.mech) {
                (Some(k), AnyMechanism::Snapshot(_)) if k < self.cfg.nprocs - 1 => {
                    let mut others: Vec<(ActorId, f64)> = g
                        .mech
                        .view()
                        .others()
                        .map(|(q, l)| {
                            let metric = match self.cfg.strategy {
                                crate::config::Strategy::MemoryBased => l.mem,
                                crate::config::Strategy::WorkloadBased => l.work,
                            };
                            (q, metric)
                        })
                        .collect();
                    others.sort_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .unwrap()
                            .then(a.0.index().cmp(&b.0.index()))
                    });
                    Some(others.into_iter().take(k.max(1)).map(|(q, _)| q).collect())
                }
                _ => None,
            };
            let MechCell { mech, outbox, .. } = &mut *g;
            let gate = match (&candidates, mech) {
                (Some(c), AnyMechanism::Snapshot(m)) => m.request_decision_among(c, outbox),
                (_, mech) => mech.request_decision(outbox),
            };
            let ok = self.flush_locked(&mut g);
            (candidates, gate, ok)
        };
        self.decision_candidates = candidates;
        if !ok {
            self.net_fail();
        }
        match gate {
            Gate::Ready => self.do_selection(node),
            Gate::Wait => {
                self.decision_inflight = Some(node);
                let now = Instant::now();
                self.snp_opened_at = Some(now);
                self.coord.snp.lock().unwrap().begin(now);
                // The blocked wait happens at the next loop boundary.
            }
        }
        true
    }

    fn do_selection(&mut self, node: u32) {
        let was_snapshot = matches!(self.cfg.mechanism, MechKind::Snapshot);
        let m = self.tree.nodes[node as usize].nfront as f64;
        let ncb = self.tree.nodes[node as usize].ncb();
        let ef = self.ef;
        let mem_per_row = m * ef;
        let work_per_row = work::slave_flops_per_row(self.tree, node);
        let allowed = self.decision_candidates.take();
        let (shares, notifies, refreshed, ok) = {
            let mut g = self.cell.0.lock().unwrap();
            let shares = sched::select_slaves_among(
                self.cfg,
                g.mech.view(),
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            );
            let assignments: Vec<(ActorId, Load)> = shares
                .iter()
                .map(|s| {
                    (
                        s.slave,
                        Load::new(work_per_row * s.rows as f64, mem_per_row * s.rows as f64),
                    )
                })
                .collect();
            let notifies = {
                let MechCell { mech, outbox, .. } = &mut *g;
                mech.complete_decision(&assignments, outbox)
            };
            let ok = self.flush_locked(&mut g);
            // The master just applied its own assignments to its view: its
            // beliefs about the selected slaves are refreshed.
            let refreshed = if self.probe.is_some() {
                let view = g.mech.view();
                shares
                    .iter()
                    .map(|s| (s.slave.index(), view.get(s.slave)))
                    .collect()
            } else {
                Vec::new()
            };
            (shares, notifies, refreshed, ok)
        };
        if let Some(probe) = self.probe.as_ref() {
            let now = self.clock.now();
            let mut pr = probe.lock().unwrap();
            // Decision regret: replay the same selection against the shared
            // ground truth (which does not yet include this decision — the
            // slaves commit their shares at receipt) and record whether
            // staleness changed the outcome.
            let mut truth_view = LoadTable::new(ActorId(self.p), self.cfg.nprocs);
            for (q, &(w, mem)) in pr.truth_vector().iter().enumerate() {
                truth_view.set(ActorId(q), Load::new(w, mem));
            }
            let r = sched::selection_regret(
                self.cfg,
                &truth_view,
                &shares,
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            );
            pr.record_decision(r.mismatch, r.gap);
            for (q, l) in refreshed {
                pr.set_belief(now, self.p, q, l.work, l.mem);
            }
        }
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || {
                ProtocolEvent::DecisionComplete {
                    node: node as u64,
                    slaves: shares.len() as u32,
                }
            });
        if !ok {
            self.net_fail();
        }
        let wall_now = Instant::now();
        if was_snapshot {
            self.coord.snp.lock().unwrap().end(wall_now);
        }
        if let Some(t0) = self.snp_opened_at.take() {
            if self.obs() {
                let d = self.clock.to_sim(wall_now.saturating_duration_since(t0));
                self.snapshot_durations_ns.push(d.as_nanos() as f64);
            }
        }

        let parent_owner = self.tree.nodes[node as usize]
            .parent
            .map(|par| self.plan.owner[par as usize]);

        // Assembly: the children's stacked CB pieces are consumed now.
        self.assemble_children(node);
        if shares.is_empty() {
            // Degenerate: the master factors the whole front itself.
            let alloc = self.tree.front_entries(node as usize);
            self.coord.parts_left[node as usize].store(1, Ordering::SeqCst);
            self.set_mem(alloc);
            let flops = self.tree.flops(node as usize);
            self.local_change(Load::new(flops, alloc), ChangeOrigin::Local);
            if parent_owner.is_some() {
                self.announce_plan(node, 1);
            }
            self.ready
                .push_back(Task::new(TaskKind::Type2Whole, node, flops));
        } else {
            // Master side: allocate the pivot block. Store the part count
            // before any slave task is sent (the channel provides the
            // happens-before edge to the slaves' decrements).
            let pm = self.tree.nodes[node as usize].npiv as f64 * m * ef;
            self.coord.parts_left[node as usize].store(shares.len() as u32 + 1, Ordering::SeqCst);
            self.set_mem(pm);
            let mflops = work::master_flops(self.tree, node);
            self.local_change(Load::new(mflops, pm), ChangeOrigin::Local);
            if parent_owner.is_some() {
                self.announce_plan(node, shares.len() as u32);
            }
            for s in &shares {
                let bytes = (s.rows as f64 * m * ef * 8.0) as u64;
                self.send_app(
                    s.slave.index() as u32,
                    AppMsg::SlaveTask { node, rows: s.rows },
                    bytes,
                );
            }
            self.ready
                .push_back(Task::new(TaskKind::Type2Master, node, mflops));
        }
        // NoMoreMaster once the last statically known decision is done.
        self.masters_left = self.masters_left.saturating_sub(1);
        if self.masters_left == 0 && self.cfg.no_more_master {
            self.announce_no_more_master();
        }
        self.handle_notifies(notifies);
    }

    fn announce_no_more_master(&mut self) {
        let ok = {
            let mut g = self.cell.0.lock().unwrap();
            let MechCell { mech, outbox, .. } = &mut *g;
            mech.no_more_master(outbox);
            self.flush_locked(&mut g)
        };
        if !ok {
            self.net_fail();
        }
    }

    fn announce_plan(&mut self, node: u32, pieces: u32) {
        let parent = self.tree.nodes[node as usize]
            .parent
            .expect("caller checked");
        let owner = self.plan.owner[parent as usize];
        self.send_app(owner, AppMsg::CbPlan { node, pieces }, 24);
    }

    // ----- application messages --------------------------------------------

    fn handle_app(&mut self, from: ActorId, msg: AppMsg) {
        self.overhead += self.cfg.app_msg_cost;
        match msg {
            AppMsg::SlaveTask { node, rows } => {
                let m = self.tree.nodes[node as usize].nfront as f64;
                let alloc = rows as f64 * m * self.ef;
                let flops = work::slave_flops_per_row(self.tree, node) * rows as f64;
                self.set_mem(alloc);
                self.local_change(Load::new(flops, alloc), ChangeOrigin::SlaveTask);
                self.ready
                    .push_back(Task::new(TaskKind::Type2Slave { rows }, node, flops));
            }
            AppMsg::CbReady { node } => {
                self.producers.entry(node).or_default().push(from);
                self.nodes[node as usize].pieces_recv += 1;
                self.check_child_delivery(node);
            }
            AppMsg::CbPlan { node, pieces } => {
                self.nodes[node as usize].plan_pieces = Some(pieces);
                self.check_child_delivery(node);
            }
            AppMsg::RootPart { node } => {
                let share_mem = self.tree.front_entries(node as usize) / self.cfg.nprocs as f64;
                let share_flops = self.tree.flops(node as usize) / self.cfg.nprocs as f64;
                self.set_mem(share_mem);
                self.local_change(Load::new(share_flops, share_mem), ChangeOrigin::Local);
                self.ready
                    .push_back(Task::new(TaskKind::RootPart, node, share_flops));
            }
        }
    }

    fn dispatch_regular(&mut self, env: Envelope<TMsg>) {
        match env.msg {
            TMsg::App(msg) => self.handle_app(env.from, msg),
            TMsg::CbFree { node } => self.free_retained(node),
            TMsg::State(msg) => {
                // Only reachable in main-loop mode through recv_timeout's
                // state-first polling.
                debug_assert!(!self.comm_enabled, "state message on the worker");
                self.process_state(env.from, msg, true);
            }
        }
    }

    /// At the owner of `child`'s parent: did `child` finish delivering?
    fn check_child_delivery(&mut self, child: u32) {
        let st = &self.nodes[child as usize];
        let Some(plan) = st.plan_pieces else { return };
        if st.counted_done || st.pieces_recv < plan {
            return;
        }
        self.nodes[child as usize].counted_done = true;
        let parent = self.tree.nodes[child as usize]
            .parent
            .expect("delivery to a root");
        self.nodes[parent as usize].children_done += 1;
        self.try_activate(parent);
    }

    /// Activate upper node `v` at its owner once all children delivered.
    fn try_activate(&mut self, v: u32) {
        debug_assert_eq!(self.plan.owner[v as usize] as usize, self.p);
        let nchildren = self.tree.nodes[v as usize].children.len() as u32;
        if self.nodes[v as usize].activated || self.nodes[v as usize].children_done < nchildren {
            return;
        }
        self.nodes[v as usize].activated = true;
        match self.plan.ntype[v as usize] {
            NodeType::Type1 => {
                let flops = self.tree.flops(v as usize);
                // Workload is charged at activation (§4.2.2); memory at task
                // start (assembly).
                self.local_change(Load::work(flops), ChangeOrigin::Local);
                self.ready.push_back(Task::new(TaskKind::Type1, v, flops));
            }
            NodeType::Type2 => {
                self.pending_decisions.push_back(v);
            }
            NodeType::Type3 => {
                self.assemble_children(v);
                let share_mem = self.tree.front_entries(v as usize) / self.cfg.nprocs as f64;
                let share_flops = self.tree.flops(v as usize) / self.cfg.nprocs as f64;
                let share_bytes = (share_mem * 8.0) as u64;
                for q in 0..self.cfg.nprocs {
                    if q != self.p {
                        self.send_app(q as u32, AppMsg::RootPart { node: v }, share_bytes);
                    }
                }
                self.set_mem(share_mem);
                self.local_change(Load::new(share_flops, share_mem), ChangeOrigin::Local);
                self.ready
                    .push_back(Task::new(TaskKind::RootPart, v, share_flops));
            }
            t => unreachable!("activation of {t:?}"),
        }
    }

    // ----- tasks ------------------------------------------------------------

    fn task_alloc_estimate(&self, task: &Task) -> f64 {
        if task.started {
            return 0.0;
        }
        match task.kind {
            TaskKind::Subtree => self.plan.subtree_task_peak[task.node as usize],
            TaskKind::Type1 => self.tree.front_entries(task.node as usize),
            _ => 0.0,
        }
    }

    fn pick_task(&self) -> Option<usize> {
        if self.ready.is_empty() {
            return None;
        }
        let ready: Vec<sched::ReadyTask> = self
            .ready
            .iter()
            .map(|t| sched::ReadyTask {
                alloc: self.task_alloc_estimate(t),
            })
            .collect();
        let g = self.cell.0.lock().unwrap();
        sched::pick_task(self.cfg, g.mech.view(), &ready)
    }

    fn run_task(&mut self, idx: usize) {
        let mut task = self.ready.remove(idx).expect("task index");
        // Allocation on first entry for assembly-style tasks.
        if !task.started {
            task.started = true;
            match task.kind {
                TaskKind::Subtree => {
                    let peak = self.plan.subtree_task_peak[task.node as usize];
                    self.set_mem(peak);
                    self.local_change(Load::mem(peak), ChangeOrigin::Local);
                }
                TaskKind::Type1 => {
                    self.assemble_children(task.node);
                    let front = self.tree.front_entries(task.node as usize);
                    self.set_mem(front);
                    self.local_change(Load::mem(front), ChangeOrigin::Local);
                }
                _ => {}
            }
        }
        // Compute one chunk; the remainder re-queues at the boundary. The
        // simulated duration maps onto the wall clock through the time scale.
        let seg = task.remaining.min(work::chunk_flops(self.cfg));
        let dur =
            SimDuration::from_secs_f64(seg / work::speed_of(self.cfg, self.p)) + self.overhead;
        self.overhead = SimDuration::ZERO;
        self.busy += dur;
        self.note_activity(Activity::Busy);
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || {
                ProtocolEvent::TaskStart {
                    node: task.node as u64,
                    kind: task.kind.name(),
                }
            });
        let mut left = self.clock.to_wall(dur);
        while left > Duration::ZERO {
            if self.coord.is_done() {
                return; // failure elsewhere: the report is discarded
            }
            if self.deadline_hit() {
                self.coord.fail(RunError::WallTimeout {
                    limit: self.wall_timeout,
                });
                return;
            }
            if self.comm_enabled && self.blocked() {
                self.pause_while_blocked();
                continue;
            }
            let slice = left.min(COMPUTE_SLICE);
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
        self.recorder
            .emit_with(self.clock.now(), ActorId(self.p), || {
                ProtocolEvent::TaskEnd {
                    node: task.node as u64,
                }
            });
        self.note_activity(Activity::Idle);
        // The chunk's work is done: the load drops by that amount.
        task.remaining -= seg;
        let origin = match task.kind {
            TaskKind::Type2Slave { .. } => ChangeOrigin::SlaveTask,
            _ => ChangeOrigin::Local,
        };
        self.local_change(Load::work(-seg), origin);
        if task.remaining > 0.0 {
            self.ready.push_front(task);
        } else {
            self.complete_task(task);
        }
    }

    fn complete_task(&mut self, task: Task) {
        let ef = self.ef;
        let node = task.node;
        match task.kind {
            TaskKind::Subtree => {
                let peak = self.plan.subtree_task_peak[node as usize];
                let cb = self.retained_cb(node, self.tree.cb_entries(node as usize));
                self.set_mem(cb - peak);
                self.local_change(Load::mem(cb - peak), ChangeOrigin::Local);
                self.notify_cb_ready(node);
            }
            TaskKind::Type1 => {
                let front = self.tree.front_entries(node as usize);
                let cb = self.retained_cb(node, self.tree.cb_entries(node as usize));
                self.set_mem(cb - front);
                self.local_change(Load::mem(cb - front), ChangeOrigin::Local);
                self.notify_cb_ready(node);
            }
            TaskKind::Type2Master => {
                let m = self.tree.nodes[node as usize].nfront as f64;
                let pm = self.tree.nodes[node as usize].npiv as f64 * m * ef;
                self.set_mem(-pm);
                self.local_change(Load::mem(-pm), ChangeOrigin::Local);
            }
            TaskKind::Type2Slave { rows } => {
                let m = self.tree.nodes[node as usize].nfront as f64;
                let alloc = rows as f64 * m * ef;
                let piece = rows as f64 * self.tree.nodes[node as usize].ncb() as f64 * ef;
                let cb = self.retained_cb(node, piece);
                self.set_mem(cb - alloc);
                self.local_change(Load::mem(cb - alloc), ChangeOrigin::SlaveTask);
                self.notify_cb_ready(node);
            }
            TaskKind::Type2Whole => {
                let front = self.tree.front_entries(node as usize);
                let cb = self.retained_cb(node, self.tree.cb_entries(node as usize));
                self.set_mem(cb - front);
                self.local_change(Load::mem(cb - front), ChangeOrigin::Local);
                self.notify_cb_ready(node);
            }
            TaskKind::RootPart => {
                let share = self.tree.front_entries(node as usize) / self.cfg.nprocs as f64;
                self.set_mem(-share);
                self.local_change(Load::mem(-share), ChangeOrigin::Local);
            }
        }
        // Node-part accounting, and global termination on the last part.
        let left = self.coord.parts_left[node as usize].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(left > 0, "part underflow at node {node}");
        if left == 1 && self.coord.nodes_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.coord.done_at.lock().unwrap() = Some(Instant::now());
            self.coord.done.store(true, Ordering::SeqCst);
        }
    }

    /// Record a CB piece on this process's stack (returns the retained entry
    /// count, zero for roots whose CB nobody consumes).
    fn retained_cb(&mut self, node: u32, entries: f64) -> f64 {
        if self.tree.nodes[node as usize].parent.is_none() || entries <= 0.0 {
            return 0.0;
        }
        self.retained.insert(node, entries);
        entries
    }

    fn free_retained(&mut self, node: u32) {
        if let Some(entries) = self.retained.remove(&node) {
            self.set_mem(-entries);
            self.local_change(Load::mem(-entries), ChangeOrigin::Local);
        }
    }

    /// Tell the parent's owner a piece is ready (small control message).
    fn notify_cb_ready(&mut self, node: u32) {
        let Some(parent) = self.tree.nodes[node as usize].parent else {
            return; // a root: nothing to contribute
        };
        let owner = self.plan.owner[parent as usize];
        self.send_app(owner, AppMsg::CbReady { node }, 24);
    }

    /// Assemble node `v`: every stacked CB piece of its children is consumed.
    /// Remote producers get an explicit `CbFree` (the simulator frees their
    /// memory directly).
    fn assemble_children(&mut self, v: u32) {
        let children = self.tree.nodes[v as usize].children.clone();
        for c in children {
            let producers = self.producers.remove(&c).unwrap_or_default();
            for q in producers {
                if q.index() == self.p {
                    self.free_retained(c);
                } else {
                    let ok = self
                        .ep
                        .send(q, Channel::Regular, 16, TMsg::CbFree { node: c });
                    self.coord.net_regular_msgs.fetch_add(1, Ordering::Relaxed);
                    self.coord
                        .net_regular_bytes
                        .fetch_add(16, Ordering::Relaxed);
                    if !ok {
                        self.net_fail();
                    }
                }
            }
        }
    }

    // ----- the Algorithm 1 loop --------------------------------------------

    fn kick(&mut self) {
        {
            let g = self.cell.0.lock().unwrap();
            if let Some(period) = g.mech.timer_period() {
                if !self.comm_enabled {
                    let w = self.clock.to_wall(period);
                    self.timer_wall = Some(w);
                    self.next_timer = Some(Instant::now() + w);
                }
            }
        }
        // Enqueue this process's subtree tasks (ascending node order).
        for r in self.plan.subtrees_of(self.p as u32) {
            let flops = self.plan.subtree_task_flops[r as usize];
            self.ready.push_back(Task::new(TaskKind::Subtree, r, flops));
        }
        // Childless upper nodes activate immediately.
        for v in self.plan.upper_nodes() {
            if self.plan.owner[v as usize] as usize == self.p
                && self.tree.nodes[v as usize].children.is_empty()
            {
                self.try_activate(v);
            }
        }
        // Processes that will never be masters announce it right away (§2.3).
        if self.cfg.no_more_master && self.masters_left == 0 {
            self.announce_no_more_master();
        }
    }

    fn idle_wait(&mut self) {
        self.note_activity(Activity::Idle);
        let recv = if self.comm_enabled {
            self.ep.recv_regular_timeout(WAIT_SLICE)
        } else {
            self.ep.recv_timeout(WAIT_SLICE)
        };
        match recv {
            Ok(env) => self.dispatch_regular(env),
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => self.net_fail(),
        }
    }

    fn run_loop(&mut self) {
        self.kick();
        loop {
            if self.coord.is_done() {
                break;
            }
            if self.deadline_hit() {
                self.coord.fail(RunError::WallTimeout {
                    limit: self.wall_timeout,
                });
                break;
            }
            if self.comm_enabled {
                self.apply_stashed();
            } else {
                self.maybe_fire_timer();
                // (1) state messages first (Algorithm 1 line 2).
                while let Some(env) = self.ep.try_recv_state() {
                    if let TMsg::State(msg) = env.msg {
                        self.process_state(env.from, msg, true);
                    }
                }
            }
            if self.blocked() {
                self.wait_unblocked();
                continue;
            }
            // (2) pending dynamic decisions.
            if self.try_start_decision() {
                continue;
            }
            // (3) other messages (line 4): local handoffs, then the wire.
            if let Some((from, msg)) = self.local_app.pop_front() {
                self.handle_app(from, msg);
                continue;
            }
            if let Some(env) = self.ep.try_recv_regular() {
                self.dispatch_regular(env);
                continue;
            }
            // (4) compute a ready task (line 7).
            if let Some(i) = self.pick_task() {
                self.run_task(i);
                continue;
            }
            self.idle_wait();
        }
    }

    fn finish(mut self) -> WorkerOutcome {
        let end = self.clock.now();
        let v = self.true_mem;
        self.mem_gauge.set(end, v);
        let (msgs_sent, bytes_sent, msgs_received, decisions, started, rebroadcasts, delayed) = {
            let g = self.cell.0.lock().unwrap();
            let s = g.mech.stats();
            (
                s.msgs_sent,
                s.bytes_sent,
                s.msgs_received,
                s.decisions,
                s.snapshots_started,
                s.snapshot_rebroadcasts,
                s.delayed_answers,
            )
        };
        WorkerOutcome {
            proc: ProcReport {
                mem_peak_entries: self.mem_gauge.peak(),
                mem_final_entries: self.true_mem,
                state_msgs_sent: msgs_sent,
                state_bytes_sent: bytes_sent,
                decisions,
                busy: self.busy,
                blocked: self.clock.to_sim(self.blocked_wall),
            },
            msgs_received,
            snapshots_started: started,
            snapshot_rebroadcasts: rebroadcasts,
            delayed_answers: delayed,
            timeline: self.timeline,
            snapshot_durations_ns: self.snapshot_durations_ns,
        }
    }
}

/// Run the factorization on real threads. Called by
/// [`Runtime`](crate::run::Runtime) when the backend is
/// [`ExecBackend::Threaded`](crate::config::ExecBackend).
pub(crate) fn run(
    tree: &AssemblyTree,
    plan: TreePlan,
    cfg: SolverConfig,
    t: ThreadedBackend,
    recorder: Recorder,
) -> Result<RunReport, RunError> {
    let nprocs = cfg.nprocs;
    let threshold = cfg
        .threshold
        .unwrap_or_else(|| crate::engine::default_threshold(tree));
    let clock = WallClock::starting_now(t.time_scale);
    let deadline = clock.epoch() + t.wall_timeout;
    let coord = Coord::new(tree, &plan);
    let cells: Vec<SharedMech> = (0..nprocs)
        .map(|p| {
            let mut outbox = Outbox::new();
            outbox.set_observe(recorder.is_enabled());
            Arc::new((
                Mutex::new(MechCell {
                    mech: work::build_mechanism(&cfg, &plan, threshold, p),
                    outbox,
                    notifies: Vec::new(),
                }),
                Condvar::new(),
            ))
        })
        .collect();
    let endpoints = ThreadNetwork::new::<TMsg>(nprocs);
    let probe: Option<SharedProbe> = if cfg.accuracy {
        // Seed with the initial ground truth (the static mapping's subtree
        // work, no memory yet) and each mechanism's pre-seeded starting
        // view, exactly like the sim engine.
        let mut probe = ViewAccuracyProbe::new(nprocs);
        for (q, &w) in plan.init_work.iter().enumerate() {
            probe.set_truth(loadex_sim::SimTime::ZERO, q, w, 0.0);
        }
        for (p, cell) in cells.iter().enumerate() {
            let g = cell.0.lock().unwrap();
            let view = g.mech.view();
            for q in 0..nprocs {
                if q != p {
                    let l = view.get(ActorId(q));
                    probe.set_belief(loadex_sim::SimTime::ZERO, p, q, l.work, l.mem);
                }
            }
        }
        Some(Arc::new(Mutex::new(probe)))
    } else {
        None
    };

    let mut outcomes: Vec<Option<WorkerOutcome>> = (0..nprocs).map(|_| None).collect();
    let mut worker_panic: Option<usize> = None;
    std::thread::scope(|s| {
        let coord = &coord;
        let cfg = &cfg;
        let plan = &plan;
        let mut comms = Vec::new();
        let mut workers = Vec::new();
        // A single-process network has no peers: nothing will ever arrive on
        // the state channel, so a comm thread would only observe the (benign)
        // permanent disconnect. Skip it.
        let comm_enabled = t.comm_thread && nprocs > 1;
        for (p, ep) in endpoints.into_iter().enumerate() {
            let cell = Arc::clone(&cells[p]);
            if comm_enabled {
                let comm = ep.comm_half();
                let ccell = Arc::clone(&cell);
                let crecorder = recorder.clone();
                let cprobe = probe.clone();
                comms.push(s.spawn(move || {
                    comm_loop(
                        comm,
                        ccell,
                        coord,
                        crecorder,
                        clock,
                        t.poll_interval,
                        nprocs,
                        cprobe,
                    )
                }));
            }
            let wrecorder = recorder.clone();
            let wprobe = probe.clone();
            workers.push(s.spawn(move || {
                let _guard = PanicGuard { coord, p };
                let mut w = Worker {
                    p,
                    cfg,
                    tree,
                    plan,
                    coord,
                    cell,
                    ep,
                    clock,
                    deadline,
                    wall_timeout: t.wall_timeout,
                    recorder: wrecorder,
                    comm_enabled,
                    ef: work::entry_factor(tree.sym),
                    nodes: vec![NodeState::default(); tree.len()],
                    producers: HashMap::new(),
                    retained: HashMap::new(),
                    ready: VecDeque::new(),
                    local_app: VecDeque::new(),
                    pending_decisions: VecDeque::new(),
                    decision_inflight: None,
                    decision_candidates: None,
                    true_mem: 0.0,
                    true_work: plan.init_work[p],
                    probe: wprobe,
                    mem_gauge: TimeWeightedGauge::new(loadex_sim::SimTime::ZERO, 0.0),
                    busy: SimDuration::ZERO,
                    blocked_wall: Duration::ZERO,
                    overhead: SimDuration::ZERO,
                    masters_left: plan.masters_per_proc[p],
                    next_timer: None,
                    timer_wall: None,
                    timeline: Vec::new(),
                    snp_opened_at: None,
                    snapshot_durations_ns: Vec::new(),
                };
                // Delivery bookkeeping the simulator seeds at construction.
                for i in 0..tree.len() {
                    match plan.ntype[i] {
                        NodeType::SubtreeRoot | NodeType::Type1 => {
                            w.nodes[i].plan_pieces = Some(1);
                        }
                        NodeType::Type3 => {
                            w.nodes[i].plan_pieces = Some(0);
                        }
                        _ => {}
                    }
                }
                w.run_loop();
                w.finish()
            }));
        }
        for (p, h) in workers.into_iter().enumerate() {
            match h.join() {
                Ok(o) => outcomes[p] = Some(o),
                Err(_) => worker_panic = Some(p),
            }
        }
        for h in comms {
            let _ = h.join();
        }
    });

    if let Some(err) = coord.failed.lock().unwrap().take() {
        return Err(err);
    }
    if let Some(p) = worker_panic {
        return Err(RunError::WorkerPanic { proc: ActorId(p) });
    }

    let done_at = *coord.done_at.lock().unwrap();
    let end_instant = done_at.unwrap_or_else(Instant::now);
    let factor_time = clock.to_sim_time(end_instant);
    let (snapshot_union_time, snapshot_max_concurrent) = {
        let mut snp = coord.snp.lock().unwrap();
        snp.close(end_instant);
        (clock.to_sim(snp.union), snp.max)
    };
    let outs: Vec<WorkerOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("worker joined without panic"))
        .collect();

    let mut counters = StatSet::new();
    counters.add(
        "net_state_msgs",
        coord.net_state_msgs.load(Ordering::Relaxed),
    );
    counters.add(
        "net_regular_msgs",
        coord.net_regular_msgs.load(Ordering::Relaxed),
    );
    counters.add(
        "net_state_bytes",
        coord.net_state_bytes.load(Ordering::Relaxed),
    );
    counters.add(
        "net_regular_bytes",
        coord.net_regular_bytes.load(Ordering::Relaxed),
    );
    let procs: Vec<ProcReport> = outs.iter().map(|o| o.proc.clone()).collect();
    let snapshots_started: u64 = outs.iter().map(|o| o.snapshots_started).sum();
    let app_msgs = coord.app_msgs.load(Ordering::Relaxed);

    let mut registry = MetricsRegistry::new();
    for o in &outs {
        for &d in &o.snapshot_durations_ns {
            registry.observe("snapshot_duration_ns", d);
        }
    }
    let mut metrics = registry.snapshot();
    for (name, v) in counters.iter() {
        metrics.counters.insert(name.to_string(), v);
    }
    let mut fold = |name: &str, v: u64| {
        metrics.counters.insert(name.to_string(), v);
    };
    fold(
        "state_msgs_sent",
        procs.iter().map(|p| p.state_msgs_sent).sum(),
    );
    fold(
        "state_bytes_sent",
        procs.iter().map(|p| p.state_bytes_sent).sum(),
    );
    fold(
        "state_msgs_received",
        outs.iter().map(|o| o.msgs_received).sum(),
    );
    fold("decisions", procs.iter().map(|p| p.decisions).sum());
    fold("snapshots_started", snapshots_started);
    fold(
        "snapshot_rebroadcasts",
        outs.iter().map(|o| o.snapshot_rebroadcasts).sum(),
    );
    fold(
        "delayed_answers",
        outs.iter().map(|o| o.delayed_answers).sum(),
    );
    fold("app_msgs", app_msgs);
    fold("events_dropped", recorder.dropped());
    metrics.gauges.insert(
        "mem_peak_entries".to_string(),
        procs.iter().map(|p| p.mem_peak_entries).fold(0.0, f64::max),
    );
    metrics
        .gauges
        .insert("factor_time_s".to_string(), factor_time.as_secs_f64());
    metrics.gauges.insert(
        "snapshot_union_s".to_string(),
        snapshot_union_time.as_secs_f64(),
    );
    metrics.gauges.insert(
        "snapshot_max_concurrent".to_string(),
        snapshot_max_concurrent as f64,
    );

    let accuracy = probe.map(|probe| {
        let mut pr = probe.lock().unwrap().clone();
        pr.finish(factor_time);
        pr.report()
    });

    Ok(RunReport {
        backend: "threaded",
        factor_time,
        decisions: procs.iter().map(|p| p.decisions).sum(),
        state_msgs: procs.iter().map(|p| p.state_msgs_sent).sum(),
        state_bytes: procs.iter().map(|p| p.state_bytes_sent).sum(),
        app_msgs,
        snapshot_union_time,
        snapshot_max_concurrent,
        snapshots_started,
        counters,
        // There is no stop-the-world ground truth on real threads; the
        // coherence Welfords stay empty (the sim backend covers them).
        view_err_time_work: Welford::default(),
        view_err_time_mem: Welford::default(),
        view_err_decision_work: Welford::default(),
        view_err_decision_mem: Welford::default(),
        timelines: outs.iter().map(|o| o.timeline.clone()).collect(),
        procs,
        metrics,
        accuracy,
    })
}
