//! The real-thread execution backend (§4.5).
//!
//! One OS thread per process drives the same Algorithm 1 core as the
//! simulator (`ProcessCore`, `process.rs`), but over real
//! [`loadex_net::thread`] endpoints and the wall clock: compute chunks become
//! scaled sleeps (see [`WallClock`]), and messages travel through
//! cross-thread channels instead of the discrete-event calendar. With
//! [`ThreadedBackend::comm_thread`](crate::config::ThreadedBackend) set, a
//! dedicated communication thread per process polls the state channel every
//! `poll_interval` and services `Mechanism::on_state_msg` *concurrently* with
//! the computation — the paper's §4.5 model, where snapshot answers no longer
//! wait for task-chunk boundaries.
//!
//! This module owns what only real threads need: the blocking run loop and
//! its sleeps, the comm thread and the mutex that shares the mechanism with
//! it, and the [`RunError::WallTimeout`] watchdog. The `Host` it gives the
//! core differs from the simulator's by necessity:
//!
//! * Global termination and Type 2/3 part counting use shared atomics
//!   (`Coord`). This is run-harness bookkeeping, orthogonal to the load
//!   mechanisms under study — the real MUMPS has the same information through
//!   its symbolic phase.
//! * Each process keeps its own node table and contribution-block stack.
//!   Cross-process frees (the simulator reaches directly into the producer)
//!   become explicit `CbFree` messages on the regular channel (not counted as
//!   application messages: they carry no payload and exist only here).
//! * Coherence probes (the sampled `view_err_*` Welfords) are skipped: there
//!   is no stop-the-world instant to sample every pair against. The
//!   [`ViewAccuracyProbe`] *is* supported, though: each worker is the
//!   authority on its own load (truth updates ride the same `local_change`
//!   funnel the mechanism sees, at receipt time), so the shared probe holds
//!   an eventually-exact ground truth whose only skew is real message
//!   latency.
//!
//! Times are the wall clock mapped back to simulated time, and the report is
//! assembled by the same code as the simulator's, so downstream table code
//! is backend-agnostic.

use crate::config::{SolverConfig, ThreadedBackend};
use crate::error::RunError;
use crate::mapping::TreePlan;
use crate::process::{AppMsg, Host, NodeState, ProcState, ProcessCore, SnapUnion};
use crate::report::{Activity, ProcOutcome, RunParts, RunReport};
use loadex_core::{
    AnyMechanism, ChangeOrigin, Dest, Load, Mechanism, Notify, OutMsg, Outbox, StateMsg,
};
use loadex_net::{Channel, CommEndpoint, Endpoint, Envelope, RecvError, ThreadNetwork};
use loadex_obs::{MetricsRegistry, ProtocolEvent, Recorder, ViewAccuracyProbe, WallClock};
use loadex_sim::{ActorId, SimTime, StatSet, Welford};
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
    fn new(core: &ProcessCore) -> Self {
        let parts_left = (0..core.tree.len())
            .map(|i| AtomicU32::new(core.initial_parts(i)))
            .collect();
        let nodes_remaining = core.nodes_to_complete();
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
            snp: Mutex::new(SnapUnion::default()),
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
    core: &'a ProcessCore,
    coord: &'a Coord,
    cell: SharedMech,
    ep: Endpoint<TMsg>,
    clock: WallClock,
    deadline: Instant,
    wall_timeout: Duration,
    recorder: Recorder,
    comm_enabled: bool,
    st: ProcState,
    /// This process's delivery/activation records (each entry is only ever
    /// touched by one process: the owner of the node's parent for delivery,
    /// the node's owner for activation — the same process by construction).
    nodes: Vec<NodeState>,
    /// Producers of each child node's CB pieces, learned from `CbReady`
    /// senders (includes ourselves for locally produced pieces).
    producers: HashMap<u32, Vec<ActorId>>,
    /// Entries this process retains on its stack per producing node.
    retained: HashMap<u32, f64>,
    /// Self-addressed application messages (local handoff: no network).
    local_app: VecDeque<(ActorId, AppMsg)>,
    /// Outstanding committed work on this process: `plan.init_work` plus
    /// every `local_change` work delta. Tracks the sim engine's
    /// `committed_work[p]`, observed at receipt time rather than decision
    /// time (the skew is the real message latency).
    true_work: f64,
    /// View-accuracy probe shared across all threads (`None` unless
    /// [`SolverConfig::accuracy`] is set).
    probe: Option<SharedProbe>,
    blocked_wall: Duration,
    next_timer: Option<Instant>,
    timer_wall: Option<Duration>,
    /// Histogram samples, replayed into the run's registry at the end.
    samples: Vec<(&'static str, f64)>,
}

impl Worker<'_> {
    fn deadline_hit(&self) -> bool {
        Instant::now() >= self.deadline
    }

    fn net_fail(&self) {
        // With no peers at all, a "disconnected" receive is the permanent
        // steady state, not a failure; pace the caller's retry loop instead.
        if self.core.cfg.nprocs <= 1 {
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
            self.core.cfg.nprocs,
            self.coord,
            &self.recorder,
            &self.clock,
        )
    }

    fn note_activity(&mut self, act: Activity) {
        let now = self.clock.now();
        self.st
            .note_activity(self.core.cfg.record_timeline, now, act);
    }

    fn apply_stashed(&mut self) {
        let notifies = {
            let mut g = self.cell.0.lock().unwrap();
            std::mem::take(&mut g.notifies)
        };
        self.core.handle_notifies(self, notifies);
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
        self.mech(|mech, outbox| mech.on_timer(outbox));
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
                    self.core.handle_notifies(self, notifies);
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
                            self.core.on_state_msg(self, env.from, msg, true);
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

    fn dispatch_regular(&mut self, env: Envelope<TMsg>) {
        match env.msg {
            TMsg::App(msg) => self.core.handle_app(self, env.from, msg),
            TMsg::CbFree { node } => self.free_retained(node),
            TMsg::State(msg) => {
                // Only reachable in main-loop mode through recv_timeout's
                // state-first polling.
                debug_assert!(!self.comm_enabled, "state message on the worker");
                self.core.on_state_msg(self, env.from, msg, true);
            }
        }
    }

    fn free_retained(&mut self, node: u32) {
        if let Some(entries) = self.retained.remove(&node) {
            self.set_mem(-entries);
            self.local_change(Load::mem(-entries), ChangeOrigin::Local);
        }
    }

    /// Compute one chunk of ready task `idx`: a scaled sleep that pauses
    /// while a snapshot blocks the mechanism (comm-thread mode).
    fn run_task(&mut self, idx: usize) {
        let (task, dur) = self.core.start_task(self, idx);
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
        self.core.end_chunk(self, task);
    }

    // ----- the Algorithm 1 loop --------------------------------------------

    fn kick(&mut self) {
        let period = self.mech(|mech, _| mech.timer_period());
        if let (Some(period), false) = (period, self.comm_enabled) {
            let w = self.clock.to_wall(period);
            self.timer_wall = Some(w);
            self.next_timer = Some(Instant::now() + w);
        }
        self.core.seed(self);
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
        let core = self.core;
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
                        core.on_state_msg(self, env.from, msg, true);
                    }
                }
            }
            if self.blocked() {
                self.wait_unblocked();
                continue;
            }
            // (2) pending dynamic decisions.
            if core.try_start_decision(self) {
                continue;
            }
            // (3) other messages (line 4): local handoffs, then the wire.
            if let Some((from, msg)) = self.local_app.pop_front() {
                core.handle_app(self, from, msg);
                continue;
            }
            if let Some(env) = self.ep.try_recv_regular() {
                self.dispatch_regular(env);
                continue;
            }
            // (4) compute a ready task (line 7).
            if let Some(i) = core.pick_task(self) {
                self.run_task(i);
                continue;
            }
            self.idle_wait();
        }
    }

    fn finish(mut self) -> (ProcOutcome, Vec<(&'static str, f64)>) {
        let end = self.clock.now();
        let v = self.st.true_mem;
        self.st.mem_gauge.set(end, v);
        let stats = self.cell.0.lock().unwrap().mech.stats().clone();
        let blocked = self.clock.to_sim(self.blocked_wall);
        (self.st.outcome(&stats, blocked), self.samples)
    }
}

impl Host for Worker<'_> {
    fn rank(&self) -> usize {
        self.p
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn state(&mut self) -> &mut ProcState {
        &mut self.st
    }

    fn node(&mut self, node: u32) -> &mut NodeState {
        &mut self.nodes[node as usize]
    }

    /// Runs `f` and flushes under one hold of the cell lock, so the comm
    /// thread never sees half-staged output.
    fn mech<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
        let (r, ok) = {
            let mut g = self.cell.0.lock().unwrap();
            let MechCell { mech, outbox, .. } = &mut *g;
            let r = f(mech, outbox);
            (r, self.flush_locked(&mut g))
        };
        if !ok {
            self.net_fail();
        }
        r
    }

    fn flush(&mut self) {
        self.mech(|_, _| ());
    }

    fn set_mem(&mut self, delta: f64) {
        let now = self.clock.now();
        self.st.set_mem(now, self.p, delta, &self.recorder);
    }

    fn local_change(&mut self, delta: Load, origin: ChangeOrigin) {
        self.mech(|mech, outbox| mech.on_local_change(delta, origin, outbox));
        // Every true-state change funnels through here (each `set_mem` is
        // paired with a `local_change` carrying the same memory delta), so
        // this is the one place the probe's ground truth needs refreshing.
        self.true_work = (self.true_work + delta.work).max(0.0);
        if let Some(probe) = self.probe.as_ref() {
            let now = self.clock.now();
            probe
                .lock()
                .unwrap()
                .set_truth(now, self.p, self.true_work, self.st.true_mem);
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
        let to = ActorId(to as usize);
        let ok = self.ep.send(to, Channel::Regular, bytes, TMsg::App(msg));
        self.coord.net_regular_msgs.fetch_add(1, Ordering::Relaxed);
        self.coord
            .net_regular_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        if !ok {
            self.net_fail();
        }
    }

    fn retain_cb(&mut self, node: u32, entries: f64) {
        self.retained.insert(node, entries);
    }

    fn piece_ready(&mut self, node: u32, from: ActorId) {
        self.producers.entry(node).or_default().push(from);
    }

    /// Remote producers get an explicit `CbFree`.
    fn assemble(&mut self, children: &[u32]) {
        for &c in children {
            for q in self.producers.remove(&c).unwrap_or_default() {
                if q.index() == self.p {
                    self.free_retained(c);
                    continue;
                }
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

    /// Stored before any slave task is sent: the channel provides the
    /// happens-before edge to the slaves' decrements.
    fn set_parts(&mut self, node: u32, parts: u32) {
        self.coord.parts_left[node as usize].store(parts, Ordering::SeqCst);
    }

    fn part_done(&mut self, node: u32) {
        let left = self.coord.parts_left[node as usize].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(left > 0, "part underflow at node {node}");
        if left == 1 && self.coord.nodes_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.coord.done_at.lock().unwrap() = Some(Instant::now());
            self.coord.done.store(true, Ordering::SeqCst);
        }
    }

    fn probe_on(&self) -> bool {
        self.probe.is_some()
    }

    fn with_probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe)) {
        if let Some(probe) = self.probe.as_ref() {
            f(&mut probe.lock().unwrap());
        }
    }

    fn refresh_beliefs(&mut self, subjects: impl IntoIterator<Item = ActorId>) {
        let Some(probe) = self.probe.as_ref() else {
            return;
        };
        let subjects: Vec<ActorId> = subjects.into_iter().collect();
        let refreshed = belief_updates(&self.cell.0.lock().unwrap(), &subjects, self.p);
        let now = self.clock.now();
        let mut pr = probe.lock().unwrap();
        for (q, l) in refreshed {
            pr.set_belief(now, self.p, q, l.work, l.mem);
        }
    }

    fn with_snapshots(&mut self, f: impl FnOnce(&mut SnapUnion)) {
        f(&mut self.coord.snp.lock().unwrap());
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
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
    let core = ProcessCore::new(tree.clone(), plan, cfg);
    let clock = WallClock::starting_now(t.time_scale);
    let deadline = clock.epoch() + t.wall_timeout;
    let coord = Coord::new(&core);
    let mechs: Vec<AnyMechanism> = (0..nprocs).map(|p| core.mechanism(p)).collect();
    let probe: Option<SharedProbe> = core
        .cfg
        .accuracy
        .then(|| Arc::new(Mutex::new(core.seeded_probe(mechs.iter()))));
    let cells: Vec<SharedMech> = mechs
        .into_iter()
        .map(|mech| {
            let mut outbox = Outbox::new();
            outbox.set_observe(recorder.is_enabled());
            let cell = MechCell {
                mech,
                outbox,
                notifies: Vec::new(),
            };
            Arc::new((Mutex::new(cell), Condvar::new()))
        })
        .collect();
    let endpoints = ThreadNetwork::new::<TMsg>(nprocs);

    type Outcome = (ProcOutcome, Vec<(&'static str, f64)>);
    let mut outcomes: Vec<Option<Outcome>> = (0..nprocs).map(|_| None).collect();
    let mut worker_panic: Option<usize> = None;
    std::thread::scope(|s| {
        let coord = &coord;
        let core = &core;
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
                    core,
                    coord,
                    cell,
                    ep,
                    clock,
                    deadline,
                    wall_timeout: t.wall_timeout,
                    recorder: wrecorder,
                    comm_enabled,
                    st: ProcState::new(core.plan.masters_per_proc[p]),
                    nodes: (0..core.tree.len()).map(|i| core.initial_node(i)).collect(),
                    producers: HashMap::new(),
                    retained: HashMap::new(),
                    local_app: VecDeque::new(),
                    true_work: core.plan.init_work[p],
                    probe: wprobe,
                    blocked_wall: Duration::ZERO,
                    next_timer: None,
                    timer_wall: None,
                    samples: Vec::new(),
                };
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
    let factor_time = clock.to_sim_time(done_at.unwrap_or_else(Instant::now));
    let mut snapshots = *coord.snp.lock().unwrap();
    snapshots.close(factor_time);
    let mut registry = MetricsRegistry::new();
    let mut procs = Vec::with_capacity(nprocs);
    for (outcome, samples) in outcomes.into_iter().flatten() {
        for (name, v) in samples {
            registry.observe(name, v);
        }
        procs.push(outcome);
    }
    let mut counters = StatSet::new();
    for (name, v) in [
        ("net_state_msgs", &coord.net_state_msgs),
        ("net_regular_msgs", &coord.net_regular_msgs),
        ("net_state_bytes", &coord.net_state_bytes),
        ("net_regular_bytes", &coord.net_regular_bytes),
    ] {
        counters.add(name, v.load(Ordering::Relaxed));
    }
    Ok(RunReport::assemble(RunParts {
        backend: "threaded",
        factor_time,
        procs,
        counters,
        app_msgs: coord.app_msgs.load(Ordering::Relaxed),
        events_dropped: recorder.dropped(),
        metrics: registry.snapshot(),
        snapshot_union_time: snapshots.union,
        snapshot_max_concurrent: snapshots.max,
        // There is no stop-the-world ground truth on real threads; the
        // coherence Welfords stay empty (the sim backend covers them).
        view_err: [Welford::default(); 4],
        accuracy: probe.map(|probe| {
            let mut pr = probe.lock().unwrap().clone();
            pr.finish(factor_time);
            pr.report()
        }),
    }))
}
