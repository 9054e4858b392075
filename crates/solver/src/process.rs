//! Algorithm 1 of the paper, per process, written once for both execution
//! backends.
//!
//! Every process runs the loop: *receive state-information messages first,
//! then application messages, else compute a ready task; parallel tasks
//! trigger a slave selection (dynamic decision)*. The steps of that loop —
//! opening, selecting and committing a decision, treating an application
//! message, activating a node once its children delivered, starting and
//! finishing a task, retaining and announcing contribution blocks — live in
//! [`ProcessCore`]. The backends are drivers around it: [`crate::engine`]
//! dispatches discrete events, [`crate::threaded`] runs one OS thread per
//! process. Each implements [`Host`], the narrow set of things that really
//! differ between them (clock, mechanism access, memory and load accounting,
//! message transport, contribution-block frees, part counting, ground truth).
//!
//! **Ordering rule.** The core calls the host at the exact program points
//! where a side effect happens, and the host performs it right away. The
//! simulator's output depends on that order: the children's contribution
//! blocks are freed on their producers (in completion order) before the
//! assembling process allocates and announces its own load change, and the
//! ground-truth updates keep their floating-point order. Buffering effects
//! and replaying them after the core returns would reorder them.
//!
//! Application-level protocol (all on the regular channel):
//!
//! * `SlaveTask` — master → slave, a row block of a Type 2 front.
//! * `CbReady` — producer → owner of the parent: a contribution-block piece
//!   is ready. The piece itself stays on the producer's *stack* (multifrontal
//!   memory model) until the parent assembles; the bulk transfer cost is
//!   carried by the assembly-side payloads (`SlaveTask`, `RootPart`).
//! * `CbPlan` — Type 2 master → owner of the parent: how many pieces the
//!   child will deliver (needed to detect assembly completeness).
//! * `RootPart` — Type 3 master → everyone: a share of the 2D root.

use crate::config::SolverConfig;
use crate::mapping::{NodeType, TreePlan};
use crate::report::{Activity, ProcOutcome, ProcReport, Timeline};
use crate::sched;
use crate::work::{self, Task, TaskKind};
use loadex_core::{
    AnyMechanism, ChangeOrigin, Gate, Load, LoadTable, MechKind, MechStats, Mechanism, Notify,
    Outbox, StateMsg, Threshold,
};
use loadex_obs::{ProtocolEvent, Recorder, ViewAccuracyProbe};
use loadex_sim::{ActorId, SimDuration, SimTime, TimeWeightedGauge};
use loadex_sparse::AssemblyTree;
use std::collections::VecDeque;

/// Application (regular channel) messages.
#[derive(Clone, Debug)]
pub enum AppMsg {
    /// A row block of Type 2 front `node`.
    SlaveTask {
        /// The Type 2 node.
        node: u32,
        /// Rows assigned.
        rows: u32,
    },
    /// A contribution-block piece produced by `node` is ready on the
    /// sender's stack; sent to the owner of `node`'s parent.
    CbReady {
        /// Producing (child) node.
        node: u32,
    },
    /// How many `CbReady`s the Type 2 child `node` will deliver.
    CbPlan {
        /// The child node.
        node: u32,
        /// Expected piece count.
        pieces: u32,
    },
    /// A share of the Type 3 root `node`.
    RootPart {
        /// The root node.
        node: u32,
    },
}

/// Delivery and activation bookkeeping of one tree node. Delivery fields are
/// touched at the owner of the node's parent, activation fields at the
/// node's own owner.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeState {
    /// Pieces the parent owner expects from this node (None until known).
    pub(crate) plan_pieces: Option<u32>,
    /// Pieces received at the parent owner.
    pub(crate) pieces_recv: u32,
    /// Whether this node's delivery has been counted toward the parent.
    pub(crate) counted_done: bool,
    /// Children whose deliveries are complete (tracked at the owner).
    pub(crate) children_done: u32,
    pub(crate) activated: bool,
}

/// Union of the intervals during which at least one snapshot was in flight,
/// and the most snapshots in flight at once (§4.5).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SnapUnion {
    active: u32,
    from: Option<SimTime>,
    pub(crate) union: SimDuration,
    pub(crate) max: u32,
}

impl SnapUnion {
    pub(crate) fn begin(&mut self, now: SimTime) {
        if self.active == 0 {
            self.from = Some(now);
        }
        self.active += 1;
        self.max = self.max.max(self.active);
    }

    pub(crate) fn end(&mut self, now: SimTime) {
        self.active = self.active.saturating_sub(1);
        if self.active == 0 {
            self.close(now);
        }
    }

    /// Close an open interval at the end of the run.
    pub(crate) fn close(&mut self, now: SimTime) {
        if let Some(from) = self.from.take() {
            self.union += now.since(from);
        }
        self.active = 0;
    }
}

/// The per-process state of the Algorithm 1 loop, owned by the host.
pub(crate) struct ProcState {
    pub(crate) ready: VecDeque<Task>,
    pub(crate) pending_decisions: VecDeque<u32>,
    pub(crate) decision_inflight: Option<u32>,
    /// Candidates of the in-flight partial snapshot, if any.
    decision_candidates: Option<Vec<ActorId>>,
    pub(crate) true_mem: f64,
    pub(crate) mem_gauge: TimeWeightedGauge,
    busy: SimDuration,
    /// Message-treatment cost charged to the next compute chunk.
    overhead: SimDuration,
    pub(crate) masters_left: u32,
    pub(crate) timeline: Timeline,
    /// When this process's in-flight snapshot started waiting (drives the
    /// `snapshot_duration_ns` histogram).
    snp_opened_at: Option<SimTime>,
}

impl ProcState {
    pub(crate) fn new(masters_left: u32) -> Self {
        ProcState {
            ready: VecDeque::new(),
            pending_decisions: VecDeque::new(),
            decision_inflight: None,
            decision_candidates: None,
            true_mem: 0.0,
            mem_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            busy: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            masters_left,
            timeline: Vec::new(),
            snp_opened_at: None,
        }
    }

    /// Apply a memory delta of process `p` (the owner of this state).
    pub(crate) fn set_mem(&mut self, now: SimTime, p: usize, delta: f64, recorder: &Recorder) {
        self.true_mem = (self.true_mem + delta).max(0.0);
        self.mem_gauge.set(now, self.true_mem);
        recorder.emit_with(now, ActorId(p), || {
            if delta >= 0.0 {
                ProtocolEvent::MemAlloc { entries: delta }
            } else {
                ProtocolEvent::MemFree { entries: -delta }
            }
        });
    }

    pub(crate) fn note_activity(&mut self, record: bool, now: SimTime, act: Activity) {
        if !record {
            return;
        }
        let tl = &mut self.timeline;
        if tl.last().map(|&(_, a)| a) == Some(act) {
            return;
        }
        // Collapse same-instant transitions to the latest.
        if tl.last().map(|&(t, _)| t) == Some(now) {
            tl.pop();
            if tl.last().map(|&(_, a)| a) == Some(act) {
                return;
            }
        }
        tl.push((now, act));
    }

    /// This process's share of the run report.
    pub(crate) fn outcome(&self, stats: &MechStats, blocked: SimDuration) -> ProcOutcome {
        ProcOutcome {
            report: ProcReport {
                mem_peak_entries: self.mem_gauge.peak(),
                mem_final_entries: self.true_mem,
                state_msgs_sent: stats.msgs_sent,
                state_bytes_sent: stats.bytes_sent,
                decisions: stats.decisions,
                busy: self.busy,
                blocked,
            },
            stats: stats.clone(),
            timeline: self.timeline.clone(),
        }
    }
}

/// What a backend provides to the core for one process. Every method acts
/// immediately (see the ordering rule in the module docs).
pub(crate) trait Host {
    /// The process this host runs.
    fn rank(&self) -> usize;
    /// The current (simulated or scaled wall) time.
    fn now(&self) -> SimTime;
    fn recorder(&self) -> &Recorder;
    fn state(&mut self) -> &mut ProcState;
    /// Delivery/activation record of `node`.
    fn node(&mut self, node: u32) -> &mut NodeState;
    /// Run `f` on this process's mechanism and outbox. Staged output may go
    /// on the wire at once or at the next [`Host::flush`].
    fn mech<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R;
    /// Put the mechanism's staged messages and events on the wire.
    fn flush(&mut self);
    /// Change this process's active memory by `delta` entries.
    fn set_mem(&mut self, delta: f64);
    /// Report a load change to the mechanism and flush what it sends.
    fn local_change(&mut self, delta: Load, origin: ChangeOrigin);
    fn send_app(&mut self, to: u32, msg: AppMsg, bytes: u64);
    /// Keep a contribution-block piece of `node` on this process's stack
    /// until the parent assembles.
    fn retain_cb(&mut self, node: u32, entries: f64);
    /// `from` announced a piece of `node` (the producer of a later free).
    fn piece_ready(&mut self, _node: u32, _from: ActorId) {}
    /// Free every retained contribution-block piece of `children`, on
    /// whichever processes produced them, in production order.
    fn assemble(&mut self, children: &[u32]);
    /// `node` completes after `parts` task parts.
    fn set_parts(&mut self, node: u32, parts: u32);
    /// One task part of `node` finished (the last one of the last node ends
    /// the run).
    fn part_done(&mut self, node: u32);
    /// Ground truth: `flops` were committed to process `q`. The simulator
    /// counts work at decision time; a host that derives the truth from
    /// [`Host::local_change`] ignores this.
    fn commit_work(&mut self, _q: usize, _flops: f64) {}
    /// Whether the view-accuracy probe is on.
    fn probe_on(&self) -> bool;
    fn with_probe(&mut self, f: impl FnOnce(&mut ViewAccuracyProbe));
    /// Re-read this process's beliefs about `subjects` into the probe.
    fn refresh_beliefs(&mut self, subjects: impl IntoIterator<Item = ActorId>);
    /// Sample the master's view error at a decision (simulator only).
    fn sample_decision_view(&mut self) {}
    fn with_snapshots(&mut self, f: impl FnOnce(&mut SnapUnion));
    /// Add a sample to a run histogram.
    fn observe(&mut self, name: &'static str, value: f64);
    /// Align the process with the mechanism's blocked flag after a step
    /// that may have blocked or unblocked it.
    fn reconcile(&mut self) {}
}

/// The static inputs of a run and the Algorithm 1 steps over them.
pub(crate) struct ProcessCore {
    pub(crate) cfg: SolverConfig,
    pub(crate) tree: AssemblyTree,
    pub(crate) plan: TreePlan,
    threshold: Threshold,
    /// Fraction of real entries per stored entry.
    ef: f64,
}

impl ProcessCore {
    pub(crate) fn new(tree: AssemblyTree, plan: TreePlan, cfg: SolverConfig) -> Self {
        assert_eq!(plan.nprocs, cfg.nprocs);
        assert!(
            cfg.speed_factors.is_empty() || cfg.speed_factors.len() == cfg.nprocs,
            "speed_factors must be empty or have one entry per process"
        );
        assert!(
            cfg.speed_factors.iter().all(|&f| f > 0.0),
            "speed factors must be positive"
        );
        ProcessCore {
            threshold: cfg.threshold.unwrap_or_else(|| default_threshold(&tree)),
            ef: work::entry_factor(tree.sym),
            cfg,
            tree,
            plan,
        }
    }

    /// Process `p`'s freshly seeded mechanism.
    pub(crate) fn mechanism(&self, p: usize) -> AnyMechanism {
        work::build_mechanism(&self.cfg, &self.plan, self.threshold, p)
    }

    /// The accuracy probe seeded with the initial ground truth (the static
    /// subtree work, no memory yet) and each mechanism's starting view.
    pub(crate) fn seeded_probe<'a>(
        &self,
        mechs: impl Iterator<Item = &'a AnyMechanism>,
    ) -> ViewAccuracyProbe {
        let n = self.cfg.nprocs;
        let mut probe = ViewAccuracyProbe::new(n);
        for (q, &w) in self.plan.init_work.iter().enumerate() {
            probe.set_truth(SimTime::ZERO, q, w, 0.0);
        }
        for (p, mech) in mechs.enumerate() {
            for q in (0..n).filter(|&q| q != p) {
                let l = mech.view().get(ActorId(q));
                probe.set_belief(SimTime::ZERO, p, q, l.work, l.mem);
            }
        }
        probe
    }

    /// Initial delivery record of node `i`: Type 1 and subtree children
    /// always deliver one piece, a Type 3 root none; Type 2 plans are
    /// decided dynamically.
    pub(crate) fn initial_node(&self, i: usize) -> NodeState {
        let plan_pieces = match self.plan.ntype[i] {
            NodeType::SubtreeRoot | NodeType::Type1 => Some(1),
            NodeType::Type3 => Some(0),
            _ => None,
        };
        NodeState {
            plan_pieces,
            ..NodeState::default()
        }
    }

    /// Task parts node `i` completes after, where known statically.
    pub(crate) fn initial_parts(&self, i: usize) -> u32 {
        match self.plan.ntype[i] {
            NodeType::SubtreeRoot | NodeType::Type1 => 1,
            NodeType::Type3 => self.cfg.nprocs as u32,
            _ => 0,
        }
    }

    /// Nodes that must complete before the factorization is done.
    pub(crate) fn nodes_to_complete(&self) -> u64 {
        let upper = |t: &&NodeType| !matches!(t, NodeType::InSubtree);
        self.plan.ntype.iter().filter(upper).count() as u64
    }

    fn children(&self, v: u32) -> &[u32] {
        &self.tree.nodes[v as usize].children
    }

    fn nfront(&self, node: u32) -> f64 {
        self.tree.nodes[node as usize].nfront as f64
    }

    // ----- the loop's entry points ---------------------------------------

    /// Initial activation: enqueue the subtree tasks, activate the childless
    /// upper nodes, and announce `NoMoreMaster` if this process will never
    /// be a master (§2.3: "this information may be known statically").
    pub(crate) fn seed<H: Host>(&self, h: &mut H) {
        let p = h.rank();
        // Subtree tasks in ascending node order.
        for r in self.plan.subtrees_of(p as u32) {
            let flops = self.plan.subtree_task_flops[r as usize];
            h.state()
                .ready
                .push_back(Task::new(TaskKind::Subtree, r, flops));
        }
        for v in self.plan.upper_nodes() {
            if self.plan.owner[v as usize] as usize == p && self.children(v).is_empty() {
                self.try_activate(h, v);
            }
        }
        if self.cfg.no_more_master && h.state().masters_left == 0 {
            self.no_more_master(h);
        }
    }

    /// Treat one state message on the process's own loop (`charge`: its
    /// treatment delays the next compute chunk).
    pub(crate) fn on_state_msg<H: Host>(
        &self,
        h: &mut H,
        from: ActorId,
        msg: StateMsg,
        charge: bool,
    ) {
        // Which peers does this message carry load information about? Must
        // be computed before the mechanism consumes the message.
        let subjects = if h.probe_on() {
            msg.subjects(from, ActorId(h.rank()))
        } else {
            Vec::new()
        };
        let notifies = h.mech(|m, out| m.on_state_msg(from, msg, out));
        if charge {
            h.state().overhead += self.cfg.state_msg_cost;
        }
        h.refresh_beliefs(subjects);
        h.flush();
        self.handle_notifies(h, notifies);
    }

    pub(crate) fn handle_notifies<H: Host>(&self, h: &mut H, notifies: Vec<Notify>) {
        for n in notifies {
            // Blocked/Resumed are reconciled from `mech.blocked()`.
            if let Notify::DecisionReady = n {
                if let Some(node) = h.state().decision_inflight.take() {
                    self.do_selection(h, node);
                }
            }
        }
        h.reconcile();
    }

    /// Open the next pending dynamic decision, if no decision is in flight
    /// and the mechanism is not blocked. Returns whether one was opened.
    pub(crate) fn try_start_decision<H: Host>(&self, h: &mut H) -> bool {
        if h.state().decision_inflight.is_some() {
            return false;
        }
        let Some(&node) = h.state().pending_decisions.front() else {
            return false;
        };
        // The blocked check and the request share one mechanism access: a
        // comm thread that blocks the mechanism in between would turn the
        // request into a deferred one, and a deferred initiator can elect
        // itself leader before it has asked anyone, then delay the real
        // leader's answer forever.
        let opened = h.mech(|mech, out| {
            if mech.blocked() {
                return None;
            }
            let candidates = match mech {
                AnyMechanism::Snapshot(_) => sched::snapshot_candidates(&self.cfg, mech.view()),
                _ => None,
            };
            let gate = match (&candidates, mech) {
                (Some(c), AnyMechanism::Snapshot(m)) => m.request_decision_among(c, out),
                (_, mech) => mech.request_decision(out),
            };
            Some((candidates, gate))
        });
        let Some((candidates, gate)) = opened else {
            return false;
        };
        h.state().pending_decisions.pop_front();
        let now = h.now();
        h.recorder()
            .emit_with(now, ActorId(h.rank()), || ProtocolEvent::DecisionOpen {
                node: node as u64,
            });
        h.state().decision_candidates = candidates;
        h.flush();
        match gate {
            Gate::Ready => self.do_selection(h, node),
            Gate::Wait => {
                let st = h.state();
                st.decision_inflight = Some(node);
                st.snp_opened_at = Some(now);
                h.with_snapshots(|u| u.begin(now));
                h.reconcile();
            }
        }
        true
    }

    fn do_selection<H: Host>(&self, h: &mut H, node: u32) {
        let p = h.rank();
        let now = h.now();
        // Instrumentation: how wrong is the master's view at the instant it
        // schedules? This is the error the paper's mechanisms exist to bound.
        h.sample_decision_view();
        let m = self.nfront(node);
        let ncb = self.tree.nodes[node as usize].ncb();
        let ef = self.ef;
        let mem_per_row = m * ef;
        let work_per_row = work::slave_flops_per_row(&self.tree, node);
        let allowed = h.state().decision_candidates.take();
        let shares = h.mech(|mech, _| {
            sched::select_slaves_among(
                &self.cfg,
                mech.view(),
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            )
        });
        // Decision regret: replay the same selection against the ground
        // truth (before this decision commits) and record whether staleness
        // changed the outcome.
        h.with_probe(|probe| {
            let mut truth = LoadTable::new(ActorId(p), self.cfg.nprocs);
            for (q, &(w, mem)) in probe.truth_vector().iter().enumerate() {
                truth.set(ActorId(q), Load::new(w, mem));
            }
            let r = sched::selection_regret(
                &self.cfg,
                &truth,
                &shares,
                ncb,
                mem_per_row,
                work_per_row,
                allowed.as_deref(),
            );
            probe.record_decision(r.mismatch, r.gap);
        });
        let assignments: Vec<(ActorId, Load)> = shares
            .iter()
            .map(|s| {
                let rows = s.rows as f64;
                (s.slave, Load::new(work_per_row * rows, mem_per_row * rows))
            })
            .collect();
        for s in &shares {
            h.commit_work(s.slave.index(), work_per_row * s.rows as f64);
        }
        let notifies = h.mech(|mech, out| mech.complete_decision(&assignments, out));
        // The master just applied its own assignments to its view: its
        // beliefs about the selected slaves are refreshed.
        h.refresh_beliefs(shares.iter().map(|s| s.slave));
        h.recorder()
            .emit_with(now, ActorId(p), || ProtocolEvent::DecisionComplete {
                node: node as u64,
                slaves: shares.len() as u32,
            });
        h.flush();
        if matches!(self.cfg.mechanism, MechKind::Snapshot) {
            h.with_snapshots(|u| u.end(now));
        }
        if let Some(t0) = h.state().snp_opened_at.take() {
            if h.recorder().is_enabled() {
                h.observe("snapshot_duration_ns", now.since(t0).as_nanos() as f64);
            }
        }

        let has_parent = self.tree.nodes[node as usize].parent.is_some();
        // Assembly: the children's stacked CB pieces are consumed now.
        h.assemble(self.children(node));
        if shares.is_empty() {
            // Degenerate: the master factors the whole front itself.
            let alloc = self.tree.front_entries(node as usize);
            h.set_parts(node, 1);
            h.set_mem(alloc);
            let flops = self.tree.flops(node as usize);
            h.commit_work(p, flops);
            h.local_change(Load::new(flops, alloc), ChangeOrigin::Local);
            if has_parent {
                self.announce_plan(h, node, 1);
            }
            h.state()
                .ready
                .push_back(Task::new(TaskKind::Type2Whole, node, flops));
        } else {
            // Master side: allocate the pivot block. The part count is set
            // before any slave task is sent.
            let pm = self.tree.nodes[node as usize].npiv as f64 * m * ef;
            h.set_parts(node, shares.len() as u32 + 1);
            h.set_mem(pm);
            let mflops = work::master_flops(&self.tree, node);
            h.commit_work(p, mflops);
            h.local_change(Load::new(mflops, pm), ChangeOrigin::Local);
            if has_parent {
                self.announce_plan(h, node, shares.len() as u32);
            }
            for s in &shares {
                let bytes = (s.rows as f64 * m * ef * 8.0) as u64;
                let msg = AppMsg::SlaveTask { node, rows: s.rows };
                h.send_app(s.slave.index() as u32, msg, bytes);
            }
            h.state()
                .ready
                .push_back(Task::new(TaskKind::Type2Master, node, mflops));
        }
        // NoMoreMaster once the last statically known decision is done.
        let st = h.state();
        st.masters_left = st.masters_left.saturating_sub(1);
        if st.masters_left == 0 && self.cfg.no_more_master {
            self.no_more_master(h);
        }
        self.handle_notifies(h, notifies);
    }

    fn no_more_master<H: Host>(&self, h: &mut H) {
        h.mech(|m, out| m.no_more_master(out));
        h.flush();
    }

    fn announce_plan<H: Host>(&self, h: &mut H, node: u32, pieces: u32) {
        let parent = self.tree.nodes[node as usize]
            .parent
            .expect("caller checked");
        let owner = self.plan.owner[parent as usize];
        h.send_app(owner, AppMsg::CbPlan { node, pieces }, 24);
    }

    // ----- application messages ------------------------------------------

    pub(crate) fn handle_app<H: Host>(&self, h: &mut H, from: ActorId, msg: AppMsg) {
        h.state().overhead += self.cfg.app_msg_cost;
        match msg {
            AppMsg::SlaveTask { node, rows } => {
                let alloc = rows as f64 * self.nfront(node) * self.ef;
                let flops = work::slave_flops_per_row(&self.tree, node) * rows as f64;
                h.set_mem(alloc);
                h.local_change(Load::new(flops, alloc), ChangeOrigin::SlaveTask);
                h.state()
                    .ready
                    .push_back(Task::new(TaskKind::Type2Slave { rows }, node, flops));
            }
            AppMsg::CbReady { node } => {
                h.piece_ready(node, from);
                h.node(node).pieces_recv += 1;
                self.check_child_delivery(h, node);
            }
            AppMsg::CbPlan { node, pieces } => {
                h.node(node).plan_pieces = Some(pieces);
                self.check_child_delivery(h, node);
            }
            AppMsg::RootPart { node } => self.take_root_share(h, node),
        }
    }

    /// Allocate and enqueue this process's 1/P share of the Type 3 root.
    fn take_root_share<H: Host>(&self, h: &mut H, node: u32) {
        let nprocs = self.cfg.nprocs as f64;
        let share_mem = self.tree.front_entries(node as usize) / nprocs;
        let share_flops = self.tree.flops(node as usize) / nprocs;
        h.set_mem(share_mem);
        h.commit_work(h.rank(), share_flops);
        h.local_change(Load::new(share_flops, share_mem), ChangeOrigin::Local);
        h.state()
            .ready
            .push_back(Task::new(TaskKind::RootPart, node, share_flops));
    }

    /// At the owner of `child`'s parent: did `child` finish delivering?
    fn check_child_delivery<H: Host>(&self, h: &mut H, child: u32) {
        let st = h.node(child);
        let Some(plan) = st.plan_pieces else { return };
        if st.counted_done || st.pieces_recv < plan {
            return;
        }
        st.counted_done = true;
        let parent = self.tree.nodes[child as usize]
            .parent
            .expect("delivery to a root");
        h.node(parent).children_done += 1;
        self.try_activate(h, parent);
    }

    /// Activate upper node `v` at its owner once all children delivered.
    fn try_activate<H: Host>(&self, h: &mut H, v: u32) {
        let p = h.rank();
        debug_assert_eq!(self.plan.owner[v as usize] as usize, p);
        let nchildren = self.children(v).len() as u32;
        let st = h.node(v);
        if st.activated || st.children_done < nchildren {
            return;
        }
        st.activated = true;
        match self.plan.ntype[v as usize] {
            NodeType::Type1 => {
                let flops = self.tree.flops(v as usize);
                // Workload is charged at activation (§4.2.2); memory at task
                // start (assembly).
                h.commit_work(p, flops);
                h.local_change(Load::work(flops), ChangeOrigin::Local);
                h.state()
                    .ready
                    .push_back(Task::new(TaskKind::Type1, v, flops));
            }
            NodeType::Type2 => h.state().pending_decisions.push_back(v),
            NodeType::Type3 => {
                h.assemble(self.children(v));
                let share_mem = self.tree.front_entries(v as usize) / self.cfg.nprocs as f64;
                let share_bytes = (share_mem * 8.0) as u64;
                for q in (0..self.cfg.nprocs).filter(|&q| q != p) {
                    h.send_app(q as u32, AppMsg::RootPart { node: v }, share_bytes);
                }
                self.take_root_share(h, v);
            }
            t => unreachable!("activation of {t:?}"),
        }
    }

    // ----- tasks ----------------------------------------------------------

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

    /// Memory-aware choice of the next ready task (§4.2.1).
    pub(crate) fn pick_task<H: Host>(&self, h: &mut H) -> Option<usize> {
        let st = h.state();
        if st.ready.is_empty() {
            return None;
        }
        let ready: Vec<sched::ReadyTask> = st
            .ready
            .iter()
            .map(|t| sched::ReadyTask {
                alloc: self.task_alloc_estimate(t),
            })
            .collect();
        h.mech(|m, _| sched::pick_task(&self.cfg, m.view(), &ready))
    }

    /// Start ready task `idx`: allocate on first entry, then charge one
    /// compute chunk. Returns the task and the chunk's duration; the host
    /// runs the chunk and then calls [`ProcessCore::end_chunk`].
    pub(crate) fn start_task<H: Host>(&self, h: &mut H, idx: usize) -> (Task, SimDuration) {
        let mut task = h.state().ready.remove(idx).expect("task index");
        if !task.started {
            task.started = true;
            let alloc = match task.kind {
                TaskKind::Subtree => Some(self.plan.subtree_task_peak[task.node as usize]),
                TaskKind::Type1 => {
                    h.assemble(self.children(task.node));
                    Some(self.tree.front_entries(task.node as usize))
                }
                _ => None,
            };
            if let Some(alloc) = alloc {
                h.set_mem(alloc);
                h.local_change(Load::mem(alloc), ChangeOrigin::Local);
            }
        }
        // Compute one chunk; the remainder re-queues at the boundary.
        let seg = task.remaining.min(work::chunk_flops(&self.cfg));
        let (p, now) = (h.rank(), h.now());
        let st = h.state();
        let dur = SimDuration::from_secs_f64(seg / work::speed_of(&self.cfg, p)) + st.overhead;
        st.overhead = SimDuration::ZERO;
        st.busy += dur;
        st.note_activity(self.cfg.record_timeline, now, Activity::Busy);
        h.recorder()
            .emit_with(now, ActorId(p), || ProtocolEvent::TaskStart {
                node: task.node as u64,
                kind: task.kind.name(),
            });
        (task, dur)
    }

    /// The chunk started by [`ProcessCore::start_task`] finished: its work
    /// leaves the load ("when a significant amount of work has just been
    /// processed", §2.1), and the task re-queues at the front or completes.
    pub(crate) fn end_chunk<H: Host>(&self, h: &mut H, mut task: Task) {
        let (p, now) = (h.rank(), h.now());
        h.state()
            .note_activity(self.cfg.record_timeline, now, Activity::Idle);
        h.recorder()
            .emit_with(now, ActorId(p), || ProtocolEvent::TaskEnd {
                node: task.node as u64,
            });
        let seg = task.remaining.min(work::chunk_flops(&self.cfg));
        task.remaining -= seg;
        h.commit_work(p, -seg);
        h.local_change(Load::work(-seg), task.kind.origin());
        if task.remaining > 0.0 {
            h.state().ready.push_front(task);
        } else {
            self.complete_task(h, task);
        }
    }

    fn complete_task<H: Host>(&self, h: &mut H, task: Task) {
        let node = task.node;
        let i = node as usize;
        let ef = self.ef;
        // (memory the task held, CB piece it leaves on the stack)
        let (held, piece) = match task.kind {
            TaskKind::Subtree => (self.plan.subtree_task_peak[i], self.tree.cb_entries(i)),
            TaskKind::Type1 | TaskKind::Type2Whole => {
                (self.tree.front_entries(i), self.tree.cb_entries(i))
            }
            TaskKind::Type2Slave { rows } => (
                rows as f64 * self.nfront(node) * ef,
                rows as f64 * self.tree.nodes[i].ncb() as f64 * ef,
            ),
            TaskKind::Type2Master => {
                let pm = self.tree.nodes[i].npiv as f64 * self.nfront(node) * ef;
                (pm, 0.0)
            }
            TaskKind::RootPart => (self.tree.front_entries(i) / self.cfg.nprocs as f64, 0.0),
        };
        let origin = task.kind.origin();
        if matches!(task.kind, TaskKind::Type2Master | TaskKind::RootPart) {
            h.set_mem(-held);
            h.local_change(Load::mem(-held), origin);
        } else {
            // The front collapses to its CB, retained on the local stack
            // until the parent assembles.
            let cb = self.retained_cb(h, node, piece);
            h.set_mem(cb - held);
            h.local_change(Load::mem(cb - held), origin);
            self.notify_cb_ready(h, node);
        }
        h.part_done(node);
    }

    /// Record a CB piece on this process's stack (returns the retained entry
    /// count, zero for roots whose CB nobody consumes).
    fn retained_cb<H: Host>(&self, h: &mut H, node: u32, entries: f64) -> f64 {
        if self.tree.nodes[node as usize].parent.is_none() || entries <= 0.0 {
            return 0.0;
        }
        h.retain_cb(node, entries);
        entries
    }

    /// Tell the parent's owner a piece is ready (small control message).
    fn notify_cb_ready<H: Host>(&self, h: &mut H, node: u32) {
        let Some(parent) = self.tree.nodes[node as usize].parent else {
            return; // a root: nothing to contribute
        };
        let owner = self.plan.owner[parent as usize];
        h.send_app(owner, AppMsg::CbReady { node }, 24);
    }
}

/// Threshold defaulting: §2.3 recommends "a threshold of the same order as
/// the granularity of the tasks appearing in the slave selections". We use
/// 2% of the mean Type-2-scale front cost.
pub(crate) fn default_threshold(tree: &AssemblyTree) -> Threshold {
    let n = tree.len().max(1) as f64;
    let mean_flops = tree.total_flops() / n;
    let mean_front = (0..tree.len()).map(|i| tree.front_entries(i)).sum::<f64>() / n;
    Threshold::new((mean_flops * 0.5).max(1.0), (mean_front * 0.5).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{self, MappingParams};
    use loadex_sparse::models::by_name;

    /// A host whose communication thread takes the mechanism lock right
    /// after every access of the process's own loop, treating the one state
    /// message it holds. Everything the decision-opening path does not touch
    /// is out of reach.
    struct RacingHost {
        st: ProcState,
        mech: AnyMechanism,
        outbox: Outbox,
        recorder: Recorder,
        snapshots: SnapUnion,
        incoming: Option<(ActorId, StateMsg)>,
    }

    impl Host for RacingHost {
        fn rank(&self) -> usize {
            1
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn recorder(&self) -> &Recorder {
            &self.recorder
        }
        fn state(&mut self) -> &mut ProcState {
            &mut self.st
        }
        fn node(&mut self, _: u32) -> &mut NodeState {
            unreachable!()
        }
        fn mech<R>(&mut self, f: impl FnOnce(&mut AnyMechanism, &mut Outbox) -> R) -> R {
            let r = f(&mut self.mech, &mut self.outbox);
            if let Some((from, msg)) = self.incoming.take() {
                self.mech.on_state_msg(from, msg, &mut self.outbox);
            }
            r
        }
        fn flush(&mut self) {
            self.outbox.drain().for_each(drop);
        }
        fn set_mem(&mut self, _: f64) {
            unreachable!()
        }
        fn local_change(&mut self, _: Load, _: ChangeOrigin) {
            unreachable!()
        }
        fn send_app(&mut self, _: u32, _: AppMsg, _: u64) {
            unreachable!()
        }
        fn retain_cb(&mut self, _: u32, _: f64) {
            unreachable!()
        }
        fn assemble(&mut self, _: &[u32]) {
            unreachable!()
        }
        fn set_parts(&mut self, _: u32, _: u32) {
            unreachable!()
        }
        fn part_done(&mut self, _: u32) {
            unreachable!()
        }
        fn probe_on(&self) -> bool {
            false
        }
        fn with_probe(&mut self, _: impl FnOnce(&mut ViewAccuracyProbe)) {}
        fn refresh_beliefs(&mut self, _: impl IntoIterator<Item = ActorId>) {}
        fn with_snapshots(&mut self, f: impl FnOnce(&mut SnapUnion)) {
            f(&mut self.snapshots);
        }
        fn observe(&mut self, _: &'static str, _: f64) {}
    }

    #[test]
    fn a_decision_opens_in_one_mechanism_access() {
        // P1 opens a decision while P2's start_snp is being treated
        // concurrently. Had the blocked check and the request been two
        // accesses, the rival's snapshot would block the mechanism in
        // between and P1's request would be deferred, never broadcast.
        let tree = by_name("TWOTONE").unwrap().build_tree();
        let cfg = SolverConfig::new(4).with_mechanism(MechKind::Snapshot);
        let params = MappingParams {
            alpha: cfg.mapping_alpha,
            type2_min_front: cfg.type2_min_front,
            kmin_rows: cfg.kmin_rows,
            type3_min_front: cfg.type3_min_front,
            speed_factors: Vec::new(),
        };
        let plan = mapping::plan(&tree, 4, params);
        let core = ProcessCore::new(tree, plan, cfg);
        let mut st = ProcState::new(1);
        st.pending_decisions.push_back(7);
        let rival = StateMsg::StartSnp {
            req: 1,
            partial: false,
        };
        let mut h = RacingHost {
            st,
            mech: core.mechanism(1),
            outbox: Outbox::new(),
            recorder: Recorder::disabled(),
            snapshots: SnapUnion::default(),
            incoming: Some((ActorId(2), rival)),
        };
        assert!(core.try_start_decision(&mut h));
        assert_eq!(h.st.decision_inflight, Some(7));
        let AnyMechanism::Snapshot(m) = &h.mech else {
            unreachable!()
        };
        assert_eq!(m.my_request(), 1, "the request went out before the rival's");
        assert_eq!(m.missing_answers(), 3);
        assert_eq!(h.snapshots.max, 1);
    }

    #[test]
    fn default_threshold_positive() {
        let tree = by_name("GUPTA3").unwrap().build_tree();
        let thr = default_threshold(&tree);
        assert!(thr.work > 0.0 && thr.mem > 0.0);
    }

    #[test]
    fn snapshot_union_accounting() {
        let mut u = SnapUnion::default();
        u.begin(SimTime(1_000));
        u.begin(SimTime(2_000));
        assert_eq!(u.max, 2);
        u.end(SimTime(3_000));
        assert_eq!(u.union, SimDuration::ZERO, "union closes at zero active");
        u.end(SimTime(5_000));
        assert_eq!(u.union, SimDuration::from_nanos(4_000));
        // A second disjoint interval accumulates.
        u.begin(SimTime(10_000));
        u.end(SimTime(11_000));
        assert_eq!(u.union, SimDuration::from_nanos(5_000));
        // An unmatched end (a decision that never waited) is ignored, and
        // close() settles an interval still open at the end of the run.
        u.end(SimTime(12_000));
        u.begin(SimTime(20_000));
        u.close(SimTime(26_000));
        assert_eq!(u.union, SimDuration::from_nanos(11_000));
        assert_eq!(u.max, 2);
    }

    #[test]
    fn note_activity_deduplicates() {
        let mut st = ProcState::new(0);
        st.note_activity(true, SimTime(1), Activity::Busy);
        st.note_activity(true, SimTime(2), Activity::Busy);
        st.note_activity(true, SimTime(2), Activity::Idle);
        st.note_activity(true, SimTime(2), Activity::Blocked);
        st.note_activity(false, SimTime(3), Activity::Idle);
        assert_eq!(
            st.timeline,
            vec![
                (SimTime(1), Activity::Busy),
                (SimTime(2), Activity::Blocked)
            ],
            "same-instant transitions collapse, repeats dedup, off records nothing"
        );
    }
}
