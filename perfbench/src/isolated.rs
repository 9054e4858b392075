//! Isolated drives of the mechanism layer (`loadex-core`) and the network
//! model (`loadex-net`) at a workload's process count.
//!
//! Each drive builds the layer's public objects the way the engine does and
//! times a batch of calls, so one `Instant` pair covers many operations.
//! Messages are built before the clock starts; consuming (dropping) them is
//! part of the timed call, as it is in the engine. The inputs are synthetic
//! but fixed, so the numbers compare two versions of the layer, not two
//! inputs; `README.md` lists them.

use crate::alloc;
use crate::spans::SpanLog;
use crate::traced::KIND_NAMES;
use loadex_core::{
    AnyMechanism, ChangeOrigin, Gate, GossipMechanism, IncrementMechanism, Load, MechKind,
    Mechanism, Notify, Outbox, SnapshotMechanism, StateMsg, Threshold,
};
use loadex_net::{Channel, SimNetwork};
use loadex_sim::{ActorId, SimTime};
use loadex_solver::{SolverConfig, TreePlan};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Slaves per synthetic decision (`MasterToAll` / `MasterToSlave` fan-out).
const SLAVES: usize = 8;

/// A batch of operations: call count, time and allocations.
#[derive(Clone, Copy, Default)]
pub struct Batch {
    pub ops: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Batch {
    pub fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }

    fn add(&mut self, other: Batch) {
        self.ops += other.ops;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

/// Time `f`, which performs `ops` operations.
fn timed(
    spans: &mut SpanLog,
    layer: &'static str,
    name: &'static str,
    ops: u64,
    f: impl FnOnce(),
) -> Batch {
    let a0 = alloc::count();
    let t0 = Instant::now();
    f();
    let dt = t0.elapsed();
    let allocs = alloc::count() - a0;
    spans.record(None, layer, name, t0, dt);
    Batch {
        ops,
        ns: dt.as_nanos() as u64,
        allocs,
    }
}

/// The mechanism the engine gives process `p` (a copy of the solver's
/// crate-private `build_mechanism`, for the mechanisms the workloads run).
pub fn build_mechanism(
    kind: MechKind,
    cfg: &SolverConfig,
    plan: &TreePlan,
    threshold: Threshold,
    p: usize,
) -> AnyMechanism {
    let n = cfg.nprocs;
    let me = ActorId(p);
    let own = Load::work(plan.init_work[p]);
    let peers = (0..n)
        .filter(|&q| q != p)
        .map(|q| (ActorId(q), Load::work(plan.init_work[q])));
    match kind {
        MechKind::Increments => {
            let mut m = IncrementMechanism::new(me, n, threshold);
            m.initialize(own);
            peers.for_each(|(q, l)| m.initialize_peer(q, l));
            AnyMechanism::Increments(m)
        }
        MechKind::Snapshot => {
            let mut m = SnapshotMechanism::with_policy(me, n, cfg.leader_policy);
            m.initialize(own);
            peers.for_each(|(q, l)| m.initialize_peer(q, l));
            AnyMechanism::Snapshot(m)
        }
        MechKind::Gossip => {
            let mut m = GossipMechanism::new(me, n, cfg.gossip_interval, cfg.gossip_fanout);
            m.initialize(own);
            peers.for_each(|(q, l)| m.initialize_peer(q, l));
            AnyMechanism::Gossip(m)
        }
        other => unreachable!("no workload runs the {other} mechanism"),
    }
}

/// Per-layer numbers of the mechanism layer.
pub struct CoreNumbers {
    /// `on_state_msg` per message kind, each on the mechanism that handles it.
    pub on_state_msg: [Batch; KIND_NAMES.len()],
    /// The workload mechanism's kinds, summed.
    pub on_state_msg_own: Batch,
    pub on_local_change: Batch,
    pub request_decision: Batch,
    pub on_timer: Batch,
    /// One complete full-snapshot round across all P snapshot mechanisms.
    pub snapshot_round: Batch,
}

/// Deliver a pre-built message list to process 0 from rotating senders.
fn deliver_all(m: &mut AnyMechanism, msgs: Vec<StateMsg>, out: &mut Outbox) {
    let n = m.nprocs();
    debug_assert_eq!(m.rank(), ActorId(0));
    for (i, msg) in msgs.into_iter().enumerate() {
        black_box(m.on_state_msg(ActorId(1 + i % (n - 1)), msg, out));
        out.drain().for_each(drop);
    }
}

/// The messages each mechanism kind handles, for the per-kind drives.
fn kinds_of(kind: MechKind) -> &'static [&'static str] {
    match kind {
        MechKind::Increments => &["update_delta", "master_to_all", "no_more_master"],
        MechKind::Snapshot => &["start_snp", "snp", "end_snp", "master_to_slave"],
        MechKind::Gossip => &["gossip"],
        other => unreachable!("no workload runs the {other} mechanism"),
    }
}

fn kind_slot(name: &str) -> usize {
    KIND_NAMES
        .iter()
        .position(|k| *k == name)
        .expect("known message kind")
}

/// Drive every layer-`core` entry point at `cfg.nprocs` processes.
/// `mech` is the workload's mechanism; every message kind of the three
/// mechanisms the workloads use is driven regardless, each on its own
/// mechanism.
pub fn drive_core(
    mech: MechKind,
    cfg: &SolverConfig,
    plan: &TreePlan,
    threshold: Threshold,
    spans: &mut SpanLog,
) -> CoreNumbers {
    let n = cfg.nprocs;
    let mut out = Outbox::new();
    let mut on_state_msg = [Batch::default(); KIND_NAMES.len()];

    // Increments: absolute deltas, reservations of SLAVES slaves, and the
    // §2.3 opt-out, each from rotating senders to process 0.
    let count = 200_000u64;
    let mut inc = build_mechanism(MechKind::Increments, cfg, plan, threshold, 0);
    let deltas: Vec<StateMsg> = (0..count)
        .map(|i| StateMsg::UpdateDelta {
            delta: Load::work(if i % 2 == 0 { 1.0 } else { -1.0 }),
        })
        .collect();
    on_state_msg[kind_slot("update_delta")] = timed(
        spans,
        "loadex-core",
        "on_state_msg.update_delta",
        count,
        || deliver_all(&mut inc, deltas, &mut out),
    );
    let reservations: Vec<StateMsg> = (0..count / 4)
        .map(|i| StateMsg::MasterToAll {
            assignments: (0..SLAVES)
                .map(|k| (ActorId((i as usize + k) % n), Load::work(1.0)))
                .collect(),
        })
        .collect();
    on_state_msg[kind_slot("master_to_all")] = timed(
        spans,
        "loadex-core",
        "on_state_msg.master_to_all",
        count / 4,
        || deliver_all(&mut inc, reservations, &mut out),
    );
    let opt_outs = vec![StateMsg::NoMoreMaster; count as usize];
    on_state_msg[kind_slot("no_more_master")] = timed(
        spans,
        "loadex-core",
        "on_state_msg.no_more_master",
        count,
        || deliver_all(&mut inc, opt_outs, &mut out),
    );

    // Gossip: digests of all P entries from 16 rotating senders whose own
    // version moves before every push. Each digest is built just before
    // its delivery, so it is in cache as in the engine, and each delivery
    // is timed on its own.
    let mut recv = build_mechanism(MechKind::Gossip, cfg, plan, threshold, 0);
    let senders = 16.min(n - 1);
    let mut gossipers: Vec<GossipMechanism> = (1..=senders)
        .map(|p| GossipMechanism::new(ActorId(p), n, cfg.gossip_interval, cfg.gossip_fanout))
        .collect();
    let digests = (1_000_000 / n).max(64);
    let mut gossip = Batch::default();
    for i in 0..digests {
        let s = i % senders;
        gossipers[s].on_local_change(Load::work(1.0), ChangeOrigin::Local, &mut out);
        let msg = StateMsg::Gossip {
            entries: gossipers[s].digest(),
        };
        gossip.add(timed(
            spans,
            "loadex-core",
            "on_state_msg.gossip",
            1,
            || {
                black_box(recv.on_state_msg(ActorId(s + 1), msg, &mut out));
            },
        ));
    }
    on_state_msg[kind_slot("gossip")] = gossip;

    // Snapshot: complete rounds across all P mechanisms.
    let rounds = (100_000 / n).max(8);
    let snap = snapshot_rounds(cfg, plan, threshold, rounds, spans);
    for (name, b) in &snap.per_kind {
        on_state_msg[kind_slot(name)] = *b;
    }

    // The workload mechanism's own entry points.
    let mut own = Batch::default();
    for name in kinds_of(mech) {
        own.add(on_state_msg[kind_slot(name)]);
    }
    let calls = (2_000_000 / n as u64).max(1_000);
    let mut m = build_mechanism(mech, cfg, plan, threshold, 0);
    // Steps of 0.3 thresholds, eight up then eight down: about one call in
    // four crosses the threshold.
    let step = Load::new(threshold.work * 0.3, threshold.mem * 0.3);
    let on_local_change = timed(spans, "loadex-core", "on_local_change", calls, || {
        for i in 0..calls {
            let delta = if (i / 8) % 2 == 0 { step } else { -step };
            m.on_local_change(delta, ChangeOrigin::Local, &mut out);
            out.drain().for_each(drop);
        }
    });
    let request_decision = if mech == MechKind::Snapshot {
        snap.request_decision
    } else {
        timed(spans, "loadex-core", "request_decision", calls, || {
            for _ in 0..calls {
                black_box(m.request_decision(&mut out));
                out.drain().for_each(drop);
            }
        })
    };
    let on_timer = timed(spans, "loadex-core", "on_timer", calls, || {
        for _ in 0..calls {
            m.on_timer(&mut out);
            out.drain().for_each(drop);
        }
    });
    CoreNumbers {
        on_state_msg,
        on_state_msg_own: own,
        on_local_change,
        request_decision,
        on_timer,
        snapshot_round: snap.round,
    }
}

struct SnapshotNumbers {
    per_kind: Vec<(&'static str, Batch)>,
    request_decision: Batch,
    round: Batch,
}

/// `rounds` sequential full snapshots, initiators rotating over the ranks:
/// `request_decision` broadcasts `start_snp`, every other process answers
/// `snp`, the initiator completes a decision over `SLAVES` slaves
/// (`master_to_slave` each) and broadcasts `end_snp`. Each phase is timed
/// as one batch.
fn snapshot_rounds(
    cfg: &SolverConfig,
    plan: &TreePlan,
    threshold: Threshold,
    rounds: usize,
    spans: &mut SpanLog,
) -> SnapshotNumbers {
    let n = cfg.nprocs;
    let mut mechs: Vec<AnyMechanism> = (0..n)
        .map(|p| build_mechanism(MechKind::Snapshot, cfg, plan, threshold, p))
        .collect();
    let mut out = Outbox::new();
    let mut start = Batch::default();
    let mut answer = Batch::default();
    let mut end = Batch::default();
    let mut share = Batch::default();
    let mut request = Batch::default();
    let mut round = Batch::default();
    let mut staged: Vec<(ActorId, StateMsg)> = Vec::with_capacity(n);
    for r in 0..rounds {
        let init = r % n;
        let me = ActorId(init);
        let a0 = alloc::count();
        let t0 = Instant::now();
        let mut gate = Gate::Ready;
        let b = timed(spans, "loadex-core", "request_decision", 1, || {
            gate = mechs[init].request_decision(&mut out);
        });
        request.add(b);
        assert_eq!(gate, Gate::Wait, "an idle system starts a snapshot");
        let start_msg = out.drain().next().expect("start_snp staged").msg;
        let b = timed(
            spans,
            "loadex-core",
            "on_state_msg.start_snp",
            n as u64 - 1,
            || {
                for (q, mech) in mechs.iter_mut().enumerate() {
                    if q != init {
                        black_box(mech.on_state_msg(me, start_msg.clone(), &mut out));
                        staged.extend(out.drain().map(|o| (ActorId(q), o.msg)));
                    }
                }
            },
        );
        start.add(b);
        let mut ready = false;
        let initiator = &mut mechs[init];
        let b = timed(
            spans,
            "loadex-core",
            "on_state_msg.snp",
            n as u64 - 1,
            || {
                for (from, msg) in staged.drain(..) {
                    ready |= initiator
                        .on_state_msg(from, msg, &mut out)
                        .contains(&Notify::DecisionReady);
                }
            },
        );
        answer.add(b);
        assert!(ready, "every answer arrived");
        let slaves: Vec<(ActorId, Load)> = (1..=SLAVES.min(n - 1))
            .map(|k| (ActorId((init + k) % n), Load::work(1.0)))
            .collect();
        initiator.complete_decision(&slaves, &mut out);
        let mut shares = Vec::new();
        let mut end_msg = None;
        for o in out.drain() {
            match o.msg {
                StateMsg::EndSnp => end_msg = Some(o.msg),
                msg => shares.push((o.dest, msg)),
            }
        }
        let end_msg = end_msg.expect("end_snp staged");
        let b = timed(
            spans,
            "loadex-core",
            "on_state_msg.master_to_slave",
            shares.len() as u64,
            || {
                for (dest, msg) in shares {
                    let loadex_core::Dest::One(to) = dest else {
                        unreachable!("shares go to one slave")
                    };
                    black_box(mechs[to.index()].on_state_msg(me, msg, &mut out));
                    out.drain().for_each(drop);
                }
            },
        );
        share.add(b);
        let b = timed(
            spans,
            "loadex-core",
            "on_state_msg.end_snp",
            n as u64 - 1,
            || {
                for (q, mech) in mechs.iter_mut().enumerate() {
                    if q != init {
                        black_box(mech.on_state_msg(me, end_msg.clone(), &mut out));
                        out.drain().for_each(drop);
                    }
                }
            },
        );
        end.add(b);
        round.add(Batch {
            ops: 1,
            ns: t0.elapsed().as_nanos() as u64,
            allocs: alloc::count() - a0,
        });
    }
    debug_assert!(mechs.iter().all(|m| !m.blocked()), "every round closed");
    SnapshotNumbers {
        per_kind: vec![
            ("start_snp", start),
            ("snp", answer),
            ("end_snp", end),
            ("master_to_slave", share),
        ],
        request_decision: request,
        round,
    }
}

/// Per-layer numbers of the network model.
pub struct NetNumbers {
    pub new: Duration,
    pub send: Batch,
    pub broadcast: Batch,
}

/// `SimNetwork::new`, then state-channel sends between pseudo-random pairs
/// (spread over the whole P×P link table) and broadcasts from rotating
/// senders, all with an `update_delta` payload.
pub fn drive_net(cfg: &SolverConfig, spans: &mut SpanLog) -> NetNumbers {
    let n = cfg.nprocs;
    let mut builds: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let net = SimNetwork::new(n, cfg.network);
            let dt = t0.elapsed();
            spans.record(None, "loadex-net", "new", t0, dt);
            drop(black_box(net));
            dt
        })
        .collect();
    builds.sort();
    let msg = StateMsg::UpdateDelta {
        delta: Load::work(1.0),
    };
    let size = msg.wire_size();
    let mut net = SimNetwork::new(n, cfg.network);
    let sends = 1_000_000u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let send = timed(spans, "loadex-net", "send", sends, || {
        for i in 0..sends {
            // xorshift64: a fixed pair sequence touching the whole table.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let from = (x % n as u64) as usize;
            let to = (from + 1 + (x >> 32) as usize % (n - 1)) % n;
            let now = SimTime(i * 1_000);
            black_box(net.send(
                now,
                ActorId(from),
                ActorId(to),
                Channel::State,
                size,
                msg.clone(),
            ));
        }
    });
    let casts = (sends / (n as u64 - 1)).max(1);
    let broadcast = timed(
        spans,
        "loadex-net",
        "broadcast",
        casts * (n as u64 - 1),
        || {
            for i in 0..casts {
                let from = ActorId(i as usize % n);
                black_box(net.broadcast(SimTime(i * 1_000), from, Channel::State, size, &msg));
            }
        },
    );
    NetNumbers {
        new: builds[builds.len() / 2],
        send,
        broadcast,
    }
}
