//! Cross-crate integration: the full pipeline (pattern → ordering → symbolic
//! analysis → mapping → simulated factorization) under every mechanism,
//! strategy and communication mode.

use loadex::core::MechKind;
use loadex::solver::mapping::{plan, MappingParams};
use loadex::solver::{run, CommMode, SolverConfig, Strategy};
use loadex::sparse::symbolic::{analyze_with_ordering, Ordering, SymbolicOptions};
use loadex::sparse::{gen, AssemblyTree, Symmetry};

fn grid_tree(k: usize) -> AssemblyTree {
    analyze_with_ordering(
        &gen::grid2d(k, k),
        Ordering::NestedDissection,
        SymbolicOptions {
            amalg_pivots: 8,
            sym: Symmetry::Symmetric,
        },
    )
    .tree
}

fn small_cfg(nprocs: usize) -> SolverConfig {
    let mut c = SolverConfig::new(nprocs);
    c.type2_min_front = 20;
    c.type3_min_front = 80;
    c.kmin_rows = 4;
    c
}

#[test]
fn full_matrix_of_configurations_completes() {
    let tree = grid_tree(24);
    for mech in MechKind::ALL {
        for strat in [Strategy::MemoryBased, Strategy::WorkloadBased] {
            for comm in [CommMode::MainLoop, CommMode::threaded_default()] {
                let cfg = small_cfg(6)
                    .with_mechanism(mech)
                    .with_strategy(strat)
                    .with_comm(comm);
                let r = run(&tree, &cfg).unwrap();
                assert!(
                    r.factor_time.as_nanos() > 0,
                    "{mech}/{}/{comm:?}: no progress",
                    strat.name()
                );
                assert!(
                    r.efficiency() > 0.0 && r.efficiency() <= 1.0 + 1e-9,
                    "{mech}: efficiency {} out of range",
                    r.efficiency()
                );
            }
        }
    }
}

#[test]
fn all_active_memory_is_released_at_the_end() {
    let tree = grid_tree(20);
    for mech in MechKind::ALL {
        let r = run(&tree, &small_cfg(4).with_mechanism(mech)).unwrap();
        for (p, proc) in r.procs.iter().enumerate() {
            assert!(
                proc.mem_final_entries.abs() < 1e-6,
                "{mech}: P{p} leaked {} entries of active memory",
                proc.mem_final_entries
            );
        }
    }
}

#[test]
fn decision_count_is_mechanism_independent() {
    // The classification is static, so all mechanisms must take exactly the
    // same number of dynamic decisions.
    let tree = grid_tree(24);
    let cfg = small_cfg(6);
    let expected = plan(
        &tree,
        6,
        MappingParams {
            alpha: cfg.mapping_alpha,
            type2_min_front: cfg.type2_min_front,
            kmin_rows: cfg.kmin_rows,
            type3_min_front: cfg.type3_min_front,
            speed_factors: Vec::new(),
        },
    )
    .n_decisions as u64;
    assert!(expected > 0, "test needs parallel tasks");
    for mech in MechKind::ALL {
        let r = run(&tree, &cfg.clone().with_mechanism(mech)).unwrap();
        assert_eq!(r.decisions, expected, "{mech}");
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let tree = grid_tree(20);
    for mech in MechKind::ALL {
        let cfg = small_cfg(5).with_mechanism(mech);
        let a = run(&tree, &cfg).unwrap();
        let b = run(&tree, &cfg).unwrap();
        assert_eq!(a.factor_time, b.factor_time, "{mech}");
        assert_eq!(a.state_msgs, b.state_msgs, "{mech}");
        assert_eq!(a.app_msgs, b.app_msgs, "{mech}");
        assert_eq!(a.mem_peak_entries(), b.mem_peak_entries(), "{mech}");
        assert_eq!(a.snapshot_union_time, b.snapshot_union_time, "{mech}");
    }
}

#[test]
fn single_process_degenerates_gracefully() {
    let tree = grid_tree(16);
    for mech in MechKind::ALL {
        let r = run(&tree, &small_cfg(1).with_mechanism(mech)).unwrap();
        assert_eq!(r.state_msgs, 0, "{mech}: nobody to talk to");
        assert_eq!(r.decisions, 0, "{mech}: no parallel tasks");
        assert!(r.factor_time.as_nanos() > 0);
    }
}

#[test]
fn snapshot_mechanism_blocks_and_accounts_time() {
    let tree = grid_tree(28);
    let r = run(&tree, &small_cfg(6).with_mechanism(MechKind::Snapshot)).unwrap();
    assert!(r.decisions > 0);
    assert!(
        r.snapshot_union_time.as_nanos() > 0,
        "snapshots must take nonzero time"
    );
    assert!(r.snapshots_started >= r.decisions);
    assert!(r.snapshot_max_concurrent >= 1);
    // Maintained-view mechanisms never block.
    let r2 = run(&tree, &small_cfg(6).with_mechanism(MechKind::Increments)).unwrap();
    assert_eq!(r2.snapshot_union_time.as_nanos(), 0);
    assert_eq!(r2.snapshot_max_concurrent, 0);
}

#[test]
fn snapshot_sends_fewer_messages_than_increments() {
    let tree = grid_tree(28);
    let inc = run(&tree, &small_cfg(8).with_mechanism(MechKind::Increments)).unwrap();
    let snp = run(&tree, &small_cfg(8).with_mechanism(MechKind::Snapshot)).unwrap();
    assert!(
        snp.state_msgs < inc.state_msgs,
        "snapshot {} !< increments {}",
        snp.state_msgs,
        inc.state_msgs
    );
}

#[test]
fn threading_reduces_snapshot_time() {
    // The §4.5 effect needs task durations well above the 50 µs poll period
    // (on the paper's machine they are); slow the simulated processors down
    // so this small test problem has millisecond-scale tasks.
    let tree = grid_tree(28);
    let mut base = small_cfg(6).with_mechanism(MechKind::Snapshot);
    base.speed_flops = 1.0e6;
    let single = run(&tree, &base).unwrap();
    let threaded = run(&tree, &base.clone().with_comm(CommMode::threaded_default())).unwrap();
    assert!(
        threaded.snapshot_union_time <= single.snapshot_union_time,
        "threaded union {} > single {}",
        threaded.snapshot_union_time,
        single.snapshot_union_time
    );
}

#[test]
fn more_processes_do_not_lose_work() {
    // Total busy time (work done) must be within float noise of the tree's
    // flops / speed, independent of the process count.
    // Use a problem large enough that compute dominates the per-message
    // processing overheads that `busy` also includes.
    let tree = grid_tree(48);
    let total_flops = tree.total_flops();
    for np in [1usize, 2, 4, 8] {
        let cfg = small_cfg(np);
        let r = run(&tree, &cfg).unwrap();
        let busy: f64 = r.procs.iter().map(|p| p.busy.as_secs_f64()).sum();
        let expected = total_flops / cfg.speed_flops;
        assert!(
            busy >= expected * 0.99 && busy <= expected * 1.30,
            "np={np}: busy {busy} vs flops-time {expected}"
        );
    }
}

#[test]
fn disabled_chunking_still_completes() {
    use loadex::sim::SimDuration;
    let tree = grid_tree(20);
    for mech in MechKind::ALL {
        let mut cfg = small_cfg(4).with_mechanism(mech);
        cfg.task_chunk = SimDuration::ZERO;
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{mech}");
    }
}

#[test]
fn no_more_master_reduces_traffic() {
    let tree = grid_tree(28);
    let with = run(&tree, &small_cfg(8)).unwrap();
    let mut cfg = small_cfg(8);
    cfg.no_more_master = false;
    let without = run(&tree, &cfg).unwrap();
    assert!(
        with.state_msgs < without.state_msgs,
        "NoMoreMaster must cut messages: {} !< {}",
        with.state_msgs,
        without.state_msgs
    );
}

#[test]
fn extension_mechanisms_complete_and_disseminate() {
    use loadex::sim::SimDuration;
    let tree = grid_tree(24);
    for mech in [MechKind::Periodic, MechKind::Gossip] {
        let mut cfg = small_cfg(6).with_mechanism(mech);
        cfg.periodic_interval = SimDuration::from_micros(200);
        cfg.gossip_interval = SimDuration::from_micros(200);
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{mech}");
        assert!(r.state_msgs > 0, "{mech}: timers must produce traffic");
        for (p, proc) in r.procs.iter().enumerate() {
            assert!(
                proc.mem_final_entries.abs() < 1e-6,
                "{mech}: P{p} leaked memory"
            );
        }
    }
}

#[test]
fn gossip_uses_fewer_messages_than_naive_per_round() {
    use loadex::sim::SimDuration;
    let tree = grid_tree(28);
    let mut naive_cfg = small_cfg(8).with_mechanism(MechKind::Periodic);
    naive_cfg.periodic_interval = SimDuration::from_micros(500);
    let mut gossip_cfg = small_cfg(8).with_mechanism(MechKind::Gossip);
    gossip_cfg.gossip_interval = SimDuration::from_micros(500);
    gossip_cfg.gossip_fanout = 2;
    let p = run(&tree, &naive_cfg).unwrap();
    let g = run(&tree, &gossip_cfg).unwrap();
    // Periodic broadcasts to N-1 = 7 peers when active; gossip to 2 always.
    // Gossip messages are larger but fewer per unit time under churn.
    assert!(p.factor_time.as_nanos() > 0 && g.factor_time.as_nanos() > 0);
    assert!(g.state_msgs > 0 && p.state_msgs > 0);
}

#[test]
fn partial_snapshots_cut_traffic_at_engine_level() {
    let tree = grid_tree(28);
    let full = run(&tree, &small_cfg(8).with_mechanism(MechKind::Snapshot)).unwrap();
    let mut cfg = small_cfg(8).with_mechanism(MechKind::Snapshot);
    cfg.snapshot_candidates = Some(3);
    let partial = run(&tree, &cfg).unwrap();
    assert!(partial.factor_time.as_nanos() > 0);
    assert_eq!(partial.decisions, full.decisions);
    assert!(
        partial.state_msgs < full.state_msgs,
        "partial {} !< full {}",
        partial.state_msgs,
        full.state_msgs
    );
    for (p, proc) in partial.procs.iter().enumerate() {
        assert!(proc.mem_final_entries.abs() < 1e-6, "P{p} leaked memory");
    }
}

#[test]
fn leader_policy_changes_behavior_not_correctness() {
    use loadex::core::LeaderPolicy;
    let tree = grid_tree(28);
    for policy in [LeaderPolicy::MinRank, LeaderPolicy::MaxRank] {
        let mut cfg = small_cfg(6).with_mechanism(MechKind::Snapshot);
        cfg.leader_policy = policy;
        let r = run(&tree, &cfg).unwrap();
        assert!(r.factor_time.as_nanos() > 0, "{policy:?}");
        assert!(r.decisions > 0);
    }
}

#[test]
fn coherence_probe_collects_samples() {
    use loadex::sim::SimDuration;
    let tree = grid_tree(24);
    let mut cfg = small_cfg(4);
    cfg.coherence_probe = Some(SimDuration::from_micros(100));
    let r = run(&tree, &cfg).unwrap();
    assert!(r.view_err_time_work.count() > 0, "probe must sample");
    assert!(
        r.view_err_decision_work.count() > 0,
        "decisions must sample"
    );
    assert!(r.view_err_time_work.mean() >= 0.0);
    // Without the probe, only decision samples appear.
    let r2 = run(&tree, &small_cfg(4)).unwrap();
    assert_eq!(r2.view_err_time_work.count(), 0);
    assert!(r2.view_err_decision_work.count() > 0);
}

#[test]
fn snapshot_decision_views_are_most_accurate() {
    // The paper's quality ordering (§4.4): at decision time the snapshot's
    // view beats increments, which beats naive.
    use loadex::sim::SimDuration;
    let tree = grid_tree(40);
    let mut errs = Vec::new();
    for mech in MechKind::ALL {
        let mut cfg = small_cfg(8).with_mechanism(mech);
        cfg.coherence_probe = Some(SimDuration::from_millis(1));
        let r = run(&tree, &cfg).unwrap();
        errs.push((mech, r.view_err_decision_work.mean()));
    }
    let get = |k: MechKind| errs.iter().find(|(m, _)| *m == k).unwrap().1;
    assert!(
        get(MechKind::Snapshot) <= get(MechKind::Naive),
        "snapshot {} !<= naive {}",
        get(MechKind::Snapshot),
        get(MechKind::Naive)
    );
}

#[test]
fn timeline_records_and_renders() {
    let tree = grid_tree(24);
    let mut cfg = small_cfg(4).with_mechanism(MechKind::Snapshot);
    cfg.record_timeline = true;
    let r = run(&tree, &cfg).unwrap();
    assert_eq!(r.timelines.len(), 4);
    assert!(r.timelines.iter().all(|t| !t.is_empty()));
    // Transitions are time-ordered.
    for tl in &r.timelines {
        for w in tl.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
    let g = r.render_gantt(60);
    assert!(g.contains("P0"), "{g}");
    assert!(g.contains('#'), "someone must compute:\n{g}");
    assert!(g.contains('S'), "snapshot blocking must appear:\n{g}");
    // Recording off → placeholder.
    let r2 = run(&tree, &small_cfg(4)).unwrap();
    assert!(r2.render_gantt(40).contains("disabled"));
}

#[test]
fn heterogeneous_speeds_slow_the_makespan_but_stay_correct() {
    let tree = grid_tree(28);
    let homo = run(&tree, &small_cfg(6)).unwrap();
    let mut cfg = small_cfg(6);
    cfg.speed_factors = vec![1.0, 0.25, 1.0, 0.25, 1.0, 0.25];
    let hetero = run(&tree, &cfg).unwrap();
    assert!(
        hetero.factor_time > homo.factor_time,
        "slow processors must cost time: {} !> {}",
        hetero.factor_time,
        homo.factor_time
    );
    for (p, proc) in hetero.procs.iter().enumerate() {
        assert!(proc.mem_final_entries.abs() < 1e-6, "P{p} leaked");
    }
    // But far less than 4x: the dynamic scheduler routes around them.
    let ratio = hetero.factor_time.as_secs_f64() / homo.factor_time.as_secs_f64();
    assert!(ratio < 4.0, "scheduler failed to adapt: ratio {ratio}");
}

#[test]
fn snapshot_statistics_are_pinned_past_one_flag_word() {
    // At 130 processes the snapshot mechanism's per-peer flags span three
    // 64-bit words, so elections and delayed answers cross word boundaries.
    // Any change to who leads or who is answered moves these figures.
    use loadex::core::LeaderPolicy;
    let tree = grid_tree(28);
    for (policy, pinned) in [
        (LeaderPolicy::MinRank, [9_762_701, 23_276, 56, 62]),
        (LeaderPolicy::MaxRank, [16_512_855, 25_082, 56, 69]),
    ] {
        let mut cfg = small_cfg(130).with_mechanism(MechKind::Snapshot);
        cfg.leader_policy = policy;
        let r = run(&tree, &cfg).unwrap();
        let got = [
            r.factor_time.as_nanos(),
            r.state_msgs,
            r.decisions,
            r.snapshots_started,
        ];
        assert_eq!(
            got, pinned,
            "{policy:?}: [factor_time ns, state_msgs, decisions, snapshots_started]"
        );
    }
}

/// FNV-1a, 64 bit: a digest that stays the same across toolchains (unlike
/// `DefaultHasher`), so a pinned value means the same bytes everywhere.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprinted configurations: every mechanism × strategy × comm mode
/// on 6 processes, plus single-knob variants of the snapshot and increments
/// paths.
fn fingerprint_configs() -> Vec<(String, SolverConfig)> {
    use loadex::core::LeaderPolicy;
    use loadex::sim::SimDuration;
    let mut out = Vec::new();
    for mech in MechKind::ALL {
        for strat in [Strategy::MemoryBased, Strategy::WorkloadBased] {
            for (comm_name, comm) in [
                ("mainloop", CommMode::MainLoop),
                ("commthread", CommMode::threaded_default()),
            ] {
                let cfg = small_cfg(6)
                    .with_mechanism(mech)
                    .with_strategy(strat)
                    .with_comm(comm);
                out.push((format!("{mech}/{}/{comm_name}", strat.name()), cfg));
            }
        }
    }
    let snapshot = || small_cfg(6).with_mechanism(MechKind::Snapshot);
    let increments = || small_cfg(6).with_mechanism(MechKind::Increments);
    let mut c = small_cfg(8).with_mechanism(MechKind::Snapshot);
    c.snapshot_candidates = Some(3);
    out.push(("snapshot/candidates3/p8".into(), c));
    let mut c = increments();
    c.task_chunk = SimDuration::ZERO;
    out.push(("increments/no_chunk".into(), c));
    // The default chunk outlasts every task of this tree; a short one makes
    // tasks re-queue at chunk boundaries.
    let mut c = snapshot();
    c.task_chunk = SimDuration::from_micros(20);
    out.push(("snapshot/chunk20us".into(), c));
    let mut c = increments();
    c.speed_factors = vec![1.0, 0.25, 1.0, 0.25, 1.0, 0.25];
    out.push(("increments/hetero".into(), c));
    let mut c = increments();
    c.no_more_master = false;
    out.push(("increments/no_nmm".into(), c));
    let mut c = snapshot();
    c.leader_policy = LeaderPolicy::MaxRank;
    out.push(("snapshot/maxrank".into(), c));
    out
}

#[test]
fn sim_output_fingerprints_are_pinned() {
    // Everything the simulated backend produces for these configurations —
    // the headline statistics, the recorded protocol-event stream and the
    // full report JSON (accuracy report included) — reduced to fixed
    // numbers. Any change to the order or the arithmetic of a side effect
    // moves at least one of them.
    use loadex::obs::{jsonl, Recorder};
    use loadex::solver::run_observed;
    use serde::Serialize;
    // [factor_time ns, state_msgs, state_bytes, app_msgs, decisions,
    //  snapshots_started, mem_peak_entries bits], FNV-1a of the JSONL event
    // stream, FNV-1a of the report JSON.
    let pinned: &[(&str, [u64; 7], u64, u64)] = &[
        (
            "naive/memory-based/mainloop",
            [2031476, 1377, 43808, 151, 19, 0, 4651268437027323904],
            0xed7d170fc722cd14,
            0xd4c4984323081cf0,
        ),
        (
            "naive/memory-based/commthread",
            [1577063, 1630, 51680, 145, 19, 0, 4652801156236443648],
            0xdb6fe1c0bfba7ea0,
            0x796c11df9a502fd3,
        ),
        (
            "naive/workload-based/mainloop",
            [1911488, 1557, 49568, 165, 19, 0, 4649583985213571072],
            0xa648d7c664b12c5b,
            0x1efd27b557539176,
        ),
        (
            "naive/workload-based/commthread",
            [1573895, 1600, 50720, 139, 19, 0, 4653007864422465536],
            0x52abf135efabd4cc,
            0x1c1384dbd155cc44,
        ),
        (
            "increments/memory-based/mainloop",
            [1810698, 1370, 49504, 157, 19, 0, 4650846224562257920],
            0xfbc5efac2a29971f,
            0x2654397a1945009a,
        ),
        (
            "increments/memory-based/commthread",
            [1505357, 1680, 59200, 157, 19, 0, 4649570791074037760],
            0xc2b0f6b5ee7e8b09,
            0x0d56e77bd3ca9b64,
        ),
        (
            "increments/workload-based/mainloop",
            [1758834, 1384, 49728, 153, 19, 0, 4650582341771591680],
            0x01f256ac5117d4b7,
            0x726eaca6003d66b2,
        ),
        (
            "increments/workload-based/commthread",
            [1642326, 1450, 49800, 123, 19, 0, 4651708241678434304],
            0x15d9f7f0828bbacc,
            0xb9fee84d64f651bb,
        ),
        (
            "snapshot/memory-based/mainloop",
            [2090770, 385, 11680, 173, 19, 22, 4649570791074037760],
            0xd2f69098a3df30bc,
            0x2f7ee2a20f11e9af,
        ),
        (
            "snapshot/memory-based/commthread",
            [8637422, 411, 12632, 165, 19, 25, 4649570791074037760],
            0xc81a1a1f01bdcb2f,
            0xc1d6dc518f714018,
        ),
        (
            "snapshot/workload-based/mainloop",
            [1954923, 401, 12232, 185, 19, 23, 4650432808190214144],
            0xbf977514f4dcbd43,
            0x682ba8bc59b7af79,
        ),
        (
            "snapshot/workload-based/commthread",
            [8002463, 393, 11976, 169, 19, 23, 4650177721492570112],
            0xfe951785a7543165,
            0xd8dff44c9a282162,
        ),
        (
            "snapshot/candidates3/p8",
            [2197458, 283, 8480, 114, 26, 28, 4650353643353014272],
            0xf7cda9773d4cf41d,
            0xbd4e3cac7c84aafb,
        ),
        (
            "increments/no_chunk",
            [1758834, 1384, 49728, 153, 19, 0, 4650582341771591680],
            0x01f256ac5117d4b7,
            0x726eaca6003d66b2,
        ),
        (
            "snapshot/chunk20us",
            [1763113, 381, 11472, 205, 19, 20, 4652425123259744256],
            0x12114de7684a15dc,
            0xfb830eec28f092fd,
        ),
        (
            "increments/hetero",
            [3307209, 1402, 51624, 175, 19, 0, 4650775855818080256],
            0xb6c5aed4afb95ba3,
            0x644f9130d5460a58,
        ),
        (
            "increments/no_nmm",
            [1769870, 1645, 58560, 157, 19, 0, 4650582341771591680],
            0x9241372b93a5a743,
            0x6fff58968139cd3d,
        ),
        (
            "snapshot/maxrank",
            [2020973, 390, 11840, 183, 19, 22, 4649984207446081536],
            0xe61c223107417678,
            0xac8d4a4dd8756950,
        ),
    ];
    let tree = grid_tree(24);
    let mut got_all = Vec::new();
    for (name, cfg) in fingerprint_configs() {
        let rec = Recorder::enabled();
        let r = run_observed(&tree, &cfg.with_accuracy(true), rec.clone()).unwrap();
        assert_eq!(rec.dropped(), 0, "{name}: event stream truncated");
        let stats = [
            r.factor_time.as_nanos(),
            r.state_msgs,
            r.state_bytes,
            r.app_msgs,
            r.decisions,
            r.snapshots_started,
            r.mem_peak_entries().to_bits(),
        ];
        let events = fnv1a64(jsonl::to_string(&rec.take()).as_bytes());
        let report = fnv1a64(r.to_json().as_bytes());
        got_all.push((name, stats, events, report));
    }
    let rendered: Vec<String> = got_all
        .iter()
        .map(|(n, s, e, r)| format!("(\"{n}\", {s:?}, {e:#018x}, {r:#018x}),"))
        .collect();
    assert_eq!(got_all.len(), pinned.len(), "{}", rendered.join("\n"));
    for ((name, stats, events, report), (pname, pstats, pevents, preport)) in
        got_all.iter().zip(pinned)
    {
        assert_eq!(name, pname);
        assert_eq!(stats, pstats, "{name}: statistics");
        assert_eq!(events, pevents, "{name}: event stream digest");
        assert_eq!(report, preport, "{name}: report JSON digest");
    }
}
