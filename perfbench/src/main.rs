//! The loadex benchmark: host cost of simulated factorizations on the sim
//! backend, end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload incr-p512 --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Workloads,
//! metrics and their definitions are documented in `perfbench/README.md`.

mod alloc;
mod calib;
mod isolated;
mod spans;
mod traced;
mod workload;

use loadex_obs::{jsonl, ProtocolAuditor, Recorder};
use loadex_sim::SimDuration;
use loadex_solver::Runtime;
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::{Totals, EV_NAMES, KIND_NAMES};
use workload::{Stats, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up is repeated `SETUP_BATCHES` × `SETUP_BATCH` times; `setup_s` is
/// the median. The reference kernel runs between batches.
const SETUP_BATCHES: usize = 3;
const SETUP_BATCH: usize = 17;
/// Timed factorizations per run, at the least.
const MIN_RUNS: usize = 3;
/// Spans kept in memory by a traced run.
const SPAN_CAPACITY: usize = 20_000;
/// Events of a truncated stream audited and exported to time the
/// observability stages on the workloads that keep the recorder off.
const OBS_SAMPLE_EVENTS: usize = 200_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value after {flag}"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_workload_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

/// Runs attempted and failed, with the first failure's reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            eprintln!("FAILED {what}: {e}");
            self.failed += 1;
            self.first_error.get_or_insert(format!("{what}: {e}"));
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// The default-seed tree and a validated runtime, with the median set-up
/// time (tree build, then `Runtime::new`) over `SETUP_BATCHES` batches of
/// `SETUP_BATCH` repetitions, at the reference host speed: each batch is
/// divided by the mean of the kernel's slowdown factors around it.
struct Setup {
    tree: loadex_sparse::AssemblyTree,
    rt: Runtime,
    setup_s: f64,
    build_tree_s: f64,
    runtime_new_s: f64,
    plan_decisions: usize,
}

fn set_up(w: &Workload) -> Result<Setup, String> {
    let model = workload::model();
    let seed = workload::default_tree_seed(&model);
    let mut total = Vec::new();
    let mut build = Vec::new();
    let mut new = Vec::new();
    let mut last = None;
    // The first kernel run faults in its table; it is not a measurement.
    calib::slowdown();
    let mut before = calib::slowdown();
    for _ in 0..SETUP_BATCHES {
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let tree = workload::build_tree(&model, seed);
            let t1 = Instant::now();
            let rt = Runtime::new(w.config()).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            batch.push((secs(t1 - t0), secs(t2 - t1), secs(t2 - t0)));
            last = Some((tree, rt));
        }
        let after = calib::slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        for (b, n, t) in batch {
            build.push(b / slowdown);
            new.push(n / slowdown);
            total.push(t / slowdown);
        }
    }
    let (tree, rt) = last.expect("at least one set-up");
    let plan_decisions = workload::plan(&tree, rt.config()).n_decisions;
    Ok(Setup {
        tree,
        rt,
        setup_s: median(&total),
        build_tree_s: median(&build),
        runtime_new_s: median(&new),
        plan_decisions,
    })
}

/// What [`timed_runs`] measured.
struct Timed {
    /// Wall seconds per timed factorization.
    run_s: Vec<f64>,
    /// The same, divided by the host's speed factor around each run.
    scaled_s: Vec<f64>,
    stats: Option<Stats>,
    /// Audit-workload runs: strict-audit and JSONL-export ns per event.
    audit_ns_per_event: Vec<f64>,
    jsonl_ns_per_event: Vec<f64>,
}

/// Timed untraced factorizations of the default tree: one warm-up, then
/// runs until `budget` has passed (at least `MIN_RUNS`). Every run is
/// checked against the pinned statistics and the invariants.
fn timed_runs(w: &Workload, s: &Setup, budget: Duration, tally: &mut Tally) -> Timed {
    let mut out = Timed {
        run_s: Vec::new(),
        scaled_s: Vec::new(),
        stats: None,
        audit_ns_per_event: Vec::new(),
        jsonl_ns_per_event: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0;
    let mut before = calib::slowdown();
    while i <= MIN_RUNS || start.elapsed() < budget {
        let t0 = Instant::now();
        let result = workload::factorize(w, &s.rt, &s.tree);
        let dt = t0.elapsed();
        let after = calib::slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        let check = result.and_then(|(r, obs)| {
            // Run 0 warms caches and the allocator; it is checked, not timed.
            // A run that completes is timed even when its check fails, so a
            // wrong result is reported as incorrect, with its cost.
            if i > 0 {
                out.run_s.push(secs(dt));
                out.scaled_s.push(secs(dt) / slowdown);
                if let Some(o) = obs {
                    let n = o.events as f64;
                    out.audit_ns_per_event.push(o.audit.as_nanos() as f64 / n);
                    out.jsonl_ns_per_event.push(o.jsonl.as_nanos() as f64 / n);
                }
            }
            let stats = Stats::of(&r);
            out.stats = Some(stats);
            workload::check_pinned(stats, w.pinned)?;
            // Nothing is in flight when the default tree completes.
            workload::check_invariants(&r, s.plan_decisions, 0)
        });
        tally.record(&format!("default-seed run {i}"), check);
        i += 1;
    }
    out
}

/// The held-out check: the tree of `--seed`, run once along the workload's
/// path, must satisfy every invariant (and, on the audit workload, give a
/// complete stream with a clean strict audit). When some state messages
/// were not received, the rebuilt pipeline repeats the run, must reproduce
/// its statistics exactly, and counts the messages still undelivered when
/// the simulator stopped at completion.
fn held_out(w: &Workload, seed: u64, tally: &mut Tally) {
    let model = workload::model();
    let tree = workload::build_tree(&model, seed);
    let check = Runtime::new(w.config())
        .map_err(|e| e.to_string())
        .and_then(|rt| {
            let decisions = workload::plan(&tree, rt.config()).n_decisions;
            let (r, _) = workload::factorize(w, &rt, &tree)?;
            let received = r.metrics.counter("state_msgs_received");
            let undelivered = if received == r.state_msgs {
                0
            } else {
                let (again, n) = traced::undelivered_at_stop(&tree, rt.config())?;
                if Stats::of(&again) != Stats::of(&r)
                    || again.metrics.counter("state_msgs_received") != received
                {
                    return Err("rebuilt pipeline diverged from Runtime::run".into());
                }
                n
            };
            workload::check_invariants(&r, decisions, undelivered)?;
            println!(
                "held-out seed {seed}: {} nodes, {} state msgs ({undelivered} undelivered at stop), {} decisions, invariants hold",
                tree.len(),
                r.state_msgs,
                r.decisions
            );
            Ok(())
        });
    tally.record(&format!("held-out seed {seed}"), check);
}

fn end_to_end(args: &Args, s: &Setup, tally: &mut Tally) -> Result<Metrics, String> {
    let w = args.workload;
    let timed = timed_runs(w, s, Duration::from_secs_f64(args.seconds), tally);
    let rss = peak_rss_mb()?;
    let stats = timed.stats.ok_or("no run completed")?;
    if timed.run_s.is_empty() {
        return Err("no timed run completed".into());
    }
    let run_s = median(&timed.scaled_s);
    println!(
        "run_s over {} runs: median {run_s:.4} s at reference speed, {:.4} s wall (min {:.4}, max {:.4})",
        timed.run_s.len(),
        median(&timed.run_s),
        timed.run_s.iter().copied().fold(f64::INFINITY, f64::min),
        timed.run_s.iter().copied().fold(0.0, f64::max),
    );
    let mut m = Metrics::default();
    m.put("setup_s", s.setup_s, "s");
    m.put("run_s", run_s, "s");
    m.put(
        "ns_per_state_msg",
        run_s * 1e9 / stats.state_msgs as f64,
        "ns",
    );
    m.put("peak_rss_mb", rss, "MB");
    Ok(m)
}

/// Median seconds of `f` over `reps` calls.
fn median_time(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        t.push(secs(t0.elapsed()));
    }
    Ok(median(&t))
}

fn per_layer(
    args: &Args,
    s: &Setup,
    tally: &mut Tally,
    spans: &mut SpanLog,
) -> Result<Metrics, String> {
    let w = args.workload;
    let cfg = w.config();
    let budget = Duration::from_secs_f64(args.seconds * 0.35);

    // Set-up layers.
    let plan_s = median_time(SETUP_BATCHES * SETUP_BATCH, || {
        std::hint::black_box(workload::plan(&s.tree, &cfg));
        Ok(())
    })?;

    // Untraced reference, then traced factorizations of the same tree.
    let untraced = timed_runs(w, s, budget, tally);
    let reference = untraced.stats.ok_or("no untraced run completed")?;
    if untraced.run_s.is_empty() {
        return Err("no timed untraced run completed".into());
    }
    let untraced_s = median(&untraced.run_s);
    let mut totals = Totals::default();
    let mut traced_s = Vec::new();
    let mut report_s = Vec::new();
    let mut sim_loop_ns = 0u64;
    let mut last = None;
    let start = Instant::now();
    while traced_s.is_empty() || start.elapsed() < budget {
        let run = traced::factorize(w, &s.tree, &cfg, &mut totals, spans)?;
        let got = Stats::of(&run.report);
        if got != reference {
            return Err(format!(
                "traced run diverged from the untraced run: {got:?} vs {reference:?}"
            ));
        }
        tally.record(
            "traced run",
            workload::check_invariants(&run.report, s.plan_decisions, 0),
        );
        traced_s.push(secs(run.total));
        report_s.push(secs(run.report_time));
        sim_loop_ns += run.sim_loop.as_nanos() as u64;
        last = Some(run);
    }
    let run = last.expect("one traced run");
    let runs = totals.runs;

    // Observability on/off for the same scenario.
    let base = Runtime::new(w.unobserved_config()).map_err(|e| e.to_string())?;
    let reps = if untraced_s < 0.5 { 5 } else { 1 };
    let off_s = if w.audit {
        median_time(reps, || {
            base.run(&s.tree).map(drop).map_err(|e| e.to_string())
        })?
    } else {
        untraced_s
    };
    let mut stream = Vec::new();
    let rec_s = median_time(reps, || {
        let rec = Recorder::enabled();
        base.run_observed(&s.tree, rec.clone())
            .map_err(|e| e.to_string())?;
        stream = rec.take();
        Ok(())
    })?;
    // The accuracy probe as `run --accuracy-out` attaches it.
    let mut acc_cfg = w.unobserved_config().with_accuracy(true);
    acc_cfg.coherence_probe = Some(SimDuration::from_millis(500));
    let acc_rt = Runtime::new(acc_cfg).map_err(|e| e.to_string())?;
    let acc_s = median_time(reps, || {
        acc_rt.run(&s.tree).map(drop).map_err(|e| e.to_string())
    })?;
    let (obs_events, obs_dropped, audit_ns, jsonl_ns) = match &run.obs {
        Some(o) => (
            o.events as f64,
            o.dropped as f64,
            median(&untraced.audit_ns_per_event),
            median(&untraced.jsonl_ns_per_event),
        ),
        None => {
            // Recorder off on this workload: time the stages on a prefix of
            // the recorder-on stream instead.
            stream.truncate(OBS_SAMPLE_EVENTS);
            let n = stream.len().max(1) as f64;
            let t0 = Instant::now();
            std::hint::black_box(ProtocolAuditor::strict().audit(&stream));
            let audit = t0.elapsed().as_nanos() as f64 / n;
            let t0 = Instant::now();
            std::hint::black_box(jsonl::to_string(&stream));
            let export = t0.elapsed().as_nanos() as f64 / n;
            (0.0, 0.0, audit, export)
        }
    };
    drop(stream);

    // Isolated layer drives at this workload's P.
    let plan = workload::plan(&s.tree, &cfg);
    let threshold = traced::derive_threshold(&s.tree, &plan, &cfg);
    let core = isolated::drive_core(w.mech, &cfg, &plan, threshold, spans);
    let net = isolated::drive_net(&cfg, spans);

    let mut m = Metrics::default();
    let t = &totals;
    let events = t.events as f64;
    let per = |x: u64| x as f64 / runs as f64;
    let sim_self_ns = (t.step_ns - t.handle_ns) as f64;
    m.put("sim.events", per(t.events), "count");
    m.put("sim.self_ns_per_event", sim_self_ns / events, "ns");
    m.put(
        "sim.allocs_per_kevent",
        (t.step_allocs - t.handle_allocs) as f64 * 1e3 / events,
        "count",
    );
    for (i, name) in EV_NAMES.iter().enumerate() {
        m.put(format!("engine.events.{name}"), per(t.ev_count[i]), "count");
        m.put(
            format!("engine.ns.{name}"),
            t.ev_ns[i] as f64 / t.ev_count[i].max(1) as f64,
            "ns",
        );
    }
    for (i, name) in KIND_NAMES.iter().enumerate() {
        m.put(
            format!("engine.state.{name}.count"),
            per(t.kind_count[i]),
            "count",
        );
        m.put(
            format!("engine.state.{name}.ns"),
            t.kind_ns[i] as f64 / t.kind_count[i].max(1) as f64,
            "ns",
        );
    }
    m.put(
        "engine.allocs_per_kevent",
        t.handle_allocs as f64 * 1e3 / events,
        "count",
    );
    m.put("engine.report_s", median(&report_s), "s");

    for (i, name) in KIND_NAMES.iter().enumerate().skip(1) {
        m.put(
            format!("core.on_state_msg_ns.{name}"),
            core.on_state_msg[i].ns_per_op(),
            "ns",
        );
    }
    m.put(
        "core.on_local_change_ns",
        core.on_local_change.ns_per_op(),
        "ns",
    );
    m.put(
        "core.request_decision_ns",
        core.request_decision.ns_per_op(),
        "ns",
    );
    m.put("core.on_timer_ns", core.on_timer.ns_per_op(), "ns");
    m.put(
        "core.snapshot_round_us",
        core.snapshot_round.ns_per_op() / 1e3,
        "us",
    );
    for (op, b) in [
        ("on_state_msg", core.on_state_msg_own),
        ("on_local_change", core.on_local_change),
        ("request_decision", core.request_decision),
        ("on_timer", core.on_timer),
    ] {
        m.put(
            format!("core.allocs_per_op.{op}"),
            b.allocs_per_op(),
            "count",
        );
    }

    m.put("net.send_ns", net.send.ns_per_op(), "ns");
    m.put("net.broadcast_ns_per_dest", net.broadcast.ns_per_op(), "ns");
    m.put("net.new_us", secs(net.new) * 1e6, "us");
    m.put("net.allocs_per_send", net.send.allocs_per_op(), "count");

    m.put("sparse.build_tree_s", s.build_tree_s, "s");
    m.put("mapping.plan_s", plan_s, "s");
    m.put("runtime.new_s", s.runtime_new_s, "s");

    m.put("obs.events", obs_events, "count");
    m.put("obs.events_dropped", obs_dropped, "count");
    m.put("obs.recorder_ratio", rec_s / off_s, "ratio");
    m.put("obs.accuracy_ratio", acc_s / off_s, "ratio");
    m.put("obs.audit_ns_per_event", audit_ns, "ns");
    m.put("obs.jsonl_ns_per_event", jsonl_ns, "ns");

    // Attribution over the traced loop. Core and network time sit inside
    // `handle`; they are estimated from isolated ns/op times traced counts.
    let loop_ns = t.step_ns as f64;
    let state_ns_est: f64 = KIND_NAMES
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, _)| t.kind_count[i] as f64 * core.on_state_msg[i].ns_per_op())
        .sum();
    let timer = EV_NAMES
        .iter()
        .position(|e| *e == "mech_timer")
        .expect("mech_timer");
    let core_est = state_ns_est
        + (run.report.decisions * runs) as f64 * core.request_decision.ns_per_op()
        + t.ev_count[timer] as f64 * core.on_timer.ns_per_op();
    let sends =
        run.report.counters.get("net_state_msgs") + run.report.counters.get("net_regular_msgs");
    let net_est = (sends * runs) as f64 * net.send.ns_per_op();
    m.put("attr.sim_share", sim_self_ns / loop_ns, "ratio");
    m.put(
        "attr.engine_self_share",
        (t.handle_ns as f64 - core_est - net_est) / loop_ns,
        "ratio",
    );
    m.put("attr.core_share_est", core_est / loop_ns, "ratio");
    m.put("attr.net_share_est", net_est / loop_ns, "ratio");
    m.put(
        "attr.obs_share",
        if w.audit {
            1.0 - off_s / untraced_s
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "trace.overhead_ratio",
        median(&traced_s) / untraced_s,
        "ratio",
    );
    println!(
        "traced {} factorizations: loop {:.3} s, {} spans kept, {} over capacity",
        runs,
        sim_loop_ns as f64 / 1e9,
        spans.len(),
        spans.dropped
    );
    Ok(m)
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    let correct = tally.failed == 0 && tally.attempted > 0;
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}: {} P={} {}, seed {}, {} s, trace {}",
        w.name,
        workload::MATRIX,
        w.procs,
        w.mech.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut tally = Tally::default();
    let mut spans = SpanLog::new(SPAN_CAPACITY);
    let measured = set_up(w).and_then(|s| {
        if args.trace {
            per_layer(&args, &s, &mut tally, &mut spans)
        } else {
            end_to_end(&args, &s, &mut tally)
        }
    });
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    held_out(w, args.seed, &mut tally);
    if args.trace {
        let path = args.spans_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/spans-{}-seed{}.jsonl",
                w.name, args.seed
            ))
        });
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} spans to {}", spans.len(), path.display());
    }
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    for m in &metrics.0 {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.6} ratio ({} of {} runs failed)",
        "fail_frac", fail_frac, tally.failed, tally.attempted
    );
    if let Some(e) = &tally.first_error {
        eprintln!("first failure: {e}");
    }
    print_result(&tally, &metrics);
    ExitCode::SUCCESS
}
