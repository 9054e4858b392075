//! Run statistics: everything the paper's tables measure.
//!
//! [`RunReport`] (and its [`MetricsSnapshot`]) serialize to JSON through the
//! vendored `serde` shim, so the bench CLI can dump a machine-readable
//! successor to `tables_output.txt`.

use loadex_core::MechStats;
use loadex_obs::span::{self, Span, SpanState};
use loadex_obs::{AccuracyReport, MetricsSnapshot};
use loadex_sim::{SimDuration, SimTime, StatSet, Welford};
use serde::{ser::JsonMap, Serialize};

/// What a process was doing during a timeline interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// Waiting for messages or work.
    Idle,
    /// Computing a task chunk.
    Busy,
    /// Blocked in the snapshot protocol.
    Blocked,
}

/// A per-process activity timeline: `(transition time, new activity)`,
/// ascending. Recorded when
/// [`SolverConfig::record_timeline`](crate::config::SolverConfig) is set.
pub type Timeline = Vec<(SimTime, Activity)>;

/// Per-process statistics of one run.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// Peak active memory in entries (Table 4 reports the max over
    /// processes, in millions of real entries).
    pub mem_peak_entries: f64,
    /// Active memory left at the end of the run (should be ~0: fronts freed,
    /// contribution blocks consumed; factors are not active memory).
    pub mem_final_entries: f64,
    /// State messages sent by this process's mechanism.
    pub state_msgs_sent: u64,
    /// State-message bytes sent.
    pub state_bytes_sent: u64,
    /// Dynamic decisions taken (Type 2 masters only).
    pub decisions: u64,
    /// Time spent computing tasks.
    pub busy: SimDuration,
    /// Time spent blocked in snapshot mode.
    pub blocked: SimDuration,
}

/// Aggregate report of one factorization run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which execution backend produced the run (`"sim"` or `"threaded"`,
    /// the [`ExecBackend::name`](crate::config::ExecBackend::name)).
    pub backend: &'static str,
    /// Simulated factorization (makespan) time — Tables 5 and 7.
    pub factor_time: SimTime,
    /// Per-process details.
    pub procs: Vec<ProcReport>,
    /// Total dynamic decisions — Table 3.
    pub decisions: u64,
    /// Total state messages — Table 6.
    pub state_msgs: u64,
    /// Total state-message bytes.
    pub state_bytes: u64,
    /// Total application (task/data) messages.
    pub app_msgs: u64,
    /// Union of the intervals during which at least one snapshot was in
    /// flight (§4.5: "the total time spent to perform all the snapshot
    /// operations").
    pub snapshot_union_time: SimDuration,
    /// Maximum number of concurrently initiated snapshots (§4.5 reports "at
    /// most 5").
    pub snapshot_max_concurrent: u32,
    /// Snapshots initiated in total (including rebroadcasts).
    pub snapshots_started: u64,
    /// Extra named counters (mechanism message kinds etc.).
    pub counters: StatSet,
    /// View error |view_p(q) − true(q)| in workload units, sampled uniformly
    /// in time over all (p, q) pairs (needs `coherence_probe`).
    pub view_err_time_work: Welford,
    /// Same, memory units.
    pub view_err_time_mem: Welford,
    /// View error sampled at each dynamic decision, master's view only — the
    /// error that actually feeds the schedulers.
    pub view_err_decision_work: Welford,
    /// Same, memory units.
    pub view_err_decision_mem: Welford,
    /// Per-process activity timelines (empty unless recording was enabled).
    pub timelines: Vec<Timeline>,
    /// Frozen metrics registry of the run: MechStats totals and network
    /// counters as counters, plus the latency / snapshot-duration /
    /// view-staleness histograms when the run was observed (see
    /// [`SolverWorld::set_recorder`](crate::engine::SolverWorld::set_recorder)).
    pub metrics: MetricsSnapshot,
    /// View-accuracy report — ground-truth vs. believed views, staleness,
    /// and decision regret (`None` unless
    /// [`SolverConfig::accuracy`](crate::config::SolverConfig::accuracy) was
    /// set).
    pub accuracy: Option<AccuracyReport>,
}

impl RunReport {
    /// Peak active memory over all processes, in raw entries (Table 4).
    pub fn mem_peak_entries(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| p.mem_peak_entries)
            .fold(0.0, f64::max)
    }

    /// Peak active memory over all processes, in millions of entries — the
    /// exact unit of Table 4.
    pub fn mem_peak_millions(&self) -> f64 {
        self.mem_peak_entries() / 1e6
    }

    /// Average compute efficiency: busy time / makespan, averaged over
    /// processes.
    pub fn efficiency(&self) -> f64 {
        if self.factor_time == SimTime::ZERO || self.procs.is_empty() {
            return 0.0;
        }
        let total = self.factor_time.as_secs_f64() * self.procs.len() as f64;
        let busy: f64 = self.procs.iter().map(|p| p.busy.as_secs_f64()).sum();
        busy / total
    }

    /// Time in seconds (convenience for table printing).
    pub fn seconds(&self) -> f64 {
        self.factor_time.as_secs_f64()
    }

    /// The recorded timelines as per-process [`Span`] lists (closed at the
    /// makespan), the shape the `loadex-obs` span/exporter layer consumes.
    pub fn spans(&self) -> Vec<Vec<Span>> {
        self.timelines
            .iter()
            .map(|tl| {
                let transitions: Vec<(SimTime, SpanState)> = tl
                    .iter()
                    .map(|&(t, a)| {
                        let s = match a {
                            Activity::Idle => SpanState::Idle,
                            Activity::Busy => SpanState::Busy,
                            Activity::Blocked => SpanState::Blocked,
                        };
                        (t, s)
                    })
                    .collect();
                span::transitions_to_spans(&transitions, self.factor_time)
            })
            .collect()
    }

    /// Render the recorded timelines as an ASCII Gantt chart of `width`
    /// columns: `#` busy, `S` blocked in the snapshot protocol, `.` idle.
    /// Returns an explanatory placeholder if recording was off.
    pub fn render_gantt(&self, width: usize) -> String {
        if self.timelines.iter().all(|t| t.is_empty()) {
            return "(timeline recording disabled; set SolverConfig::record_timeline)".into();
        }
        span::render_gantt(&self.spans(), self.factor_time, width)
    }
}

/// One process's share of a run, as either backend hands it over.
pub(crate) struct ProcOutcome {
    pub(crate) report: ProcReport,
    pub(crate) stats: MechStats,
    pub(crate) timeline: Timeline,
}

/// Everything a backend hands to [`RunReport::assemble`].
pub(crate) struct RunParts {
    pub(crate) backend: &'static str,
    pub(crate) factor_time: SimTime,
    pub(crate) procs: Vec<ProcOutcome>,
    /// Network counters (`net_*`).
    pub(crate) counters: StatSet,
    pub(crate) app_msgs: u64,
    pub(crate) events_dropped: u64,
    /// The run's histograms.
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) snapshot_union_time: SimDuration,
    pub(crate) snapshot_max_concurrent: u32,
    /// View error sampled in time and at decisions, work then memory.
    pub(crate) view_err: [Welford; 4],
    pub(crate) accuracy: Option<AccuracyReport>,
}

impl RunReport {
    /// Fold the per-process outcomes into the report. One source of truth:
    /// the metrics snapshot carries everything the report's scalar fields
    /// summarize — the per-mechanism totals (MechStats), the network
    /// counters, and the run histograms.
    pub(crate) fn assemble(parts: RunParts) -> RunReport {
        let RunParts {
            backend,
            factor_time,
            procs,
            counters,
            app_msgs,
            events_dropped,
            mut metrics,
            snapshot_union_time,
            snapshot_max_concurrent,
            view_err: [time_work, time_mem, decision_work, decision_mem],
            accuracy,
        } = parts;
        let sum = |f: fn(&MechStats) -> u64| procs.iter().map(|o| f(&o.stats)).sum::<u64>();
        let state_msgs = sum(|s| s.msgs_sent);
        let state_bytes = sum(|s| s.bytes_sent);
        let decisions = sum(|s| s.decisions);
        let snapshots_started = sum(|s| s.snapshots_started);
        let folds = [
            ("state_msgs_sent", state_msgs),
            ("state_bytes_sent", state_bytes),
            ("state_msgs_received", sum(|s| s.msgs_received)),
            ("decisions", decisions),
            ("snapshots_started", snapshots_started),
            ("snapshot_rebroadcasts", sum(|s| s.snapshot_rebroadcasts)),
            ("delayed_answers", sum(|s| s.delayed_answers)),
            ("app_msgs", app_msgs),
            ("events_dropped", events_dropped),
        ];
        for (name, v) in counters.iter().chain(folds) {
            metrics.counters.insert(name.to_string(), v);
        }
        let (procs, timelines): (Vec<ProcReport>, Vec<Timeline>) =
            procs.into_iter().map(|o| (o.report, o.timeline)).unzip();
        let gauges = [
            (
                "mem_peak_entries",
                procs.iter().map(|p| p.mem_peak_entries).fold(0.0, f64::max),
            ),
            ("factor_time_s", factor_time.as_secs_f64()),
            ("snapshot_union_s", snapshot_union_time.as_secs_f64()),
            ("snapshot_max_concurrent", snapshot_max_concurrent as f64),
        ];
        for (name, v) in gauges {
            metrics.gauges.insert(name.to_string(), v);
        }
        RunReport {
            backend,
            factor_time,
            procs,
            decisions,
            state_msgs,
            state_bytes,
            app_msgs,
            snapshot_union_time,
            snapshot_max_concurrent,
            snapshots_started,
            counters,
            view_err_time_work: time_work,
            view_err_time_mem: time_mem,
            view_err_decision_work: decision_work,
            view_err_decision_mem: decision_mem,
            timelines,
            metrics,
            accuracy,
        }
    }
}

fn welford_fields(w: &Welford, out: &mut String) {
    let mut m = JsonMap::new(out);
    m.field("count", &w.count())
        .field("mean", &w.mean())
        .field("stddev", &w.stddev())
        .field("min", &if w.count() == 0 { 0.0 } else { w.min() })
        .field("max", &if w.count() == 0 { 0.0 } else { w.max() });
    m.end();
}

impl Serialize for ProcReport {
    fn serialize_json(&self, out: &mut String) {
        let mut m = JsonMap::new(out);
        m.field("mem_peak_entries", &self.mem_peak_entries)
            .field("mem_final_entries", &self.mem_final_entries)
            .field("state_msgs_sent", &self.state_msgs_sent)
            .field("state_bytes_sent", &self.state_bytes_sent)
            .field("decisions", &self.decisions)
            .field("busy_s", &self.busy.as_secs_f64())
            .field("blocked_s", &self.blocked.as_secs_f64());
        m.end();
    }
}

impl Serialize for RunReport {
    fn serialize_json(&self, out: &mut String) {
        let counters: std::collections::BTreeMap<&str, u64> = self.counters.iter().collect();
        let mut m = JsonMap::new(out);
        m.field("backend", &self.backend)
            .field("factor_time_s", &self.seconds())
            .field("decisions", &self.decisions)
            .field("state_msgs", &self.state_msgs)
            .field("state_bytes", &self.state_bytes)
            .field("app_msgs", &self.app_msgs)
            .field("snapshot_union_s", &self.snapshot_union_time.as_secs_f64())
            .field("snapshot_max_concurrent", &self.snapshot_max_concurrent)
            .field("snapshots_started", &self.snapshots_started)
            .field("mem_peak_entries", &self.mem_peak_entries())
            .field("efficiency", &self.efficiency())
            .field("counters", &counters)
            .field_with("view_err_time_work", |o| {
                welford_fields(&self.view_err_time_work, o)
            })
            .field_with("view_err_time_mem", |o| {
                welford_fields(&self.view_err_time_mem, o)
            })
            .field_with("view_err_decision_work", |o| {
                welford_fields(&self.view_err_decision_work, o)
            })
            .field_with("view_err_decision_mem", |o| {
                welford_fields(&self.view_err_decision_mem, o)
            })
            .field("procs", &self.procs)
            .field("metrics", &self.metrics)
            .field("accuracy", &self.accuracy);
        m.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_max_over_procs() {
        let r = RunReport {
            backend: "sim",
            factor_time: SimTime(2_000_000_000),
            procs: vec![
                ProcReport {
                    mem_peak_entries: 5e6,
                    busy: SimDuration::from_secs(1),
                    ..Default::default()
                },
                ProcReport {
                    mem_peak_entries: 7e6,
                    busy: SimDuration::from_secs(2),
                    ..Default::default()
                },
            ],
            decisions: 0,
            state_msgs: 0,
            state_bytes: 0,
            app_msgs: 0,
            snapshot_union_time: SimDuration::ZERO,
            snapshot_max_concurrent: 0,
            snapshots_started: 0,
            counters: StatSet::new(),
            view_err_time_work: Welford::default(),
            view_err_time_mem: Welford::default(),
            view_err_decision_work: Welford::default(),
            view_err_decision_mem: Welford::default(),
            timelines: vec![],
            metrics: Default::default(),
            accuracy: None,
        };
        assert_eq!(r.mem_peak_entries(), 7e6);
        assert!((r.mem_peak_millions() - 7.0).abs() < 1e-9);
        assert!((r.efficiency() - 0.75).abs() < 1e-9);
        assert!((r.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            backend: "sim",
            factor_time: SimTime::ZERO,
            procs: vec![],
            decisions: 0,
            state_msgs: 0,
            state_bytes: 0,
            app_msgs: 0,
            snapshot_union_time: SimDuration::ZERO,
            snapshot_max_concurrent: 0,
            snapshots_started: 0,
            counters: StatSet::new(),
            view_err_time_work: Welford::default(),
            view_err_time_mem: Welford::default(),
            view_err_decision_work: Welford::default(),
            view_err_decision_mem: Welford::default(),
            timelines: vec![],
            metrics: Default::default(),
            accuracy: None,
        };
        assert_eq!(r.efficiency(), 0.0);
        assert_eq!(r.mem_peak_entries(), 0.0);
    }
}
