//! Turns runs into the benchmark's named metrics and its result line.
//!
//! Units: `s` is host (simulator) wall time at the reference machine speed
//! ([`crate::calibrate`]), `sim_s` is the modelled cluster's clock.

use accelmr_des::ActorCost;

use crate::calibrate::REFERENCE_S;
use crate::workloads::Run;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// What the value rests on, for the printed table.
    pub samples: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: String) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The metrics a user of the simulator sees, from the untraced runs.
pub fn end_to_end(timed: &[Run], peak_rss_mb: f64) -> Vec<Metric> {
    let n = timed.len();
    // Host times at the reference speed, with the raw median beside them.
    let host = |name: &'static str, raw: fn(&Run) -> f64| {
        let scaled: Vec<f64> = timed.iter().map(|r| raw(r) * r.scale).collect();
        let raws: Vec<f64> = timed.iter().map(raw).collect();
        let loops: Vec<f64> = timed.iter().map(|r| REFERENCE_S / r.scale).collect();
        let note = format!(
            "median of {n} runs at reference speed; raw median {:.6} s, calibration loop median {:.6} s",
            median(&raws),
            median(&loops)
        );
        metric(name, "s", median(&scaled), note)
    };
    let jobs: usize = timed.iter().map(|r| r.jobs).sum();
    let ok: usize = jobs - timed.iter().map(Run::failed_jobs).sum::<usize>();
    vec![
        host("wall_s", |r| r.wall_s),
        host("setup_s", |r| r.setup_s),
        metric(
            "peak_rss_mb",
            "MB",
            peak_rss_mb,
            "VmHWM after the first run".into(),
        ),
        metric(
            "sim_makespan_s",
            "sim_s",
            timed[0].makespan_s(),
            format!("identical in all {n} runs"),
        ),
        metric(
            "ok_job_ratio",
            "ratio",
            ok as f64 / jobs as f64,
            format!("{ok} of {jobs} jobs"),
        ),
    ]
}

/// Host time and events of the actor classes whose name starts with one
/// of `prefixes`.
fn layer_cost(costs: &[ActorCost], prefixes: &[&str]) -> (u64, u64) {
    costs
        .iter()
        .filter(|c| prefixes.iter().any(|p| c.class.starts_with(p)))
        .fold((0, 0), |(ns, e), c| (ns + c.nanos, e + c.events))
}

/// Actor classes of each layer, by actor-name prefix.
const FABRIC: &[&str] = &["net."];
const NAMENODE: &[&str] = &["dfs.namenode"];
const DATANODE: &[&str] = &["dfs.datanode"];
const JOBTRACKER: &[&str] = &["mr.jobtracker"];
const TASKTRACKER: &[&str] = &["mr.tasktracker"];
const SESSION: &[&str] = &["mr.session"];
const NAMED: [&[&str]; 6] = [FABRIC, NAMENODE, DATANODE, JOBTRACKER, TASKTRACKER, SESSION];

/// The per-layer split, from the traced run with the median wall time;
/// `tracing_overhead` and `des.events_per_s` compare against the
/// untraced runs. Host times are at the reference speed, like
/// [`end_to_end`]'s.
pub fn per_layer(timed: &[Run], traced: &[Run]) -> Vec<Metric> {
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s * r.scale).collect();
    let untraced_wall = median(&walls);
    let mut by_wall: Vec<&Run> = traced.iter().collect();
    by_wall.sort_by(|a, b| (a.wall_s * a.scale).total_cmp(&(b.wall_s * b.scale)));
    let t = by_wall[by_wall.len() / 2];
    let costs = &t.actor_costs;
    let wall = t.wall_s * t.scale;
    let secs = |ns: u64| ns as f64 * t.scale / 1e9;

    let traced_note = || format!("median-wall traced run of {}", traced.len());
    let count =
        |name: &'static str, value: u64| metric(name, "count", value as f64, "traced run".into());
    let bytes =
        |name: &'static str, value: u64| metric(name, "B", value as f64, "traced run".into());
    let host = |name: &'static str, layer: &[&str]| {
        metric(name, "s", secs(layer_cost(costs, layer).0), traced_note())
    };
    let ns_per_event = |name: &'static str, layer: &[&str]| {
        let (ns, events) = layer_cost(costs, layer);
        metric(name, "ns", secs(ns) * 1e9 / events as f64, traced_note())
    };
    let actors_ns: u64 = costs.iter().map(|c| c.nanos).sum();
    let named_ns: u64 = NAMED.iter().map(|l| layer_cost(costs, l).0).sum();
    let solves = t.counter("net.solver_calls");
    let visits = t.counter("net.comp_flow_visits");
    let reads = t.local_reads + t.remote_reads;
    let tasks = &t.map_task_s;

    vec![
        count("des.events", t.fingerprint.events),
        metric(
            "des.events_per_s",
            "1/s",
            t.fingerprint.events as f64 / untraced_wall,
            format!("median wall of {} untraced runs", timed.len()),
        ),
        metric("des.self_s", "s", wall - secs(actors_ns), traced_note()),
        count("des.queue_pushes", t.queue.pushes),
        count("des.queue_peak_depth", t.queue.peak_depth),
        count("des.timer_rearms", t.queue.timer_rearms),
        host("net.fabric.host_s", FABRIC),
        ns_per_event("net.fabric.ns_per_event", FABRIC),
        count("net.solver_calls", solves),
        count("net.comp_flow_visits", visits),
        metric(
            "net.visits_per_solve",
            "count",
            visits as f64 / solves as f64,
            "traced run".into(),
        ),
        count("net.flows_done", t.counter("net.flows_done")),
        count("net.flows_aborted", t.counter("net.flows_aborted")),
        host("dfs.namenode.host_s", NAMENODE),
        host("dfs.datanode.host_s", DATANODE),
        bytes("dfs.bytes_served", t.counter("dfs.bytes_served")),
        bytes("dfs.bytes_written", t.counter("dfs.bytes_written")),
        metric(
            "dfs.remote_read_frac",
            "ratio",
            t.remote_reads as f64 / reads as f64,
            format!("{reads} record reads"),
        ),
        count("dfs.blocks_replicated", t.counter("dfs.blocks_replicated")),
        host("mapred.jobtracker.host_s", JOBTRACKER),
        ns_per_event("mapred.jobtracker.ns_per_event", JOBTRACKER),
        host("mapred.tasktracker.host_s", TASKTRACKER),
        host("mapred.session.host_s", SESSION),
        count("mapred.heartbeats", t.counter("mr.heartbeats")),
        count("mapred.assignments", t.counter("mr.assignments")),
        count("mapred.preemptions", t.counter("mr.preemptions")),
        metric(
            "mapred.useful_attempt_ratio",
            "ratio",
            t.tasks_ok as f64 / t.fingerprint.attempts as f64,
            format!("{} of {} attempts", t.tasks_ok, t.fingerprint.attempts),
        ),
        metric(
            "mapred.wasted_slot_frac",
            "ratio",
            t.wasted_slot_seconds / t.slot_seconds,
            format!("{:.0} slot-s", t.slot_seconds),
        ),
        metric(
            "mapred.map_task_p50_s",
            "sim_s",
            median(tasks),
            format!("{} map tasks", tasks.len()),
        ),
        metric(
            "mapred.map_task_max_s",
            "sim_s",
            tasks.last().copied().unwrap_or(0.0),
            format!("{} map tasks", tasks.len()),
        ),
        metric(
            "other.host_s",
            "s",
            secs(actors_ns - named_ns),
            traced_note(),
        ),
        metric("trace.wall_s", "s", wall, traced_note()),
        metric(
            "tracing_overhead",
            "ratio",
            wall / untraced_wall,
            format!("over median wall of {} untraced runs", timed.len()),
        ),
    ]
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
