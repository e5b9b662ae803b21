//! Wall-clock benchmark of semcluster.
//!
//! ```text
//! perfbench --workload <paper-build|sim-steady|serve-rw>
//!           --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! Each invocation runs one workload in this process, repeating whole
//! cycles (engine workloads, as many as `--seconds` allows at a nominal
//! cycle time) or rounds (`serve-rw`, until `--seconds` have passed),
//! and reports medians over them. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs untraced and
//! traced cycles and prints the per-layer metrics. Human-readable
//! detail goes to stderr; the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod checks;
mod engine;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use engine::EngineWorkload;

#[global_allocator]
static ALLOC: semcluster_obs::CountingAlloc = semcluster_obs::CountingAlloc;

/// Whole rounds every `serve-rw` run makes, however short `--seconds`
/// is.
const MIN_ROUNDS: usize = 5;

/// Metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Engine(EngineWorkload),
    ServeRw,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "paper-build" => Workload::Engine(EngineWorkload::PaperBuild),
            "sim-steady" => Workload::Engine(EngineWorkload::SimSteady),
            "serve-rw" => Workload::ServeRw,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scratch,
    })
}

/// What a run hands back for the result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    violations: Vec<String>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn engine_e2e(wl: EngineWorkload, args: &Args) -> Outcome {
    let mut violations = Vec::new();
    let mut cycles: Vec<engine::Cycle> = Vec::new();
    for k in 0..wl.cycles(args.seconds.as_secs_f64()) {
        let cfg = wl.config(args.seed, k);
        let c = engine::cycle(&cfg, false, cycles.is_empty(), None, &mut violations);
        eprintln!(
            "cycle {}: setup {:.3} s, run {:.3} s ({} txns), teardown {:.3} s",
            cycles.len(),
            c.setup_s,
            c.run_s,
            c.txns,
            c.teardown_s
        );
        cycles.push(c);
    }
    let pick = |f: fn(&engine::Cycle) -> f64| median(cycles.iter().map(f).collect());
    let mut metrics = Metrics::default();
    metrics.push("setup_s", pick(|c| c.setup_s), "s");
    metrics.push("teardown_s", pick(|c| c.teardown_s), "s");
    metrics.push("total_s", pick(|c| c.total_s), "s");
    metrics.push("txn_per_s", pick(|c| c.txns as f64 / c.run_s), "1/s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome {
        attempted: cycles.iter().map(|c| c.txns).sum(),
        failed: 0,
        metrics,
        violations,
    }
}

fn engine_traced(wl: EngineWorkload, args: &Args) -> Outcome {
    let cfg = wl.config(args.seed, 0);
    let mut violations = Vec::new();
    let untraced = engine::cycle(&cfg, false, true, None, &mut violations);
    let traced = engine::cycle(&cfg, true, false, None, &mut violations);
    if let Err(e) = checks::reports_equal(&untraced.report, &traced.report) {
        violations.push(e);
    }
    let replay = engine::replay_setup(&cfg);
    eprintln!(
        "{} objects on {} pages; set-up {:.3} s: build {:.3} s, load {:.3} s; drop {:.3} s",
        replay.objects,
        replay.pages,
        untraced.setup_s,
        replay.build_s,
        replay.load_s,
        replay.drop_s
    );
    // The file store is measured on sim-steady's traced run only.
    let durable = (wl == EngineWorkload::SimSteady).then(|| {
        let cfg = EngineWorkload::durable_config(args.seed);
        engine::cycle(&cfg, false, false, Some(&args.scratch), &mut violations)
    });
    let stats = durable.as_ref().and_then(|c| c.durable);
    if let Some(d) = stats {
        eprintln!(
            "durable: {} commits, {} fsyncs, recovery {:.3} s",
            d.commits, d.fsyncs, d.recovery_s
        );
    }
    let mut metrics = Metrics::default();
    engine::layer_metrics(
        &mut metrics,
        Some((&traced, &untraced, &replay)),
        stats,
        &mut violations,
    );
    serve_layers(&mut metrics, &[]);
    metrics.push(
        "obs.trace_overhead_s",
        traced.total_s - untraced.total_s,
        "s",
    );
    Outcome {
        attempted: untraced.txns + traced.txns + durable.as_ref().map_or(0, |c| c.txns),
        // A commit whose fsync failed was never acknowledged: the one
        // way a transaction fails here.
        failed: stats.map_or(0, |d| d.failed_commits),
        metrics,
        violations,
    }
}

/// Run rounds for the run's length; `traced` retains per-request
/// attribution records on the server (the serve path's trace).
fn serve_rounds(
    args: &Args,
    traced: impl Fn(usize) -> bool,
) -> (Vec<(bool, serve::Round)>, u64, Vec<String>) {
    let mut rounds = Vec::new();
    let mut failed = 0u64;
    let mut violations = Vec::new();
    let start = Instant::now();
    let mut index = 0usize;
    while index < MIN_ROUNDS || start.elapsed() < args.seconds {
        let t = traced(index);
        match serve::round(args.seed, index as u64, t) {
            Ok(r) => {
                if let Err(e) = checks::serve_accounting(&r.load, &r.server) {
                    violations.push(format!("round {index}: {e}"));
                }
                let l = &r.load;
                eprintln!(
                    "round {index}: {} txns attempted, {} acked, {} overloaded, {} retry-exhausted, \
                     {} deadline, {} lost; {:.3} s run, p50 {:.3} ms, p99 {:.3} ms",
                    l.attempted,
                    l.acked,
                    l.rejected_overloaded,
                    l.rejected_retry,
                    l.rejected_deadline,
                    l.lost,
                    r.run_s,
                    l.p50_ms,
                    l.p99_ms
                );
                rounds.push((t, r));
            }
            Err(e) => {
                eprintln!("round {index} failed: {e}");
                failed += 1;
            }
        }
        index += 1;
    }
    let sum = |f: fn(&semcluster::serve::LoadSummary) -> u64| -> u64 {
        rounds.iter().map(|(_, r)| f(&r.load)).sum()
    };
    eprintln!(
        "serve-rw: {} rounds ({failed} failed), {} txns attempted: {} acked (the latency \
         samples), {} overloaded, {} retry-exhausted, {} deadline, {} lost",
        rounds.len() as u64 + failed,
        sum(|l| l.attempted),
        sum(|l| l.acked),
        sum(|l| l.rejected_overloaded),
        sum(|l| l.rejected_retry),
        sum(|l| l.rejected_deadline),
        sum(|l| l.lost)
    );
    (rounds, failed, violations)
}

fn serve_e2e(args: &Args) -> Outcome {
    let (rounds, failed, violations) = serve_rounds(args, |_| false);
    let pick = |f: fn(&serve::Round) -> f64| median(rounds.iter().map(|(_, r)| f(r)).collect());
    let mut metrics = Metrics::default();
    metrics.push("setup_s", pick(|r| r.setup_s), "s");
    metrics.push("teardown_s", pick(|r| r.teardown_s), "s");
    metrics.push("total_s", pick(serve::Round::total_s), "s");
    metrics.push("txn_per_s", pick(|r| r.load.acked as f64 / r.run_s), "1/s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome {
        attempted: rounds.len() as u64 + failed,
        failed,
        metrics,
        violations,
    }
}

/// The serve layers, from the traced rounds' final server reports
/// (zero where the workload has no server).
fn serve_layers(m: &mut Metrics, rounds: &[&serve::Round]) {
    let med = |f: &dyn Fn(&serve::Round) -> f64| median(rounds.iter().map(|r| f(r)).collect());
    let per_ktxn = |f: fn(&semcluster::serve::LoadSummary) -> u64| {
        let attempted: u64 = rounds.iter().map(|r| r.load.attempted).sum();
        let n: u64 = rounds.iter().map(|r| f(&r.load)).sum();
        1e3 * n as f64 / attempted.max(1) as f64
    };
    m.push(
        "serve.admission_wait_ms",
        med(&|r| serve::span_mean_ms(&r.server, "admission_wait")),
        "ms",
    );
    m.push(
        "serve.lock_wait_ms",
        med(&|r| serve::span_mean_ms(&r.server, "lock_wait")),
        "ms",
    );
    m.push(
        "serve.exec_ms",
        med(&|r| serve::span_mean_ms(&r.server, "engine_exec")),
        "ms",
    );
    m.push(
        "serve.commit_wait_ms",
        med(&|r| serve::span_mean_ms(&r.server, "commit_wait")),
        "ms",
    );
    m.push(
        "serve.reply_write_ms",
        med(&|r| serve::span_mean_ms(&r.server, "reply_write")),
        "ms",
    );
    m.push(
        "wal.txns_per_force",
        med(&|r| r.server.group_txns as f64 / r.server.group_forces.max(1) as f64),
        "count",
    );
    m.push(
        "serve.frame_codec_us",
        if rounds.is_empty() {
            0.0
        } else {
            serve::frame_codec_us()
        },
        "us",
    );
    m.push("serve.start_s", med(&|r| r.setup_s), "s");
    m.push("serve.drain_s", med(&|r| r.teardown_s), "s");
    m.push("serve.txn_p50_ms", med(&|r| r.load.p50_ms), "ms");
    m.push("serve.txn_p99_ms", med(&|r| r.load.p99_ms), "ms");
    m.push(
        "serve.overloaded_per_ktxn",
        per_ktxn(|l| l.rejected_overloaded),
        "count",
    );
    m.push(
        "serve.retry_exhausted_per_ktxn",
        per_ktxn(|l| l.rejected_retry),
        "count",
    );
    m.push(
        "serve.deadline_per_ktxn",
        per_ktxn(|l| l.rejected_deadline),
        "count",
    );
    m.push("serve.lost_per_ktxn", per_ktxn(|l| l.lost), "count");
}

fn serve_traced(args: &Args) -> Outcome {
    // Untraced and traced rounds alternate, so both see the same
    // machine; the overhead is the difference of their medians.
    let (rounds, failed, violations) = serve_rounds(args, |i| i % 2 == 1);
    let of = |t: bool| -> Vec<&serve::Round> {
        rounds
            .iter()
            .filter(|(traced, _)| *traced == t)
            .map(|(_, r)| r)
            .collect()
    };
    let (traced, untraced) = (of(true), of(false));
    let mut metrics = Metrics::default();
    engine::layer_metrics(&mut metrics, None, None, &mut Vec::new());
    serve_layers(&mut metrics, &traced);
    let total = |rs: &[&serve::Round]| median(rs.iter().map(|r| r.total_s()).collect());
    metrics.push(
        "obs.trace_overhead_s",
        total(&traced) - total(&untraced),
        "s",
    );
    Outcome {
        attempted: rounds.len() as u64 + failed,
        failed,
        metrics,
        violations,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: scratch {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let out = match (args.workload, args.trace) {
        (Workload::Engine(wl), false) => engine_e2e(wl, &args),
        (Workload::Engine(wl), true) => engine_traced(wl, &args),
        (Workload::ServeRw, false) => serve_e2e(&args),
        (Workload::ServeRw, true) => serve_traced(&args),
    };
    for v in &out.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
