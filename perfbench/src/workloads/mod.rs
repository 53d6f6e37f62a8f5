//! The four workloads. Each runs untraced for the end-to-end metrics, or
//! traced for the per-layer ones, and judges every answer it gets.

mod analyze;
mod check;
mod edit;

pub use analyze::{catalog_analyze, fleet_analyze};
pub use check::{fleet_check, print_fleet_db, BUILD_DB_FLAG};
pub use edit::edit_loop;

use crate::corpus::{self, ConfCase, Fault};
use crate::fleet::{self, Member};
use crate::gauge::{Gauge, SET_UP_SAMPLES};
use crate::oracle::{self, Finding, Score};
use crate::stats;
use crate::trace::Layers;
use spex_check::{CheckSession, Report, StaticEnv, Workspace};
use spex_conf::Dialect;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Modules in the fleet workloads. Below this the O(db) terms of the fold
/// and the database load are too small to show.
const FLEET_MODULES: usize = 1024;

/// Set-up is repeated at least this many times, and until this many
/// seconds have passed; `setup_s` is the median. Cheap set-ups thus get
/// enough samples for a steady median, and costly ones three.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;

/// The flag that makes the program time one set-up of its workload, print
/// the time and exit.
pub const SET_UP_ONLY_FLAG: &str = "--set-up-only";

/// What one run measured: answers judged and wrong, and the metrics as
/// `(name, value, unit)`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The run's parameters, as given on the command line.
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time one set-up and exit (`SET_UP_ONLY_FLAG`).
    pub set_up_only: bool,
}

/// Worker threads for the parallel workloads: two, or fewer on a smaller
/// machine.
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Answers judged against their known answers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn score(&mut self, s: Score) {
        self.attempted += s.judged as u64;
        self.failed += s.wrong as u64;
    }

    fn judge(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn traced(self, layers: Layers) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: layers.into_metrics(),
        }
    }
}

/// Runs `make` once and keeps its result; returns it with the time of
/// each set-up (see `SETUPS`), adjusted for the host's slowdown just
/// before and after it (see `gauge`). The other set-ups run
/// in child processes of this program. A set-up repeated in one process
/// reuses the memory the last one freed, or not, as the allocator's state
/// decides; its time then jumps between two levels. In a fresh process
/// every set-up starts from the same state.
fn set_up<T>(cfg: &Config, make: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let mut gauge = Gauge::new();
    gauge.sample_n(SET_UP_SAMPLES);
    let start = gauge.now();
    let kept = make();
    let end = gauge.now();
    gauge.sample_n(SET_UP_SAMPLES);
    let slowdown = gauge.slowdown();
    eprintln!(
        "set-up: {:.4} s raw, host slowdown {slowdown:.3}",
        end - start
    );
    let mut times = vec![(end - start) / gauge.divisor(start, end)];
    if cfg.set_up_only {
        println!("{}", times[0]);
        std::process::exit(0);
    }
    while times.len() < SETUPS || gauge.now() - start < SETUP_SECONDS {
        times.push(set_up_in_child(cfg));
    }
    (kept, times)
}

/// Times one set-up of the run's workload in a child process.
fn set_up_in_child(cfg: &Config) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let seed = cfg.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", cfg.workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", SET_UP_ONLY_FLAG, "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a set-up");
    assert!(out.status.success(), "a set-up failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim().parse().expect("a set-up time")
}

/// What the requests of an untraced run measured.
#[derive(Default)]
struct Requests {
    /// Work items done (parameters, files or edits).
    work: f64,
    /// Seconds spent inside requests.
    busy_s: f64,
    /// Each request's latency, in seconds.
    latencies_s: Vec<f64>,
    /// The process's peak memory after the first call, in MiB.
    first_peak_rss_mib: f64,
}

impl Requests {
    /// Throughput, median latency and tail latency, in ms.
    fn summary(&self) -> (f64, f64, f64) {
        let ms: Vec<f64> = self.latencies_s.iter().map(|s| s * 1e3).collect();
        (
            self.work / self.busy_s,
            stats::median(&ms),
            stats::tail(&ms),
        )
    }
}

/// Calls `call` until `seconds` have passed, finishing the last call.
/// Each call makes one or more requests, pushes the latency of each, in
/// seconds, and returns the work items it did and the seconds it was busy.
/// The host gauge runs between calls, and every timing a call returns is
/// adjusted for the host's slowdown around that call (see `gauge`). The
/// raw figures go to standard error.
fn for_seconds(seconds: f64, mut call: impl FnMut(&mut Vec<f64>) -> (f64, f64)) -> Requests {
    let mut gauge = Gauge::new();
    let mut raw = Requests::default();
    let mut calls = Vec::new();
    loop {
        let (from, first) = (gauge.now(), raw.latencies_s.len());
        let (work, busy_s) = call(&mut raw.latencies_s);
        calls.push((from, gauge.now(), first, busy_s));
        if calls.len() == 1 {
            raw.first_peak_rss_mib = peak_rss_mib();
        }
        raw.work += work;
        raw.busy_s += busy_s;
        gauge.tick();
        if gauge.now() >= seconds {
            break;
        }
    }
    let mut adjusted = Requests {
        work: raw.work,
        first_peak_rss_mib: raw.first_peak_rss_mib,
        ..Requests::default()
    };
    let ends = calls
        .iter()
        .skip(1)
        .map(|c| c.2)
        .chain([raw.latencies_s.len()]);
    for (&(from, to, first, busy_s), end) in calls.iter().zip(ends) {
        let divisor = gauge.divisor(from, to);
        adjusted.busy_s += busy_s / divisor;
        let latencies = raw.latencies_s[first..end].iter().map(|s| s / divisor);
        adjusted.latencies_s.extend(latencies);
    }
    let (throughput, p50, tail) = raw.summary();
    eprintln!(
        "requests: {} (work items {}, busy {:.3} s); raw: {throughput:.2}/s, \
         p50 {p50:.3} ms, tail {tail:.3} ms; host slowdown {:.3}",
        raw.latencies_s.len(),
        raw.work,
        raw.busy_s,
        gauge.slowdown()
    );
    adjusted
}

/// The peak resident set of this process so far, from `/proc`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// What an untraced run measured. Its timings are host-adjusted
/// (`for_seconds`, `set_up`).
struct Measured {
    requests: Requests,
    setups_s: Vec<f64>,
    /// Where a workload repeats one request that builds and drops its own
    /// state, the peak after the first call: later calls only add
    /// allocator noise (README.md, "Peak memory").
    peak_rss_mib: f64,
}

impl Measured {
    fn outcome(self, tally: Tally) -> Outcome {
        let (throughput, p50, tail) = self.requests.summary();
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: vec![
                ("throughput_per_s", throughput, "1/s"),
                ("latency_p50_ms", p50, "ms"),
                ("latency_tail_ms", tail, "ms"),
                ("setup_s", stats::median(&self.setups_s), "s"),
                ("peak_rss_mib", self.peak_rss_mib, "MiB"),
            ],
        }
    }
}

/// One source module to analyze.
struct Source<'a> {
    name: &'a str,
    system: &'a str,
    source: &'a str,
    annotations: &'a str,
    dialect: Dialect,
}

/// A cold analysis: the workspace, its saved db, the wall time of adding
/// every module, reanalyzing and saving, and the part spent adding.
struct Analysis {
    ws: Workspace,
    db: String,
    wall_s: f64,
    add_s: f64,
}

/// Cold analysis of `sources` into one fresh workspace.
fn analyze(sources: &[Source], threads: usize, telemetry: bool) -> Analysis {
    let t = Instant::now();
    let mut ws = Workspace::new(sources[0].system, sources[0].dialect).with_threads(threads);
    if telemetry {
        ws.enable_telemetry();
    }
    let mut add_s = 0.0;
    for s in sources {
        let a = Instant::now();
        ws.add_module(s.name, s.source, s.annotations)
            .unwrap_or_else(|e| panic!("generated module does not load: {e}"));
        add_s += a.elapsed().as_secs_f64();
    }
    black_box(ws.reanalyze());
    let db = ws.db().save_to_string();
    Analysis {
        ws,
        db,
        wall_s: t.elapsed().as_secs_f64(),
        add_s,
    }
}

fn fleet_sources(members: &[Member]) -> Vec<Source<'_>> {
    members
        .iter()
        .map(|m| Source {
            name: &m.name,
            system: "fleet",
            source: &m.gen.source,
            annotations: &m.gen.annotations,
            dialect: m.gen.dialect,
        })
        .collect()
}

/// A fleet, its config corpus, each file's expected verdict and the host
/// the files are judged on.
struct Deployment {
    members: Vec<Member>,
    files: Vec<ConfCase>,
    want: Vec<Option<Finding>>,
    env: StaticEnv,
}

impl Deployment {
    fn new(seed: u64, modules: usize) -> Deployment {
        let members = fleet::sample(seed, modules);
        let files = corpus::build(seed, &members);
        let want = files
            .iter()
            .map(|f| oracle::expected(&f.fault, &members[f.module].gen.truth))
            .collect();
        let env = fleet::host_env(&members);
        Deployment {
            members,
            files,
            want,
            env,
        }
    }
}

/// The unknown keys among `files`.
fn unknown_keys<'f>(files: impl IntoIterator<Item = &'f ConfCase>) -> Vec<&'f str> {
    files
        .into_iter()
        .filter_map(|f| match &f.fault {
            Fault::UnknownKey { key, .. } => Some(key.as_str()),
            _ => None,
        })
        .collect()
}

/// Replays each key as a one-line file; returns the total time.
fn replay_unknown_keys(session: &CheckSession, keys: &[&str]) -> f64 {
    let t = Instant::now();
    for key in keys {
        black_box(session.check_text(&format!("{key} = 1\n")));
    }
    t.elapsed().as_secs_f64()
}

/// Replays config parsing of `texts`; returns the total time.
fn replay_conf_parse<'t>(texts: impl IntoIterator<Item = &'t str>) -> f64 {
    let t = Instant::now();
    for text in texts {
        black_box(spex_conf::ConfFile::parse(text, Dialect::KeyValue));
    }
    t.elapsed().as_secs_f64()
}

/// Whether a JSON Lines rendering holds one finding line per diagnostic
/// and ends with the summary line.
fn rendering_matches(report: &Report, rendered: &str) -> bool {
    let findings: usize = report.files.iter().map(|f| f.diagnostics.len()).sum();
    let lines: Vec<&str> = rendered.lines().collect();
    let finding_lines = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"finding\""))
        .count();
    finding_lines == findings
        && lines
            .last()
            .is_some_and(|l| l.starts_with("{\"type\":\"summary\""))
}
