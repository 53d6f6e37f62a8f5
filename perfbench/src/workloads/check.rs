//! `fleet-check`: the deploy gate over a fleet's config corpus.

use super::{
    analyze, fleet_sources, for_seconds, pool_threads, rendering_matches, replay_conf_parse,
    replay_unknown_keys, set_up, unknown_keys, Config, Deployment, Measured, Outcome, Tally,
    FLEET_MODULES,
};
use crate::fleet;
use crate::oracle::{self, Score};
use crate::stats;
use crate::trace::{self, Layers, Spans};
use spex_check::{CheckSession, ConstraintDb, JsonLinesRenderer, Report};
use spex_obs::Recorder;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Unknown keys replayed per fleet size for the scaling exponent.
const SCALE_KEYS: usize = 200;

/// One-file checks made after each gate, so the time to a first verdict
/// has enough samples for its tail.
const SINGLES_PER_GATE: usize = 6;

/// Step between the files those checks take (coprime to the corpus size,
/// so they visit every file).
const SINGLE_STRIDE: usize = 7919;

/// The layers that partition a gate's wall time.
const LEAVES: &[&str] = &[
    "check.db_load_s",
    "check.session_build_s",
    "conf.parse_s",
    "check.file_s",
    "check.render_s",
];

/// What one deploy gate produced and how long it took.
struct Gate {
    report: Report,
    rendered: String,
    load_s: f64,
    session_s: f64,
    first_verdict_s: f64,
    render_s: f64,
    wall_s: f64,
}

/// One deploy gate: load the db, build a session, check the first file
/// (the one-file `spex check` answer), check the rest on the pool, render
/// the report as JSON Lines.
fn gate(
    dep: &Deployment,
    db_text: &str,
    files: &[(&str, &str)],
    threads: usize,
    recorder: Option<&Arc<Recorder>>,
) -> Gate {
    let t = Instant::now();
    let db = ConstraintDb::load_from_str(db_text).expect("saved db loads");
    let load_s = t.elapsed().as_secs_f64();
    let mut session = CheckSession::new(&db)
        .with_env(&dep.env)
        .with_threads(threads);
    let session_s = t.elapsed().as_secs_f64() - load_s;
    if let Some(rec) = recorder {
        session = session.with_recorder(Arc::clone(rec));
    }
    let (label, text) = files[0];
    let first = session.check_file(label, text);
    let first_verdict_s = t.elapsed().as_secs_f64();
    let rest = session.check_texts(&files[1..]);
    let mut reports = Vec::with_capacity(files.len());
    reports.push(first);
    reports.extend(rest.files);
    let report = Report::from_files(reports);
    let checked_s = t.elapsed().as_secs_f64();
    let rendered = report.render(&JsonLinesRenderer);
    let wall_s = t.elapsed().as_secs_f64();
    Gate {
        report,
        rendered,
        load_s,
        session_s,
        first_verdict_s,
        render_s: wall_s - checked_s,
        wall_s,
    }
}

/// The one-file `spex check`: load the db, build a session, check file
/// `i`. Returns the time to its verdict and whether the verdict is right.
fn single(dep: &Deployment, db_text: &str, files: &[(&str, &str)], i: usize) -> (f64, bool) {
    let t = Instant::now();
    let db = ConstraintDb::load_from_str(db_text).expect("saved db loads");
    let session = CheckSession::new(&db).with_env(&dep.env);
    let (label, text) = files[i];
    let report = session.check_file(label, text);
    let verdict_s = t.elapsed().as_secs_f64();
    let ok = oracle::verdict_matches(&report.diagnostics, dep.want[i].as_ref());
    (verdict_s, ok)
}

/// Judges every file's verdict and the rendering.
fn judge_gate(tally: &mut Tally, dep: &Deployment, gate: &Gate) {
    let wrong = oracle::check_reports(&gate.report.files, &dep.want);
    tally.attempted += dep.files.len() as u64;
    tally.failed += wrong as u64;
    tally.judge(rendering_matches(&gate.report, &gate.rendered));
}

/// The flag that makes the program `print_fleet_db` instead of running a
/// workload.
pub const BUILD_DB_FLAG: &str = "--build-db";

/// Builds the fleet's db in a child process, so that the cold analysis's
/// memory never counts in this process's `peak_rss_mib`: a deploy gate
/// gets a saved db and does not analyze.
fn build_db(seed: u64) -> (String, Score) {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let out = Command::new(exe)
        .args([BUILD_DB_FLAG, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start the db build");
    assert!(out.status.success(), "the db build failed: {}", out.status);
    let text = String::from_utf8(out.stdout).expect("the db is UTF-8");
    let (head, db) = text.split_once('\n').expect("a score line");
    let (judged, wrong) = head.split_once(' ').expect("judged and wrong");
    let score = Score {
        judged: judged.parse().expect("judged count"),
        wrong: wrong.parse().expect("wrong count"),
    };
    (db.to_string(), score)
}

/// The child side of `build_db`: analyzes the fleet of `seed` cold and
/// prints its score against the ground truth, then the saved db.
pub fn print_fleet_db(seed: u64) {
    let members = fleet::sample(seed, FLEET_MODULES);
    let run = analyze(&fleet_sources(&members), pool_threads(), false);
    let score = oracle::score_fleet(run.ws.db(), &members);
    print!("{} {}\n{}", score.judged, score.wrong, run.db);
}

pub fn fleet_check(cfg: &Config) -> Outcome {
    let threads = pool_threads();
    let mut tally = Tally::default();
    let ((dep, db_text, score), setups_s) = set_up(cfg, || {
        let dep = Deployment::new(cfg.seed, FLEET_MODULES);
        let (db, score) = build_db(cfg.seed);
        (dep, db, score)
    });
    tally.score(score);
    let files: Vec<(&str, &str)> = dep
        .files
        .iter()
        .map(|f| (f.label.as_str(), f.text.as_str()))
        .collect();
    if cfg.trace {
        let mut layers = Layers::new();
        judge_gate(
            &mut tally,
            &dep,
            &gate(&dep, &db_text, &files, threads, None),
        );
        let plain = gate(&dep, &db_text, &files, threads, None);
        judge_gate(&mut tally, &dep, &plain);
        let rec = Arc::new(Recorder::new());
        let run = gate(&dep, &db_text, &files, threads, Some(&rec));
        judge_gate(&mut tally, &dep, &run);
        let snap = rec.snapshot();
        let spans = Spans::fold(&snap, threads);
        trace::check_layers(&mut layers, &snap, &spans, threads);
        trace::pool_layers(&mut layers, &snap);
        layers.add("check.db_load_s", run.load_s);
        layers.add("check.session_build_s", run.session_s);
        layers.add("check.render_s", run.render_s);
        layers.add("check.report_bytes", run.rendered.len() as f64);
        layers.set("trace_overhead_ratio", run.wall_s / plain.wall_s);
        // Replays of work that ran on the pool count 1/threads, like the
        // pool's spans.
        let parse_s = replay_conf_parse(dep.files.iter().map(|f| f.text.as_str()));
        layers.add("conf.parse_s", parse_s / threads as f64);
        let db = ConstraintDb::load_from_str(&db_text).expect("saved db loads");
        layers.set("check.db_bytes", db_text.len() as f64);
        layers.set("check.db_params", db.params.len() as f64);
        layers.set("check.db_constraints", db.constraint_count() as f64);
        let session = CheckSession::new(&db).with_env(&dep.env).with_threads(1);
        let keys = unknown_keys(&dep.files);
        layers.add("check.unknown_keys", keys.len() as f64);
        let keys_s = replay_unknown_keys(&session, &keys);
        layers.add("check.unknown_key_s", keys_s / threads as f64);
        layers.set("untracked_s", run.wall_s - layers.sum(LEAVES));
        scaling(&mut layers, cfg.seed, &db_text, &db, threads);
        return tally.traced(layers);
    }
    let mut next = 0usize;
    let requests = for_seconds(cfg.seconds, |latencies| {
        let run = gate(&dep, &db_text, &files, threads, None);
        judge_gate(&mut tally, &dep, &run);
        latencies.push(run.first_verdict_s);
        for _ in 0..SINGLES_PER_GATE {
            next = (next + SINGLE_STRIDE) % files.len();
            let (verdict_s, ok) = single(&dep, &db_text, &files, next);
            latencies.push(verdict_s);
            tally.judge(ok);
        }
        (files.len() as f64, run.wall_s)
    });
    Measured {
        peak_rss_mib: requests.first_peak_rss_mib,
        requests,
        setups_s,
    }
    .outcome(tally)
}

/// Median of `n` timings of `f`.
fn median_time(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// The scaling exponents of the db load, the session build and the
/// unknown-key path: log2 of the time at the full fleet over the time at
/// half of it (a prefix of the same members and keys). 1.0 is linear.
fn scaling(layers: &mut Layers, seed: u64, full_text: &str, full: &ConstraintDb, threads: usize) {
    let half_dep = Deployment::new(seed, FLEET_MODULES / 2);
    let half_text = analyze(&fleet_sources(&half_dep.members), threads, false).db;
    let half = ConstraintDb::load_from_str(&half_text).expect("saved db loads");
    let load = |text: &str| {
        median_time(3, || {
            black_box(ConstraintDb::load_from_str(text).expect("saved db loads"));
        })
    };
    let load_exp = trace::scale_exp(load(full_text), load(&half_text));
    layers.set("check.db_load_scale_exp", load_exp);
    let build = |db: &ConstraintDb| {
        median_time(15, || {
            black_box(CheckSession::new(db));
        })
    };
    layers.set(
        "check.session_build_scale_exp",
        trace::scale_exp(build(full), build(&half)),
    );
    let keys: Vec<&str> = unknown_keys(&half_dep.files)
        .into_iter()
        .take(SCALE_KEYS)
        .collect();
    let lookup = |db: &ConstraintDb| {
        let session = CheckSession::new(db).with_threads(1);
        median_time(3, || {
            replay_unknown_keys(&session, &keys);
        })
    };
    layers.set(
        "check.unknown_key_scale_exp",
        trace::scale_exp(lookup(full), lookup(&half)),
    );
}
