//! `edit-loop`: one client editing the warm fleet workspace, checking the
//! edited module's files after every edit.

use super::analyze::replay_front_end;
use super::{
    analyze, fleet_sources, for_seconds, peak_rss_mib, pool_threads, rendering_matches,
    replay_conf_parse, replay_unknown_keys, set_up, unknown_keys, Config, Deployment, Measured,
    Outcome, Requests, Source, Tally, FLEET_MODULES,
};
use crate::edits::{self, LiveModule};
use crate::oracle::{self, Score};
use crate::rng::Rng;
use crate::trace::{self, Layers, Spans};
use spex_check::{CheckSession, ConstraintDb, JsonLinesRenderer, Workspace};
use spex_conf::Dialect;
use spex_core::PassCounts;
use std::time::Instant;

/// Edits per phase of the traced run.
const TRACED_EDITS: usize = 300;

/// Fleets an untraced run edits in turn, each for an equal share of the
/// run. Run after run, the same O(db) work took up to a tenth longer on
/// some seeds' fleets than on others', as their heaps lay out differently.
/// With one fleet per run, that set the spread between seeds.
const FLEETS: u64 = 4;

/// The layers that partition an edit step's wall time.
const LEAVES: &[&str] = &[
    "check.update_module_s",
    "dataflow.prepare_s",
    "dataflow.taint_s",
    "dataflow.summary_s",
    "core.mapping_s",
    "core.infer.basic_type_s",
    "core.infer.semantic_type_s",
    "core.infer.range_s",
    "core.infer.control_dep_s",
    "core.infer.value_rel_s",
    "react.classify_s",
    "check.fold_s",
    "check.session_build_s",
    "conf.parse_s",
    "check.file_s",
    "check.render_s",
];

/// The warm workspace the loop drives, with the sources it holds.
struct Warm {
    dep: Deployment,
    live: Vec<LiveModule>,
    ws: Workspace,
    /// Indices into `dep.files` of each module's files.
    files_of: Vec<Vec<usize>>,
}

/// Generates the deployment and analyzes it cold at one thread.
fn warm_up(seed: u64) -> (Warm, Score) {
    let dep = Deployment::new(seed, FLEET_MODULES);
    let run = analyze(&fleet_sources(&dep.members), 1, false);
    let score = oracle::score_fleet(run.ws.db(), &dep.members);
    let ws = run.ws.with_static_env(dep.env.clone());
    let live = dep.members.iter().map(LiveModule::new).collect();
    let mut files_of = vec![Vec::new(); dep.members.len()];
    for (i, f) in dep.files.iter().enumerate() {
        files_of[f.module].push(i);
    }
    let warm = Warm {
        dep,
        live,
        ws,
        files_of,
    };
    (warm, score)
}

/// Where the steps' time went, summed over steps.
#[derive(Default)]
struct StepTimes {
    update_s: f64,
    reanalyze_s: f64,
    session_s: f64,
    render_s: f64,
    report_bytes: usize,
    params_reinferred: usize,
    passes: PassCounts,
}

/// One step: edit a module, reanalyze, check the module's files and
/// render them as JSON Lines. Returns the step's latency and the module
/// it edited.
fn edit_step(
    warm: &mut Warm,
    rng: &mut Rng,
    tally: &mut Tally,
    times: &mut StepTimes,
) -> (f64, usize) {
    let (m, kind) = edits::next_step(rng, warm.live.len());
    warm.live[m].apply(kind, rng);
    let source = warm.live[m].source();
    let files: Vec<(&str, &str)> = warm.files_of[m]
        .iter()
        .map(|&i| {
            let f = &warm.dep.files[i];
            (f.label.as_str(), f.text.as_str())
        })
        .collect();
    let t = Instant::now();
    warm.ws
        .update_module(&warm.live[m].name, &source)
        .unwrap_or_else(|e| panic!("edited module does not load: {e}"));
    let updated = t.elapsed().as_secs_f64();
    let analysis = warm.ws.reanalyze();
    let reanalyzed = t.elapsed().as_secs_f64();
    let session = warm.ws.session();
    let sessioned = t.elapsed().as_secs_f64();
    let report = session.check_texts(&files);
    let checked = t.elapsed().as_secs_f64();
    let rendered = report.render(&JsonLinesRenderer);
    let wall = t.elapsed().as_secs_f64();
    times.update_s += updated;
    times.reanalyze_s += reanalyzed - updated;
    times.session_s += sessioned - reanalyzed;
    times.render_s += wall - checked;
    times.report_bytes += rendered.len();
    times.params_reinferred += analysis.params_reinferred;
    times.passes.accumulate(&analysis.passes);
    let truth = &warm.live[m].truth;
    for (r, &i) in report.files.iter().zip(&warm.files_of[m]) {
        let want = oracle::expected(&warm.dep.files[i].fault, truth);
        tally.judge(oracle::verdict_matches(&r.diagnostics, want.as_ref()));
    }
    tally.judge(rendering_matches(&report, &rendered));
    (wall, m)
}

/// A fleet's final sources and warm db, kept after its workspace is
/// dropped.
struct Final {
    /// Name, final source, annotations and dialect of each module.
    modules: Vec<(String, String, String, Dialect)>,
    db: String,
}

impl Final {
    fn of(warm: &Warm) -> Final {
        let modules = warm
            .dep
            .members
            .iter()
            .zip(&warm.live)
            .map(|(m, live)| {
                let annotations = m.gen.annotations.clone();
                (m.name.clone(), live.source(), annotations, m.gen.dialect)
            })
            .collect();
        Final {
            modules,
            db: warm.ws.db().save_to_string(),
        }
    }

    /// The warm db must be byte-identical to a cold analysis of the final
    /// sources.
    fn judge(&self, tally: &mut Tally) {
        let cold: Vec<Source> = self
            .modules
            .iter()
            .map(|(name, source, annotations, dialect)| Source {
                name,
                system: "fleet",
                source,
                annotations,
                dialect: *dialect,
            })
            .collect();
        let cold_db = analyze(&cold, pool_threads(), false).db;
        tally.judge(cold_db == self.db);
    }
}

/// The untraced run: `FLEETS` fleets in turn, the first from set-up and
/// the others warmed up between their turns. Each final db is judged
/// after the peak memory is read, so that the cold analyses that judge
/// them do not count in it.
fn timed_loop(cfg: &Config, first: Warm, tally: &mut Tally) -> (Requests, f64) {
    let mut first = Some(first);
    let mut requests = Requests::default();
    let mut finals = Vec::new();
    for k in 0..FLEETS {
        let seed = cfg.seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut warm = first.take().unwrap_or_else(|| {
            let (warm, score) = warm_up(seed);
            tally.score(score);
            warm
        });
        let mut rng = Rng::new(seed ^ 0xed17_ed17);
        let mut times = StepTimes::default();
        let share = for_seconds(cfg.seconds / FLEETS as f64, |latencies| {
            let wall_s = edit_step(&mut warm, &mut rng, tally, &mut times).0;
            latencies.push(wall_s);
            (1.0, wall_s)
        });
        requests.work += share.work;
        requests.busy_s += share.busy_s;
        requests.latencies_s.extend(share.latencies_s);
        finals.push(Final::of(&warm));
    }
    let peak_rss_mib = peak_rss_mib();
    for f in &finals {
        f.judge(tally);
    }
    (requests, peak_rss_mib)
}

pub fn edit_loop(cfg: &Config) -> Outcome {
    let mut tally = Tally::default();
    let ((mut warm, score), setups_s) = set_up(cfg, || warm_up(cfg.seed));
    tally.score(score);
    if !cfg.trace {
        let (requests, peak_rss_mib) = timed_loop(cfg, warm, &mut tally);
        let measured = Measured {
            requests,
            setups_s,
            peak_rss_mib,
        };
        return measured.outcome(tally);
    }
    let mut rng = Rng::new(cfg.seed ^ 0xed17_ed17);
    let mut times = StepTimes::default();
    // Warm-up edits, then untraced and traced phases of the same length.
    for _ in 0..TRACED_EDITS {
        edit_step(&mut warm, &mut rng, &mut tally, &mut times);
    }
    let plain_s: f64 = (0..TRACED_EDITS)
        .map(|_| edit_step(&mut warm, &mut rng, &mut tally, &mut times).0)
        .sum();
    let rebuilds = warm.ws.session_rebuilds();
    let rec = warm.ws.enable_telemetry();
    let mut times = StepTimes::default();
    let mut wall_s = 0.0;
    let mut edited = Vec::with_capacity(TRACED_EDITS);
    for _ in 0..TRACED_EDITS {
        let (w, m) = edit_step(&mut warm, &mut rng, &mut tally, &mut times);
        wall_s += w;
        edited.push((m, warm.live[m].source()));
    }
    let snap = rec.snapshot();
    let spans = Spans::fold(&snap, 1);
    let mut layers = Layers::new();
    trace::analysis_layers(&mut layers, &snap, &spans);
    trace::check_layers(&mut layers, &snap, &spans, 1);
    trace::pool_layers(&mut layers, &snap);
    layers.add("check.update_module_s", times.update_s);
    layers.add("check.reanalyze_s", times.reanalyze_s);
    layers.add("check.session_build_s", times.session_s);
    layers.add("check.render_s", times.render_s);
    layers.add("check.report_bytes", times.report_bytes as f64);
    layers.add("check.params_reinferred", times.params_reinferred as f64);
    let passes = &times.passes;
    layers.set(
        "core.cached_fraction",
        passes.cached_fraction().unwrap_or(0.0),
    );
    // The workspace caches reaction verdicts itself and counts them only
    // in its reports.
    let react_total = passes.react_cache_hits + passes.react_runs;
    layers.set(
        "react.hit_ratio",
        passes.react_cache_hits as f64 / react_total.max(1) as f64,
    );
    let rebuilt = warm.ws.session_rebuilds() - rebuilds;
    layers.set("check.session_rebuilds", rebuilt as f64);
    // Replays on the traced steps' inputs.
    replay_front_end(&mut layers, edited.iter().map(|(_, src)| src.as_str()));
    let checked: Vec<_> = edited
        .iter()
        .flat_map(|(m, _)| warm.files_of[*m].iter().map(|&i| &warm.dep.files[i]))
        .collect();
    let parse_s = replay_conf_parse(checked.iter().map(|f| f.text.as_str()));
    layers.add("conf.parse_s", parse_s);
    let keys = unknown_keys(checked.iter().copied());
    layers.add("check.unknown_keys", keys.len() as f64);
    let session = CheckSession::new(warm.ws.db())
        .with_env(&warm.dep.env)
        .with_threads(1);
    layers.add("check.unknown_key_s", replay_unknown_keys(&session, &keys));
    let t = Instant::now();
    let text = warm.ws.db().save_to_string();
    layers.add("check.db_save_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let db = ConstraintDb::load_from_str(&text).expect("saved db loads");
    layers.add("check.db_load_s", t.elapsed().as_secs_f64());
    layers.set("check.db_bytes", text.len() as f64);
    layers.set("check.db_params", db.params.len() as f64);
    layers.set("check.db_constraints", db.constraint_count() as f64);
    layers.set("untracked_s", wall_s - layers.sum(LEAVES));
    layers.set("trace_overhead_ratio", wall_s / plain_s);
    Final::of(&warm).judge(&mut tally);
    tally.traced(layers)
}
