//! `fleet-analyze` and `catalog-analyze`: cold analysis, scored against
//! the generator's ground truth.

use super::{
    analyze, fleet_sources, for_seconds, pool_threads, set_up, Analysis, Config, Measured, Outcome,
    Source, Tally, FLEET_MODULES,
};
use crate::fleet;
use crate::oracle::{self, Score};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, Layers, Spans};
use spex_core::accuracy::TruthConstraint;
use spex_systems::{GenOutput, SystemSpec};
use std::hint::black_box;
use std::time::Instant;

/// Layers that partition an analysis's wall time; what they leave over
/// is `untracked_s`.
const LEAVES: &[&str] = &[
    "lang.parse_s",
    "ir.lower_s",
    "core.fingerprint_s",
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
    "check.db_save_s",
];

/// Fold timings per fleet size behind `check.fold_scale_exp`.
const FOLD_SAMPLES: usize = 3;

/// Times the front end `add_module` runs: parse, lower and fingerprint of
/// each source, replayed on the same inputs.
pub(super) fn replay_front_end<'s>(
    layers: &mut Layers,
    sources: impl IntoIterator<Item = &'s str>,
) {
    for src in sources {
        let t = Instant::now();
        let program = spex_lang::parse_program(src).expect("generated code parses");
        layers.add("lang.parse_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let module = spex_ir::lower_program(&program).expect("generated code lowers");
        layers.add("ir.lower_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(spex_core::fingerprint::function_fingerprints(&module));
        black_box(spex_core::fingerprint::header_fingerprint(&module));
        layers.add("core.fingerprint_s", t.elapsed().as_secs_f64());
        layers.add("lang.source_bytes", src.len() as f64);
        let instrs: usize = module
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.instrs.len())
            .sum();
        layers.add("ir.instrs", instrs as f64);
    }
}

/// Adds the layers of one traced cold analysis.
fn trace_analysis(layers: &mut Layers, run: &Analysis, threads: usize) {
    let snap = run.ws.telemetry();
    let spans = Spans::fold(&snap, threads);
    trace::analysis_layers(layers, &snap, &spans);
    trace::pool_layers(layers, &snap);
    layers.add("check.add_module_s", run.add_s);
    layers.add("check.reanalyze_s", spans.total_s("workspace.reanalyze"));
    let db = run.ws.db();
    layers.add("check.db_params", db.params.len() as f64);
    layers.add("check.db_constraints", db.constraint_count() as f64);
    let t = Instant::now();
    let text = db.save_to_string();
    layers.add("check.db_save_s", t.elapsed().as_secs_f64());
    layers.add("check.db_bytes", text.len() as f64);
}

/// The fold of a traced cold analysis of `sources`, in seconds.
fn fold_s(sources: &[Source], threads: usize) -> f64 {
    let run = analyze(sources, threads, true);
    trace::fold_s(&Spans::fold(&run.ws.telemetry(), threads))
}

pub fn fleet_analyze(cfg: &Config) -> Outcome {
    let threads = pool_threads();
    let (members, setups_s) = set_up(cfg, || fleet::sample(cfg.seed, FLEET_MODULES));
    let sources = fleet_sources(&members);
    let mut tally = Tally::default();
    // Identical bytes are identical answers: score the first database in
    // full and compare later ones to it.
    let mut first: Option<(String, Score)> = None;
    let mut judge = |run: Analysis, tally: &mut Tally| -> Score {
        let s = match &first {
            Some((bytes, s)) if *bytes == run.db => *s,
            _ => {
                let s = oracle::score_fleet(run.ws.db(), &members);
                first = Some((run.db, s));
                s
            }
        };
        tally.score(s);
        s
    };
    if cfg.trace {
        let mut layers = Layers::new();
        judge(analyze(&sources, threads, false), &mut tally);
        let plain = analyze(&sources, threads, false);
        let plain_s = plain.wall_s;
        judge(plain, &mut tally);
        let run = analyze(&sources, threads, true);
        trace_analysis(&mut layers, &run, threads);
        let wall_s = run.wall_s;
        let score = judge(run, &mut tally);
        layers.set("core.truth_mismatches", score.wrong as f64);
        replay_front_end(&mut layers, members.iter().map(|m| m.gen.source.as_str()));
        layers.set("untracked_s", wall_s - layers.sum(LEAVES));
        layers.set("trace_overhead_ratio", wall_s / plain_s);
        // The fold at half the fleet (a prefix of the same members).
        let folds = |n: usize| -> f64 {
            let s: Vec<f64> = (0..FOLD_SAMPLES)
                .map(|_| fold_s(&sources[..n], threads))
                .collect();
            stats::median(&s)
        };
        let exp = trace::scale_exp(folds(FLEET_MODULES), folds(FLEET_MODULES / 2));
        layers.set("check.fold_scale_exp", exp);
        return tally.traced(layers);
    }
    let requests = for_seconds(cfg.seconds, |latencies| {
        let run = analyze(&sources, threads, false);
        let (wall_s, params) = (run.wall_s, run.ws.db().params.len());
        latencies.push(wall_s);
        judge(run, &mut tally);
        (params as f64, wall_s)
    });
    Measured {
        peak_rss_mib: requests.first_peak_rss_mib,
        requests,
        setups_s,
    }
    .outcome(tally)
}

/// The mismatches each catalog system's analysis may show against its
/// ground truth: (system, missed, wrong inferred). The catalog plants
/// inference noise on purpose (aliased globals and the like), reproducing
/// the paper's accuracy table, where accuracy is 0.913–1.000 per system.
/// These are the counts the analysis shows today. Every constraint is one
/// judged answer, and each mismatch beyond a system's allowance, on either
/// side, is a failed one.
const CATALOG_NOISE: [(&str, usize, usize); 7] = [
    ("OpenLDAP", 0, 7),
    ("Apache", 9, 0),
    ("VSFTP", 5, 1),
    ("PostgreSQL", 0, 2),
    ("MySQL", 0, 5),
    ("Squid", 72, 50),
    ("Storage-A", 9, 14),
];

/// A catalog system's verdict: its constraint-level score after the
/// allowance, and its raw mismatches.
#[derive(Clone)]
struct CatalogVerdict {
    db: String,
    score: Score,
    mismatches: usize,
}

fn judge_catalog(run: Analysis, system: &str, truth: &[TruthConstraint]) -> CatalogVerdict {
    let inferred: Vec<_> = run
        .ws
        .db()
        .params
        .iter()
        .flat_map(|p| p.constraints.iter().cloned())
        .collect();
    let (_, missed_ok, wrong_ok) = CATALOG_NOISE
        .iter()
        .find(|(name, ..)| *name == system)
        .unwrap_or_else(|| panic!("no noise allowance for {system}"));
    let m = oracle::Mismatches::of(&inferred, truth);
    CatalogVerdict {
        db: run.db,
        score: Score {
            judged: truth.len() + m.wrong,
            wrong: m.missed.saturating_sub(*missed_ok) + m.wrong.saturating_sub(*wrong_ok),
        },
        mismatches: m.missed + m.wrong,
    }
}

/// The seven catalog systems, generated, in an order drawn from the seed
/// (the systems themselves are fixed).
fn catalog(seed: u64) -> Vec<(SystemSpec, GenOutput)> {
    let mut systems = spex_systems::all_systems();
    let mut rng = Rng::new(seed ^ 0xca7a_1090);
    for i in (1..systems.len()).rev() {
        systems.swap(i, rng.below(i + 1));
    }
    systems
        .into_iter()
        .map(|s| {
            let gen = spex_systems::generate(&s);
            (s, gen)
        })
        .collect()
}

pub fn catalog_analyze(cfg: &Config) -> Outcome {
    let threads = pool_threads();
    let (systems, setups_s) = set_up(cfg, || catalog(cfg.seed));
    let sources: Vec<Source> = systems
        .iter()
        .map(|(spec, gen)| Source {
            name: "main.c",
            system: spec.name,
            source: &gen.source,
            annotations: &gen.annotations,
            dialect: gen.dialect,
        })
        .collect();
    let mut tally = Tally::default();
    let mut verdicts: Vec<Option<CatalogVerdict>> = vec![None; systems.len()];
    // One round: each system cold, in a fresh workspace of its own.
    // Returns the round's wall time and parameters analyzed.
    let mut round = |telemetry: bool, tally: &mut Tally, mut layers: Option<&mut Layers>| {
        let (mut wall_s, mut params) = (0.0, 0);
        for (i, src) in sources.iter().enumerate() {
            let run = analyze(std::slice::from_ref(src), threads, telemetry);
            wall_s += run.wall_s;
            params += run.ws.db().params.len();
            if let Some(layers) = layers.as_deref_mut() {
                trace_analysis(layers, &run, threads);
            }
            let verdict = match &verdicts[i] {
                Some(v) if v.db == run.db => v.clone(),
                _ => judge_catalog(run, systems[i].0.name, &systems[i].1.truth),
            };
            tally.score(verdict.score);
            if let Some(layers) = layers.as_deref_mut() {
                layers.add("core.truth_mismatches", verdict.mismatches as f64);
            }
            verdicts[i] = Some(verdict);
        }
        (wall_s, params)
    };
    if cfg.trace {
        let mut layers = Layers::new();
        round(false, &mut tally, None);
        let (plain_s, _) = round(false, &mut tally, None);
        let (wall_s, _) = round(true, &mut tally, Some(&mut layers));
        replay_front_end(&mut layers, systems.iter().map(|(_, g)| g.source.as_str()));
        layers.set("untracked_s", wall_s - layers.sum(LEAVES));
        layers.set("trace_overhead_ratio", wall_s / plain_s);
        return tally.traced(layers);
    }
    let requests = for_seconds(cfg.seconds, |latencies| {
        let (wall_s, params) = round(false, &mut tally, None);
        latencies.push(wall_s);
        (params as f64, wall_s)
    });
    Measured {
        peak_rss_mib: requests.first_peak_rss_mib,
        requests,
        setups_s,
    }
    .outcome(tally)
}
