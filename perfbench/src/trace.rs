//! The traced run's per-layer metrics: the span tree the program already
//! records, folded into wall-clock self times per layer, plus the
//! benchmark's own timings of its calls into each crate.

use spex_obs::TelemetrySnapshot;
use std::collections::HashMap;

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_s", "s"),
    ("lang.source_bytes", "bytes"),
    ("ir.lower_s", "s"),
    ("ir.instrs", "count"),
    ("core.fingerprint_s", "s"),
    ("check.update_module_s", "s"),
    ("dataflow.prepare_s", "s"),
    ("dataflow.taint_s", "s"),
    ("dataflow.taint_runs", "count"),
    ("dataflow.taint_hit_ratio", "ratio"),
    ("dataflow.summary_s", "s"),
    ("dataflow.summary_hit_ratio", "ratio"),
    ("core.mapping_s", "s"),
    ("core.mapping_hit_ratio", "ratio"),
    ("core.infer.basic_type_s", "s"),
    ("core.infer.semantic_type_s", "s"),
    ("core.infer.range_s", "s"),
    ("core.infer.control_dep_s", "s"),
    ("core.infer.value_rel_s", "s"),
    ("core.pass_runs", "count"),
    ("core.cached_fraction", "ratio"),
    ("core.truth_mismatches", "count"),
    ("react.classify_s", "s"),
    ("react.hit_ratio", "ratio"),
    ("check.add_module_s", "s"),
    ("check.reanalyze_s", "s"),
    ("check.fold_s", "s"),
    ("check.params_reinferred", "count"),
    ("check.db_save_s", "s"),
    ("check.db_load_s", "s"),
    ("check.db_bytes", "bytes"),
    ("check.db_params", "count"),
    ("check.db_constraints", "count"),
    ("check.session_build_s", "s"),
    ("check.session_rebuilds", "count"),
    ("conf.parse_s", "s"),
    ("check.file_s", "s"),
    ("check.unknown_key_s", "s"),
    ("check.unknown_keys", "count"),
    ("check.kind.basic_type_s", "s"),
    ("check.kind.semantic_type_s", "s"),
    ("check.kind.range_s", "s"),
    ("check.kind.enum_range_s", "s"),
    ("check.kind.control_dep_s", "s"),
    ("check.kind.value_rel_s", "s"),
    ("check.diagnostics", "count"),
    ("check.render_s", "s"),
    ("check.report_bytes", "bytes"),
    ("pool.jobs", "count"),
    ("pool.worker_utilization_pct", "%"),
    ("untracked_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("check.fold_scale_exp", "ratio"),
    ("check.db_load_scale_exp", "ratio"),
    ("check.unknown_key_scale_exp", "ratio"),
    ("check.session_build_scale_exp", "ratio"),
];

/// Per-layer values being collected for one traced run.
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    /// Sum of the named layers.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.0[n]).sum()
    }

    /// `(name, value, unit)` in report order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(n, u)| (n, self.0[n], u)).collect()
    }
}

/// Spans opened on the calling thread. Every other root was opened on a
/// pool worker (pool workers re-root their spans).
const MAIN_ROOTS: &[&str] = &[
    "workspace.reanalyze",
    "workspace.update_module",
    "check.batch",
];

/// Span times folded by span name (labels dropped), in wall-clock
/// seconds: a span recorded on one of `k` pool workers counts `1/k`, so
/// layers that ran in parallel add up to the wall time they took.
pub struct Spans {
    self_s: HashMap<String, f64>,
    total_s: HashMap<String, f64>,
    root_total_s: HashMap<String, f64>,
}

fn base_name(component: &str) -> &str {
    component.split('{').next().unwrap_or(component)
}

impl Spans {
    pub fn fold(snap: &TelemetrySnapshot, workers: usize) -> Spans {
        let mut self_ns: HashMap<&str, f64> = snap
            .spans
            .iter()
            .map(|(p, s)| (p.as_str(), s.total_ns as f64))
            .collect();
        for (path, stat) in &snap.spans {
            if let Some((parent, _)) = path.rsplit_once('/') {
                if let Some(v) = self_ns.get_mut(parent) {
                    *v -= stat.total_ns as f64;
                }
            }
        }
        let mut out = Spans {
            self_s: HashMap::new(),
            total_s: HashMap::new(),
            root_total_s: HashMap::new(),
        };
        for (path, stat) in &snap.spans {
            let root = base_name(path.split('/').next().unwrap_or(path));
            let scale = if MAIN_ROOTS.contains(&root) {
                1.0
            } else {
                1.0 / workers as f64
            };
            let name = base_name(path.rsplit('/').next().unwrap_or(path)).to_string();
            let total = stat.total_ns as f64 * scale / 1e9;
            *out.self_s.entry(name.clone()).or_default() += self_ns[path.as_str()] * scale / 1e9;
            if !path.contains('/') {
                *out.root_total_s.entry(name.clone()).or_default() += total;
            }
            *out.total_s.entry(name).or_default() += total;
        }
        out
    }

    /// Self time of every span with this name.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Total time of every span with this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Total time of the spans with this name opened at a thread's root.
    pub fn root_total_s(&self, name: &str) -> f64 {
        self.root_total_s.get(name).copied().unwrap_or(0.0)
    }
}

/// The scaling exponent `log2(full / half)` of a time measured at a full
/// and a half fleet: 1.0 is linear, 2.0 quadratic. Reads 0 when a time
/// came out non-positive, so the report stays valid JSON.
pub fn scale_exp(full_s: f64, half_s: f64) -> f64 {
    let exp = (full_s / half_s).log2();
    if exp.is_finite() {
        exp
    } else {
        0.0
    }
}

/// `hits / (hits + misses)` of two counters, 0 when neither moved.
pub fn hit_ratio(snap: &TelemetrySnapshot, hits: &str, misses: &str) -> f64 {
    let (h, m) = (snap.counter(hits) as f64, snap.counter(misses) as f64);
    if h + m > 0.0 {
        h / (h + m)
    } else {
        0.0
    }
}

/// Copies the layers every traced snapshot of analysis work yields.
pub fn analysis_layers(layers: &mut Layers, snap: &TelemetrySnapshot, spans: &Spans) {
    layers.add("dataflow.prepare_s", spans.self_s("dataflow.prepare"));
    layers.add("dataflow.taint_s", spans.self_s("dataflow.taint"));
    layers.add(
        "dataflow.taint_runs",
        snap.counter("infer.cache.taint.misses") as f64,
    );
    layers.set(
        "dataflow.taint_hit_ratio",
        hit_ratio(snap, "infer.cache.taint.hits", "infer.cache.taint.misses"),
    );
    layers.add("dataflow.summary_s", spans.self_s("infer.summary"));
    layers.set(
        "dataflow.summary_hit_ratio",
        hit_ratio(snap, "infer.summary.hits", "infer.summary.runs"),
    );
    layers.add("core.mapping_s", spans.self_s("infer.mapping"));
    layers.set(
        "core.mapping_hit_ratio",
        hit_ratio(
            snap,
            "infer.cache.mapping.hits",
            "infer.cache.mapping.misses",
        ),
    );
    for pass in [
        "basic_type",
        "semantic_type",
        "range",
        "control_dep",
        "value_rel",
    ] {
        layers.add(
            &format!("core.infer.{pass}_s"),
            spans.self_s(&format!("infer.{pass}")),
        );
        layers.add(
            "core.pass_runs",
            snap.counter(&format!("infer.pass.{pass}")) as f64,
        );
    }
    layers.add("react.classify_s", spans.self_s("react.classify"));
    layers.set(
        "react.hit_ratio",
        hit_ratio(snap, "react.cache.hits", "react.cache.misses"),
    );
    layers.add("check.fold_s", fold_s(spans));
}

/// What `workspace.reanalyze` did beyond its per-module analyses, which
/// ran either nested under it or on pool workers: the serial fold of
/// their results into the db.
pub fn fold_s(spans: &Spans) -> f64 {
    spans.self_s("workspace.reanalyze") - spans.root_total_s("workspace.module")
}

/// Copies the layers every traced snapshot of checking work yields.
pub fn check_layers(layers: &mut Layers, snap: &TelemetrySnapshot, spans: &Spans, workers: usize) {
    layers.add("check.file_s", spans.total_s("check.file"));
    for kind in [
        "basic_type",
        "semantic_type",
        "range",
        "enum_range",
        "control_dep",
        "value_rel",
    ] {
        if let Some(h) = snap.histograms.get(&format!("check.kind.{kind}_ns")) {
            layers.add(
                &format!("check.kind.{kind}_s"),
                h.sum as f64 / 1e9 / workers as f64,
            );
        }
    }
    layers.add(
        "check.diagnostics",
        snap.counter("check.diagnostics") as f64,
    );
}

/// Pool counters: jobs handed out, and the mean utilization of the
/// workers of the last multi-worker run.
pub fn pool_layers(layers: &mut Layers, snap: &TelemetrySnapshot) {
    layers.add("pool.jobs", snap.counter("pool.jobs") as f64);
    let utils: Vec<f64> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("pool.worker.") && k.ends_with(".utilization_pct"))
        .map(|(_, v)| *v as f64)
        .collect();
    if !utils.is_empty() {
        layers.set(
            "pool.worker_utilization_pct",
            utils.iter().sum::<f64>() / utils.len() as f64,
        );
    }
}
