//! Differential oracle for incremental and parallel analysis.
//!
//! A seeded random edit script drives warm `Workspace`s — one at 1
//! thread, one at 2 — over a small multi-module system. After every step
//! each warm workspace must equal a workspace built from scratch over the
//! same sources, in three observable outputs:
//!
//! * the persisted constraint database (`save_to_string` bytes);
//! * the static reaction verdicts (`reaction_findings`);
//! * the rendered JSON Lines report of `check_texts` over every present
//!   module's template config plus two out-of-range variants of it.
//!
//! The edit kinds follow how configuration checks evolve across releases
//! (checks moving into helpers, call edges appearing and vanishing):
//! literal and comparison flips inside one function, added and removed
//! calls to guarding helpers, appended (id-stable) and first-inserted
//! (id-unstable) helpers — some recursive — new globals (header changes),
//! annotation edits, comment-only edits, and module removal and re-adding.
//!
//! Every edit keeps the lines and columns of the functions it does not
//! change: a clean function is not re-inferred, so its parameters keep
//! the source spans of the analysis that produced them. Edits that move
//! whole lines (an inserted helper, a new global) are id-unstable or
//! header changes, which re-infer the module from scratch.
//!
//! Std-only and splitmix64-seeded; a debug build runs a small budget, a
//! release build (`cargo test --release --test differential`) a larger
//! one. A seed that ever fails becomes a named regression test below.

use spex::check::{JsonLinesRenderer, Workspace};
use spex::conf::Dialect;
use spex::systems::fleet::{generate_fleet, FleetSpec};
use std::collections::BTreeMap;

/// (seeds, steps per seed): small in debug, larger in release.
const BUDGET: (u64, usize) = if cfg!(debug_assertions) {
    (3, 12)
} else {
    (32, 48)
};

/// splitmix64 (Steele, Lea and Flood), the generator every seeded test in
/// this repository uses.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const HAND_ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

/// Routes its checks through guarding helpers and shares `threads` with
/// [`HAND_B`].
const HAND_A: &str = r#"int threads = 4;
int timeout = 30;
struct opt { char* name; int* var; };
struct opt options[] = { { "threads", &threads }, { "timeout", &timeout } };
int check_threads(int v) {
    if (v < 1) { exit(1); }
    if (v > 16) { exit(1); }
    return v;
}
int check_timeout(int v) {
    if (v > 600) { return -1; }
    return 0;
}
void startup() {
    check_threads(threads);
    if (check_timeout(timeout) < 0) { exit(1); }
    sleep(timeout);
}
void worker() {
    if (threads > 0) { listen(0, threads); }
}
"#;

/// Shares `threads` with [`HAND_A`]; `backlog`'s guard lives in a helper,
/// and `batch`, used only in `flush`, depends on the `threads` guard that
/// `flush` inherits from `main_loop` through `sync_all`.
const HAND_B: &str = r#"int threads = 4;
int backlog = 128;
int batch = 8;
struct opt { char* name; int* var; };
struct opt options[] = {
    { "threads", &threads }, { "backlog", &backlog }, { "batch", &batch }
};
int clamp_backlog(int v) {
    if (v < 16) { exit(1); }
    return v;
}
void flush() {
    if (backlog > 0) { sleep(backlog); }
    if (batch > 1) { sleep(batch); }
}
void serve() {
    if (threads > 64) { exit(1); }
    clamp_backlog(backlog);
    listen(0, backlog);
}
void sync_all() { flush(); }
void main_loop() {
    if (threads) { sync_all(); }
}
"#;

/// One module's current inputs.
#[derive(Clone)]
struct Source {
    source: String,
    annotations: String,
    /// The annotations the module started with (annotation edits choose
    /// subsets of its blocks).
    original_annotations: String,
    template: String,
    /// Counter for helper and global names this script introduced.
    fresh: usize,
}

/// The system under edit: present modules plus removed ones that may
/// come back.
struct Model {
    present: BTreeMap<String, Source>,
    removed: BTreeMap<String, Source>,
}

impl Model {
    fn new(seed: u64) -> Model {
        let spec = FleetSpec {
            modules: 3,
            configs_per_module: 1,
            seed,
        };
        let mut present = BTreeMap::new();
        for m in generate_fleet(&spec) {
            present.insert(
                m.name,
                Source {
                    source: m.source,
                    annotations: m.annotations.clone(),
                    original_annotations: m.annotations,
                    template: m.template_conf,
                    fresh: 0,
                },
            );
        }
        for (name, source, template) in [
            ("hand_a.c", HAND_A, "threads = 4\ntimeout = 30\n"),
            (
                "hand_b.c",
                HAND_B,
                "threads = 4\nbacklog = 128\nbatch = 8\n",
            ),
        ] {
            present.insert(
                name.to_string(),
                Source {
                    source: source.to_string(),
                    annotations: HAND_ANN.to_string(),
                    original_annotations: HAND_ANN.to_string(),
                    template: template.to_string(),
                    fresh: 0,
                },
            );
        }
        Model {
            present,
            removed: BTreeMap::new(),
        }
    }

    fn workspace(&self, threads: usize) -> Workspace {
        let mut ws = Workspace::new("Diff", Dialect::KeyValue).with_threads(threads);
        for (name, m) in &self.present {
            ws.add_module(name.as_str(), &m.source, &m.annotations)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        ws
    }

    /// Every present module's template plus two variants with each
    /// integer value pushed out of range, in module order.
    fn configs(&self) -> Vec<(String, String)> {
        let mut files = Vec::new();
        for (name, m) in &self.present {
            files.push((format!("{name}/template.conf"), m.template.clone()));
            for (tag, value) in [("huge", "999999"), ("zero", "0")] {
                let text: String = m
                    .template
                    .lines()
                    .map(|line| match line.split_once('=') {
                        Some((k, v)) if v.trim().parse::<i64>().is_ok() => {
                            format!("{}= {value}\n", k)
                        }
                        _ => format!("{line}\n"),
                    })
                    .collect();
                files.push((format!("{name}/{tag}.conf"), text));
            }
        }
        files
    }
}

/// A top-level function definition: its name, whether it takes no
/// arguments, and the byte offsets of its body's braces.
struct FnSpan {
    name: String,
    no_args: bool,
    open: usize,
    close: usize,
}

/// Finds every top-level function body in a mini-C source, skipping
/// string literals and line comments.
fn functions(src: &str) -> Vec<FnSpan> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut seg_start = 0usize;
    let mut open: Option<(usize, String, bool)> = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => {
                if depth == 0 && src[..i].trim_end().ends_with(')') {
                    let header = &src[seg_start..i];
                    let before_paren = &header[..header.find('(').unwrap_or(header.len())];
                    let name = before_paren
                        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .rfind(|s| !s.is_empty())
                        .unwrap_or("")
                        .to_string();
                    let args = &header[before_paren.len()..];
                    let no_args = args.trim_matches(['(', ')', ' ']).is_empty();
                    open = Some((i, name, no_args));
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some((o, name, no_args)) = open.take() {
                        out.push(FnSpan {
                            name,
                            no_args,
                            open: o,
                            close: i,
                        });
                    }
                    seg_start = i + 1;
                }
            }
            b';' if depth == 0 => seg_start = i + 1,
            _ => {}
        }
        i += 1;
    }
    out
}

/// Names of top-level `int` globals (candidate call arguments).
fn int_globals(src: &str) -> Vec<String> {
    src.lines()
        .filter(|l| l.starts_with("int ") && l.trim_end().ends_with(';') && !l.contains('('))
        .filter_map(|l| {
            l["int ".len()..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .filter(|s| !s.is_empty())
                .map(str::to_string)
        })
        .collect()
}

/// Byte ranges of numeric literals and comparison operators inside one
/// body, skipping strings and comments.
fn flip_sites(src: &str, f: &FnSpan) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let mut sites = Vec::new();
    let mut i = f.open + 1;
    while i < f.close {
        let b = bytes[i];
        let prev = bytes[i - 1];
        if b == b'"' {
            i += 1;
            while i < f.close && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
        } else if b == b'/' && bytes[i + 1] == b'/' {
            while i < f.close && bytes[i] != b'\n' {
                i += 1;
            }
        } else if b.is_ascii_digit() && !(prev.is_ascii_alphanumeric() || prev == b'_') {
            let end = (i..f.close)
                .find(|&j| !bytes[j].is_ascii_digit())
                .unwrap_or(f.close);
            sites.push((i, end));
            i = end;
            continue;
        } else if matches!(b, b'<' | b'>' | b'=' | b'!') {
            let next = bytes[i + 1];
            let op_end = if next == b'=' { i + 2 } else { i + 1 };
            let lone = !matches!(prev, b'<' | b'>' | b'-' | b'=' | b'!')
                && !matches!(bytes[op_end], b'<' | b'>' | b'=');
            let is_cmp = match b {
                b'<' | b'>' => next != b,
                _ => next == b'=',
            };
            if lone && is_cmp {
                sites.push((i, op_end));
            }
            i = op_end;
            continue;
        }
        i += 1;
    }
    sites
}

fn flipped(token: &str, rng: &mut SplitMix64) -> String {
    match token {
        "<" => ">".into(),
        ">" => "<".into(),
        "<=" => ">=".into(),
        ">=" => "<=".into(),
        "==" => "!=".into(),
        "!=" => "==".into(),
        digits => {
            // Change one digit; a multi-digit literal keeps a non-zero lead.
            let mut d: Vec<u8> = digits.bytes().collect();
            let k = rng.below(d.len());
            let lo = if k == 0 && d.len() > 1 { 1 } else { 0 };
            let mut v = lo + rng.below(10 - lo as usize) as u8;
            if v + b'0' == d[k] {
                v = if v == 9 { lo } else { v + 1 };
            }
            d[k] = v + b'0';
            String::from_utf8(d).unwrap()
        }
    }
}

/// Guarding helpers: one-argument functions this script or the
/// hand-written modules define to hold a check.
fn guard_helpers(src: &str) -> Vec<String> {
    functions(src)
        .into_iter()
        .map(|f| f.name)
        .filter(|n| {
            n.starts_with("check_") || n.starts_with("clamp_") || n.starts_with("spex_guard_")
        })
        .collect()
}

/// Byte ranges of call statements `f(args);` to a function the module
/// defines, in source order.
fn call_sites(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let fns = functions(src);
    let mut out = Vec::new();
    for body in &fns {
        let text = &src[body.open..body.close];
        for callee in &fns {
            let pattern = format!("{}(", callee.name);
            for (at, _) in text.match_indices(&pattern) {
                let start = body.open + at;
                let prev = bytes[start - 1];
                let statement = text[..at].trim_end().ends_with(['{', ';', '}']);
                if prev.is_ascii_alphanumeric() || prev == b'_' || !statement {
                    continue;
                }
                let mut depth = 0;
                let close = (start + pattern.len() - 1..body.close).find(|&j| {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                });
                if let Some(close) = close.filter(|&c| bytes[c + 1] == b';') {
                    out.push((start, close + 2));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn guard_helper_text(name: &str, bound: usize, recursive: bool) -> String {
    if recursive {
        format!(
            "int {name}(int v) {{\n    if (v > {bound}) {{ return {name}(v - 1); }}\n    if (v < 0) {{ exit(1); }}\n    return v;\n}}\n"
        )
    } else {
        format!("int {name}(int v) {{\n    if (v > {bound}) {{ exit(1); }}\n    return v;\n}}\n")
    }
}

/// One step of the edit script: a human-readable label plus the edit.
enum Edit {
    Source(String, String),
    Annotations(String, String),
    Remove(String),
    ReAdd(String),
}

/// Draws one edit against the model, or `None` when the drawn kind does
/// not apply (the caller draws again).
fn draw(model: &Model, rng: &mut SplitMix64) -> Option<(String, Edit)> {
    let names: Vec<&String> = model.present.keys().collect();
    let name = names[rng.below(names.len())].clone();
    let m = &model.present[&name];
    let src = &m.source;
    let fresh = m.fresh;
    match rng.below(10) {
        // Flip a digit or a comparison operator in one function.
        0..=2 => {
            let fns = functions(src);
            let f = &fns[rng.below(fns.len())];
            let sites = flip_sites(src, f);
            if sites.is_empty() {
                return None;
            }
            let (a, b) = sites[rng.below(sites.len())];
            let new = flipped(&src[a..b], rng);
            let label = format!("{name}: flip {:?} -> {new:?} in {}", &src[a..b], f.name);
            Some((
                label,
                Edit::Source(name, format!("{}{new}{}", &src[..a], &src[b..])),
            ))
        }
        // Add a call: to a guarding helper with a global argument, or to
        // a function without arguments (a new call edge whose callees
        // inherit the caller's guards).
        3 => {
            let helpers = guard_helpers(src);
            let globals = int_globals(src);
            let fns = functions(src);
            let targets: Vec<&FnSpan> = fns.iter().filter(|f| !helpers.contains(&f.name)).collect();
            if targets.is_empty() {
                return None;
            }
            let at = targets[rng.below(targets.len())];
            let call = if rng.chance(50) {
                if helpers.is_empty() || globals.is_empty() {
                    return None;
                }
                let helper = &helpers[rng.below(helpers.len())];
                format!("{helper}({})", globals[rng.below(globals.len())])
            } else {
                let callees: Vec<&FnSpan> = fns
                    .iter()
                    .filter(|f| f.no_args && f.name != at.name)
                    .collect();
                if callees.is_empty() {
                    return None;
                }
                format!("{}()", callees[rng.below(callees.len())].name)
            };
            let label = format!("{name}: call {call} from {}", at.name);
            let edited = format!("{} {call};{}", &src[..at.open + 1], &src[at.open + 1..]);
            Some((label, Edit::Source(name, edited)))
        }
        // Remove a call statement to a function the module defines.
        4 => {
            let calls = call_sites(src);
            if calls.is_empty() {
                return None;
            }
            let (a, b) = calls[rng.below(calls.len())];
            let label = format!("{name}: remove call `{}`", &src[a..b]);
            Some((
                label,
                Edit::Source(name, format!("{}{}", &src[..a], &src[b..])),
            ))
        }
        // Append a helper (id-stable) or insert one first (id-unstable).
        5 => {
            let helper = format!("spex_guard_{fresh}");
            let text = guard_helper_text(&helper, 1 + rng.below(500), rng.chance(25));
            let (label, edited) = if rng.chance(50) {
                (format!("{name}: append {helper}"), format!("{src}{text}"))
            } else {
                let first = functions(src)[0].open;
                let line = src[..first].rfind('\n').map_or(0, |p| p + 1);
                (
                    format!("{name}: insert {helper} first"),
                    format!("{}{text}{}", &src[..line], &src[line..]),
                )
            };
            Some((label, Edit::Source(name, edited)))
        }
        // Add a global: a header change.
        6 => {
            let label = format!("{name}: add global spex_extra_{fresh}");
            let edited = format!("int spex_extra_{fresh} = {};\n{src}", rng.below(100));
            Some((label, Edit::Source(name, edited)))
        }
        // Edit the annotations: a subset of the original blocks, or back
        // to all of them.
        7 => {
            let blocks: Vec<&str> = m
                .original_annotations
                .split_inclusive('}')
                .filter(|b| b.contains('{'))
                .collect();
            let text: String = if rng.chance(30) {
                m.original_annotations.clone()
            } else {
                blocks.iter().filter(|_| rng.chance(60)).copied().collect()
            };
            let label = format!(
                "{name}: annotations -> {} block(s)",
                text.matches('{').count()
            );
            Some((label, Edit::Annotations(name, text)))
        }
        // A comment-only edit, at the end of a line.
        8 => {
            let ends: Vec<usize> = src.match_indices('\n').map(|(i, _)| i).collect();
            let at = ends[rng.below(ends.len())];
            let label = format!("{name}: comment at byte {at}");
            let edited = format!("{} // note {fresh}{}", &src[..at], &src[at..]);
            Some((label, Edit::Source(name, edited)))
        }
        // Remove a module, or re-add a removed one.
        _ => {
            if !model.removed.is_empty() && rng.chance(60) {
                let back: Vec<&String> = model.removed.keys().collect();
                let back = back[rng.below(back.len())].clone();
                Some((format!("re-add {back}"), Edit::ReAdd(back)))
            } else if model.present.len() > 1 {
                Some((format!("remove {name}"), Edit::Remove(name)))
            } else {
                None
            }
        }
    }
}

/// Applies an edit to the model and to every warm workspace. Returns
/// `false` (model untouched) when the edited source does not parse — the
/// workspaces must then reject it and stay as they were.
fn apply(model: &mut Model, warm: &mut [Workspace], edit: Edit) -> bool {
    match edit {
        Edit::Source(name, source) => {
            let results: Vec<bool> = warm
                .iter_mut()
                .map(|ws| ws.update_module(&name, &source).is_ok())
                .collect();
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            if !results[0] {
                return false;
            }
            let m = model.present.get_mut(&name).unwrap();
            m.source = source;
            m.fresh += 1;
        }
        Edit::Annotations(name, text) => {
            for ws in warm.iter_mut() {
                ws.update_annotations(&name, &text).unwrap();
            }
            model.present.get_mut(&name).unwrap().annotations = text;
        }
        Edit::Remove(name) => {
            for ws in warm.iter_mut() {
                ws.remove_module(&name).unwrap();
            }
            let m = model.present.remove(&name).unwrap();
            model.removed.insert(name, m);
        }
        Edit::ReAdd(name) => {
            let m = model.removed.remove(&name).unwrap();
            for ws in warm.iter_mut() {
                ws.add_module(name.as_str(), &m.source, &m.annotations)
                    .unwrap();
            }
            model.present.insert(name, m);
        }
    }
    true
}

/// The three outputs the oracle compares.
fn observe(ws: &Workspace, configs: &[(String, String)]) -> (String, String, String) {
    let findings = format!("{:#?}", ws.reaction_findings());
    let report = ws.check_texts(configs).render(&JsonLinesRenderer);
    (ws.db().save_to_string(), findings, report)
}

/// Panics with the first differing line when `warm` and `fresh` differ;
/// `ctx` says where (seed, step and edit script for a scripted run).
fn assert_same(ctx: &str, what: &str, warm: &str, fresh: &str) {
    if warm == fresh {
        return;
    }
    let first = warm
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(warm.lines().count().min(fresh.lines().count()));
    let line = |s: &str| s.lines().nth(first).unwrap_or("<end>").to_string();
    panic!(
        "{ctx}: warm {what} differs from a fresh analysis\n\
         first differing line {first}:\n  warm:  {}\n  fresh: {}",
        line(warm),
        line(fresh),
    );
}

/// Runs one seeded script of `steps` edits, checking the oracle after the
/// cold start and after every step.
fn run_script(seed: u64, steps: usize) {
    let mut rng = SplitMix64(seed);
    let mut model = Model::new(seed);
    let mut warm = [model.workspace(1), model.workspace(2)];
    let mut log: Vec<String> = Vec::new();
    for step in 0..=steps {
        if step > 0 {
            let (label, edit) = loop {
                if let Some(drawn) = draw(&model, &mut rng) {
                    break drawn;
                }
            };
            let applied = apply(&mut model, &mut warm, edit);
            log.push(if applied {
                label
            } else {
                format!("{label} (rejected: does not parse)")
            });
        }
        let configs = model.configs();
        let mut fresh = model.workspace(1);
        fresh.reanalyze();
        let expected = observe(&fresh, &configs);
        for ws in warm.iter_mut() {
            ws.reanalyze();
            assert!(ws.dirty_modules().is_empty());
            let got = observe(ws, &configs);
            let ctx = format!(
                "seed {seed:#x}, step {step}, edit script:\n  {}\n",
                log.join("\n  ")
            );
            assert_same(&ctx, "db", &got.0, &expected.0);
            assert_same(&ctx, "reaction findings", &got.1, &expected.1);
            assert_same(&ctx, "check report", &got.2, &expected.2);
        }
    }
}

#[test]
fn warm_workspaces_match_fresh_analysis_under_random_edit_scripts() {
    let (seeds, steps) = BUDGET;
    for seed in 0..seeds {
        run_script(0x5eed_0000 + seed, steps);
    }
}

/// The hand-written modules' helper-held guards: removing the only call
/// to `check_threads` must drop the range it contributed, exactly as a
/// fresh analysis does.
#[test]
fn removing_the_only_guard_call_matches_fresh_analysis() {
    let mut model = Model::new(1);
    let mut warm = [model.workspace(1), model.workspace(2)];
    for ws in warm.iter_mut() {
        ws.reanalyze();
    }
    let edited = HAND_A.replace("    check_threads(threads);\n", "\n");
    assert_ne!(edited, HAND_A);
    assert!(apply(
        &mut model,
        &mut warm,
        Edit::Source("hand_a.c".into(), edited)
    ));
    let configs = model.configs();
    let mut fresh = model.workspace(1);
    fresh.reanalyze();
    let expected = observe(&fresh, &configs);
    for ws in warm.iter_mut() {
        let r = ws.reanalyze();
        assert_eq!(r.modules_analyzed, 1);
        assert_eq!(observe(ws, &configs), expected);
    }
}

/// The scanner helpers the script relies on find what they should in the
/// hand-written sources.
#[test]
fn edit_script_scanners_understand_the_sources() {
    let names: Vec<String> = functions(HAND_B).into_iter().map(|f| f.name).collect();
    assert_eq!(
        names,
        ["clamp_backlog", "flush", "serve", "sync_all", "main_loop"]
    );
    let no_args: Vec<bool> = functions(HAND_B).into_iter().map(|f| f.no_args).collect();
    assert_eq!(no_args, [false, true, true, true, true]);
    assert_eq!(int_globals(HAND_A), ["threads", "timeout"]);
    assert_eq!(guard_helpers(HAND_A), ["check_threads", "check_timeout"]);
    let calls: Vec<&str> = call_sites(HAND_B)
        .into_iter()
        .map(|(a, b)| &HAND_B[a..b])
        .collect();
    assert_eq!(
        calls,
        ["clamp_backlog(backlog);", "flush();", "sync_all();"]
    );
    let startup = functions(HAND_A)
        .into_iter()
        .find(|f| f.name == "startup")
        .unwrap();
    let sites: Vec<&str> = flip_sites(HAND_A, &startup)
        .into_iter()
        .map(|(a, b)| &HAND_A[a..b])
        .collect();
    assert_eq!(sites, ["<", "0", "1"]);
}

/// Asserts a warm workspace over `model` equals a fresh one after `edit`.
fn assert_edit_matches_fresh(mut model: Model, edit: Edit) {
    let mut warm = [model.workspace(1), model.workspace(2)];
    for ws in warm.iter_mut() {
        ws.reanalyze();
    }
    assert!(apply(&mut model, &mut warm, edit));
    let configs = model.configs();
    let mut fresh = model.workspace(1);
    fresh.reanalyze();
    let expected = observe(&fresh, &configs);
    for ws in warm.iter_mut() {
        ws.reanalyze();
        let got = observe(ws, &configs);
        assert_same("after the edit", "db", &got.0, &expected.0);
        assert_same("after the edit", "reaction findings", &got.1, &expected.1);
        assert_same("after the edit", "check report", &got.2, &expected.2);
    }
}

/// Regression (seed 0x5eed0000): re-folding one of two modules that share
/// `threads` appended its constraints after the other module's, so the
/// check report listed the two ranges in the opposite order to a fresh
/// analysis.
#[test]
fn regression_shared_param_keeps_module_order_after_an_edit() {
    let edited = HAND_A.replace("(v > 16)", "(v > 17)");
    assert_edit_matches_fresh(Model::new(0), Edit::Source("hand_a.c".into(), edited));
}

/// Regression (seed 0x5eed0001): a helper inserted ahead of the other
/// functions shifts their ids, but `update_module` kept the unchanged
/// bodies, whose calls still named the old ids — `serve`'s call to
/// `clamp_backlog` ran the inserted helper instead.
#[test]
fn regression_function_inserted_first_keeps_call_targets() {
    let helper = guard_helper_text("spex_guard_0", 482, true);
    let at = HAND_B.find("int clamp_backlog").unwrap();
    let edited = format!("{}{helper}{}", &HAND_B[..at], &HAND_B[at..]);
    assert_edit_matches_fresh(Model::new(0), Edit::Source("hand_b.c".into(), edited));
}

/// Fresh analyses of one source, repeated: each run hashes its slices
/// with new keys, so an output that follows hash order shows up as a
/// difference between runs.
fn assert_fresh_runs_agree(name: &str, source: &str, annotations: &str) {
    let run = || {
        let mut ws = Workspace::new("Diff", Dialect::KeyValue).with_threads(1);
        ws.add_module(name, source, annotations).unwrap();
        ws.reanalyze();
        ws.db().save_to_string()
    };
    let first = run();
    for _ in 0..16 {
        assert_same("a repeated fresh run", "db", &run(), &first);
    }
}

/// Regression (seed 0x5eed0001): `commit_siblings` is used twice under
/// the `fsync` guard `flush` inherits; the control dependency took the
/// span of whichever use the slice's hash order listed first. It now
/// takes the earliest use.
#[test]
fn regression_control_dep_span_does_not_follow_hash_order() {
    const GUARDED_TWICE: &str = r#"int fsync_on = 1;
int commit_siblings = 5;
struct opt { char* name; int* var; };
struct opt options[] = { { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings } };
void flush() {
    if (commit_siblings > 0) { sleep(commit_siblings); }
}
void main_loop() {
    if (fsync_on) { flush(); }
}
"#;
    assert_fresh_runs_agree("dep.c", GUARDED_TWICE, HAND_ANN);
    let mut ws = Workspace::new("Diff", Dialect::KeyValue);
    ws.add_module("dep.c", GUARDED_TWICE, HAND_ANN).unwrap();
    ws.reanalyze();
    let db = ws.db().save_to_string();
    assert!(
        db.contains("c dep fsync != 0 commit_siblings 1 | %_ 6 25 | dep.c\n"),
        "{db}"
    );
}

/// Regression (seed 0x5eed0015): with its parser check inverted, a
/// parser-mapped parameter has no conversion event, and the basic-type
/// fallback took the type of whichever depth-0 value the slice's hash
/// order listed first.
#[test]
fn regression_parser_mapped_basic_type_does_not_follow_hash_order() {
    let member = generate_fleet(&FleetSpec {
        modules: 2,
        configs_per_module: 1,
        seed: 0x5eed_0015,
    })
    .remove(1);
    let needle = "(strcasecmp(name, \"f0001_p4\") == 0)";
    assert!(member.source.contains(needle));
    let edited = member
        .source
        .replace(needle, "(strcasecmp(name, \"f0001_p4\") != 0)");
    assert_fresh_runs_agree(&member.name, &edited, &member.annotations);
}

/// Regression (seed 0x5eed0002): the did-you-mean suggestion for an
/// unknown key broke distance ties by database position, which depends
/// on the order modules were (re-)added — a removed and re-added module
/// moved its parameters behind everyone else's.
#[test]
fn regression_suggestion_ties_do_not_depend_on_module_history() {
    let mut model = Model::new(2);
    let mut warm = [model.workspace(1), model.workspace(2)];
    for ws in warm.iter_mut() {
        ws.reanalyze();
    }
    assert!(apply(&mut model, &mut warm, Edit::Remove("m0000.c".into())));
    for ws in warm.iter_mut() {
        ws.reanalyze();
    }
    assert!(apply(&mut model, &mut warm, Edit::ReAdd("m0000.c".into())));
    let probe = [("probe.conf", "f0009_p0 = 1\n")];
    let mut fresh = model.workspace(1);
    fresh.reanalyze();
    let expected = fresh.check_texts(&probe).render(&JsonLinesRenderer);
    assert!(
        expected.contains("did you mean \\\"f0000_p0\\\"?"),
        "{expected}"
    );
    for ws in warm.iter_mut() {
        ws.reanalyze();
        let got = ws.check_texts(&probe).render(&JsonLinesRenderer);
        assert_same("after remove and re-add", "check report", &got, &expected);
    }
}
