//! Property-based tests over core invariants.
//!
//! The build environment has no network access, so instead of `proptest`
//! these use a small deterministic case generator: each property is
//! exercised over a few hundred pseudo-random inputs from a fixed seed,
//! which keeps failures reproducible without an external shrinker.

use spex::check::{CheckSession, ConstraintDb, Fix, ParamEntry};
use spex::conf::{ConfFile, Dialect};
use spex::core::constraint::{
    BasicType, Constraint, ConstraintKind, NumericRange, RangeSegment, SemType,
};
use spex::core::CmpOp;
use spex::inject::harness::intended_value;
use spex::lang::diag::Span;
use spex::systems::rng::SplitMix64;
use spex::vm::{Value, Vm, World};

/// Cases per property.
const CASES: usize = 200;

/// The shared splitmix64 generator plus the string-shaping helpers the
/// properties need.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SplitMix64::seed_from_u64(seed))
    }

    /// Uniform in `[lo, hi)`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.0.gen_range(lo, hi)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.int(lo as i64, hi as i64) as usize
    }

    fn pick(&mut self, chars: &[char]) -> char {
        chars[self.usize(0, chars.len())]
    }

    /// A string of `len` characters drawn from `alphabet`.
    fn string(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| self.pick(alphabet)).collect()
    }
}

fn lower() -> Vec<char> {
    ('a'..='z').collect()
}

fn lower_digit_underscore() -> Vec<char> {
    let mut v: Vec<char> = ('a'..='z').collect();
    v.extend('0'..='9');
    v.push('_');
    v
}

fn value_chars() -> Vec<char> {
    let mut v: Vec<char> = ('a'..='z').collect();
    v.extend('A'..='Z');
    v.extend('0'..='9');
    v.extend(['/', '.', '_', '-']);
    v
}

/// A config-parameter name: `[a-z][a-z0-9_]{0,12}`.
fn gen_name(g: &mut Gen) -> String {
    let mut s = String::new();
    s.push(g.pick(&lower()));
    let tail = g.usize(0, 13);
    s.push_str(&g.string(&lower_digit_underscore(), tail));
    s
}

/// A config value: `[a-zA-Z0-9/._-]{1,12}`.
fn gen_value(g: &mut Gen) -> String {
    let len = g.usize(1, 13);
    g.string(&value_chars(), len)
}

// --- Configuration AR -------------------------------------------------------

/// Parsing is idempotent through a serialize round-trip, for every
/// dialect.
#[test]
fn conf_roundtrip_is_stable() {
    let mut g = Gen::new(0x01);
    for _ in 0..CASES {
        let n = g.usize(0, 8);
        // Suffix names with their index so `set` never collapses entries.
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("{}_{i}", gen_name(&mut g));
            let value = gen_value(&mut g);
            pairs.push((name, value));
        }
        for dialect in [
            Dialect::KeyValue,
            Dialect::Directive,
            Dialect::SpaceSeparated,
        ] {
            let mut conf = ConfFile {
                entries: vec![],
                dialect,
            };
            for (n, v) in &pairs {
                conf.set(n, v);
            }
            let text = conf.serialize();
            let reparsed = ConfFile::parse(&text, dialect);
            assert_eq!(reparsed.serialize(), text);
            for (n, v) in &pairs {
                assert_eq!(reparsed.get(n), Some(v.as_str()));
            }
        }
    }
}

/// `set` then `get` observes the written value; `remove` erases it.
#[test]
fn conf_set_get_remove() {
    let mut g = Gen::new(0x02);
    for _ in 0..CASES {
        let name = gen_name(&mut g);
        let v1 = gen_value(&mut g);
        let v2 = gen_value(&mut g);
        let mut conf = ConfFile::parse("", Dialect::KeyValue);
        conf.set(&name, &v1);
        conf.set(&name, &v2);
        assert_eq!(conf.get(&name), Some(v2.as_str()));
        // Double-set keeps a single entry.
        assert_eq!(conf.settings().count(), 1);
        conf.remove(&name);
        assert_eq!(conf.get(&name), None);
    }
}

// --- Comparison-operator algebra --------------------------------------------

/// Negation and flipping are involutions consistent with evaluation.
#[test]
fn cmp_op_algebra() {
    let mut g = Gen::new(0x03);
    for _ in 0..CASES {
        let a = g.int(-1000, 1000);
        let b = g.int(-1000, 1000);
        for op in [
            CmpOp::Lt,
            CmpOp::Gt,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.flipped().flipped(), op);
            assert_eq!(op.eval(a, b), !op.negated().eval(a, b));
            assert_eq!(op.eval(a, b), op.flipped().eval(b, a));
        }
    }
}

// --- VM semantics -----------------------------------------------------------

/// The interpreter's `atoi` matches C semantics: leading digits with
/// optional sign, 32-bit wrap, garbage yields zero.
#[test]
fn vm_atoi_matches_c_model() {
    let program = spex::lang::parse_program("int conv(char* s) { return atoi(s); }").unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let mut g = Gen::new(0x04);
    let letters: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
    let digits: Vec<char> = ('0'..='9').collect();
    for _ in 0..CASES {
        // Shape: `[ ]{0,2}-?[0-9]{0,12}[a-zA-Z]{0,3}`.
        let mut s = String::new();
        s.push_str(&" ".repeat(g.usize(0, 3)));
        if g.usize(0, 2) == 1 {
            s.push('-');
        }
        let nd = g.usize(0, 13);
        s.push_str(&g.string(&digits, nd));
        let nl = g.usize(0, 4);
        s.push_str(&g.string(&letters, nl));

        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("conv", &[Value::str(&s)]).unwrap();

        // Reference model.
        let t = s.trim_start();
        let (neg, rest) = match t.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, t),
        };
        let ds: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let mut acc: i64 = 0;
        for d in ds.bytes() {
            acc = acc.saturating_mul(10).saturating_add((d - b'0') as i64);
        }
        let expect = (if neg { -acc } else { acc }) as i32 as i64;
        assert_eq!(got, Value::Int(expect), "input {s:?}");
    }
}

/// Arithmetic expressions evaluate identically in the VM and a
/// reference evaluator (wrapping i64 semantics).
#[test]
fn vm_arithmetic_matches_reference() {
    let mut g = Gen::new(0x05);
    for _ in 0..64 {
        let a = g.int(-10_000, 10_000);
        let b = g.int(-10_000, 10_000);
        let c = g.int(1, 100);
        let src = format!("long f() {{ return ({a} + {b}) * {c} - {b} / {c}; }}");
        let program = spex::lang::parse_program(&src).unwrap();
        let module = spex::ir::lower_program(&program).unwrap();
        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("f", &[]).unwrap();
        let expect = (a.wrapping_add(b))
            .wrapping_mul(c)
            .wrapping_sub(b.wrapping_div(c));
        assert_eq!(got, Value::Int(expect));
    }
}

/// Control flow: the VM's loop summation equals the closed form.
#[test]
fn vm_loops_match_closed_form() {
    let program = spex::lang::parse_program(
        "long sum(int n) {
            long total = 0;
            for (int i = 1; i <= n; i++) { total += i; }
            return total;
        }",
    )
    .unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let mut g = Gen::new(0x06);
    for _ in 0..CASES {
        let n = g.int(0, 200);
        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("sum", &[Value::Int(n)]).unwrap();
        assert_eq!(got, Value::Int(n * (n + 1) / 2));
    }
}

// --- SSA invariants over generated programs ---------------------------------

/// Every function of a generated-style program stays verifier-clean
/// after SSA promotion, and each SSA value is defined exactly once.
#[test]
fn ssa_single_assignment_holds() {
    let mut g = Gen::new(0x07);
    for _ in 0..64 {
        let x = g.int(-50, 50);
        let y = g.int(-50, 50);
        let threshold = g.int(-20, 20);
        let src = format!(
            "int knob = {x};
             int f(int v) {{
                int acc = {y};
                if (v > {threshold}) {{ acc = v * 2; }}
                else {{ acc = v - knob; }}
                while (acc > 100) {{ acc -= 10; }}
                return acc;
             }}"
        );
        let program = spex::lang::parse_program(&src).unwrap();
        let module = spex::ir::lower_program(&program).unwrap();
        for f in &module.functions {
            let ssa = spex::ir::promote_to_ssa(f);
            let errors = spex::ir::verify::verify_function(&ssa);
            assert!(errors.is_empty(), "verifier: {errors:?}");
            let mut defs = std::collections::HashSet::new();
            for (_, _, instr, _) in ssa.iter_instrs() {
                if let Some(d) = instr.def() {
                    assert!(defs.insert(d), "double definition");
                }
            }
        }
    }
}

// --- Injection-harness value model ------------------------------------------

/// The user-intention parser honours plain integers exactly.
#[test]
fn intended_value_integers() {
    let mut g = Gen::new(0x08);
    for _ in 0..CASES {
        let v = g.int(-1_000_000, 1_000_000);
        assert_eq!(intended_value(&v.to_string()), Some(Value::Int(v)));
    }
}

/// Unit suffixes multiply as documented.
#[test]
fn intended_value_units() {
    let mut g = Gen::new(0x09);
    for _ in 0..CASES {
        let base = g.int(1, 1024);
        assert_eq!(
            intended_value(&format!("{base}K")),
            Some(Value::Int(base << 10))
        );
        assert_eq!(
            intended_value(&format!("{base}MB")),
            Some(Value::Int(base << 20))
        );
        assert_eq!(
            intended_value(&format!("{base}G")),
            Some(Value::Int(base << 30))
        );
    }
}

// --- Constraint database vs. a linear reference model -----------------------

/// Names colliding by case (and one by transposition), so exact and
/// case-insensitive lookups, case twins and did-you-mean ties all meet.
const DB_NAMES: &[&str] = &[
    "alpha", "Alpha", "ALPHA", "alpHa", "alpah", "beta", "Beta", "gamma",
];
/// Provenance modules; the empty one is hand-built provenance.
const DB_MODULES: &[&str] = &["", "m0", "m1", "m2"];

/// The reference model: the constraint database's table semantics as
/// linear scans over a `Vec<ParamEntry>` in first-seen order.
#[derive(Default)]
struct DbModel(Vec<ParamEntry>);

impl DbModel {
    fn slot(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|p| p.name == name)
    }

    fn note(&mut self, name: &str) -> usize {
        self.slot(name).unwrap_or_else(|| {
            self.0.push(ParamEntry {
                name: name.to_string(),
                ..ParamEntry::default()
            });
            self.0.len() - 1
        })
    }

    fn push(&mut self, i: usize, c: Constraint, module: &str) {
        self.0[i].constraints.push(c);
        self.0[i].provenance.push(module.to_string());
    }

    /// Inserts `module`'s constraints ahead of the first constraint
    /// credited to a module that sorts after it.
    fn insert_in_module_order(&mut self, i: usize, fresh: Vec<Constraint>, module: &str) {
        let e = &mut self.0[i];
        let at = e
            .provenance
            .iter()
            .position(|m| m.as_str() > module)
            .unwrap_or(e.provenance.len());
        for (k, c) in fresh.into_iter().enumerate() {
            e.constraints.insert(at + k, c);
            e.provenance.insert(at + k, module.to_string());
        }
    }

    fn remove_source(&mut self, module: &str, param: &str) -> usize {
        let Some(e) = self.0.iter_mut().find(|p| p.name == param) else {
            return 0;
        };
        let rows = std::mem::take(&mut e.constraints).into_iter();
        let mut removed = 0;
        for (c, m) in rows.zip(std::mem::take(&mut e.provenance)) {
            if m == module {
                removed += 1;
            } else {
                e.constraints.push(c);
                e.provenance.push(m);
            }
        }
        removed
    }

    fn ignore_case(&self, name: &str) -> Option<&ParamEntry> {
        self.0.iter().find(|p| p.name.eq_ignore_ascii_case(name))
    }

    fn params_from_source(&self, module: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|p| p.provenance.iter().any(|m| m == module))
            .map(|p| p.name.clone())
            .collect()
    }

    /// `merge` over the generated kinds: exact duplicates drop, a range
    /// conflict keeps the narrower interval (ties keep the incumbent), a
    /// basic-type conflict keeps the incumbent. Returns the report's
    /// `(params_added, added, deduped, conflicts)`.
    fn merge(&mut self, theirs: &[ParamEntry]) -> (usize, usize, usize, usize) {
        let mut tally = (0, 0, 0, 0);
        for t in theirs {
            tally.0 += usize::from(self.slot(&t.name).is_none());
            for (c, m) in t.constraints.iter().zip(&t.provenance) {
                let i = self.note(&c.param);
                let e = &mut self.0[i];
                if e.constraints.iter().any(|h| h.kind == c.kind) {
                    tally.2 += 1;
                } else if let Some(k) = e.constraints.iter().position(|h| {
                    matches!(
                        (&h.kind, &c.kind),
                        (ConstraintKind::Range(_), ConstraintKind::Range(_))
                            | (ConstraintKind::BasicType(_), ConstraintKind::BasicType(_))
                    )
                }) {
                    tally.3 += 1;
                    if range_width(&c.kind) < range_width(&e.constraints[k].kind) {
                        e.constraints[k] = c.clone();
                        e.provenance[k] = m.clone();
                    }
                } else {
                    self.push(i, c.clone(), m);
                    tally.1 += 1;
                }
            }
            self.note(&t.name);
        }
        tally
    }

    /// Parameters by name, each one's rows by (kind tokens, function,
    /// line, column, provenance).
    fn canonicalize(&mut self) {
        self.0.sort_by(|a, b| a.name.cmp(&b.name));
        for p in &mut self.0 {
            let mut rows: Vec<_> = p
                .constraints
                .drain(..)
                .zip(p.provenance.drain(..))
                .collect();
            rows.sort_by_key(|(c, m)| {
                let origin = (c.in_function.clone(), c.span.line, c.span.col);
                (kind_tokens(&c.kind), origin, m.clone())
            });
            (p.constraints, p.provenance) = rows.into_iter().unzip();
        }
    }

    /// A fresh database holding the model's entries, built by appends only.
    fn replay(&self) -> ConstraintDb {
        let mut db = ConstraintDb::new("S", Dialect::KeyValue);
        for p in &self.0 {
            db.note_param(&p.name);
            for (c, m) in p.with_provenance() {
                db.add_from(c.clone(), m);
            }
        }
        db
    }

    /// The did-you-mean answer by linear scan: minimum distance within
    /// 3, ties to the smallest name, over lowered names when `ci`.
    fn suggest(&self, key: &str, ci: bool) -> Option<String> {
        let fold = |s: &str| {
            if ci {
                s.to_ascii_lowercase()
            } else {
                s.to_string()
            }
        };
        let mut best: Option<(usize, &str)> = None;
        for p in &self.0 {
            let d = edit_distance(&fold(key), &fold(&p.name));
            if d <= 3 && best.is_none_or(|b| (d, p.name.as_str()) < b) {
                best = Some((d, &p.name));
            }
        }
        best.map(|(_, name)| name.to_string())
    }
}

fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(diag + 1);
        }
    }
    row[b.len()]
}

/// The serialized tokens of the kinds [`gen_constraint`] produces (the
/// first key of the canonical constraint order).
fn kind_tokens(kind: &ConstraintKind) -> String {
    match kind {
        ConstraintKind::Range(r) => {
            let (lo, hi) = (r.cutpoints[0], r.cutpoints[1]);
            format!("range {lo},{hi} *:{}:0,{lo}:{hi}:1,{}:*:0", lo - 1, hi + 1)
        }
        ConstraintKind::BasicType(BasicType::Bool) => "basic bool".into(),
        ConstraintKind::BasicType(_) => "basic str".into(),
        ConstraintKind::SemanticType(SemType::Port) => "sem port".into(),
        _ => "sem file".into(),
    }
}

fn range_width(kind: &ConstraintKind) -> i64 {
    match kind {
        ConstraintKind::Range(r) => r.cutpoints[1] - r.cutpoints[0],
        _ => i64::MAX,
    }
}

/// A constraint on `param`: a small finite range, a basic type or a
/// semantic type, from a few origins — so duplicates and conflicts recur.
fn gen_constraint(g: &mut Gen, param: &str) -> Constraint {
    let kind = match g.usize(0, 5) {
        0 | 1 => {
            let lo = g.int(0, 3);
            let hi = lo + g.int(1, 4);
            let seg = |lo, hi, valid| RangeSegment { lo, hi, valid };
            ConstraintKind::Range(NumericRange {
                cutpoints: vec![lo, hi],
                segments: vec![
                    seg(None, Some(lo - 1), false),
                    seg(Some(lo), Some(hi), true),
                    seg(Some(hi + 1), None, false),
                ],
            })
        }
        2 => ConstraintKind::BasicType(if g.usize(0, 2) == 0 {
            BasicType::Bool
        } else {
            BasicType::Str
        }),
        _ => ConstraintKind::SemanticType(if g.usize(0, 2) == 0 {
            SemType::Port
        } else {
            SemType::FilePath
        }),
    };
    Constraint {
        param: param.to_string(),
        kind,
        in_function: ["f", "g"][g.usize(0, 2)].to_string(),
        span: Span::new(g.usize(1, 3) as u32, 1),
    }
}

fn pick_str<'a>(g: &mut Gen, from: &[&'a str]) -> &'a str {
    from[g.usize(0, from.len())]
}

/// Everything observable about the table agrees between db and model.
fn assert_db_agrees(db: &ConstraintDb, model: &DbModel, ctx: &str) {
    assert_eq!(db.params[..], model.0[..], "{ctx}: entries in order");
    for name in DB_NAMES.iter().chain(&["BETA", "GAMMA", "delta"]) {
        let exact = model.slot(name).map(|i| &model.0[i]);
        assert_eq!(db.param(name), exact, "{ctx}: param({name})");
        let twin = model.ignore_case(name);
        assert_eq!(
            db.param_ignore_case(name),
            twin,
            "{ctx}: ignore_case({name})"
        );
    }
    for m in DB_MODULES {
        let owned = model.params_from_source(m);
        assert_eq!(db.params_from_source(m), owned, "{ctx}: from_source({m:?})");
    }
    let bytes = model.replay().save_to_string();
    assert_eq!(db.save_to_string(), bytes, "{ctx}: saved bytes");
}

/// The rename a session's unknown-key diagnostic proposes for `key`:
/// `None` when the key is known, `Some(None)` when unknown without a
/// suggestion.
fn proposed_rename(session: &CheckSession, key: &str) -> Option<Option<String>> {
    let diags = session.check_text(&format!("{key} = 1\n"));
    let unknown = diags.iter().find(|d| d.category() == "unknown-key")?;
    Some(match &unknown.fix {
        Some(Fix::RenameKey { to, .. }) => Some(to.clone()),
        _ => None,
    })
}

/// A session's wrong-case twin (first position) and did-you-mean
/// (smallest name among the closest) answers match the model's scans, in
/// both case modes.
fn assert_session_agrees(g: &mut Gen, db: &ConstraintDb, model: &DbModel, ctx: &str) {
    let mut keys = Vec::new();
    if !model.0.is_empty() {
        let name = &model.0[g.usize(0, model.0.len())].name;
        let flipped: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect();
        keys.push(flipped);
    }
    let base: Vec<char> = pick_str(g, DB_NAMES).chars().collect();
    let at = g.usize(0, base.len());
    let mut typo = base.clone();
    typo[at] = ['x', 'X'][g.usize(0, 2)];
    keys.push(typo.into_iter().collect());
    for key in keys.iter().filter(|k| model.slot(k).is_none()) {
        for ci in [false, true] {
            let session = CheckSession::new(db).case_insensitive_keys(ci);
            let expected = match model.ignore_case(key) {
                Some(_) if ci => None,
                Some(twin) => Some(Some(twin.name.clone())),
                None => Some(model.suggest(key, ci)),
            };
            let got = proposed_rename(&session, key);
            assert_eq!(got, expected, "{ctx}: key {key:?}, case-insensitive {ci}");
        }
    }
}

/// Seeded op sequences on `ConstraintDb` and on the linear model agree
/// after every op — entries, lookups, per-module ownership and saved
/// bytes — and removals of earlier entries leave the session's case-twin
/// lookup tied to the first db position.
#[test]
fn constraint_db_matches_linear_reference_model() {
    for seed in 0..40u64 {
        let mut g = Gen::new(0x0D_B000 + seed);
        let mut db = ConstraintDb::new("S", Dialect::KeyValue);
        let mut model = DbModel::default();
        for step in 0..60 {
            let ctx = format!("seed {seed} step {step}");
            let name = pick_str(&mut g, DB_NAMES);
            let module = pick_str(&mut g, DB_MODULES);
            match g.usize(0, 12) {
                0 => {
                    db.note_param(name);
                    model.note(name);
                }
                1 | 2 => {
                    let c = gen_constraint(&mut g, name);
                    db.add_from(c.clone(), module);
                    let i = model.note(name);
                    model.push(i, c, module);
                }
                3 | 4 => {
                    let n = g.usize(0, 3);
                    let fresh: Vec<Constraint> =
                        (0..n).map(|_| gen_constraint(&mut g, name)).collect();
                    let got = db.replace_source_param(module, name, fresh.clone());
                    let removed = model.remove_source(module, name);
                    let i = model.note(name);
                    model.insert_in_module_order(i, fresh, module);
                    assert_eq!(got, (removed, n), "{ctx}: replace counts");
                }
                5 => {
                    let got = db.remove_source_param(module, name);
                    assert_eq!(
                        got,
                        model.remove_source(module, name),
                        "{ctx}: remove count"
                    );
                }
                6 | 7 => {
                    // Mostly an *earlier* entry, so later slots shift.
                    let victim = if model.0.is_empty() || g.usize(0, 4) == 0 {
                        name.to_string()
                    } else {
                        model.0[g.usize(0, model.0.len().div_ceil(2))].name.clone()
                    };
                    let existed = model.slot(&victim).is_some();
                    model.0.retain(|p| p.name != victim);
                    assert_eq!(db.remove_param(&victim), existed, "{ctx}: remove_param");
                    assert_session_agrees(&mut g, &db, &model, &ctx);
                }
                8 | 9 => {
                    let mut other = ConstraintDb::new("S", Dialect::KeyValue);
                    for _ in 0..g.usize(1, 5) {
                        let name = pick_str(&mut g, DB_NAMES);
                        if g.usize(0, 4) == 0 {
                            other.note_param(name);
                        } else {
                            let c = gen_constraint(&mut g, name);
                            other.add_from(c, pick_str(&mut g, DB_MODULES));
                        }
                    }
                    let r = db.merge(&other).expect("same system and dialect");
                    let got = (r.params_added, r.added, r.deduped, r.conflicts.len());
                    assert_eq!(got, model.merge(&other.params), "{ctx}: merge report");
                }
                10 => {
                    db.canonicalize();
                    model.canonicalize();
                }
                _ => {
                    db = ConstraintDb::load_from_str(&db.save_to_string()).expect("reloads");
                    model.canonicalize();
                }
            }
            assert_db_agrees(&db, &model, &ctx);
        }
        assert_session_agrees(&mut g, &db, &model, &format!("seed {seed} end"));
    }
}
