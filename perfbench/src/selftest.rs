//! Self-tests of the benchmark's generators: same seed, same inputs; the
//! corpus has its stated mix; every typo is one edit from exactly one
//! name; the edit script keeps pristine templates valid; and a widened
//! bound dirties one function, not the module header.

use crate::corpus::{self, levenshtein, neighbours, Fault};
use crate::edits::{next_step, EditKind, LiveModule};
use crate::fleet;
use crate::oracle;
use crate::rng::Rng;
use std::collections::HashSet;

#[test]
fn same_seed_same_inputs() {
    let (a, b) = (fleet::sample(9, 24), fleet::sample(9, 24));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.gen.source, y.gen.source);
        assert_eq!(x.gen.annotations, y.gen.annotations);
        assert_eq!(x.gen.template_conf, y.gen.template_conf);
    }
    assert_eq!(corpus::build(9, &a), corpus::build(9, &b));
    let steps = |seed| {
        let mut rng = Rng::new(seed);
        (0..50).map(|_| next_step(&mut rng, 24)).collect::<Vec<_>>()
    };
    assert_eq!(steps(9), steps(9));
    let other = fleet::sample(10, 24);
    assert!(a
        .iter()
        .zip(&other)
        .any(|(x, y)| x.gen.source != y.gen.source));
}

#[test]
fn half_fleet_is_a_prefix() {
    let (full, half) = (fleet::sample(4, 16), fleet::sample(4, 8));
    for (x, y) in full.iter().zip(&half) {
        assert_eq!(x.gen.source, y.gen.source);
    }
}

#[test]
fn corpus_has_the_stated_mix() {
    let members = fleet::sample(3, 256);
    let files = corpus::build(3, &members);
    assert_eq!(files.len(), 256 * corpus::FILES_PER_MODULE);
    let share = |f: &dyn Fn(&Fault) -> bool| {
        files.iter().filter(|c| f(&c.fault)).count() as f64 / files.len() as f64
    };
    let unknown = share(&|f| matches!(f, Fault::UnknownKey { .. }));
    let near = share(&|f| matches!(f, Fault::UnknownKey { near: Some(_), .. }));
    let invalid = share(&|f| matches!(f, Fault::Invalid { .. }));
    assert!((0.12..0.165).contains(&unknown), "unknown keys {unknown}");
    assert!((0.4..0.6).contains(&(near / unknown)), "near misses {near}");
    assert!((0.11..0.165).contains(&invalid), "invalid values {invalid}");
    // Pristine files are the template verbatim; faulty ones differ.
    for c in &files {
        let template = &members[c.module].gen.template_conf;
        assert_eq!(matches!(c.fault, Fault::None), c.text == *template);
    }
}

#[test]
fn typos_are_one_edit_from_exactly_one_name() {
    let members = fleet::sample(5, 64);
    let keys: HashSet<&str> = members
        .iter()
        .flat_map(|m| m.spec.params.iter().map(|p| p.name.as_str()))
        .collect();
    let mut near_misses = 0;
    for c in corpus::build(5, &members) {
        let Fault::UnknownKey { key, near } = &c.fault else {
            continue;
        };
        assert!(!keys.contains(key.as_str()), "{key} is a real name");
        let close: Vec<&str> = keys
            .iter()
            .copied()
            .filter(|k| levenshtein(key, k) <= 1)
            .collect();
        match near {
            Some(target) => {
                near_misses += 1;
                assert_eq!(close, vec![target.as_str()], "{key}");
                assert_eq!(neighbours(key, &keys), close, "{key}");
            }
            None => assert!(
                keys.iter().all(|k| levenshtein(key, k) > 3),
                "{key} is within suggestion distance of a name"
            ),
        }
    }
    assert!(near_misses > 20);
}

#[test]
fn levenshtein_counts_single_edits() {
    assert_eq!(levenshtein("m0001_p2", "m0001_p2"), 0);
    assert_eq!(levenshtein("m0001_p2", "m0001_q2"), 1);
    assert_eq!(levenshtein("m0001_p2", "m0001p2"), 1);
    assert_eq!(levenshtein("m0001_p2", "m0001_px2"), 1);
    assert_eq!(levenshtein("m0001_p2", "m0010_p2"), 2);
    assert_eq!(levenshtein("", "abc"), 3);
}

#[test]
fn edits_keep_pristine_templates_valid() {
    let members = fleet::sample(8, 12);
    let mut live: Vec<LiveModule> = members.iter().map(LiveModule::new).collect();
    let mut rng = Rng::new(8);
    for _ in 0..120 {
        let (m, kind) = next_step(&mut rng, live.len());
        live[m].apply(kind, &mut rng);
    }
    // Against the edited ground truth, every template stays clean ...
    for (m, l) in members.iter().zip(&live) {
        let pristine = Fault::None;
        assert_eq!(oracle::expected(&pristine, &l.truth), None);
        for line in m.gen.template_conf.lines() {
            let (param, value) = line.split_once(" = ").expect("key = value");
            if let (Some((lo, hi)), Ok(v)) = (corpus::interval(&l.truth, param), value.parse()) {
                assert!((lo..=hi).contains(&v), "{param} = {v} outside [{lo},{hi}]");
            }
        }
    }
    // ... and the checker agrees once the edited sources are analyzed.
    let mut ws = spex_check::Workspace::new("fleet", spex_conf::Dialect::KeyValue)
        .with_threads(1)
        .with_static_env(fleet::host_env(&members));
    for (m, l) in members.iter().zip(&live) {
        ws.add_module(m.name.clone(), &l.source(), &m.gen.annotations)
            .expect("edited module loads");
    }
    ws.reanalyze();
    for m in &members {
        assert_eq!(ws.check_text(&m.gen.template_conf), vec![], "{}", m.name);
    }
}

#[test]
fn widening_a_bound_dirties_one_function_only() {
    use spex_core::fingerprint::{function_fingerprints, header_fingerprint};
    let lower = |src: &str| {
        let program = spex_lang::parse_program(src).expect("parses");
        spex_ir::lower_program(&program).expect("lowers")
    };
    let members = fleet::sample(6, 64);
    let mut rng = Rng::new(6);
    let mut widened = 0;
    for m in &members {
        let mut live = LiveModule::new(m);
        let before = lower(&live.source());
        live.apply(EditKind::WidenBound, &mut rng);
        if live.truth == m.gen.truth {
            continue; // no range check, so the edit toggled a helper
        }
        widened += 1;
        let after = lower(&live.source());
        assert_eq!(
            header_fingerprint(&before),
            header_fingerprint(&after),
            "{}",
            m.name
        );
        let (old, new) = (
            function_fingerprints(&before),
            function_fingerprints(&after),
        );
        assert_eq!(old.len(), new.len(), "{}", m.name);
        let changed = old.iter().filter(|(f, fp)| new[*f] != **fp).count();
        assert_eq!(changed, 1, "{}", m.name);
    }
    assert!(widened > 20, "{widened} modules widened");
}
