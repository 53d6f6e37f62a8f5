//! The deployment corpus: per module, mostly pristine copies of its
//! template, about one file in seven with one unknown key and about one
//! in seven with one invalid value. Every file carries the fault the
//! benchmark put in it, from which its expected verdict follows.

use crate::fleet::Member;
use crate::rng::Rng;
use spex_core::accuracy::TruthConstraint;
use std::collections::HashSet;

/// Files generated per module.
pub const FILES_PER_MODULE: usize = 16;

/// Letters the typo generator edits with: every character a parameter
/// name uses, and no upper case (a case-only change is a different
/// diagnostic).
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// Words unrelated keys are made of. Each unrelated key is at least 13
/// characters long, and every parameter name has 8, so no name is within
/// the checker's suggestion distance (3) of one.
const WORDS: &[&str] = &[
    "legacy", "cache", "window", "spool", "relay", "quota", "banner", "mirror", "shard", "ticket",
    "vault", "beacon", "ledger", "socket", "tunnel", "anchor",
];

/// What the benchmark did to a file.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A pristine template.
    None,
    /// One appended setting whose key names no parameter; `near` is the
    /// one parameter the key is a single edit away from, if any.
    UnknownKey { key: String, near: Option<String> },
    /// One setting given a value its ground truth rules out.
    Invalid {
        param: String,
        value: String,
        kind: Invalid,
    },
}

/// Which ground-truth constraint an invalid value breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Invalid {
    /// Above the range's maximum; valid again once the bound is widened
    /// past it.
    AboveRange,
    /// Not one of the enumerated values.
    NotInEnum,
    /// Not an integer at all.
    NotInteger,
    /// A file path the host does not have.
    MissingFile,
    /// A port another process holds on the host.
    TakenPort,
}

/// One generated config file.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfCase {
    pub label: String,
    pub module: usize,
    pub text: String,
    pub fault: Fault,
}

/// Builds the corpus for `members`: `FILES_PER_MODULE` files each.
pub fn build(seed: u64, members: &[Member]) -> Vec<ConfCase> {
    let mut rng = Rng::new(seed ^ 0xc0f1_c0f1);
    let keys: HashSet<&str> = members
        .iter()
        .flat_map(|m| m.spec.params.iter().map(|p| p.name.as_str()))
        .collect();
    let mut files = Vec::with_capacity(members.len() * FILES_PER_MODULE);
    for (i, m) in members.iter().enumerate() {
        for j in 0..FILES_PER_MODULE {
            let template = &m.gen.template_conf;
            let (text, fault) = match rng.below(7) {
                0 => unknown_key(&mut rng, m, &keys, template),
                1 => match invalid_value(&mut rng, m, template) {
                    Some(case) => case,
                    None => (template.clone(), Fault::None),
                },
                _ => (template.clone(), Fault::None),
            };
            files.push(ConfCase {
                label: format!("{}/host{j:02}.conf", m.prefix()),
                module: i,
                text,
                fault,
            });
        }
    }
    files
}

fn unknown_key(rng: &mut Rng, m: &Member, keys: &HashSet<&str>, template: &str) -> (String, Fault) {
    let (key, near) = if rng.coin() {
        let (typo, near) = near_miss(rng, m, keys);
        (typo, Some(near))
    } else {
        let mut key = String::from("x");
        while key.len() < 13 {
            key.push('_');
            key.push_str(WORDS[rng.below(WORDS.len())]);
        }
        (key, None)
    };
    let text = format!("{template}{key} = 1\n");
    (text, Fault::UnknownKey { key, near })
}

/// A single-edit misspelling of one of the member's parameters that is
/// one edit away from that parameter and from no other name in the fleet.
fn near_miss(rng: &mut Rng, m: &Member, keys: &HashSet<&str>) -> (String, String) {
    loop {
        let target = &m.spec.params[rng.below(m.spec.params.len())].name;
        let typo = one_edit(rng, target);
        if keys.contains(typo.as_str()) {
            continue;
        }
        let near = neighbours(&typo, keys);
        if near.len() == 1 && near[0] == target.as_str() {
            return (typo, target.clone());
        }
    }
}

/// One random substitution, insertion or deletion.
pub fn one_edit(rng: &mut Rng, word: &str) -> String {
    let mut b = word.as_bytes().to_vec();
    let c = ALPHABET[rng.below(ALPHABET.len())];
    match rng.below(3) {
        0 => {
            let at = rng.below(b.len());
            b[at] = c;
        }
        1 => b.insert(rng.below(b.len() + 1), c),
        _ => {
            b.remove(rng.below(b.len()));
        }
    }
    String::from_utf8(b).expect("ASCII edits keep the name ASCII")
}

/// Every name in `keys` exactly one edit from `word`, found by trying
/// every single edit of `word` over `ALPHABET` (which covers every
/// character a name can hold), confirmed with [`levenshtein`].
pub fn neighbours<'k>(word: &str, keys: &HashSet<&'k str>) -> Vec<&'k str> {
    let b = word.as_bytes();
    let mut found: Vec<&'k str> = Vec::new();
    let mut probe = |cand: Vec<u8>| {
        if let Ok(s) = std::str::from_utf8(&cand) {
            if let Some(&k) = keys.get(s) {
                if !found.contains(&k) && levenshtein(word, k) == 1 {
                    found.push(k);
                }
            }
        }
    };
    for at in 0..b.len() {
        let mut del = b.to_vec();
        del.remove(at);
        probe(del);
    }
    for &c in ALPHABET {
        for at in 0..=b.len() {
            let mut ins = b.to_vec();
            ins.insert(at, c);
            probe(ins);
            if at < b.len() && b[at] != c {
                let mut sub = b.to_vec();
                sub[at] = c;
                probe(sub);
            }
        }
    }
    found
}

/// Plain Levenshtein distance over bytes.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &x) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, &y) in b.iter().enumerate() {
            cur[j + 1] = (prev[j] + usize::from(x != y))
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

/// An invalid value for one of the member's parameters, derived from its
/// ground truth. Parameters in a control dependency (either side) are
/// left alone, so exactly one setting is at fault.
fn invalid_value(rng: &mut Rng, m: &Member, template: &str) -> Option<(String, Fault)> {
    let truth = &m.gen.truth;
    let tied: HashSet<&str> = truth
        .iter()
        .filter(|t| t.category == "control-dep")
        .flat_map(|t| [t.param.as_str(), t.key.split("!=").next().unwrap_or("")])
        .collect();
    let candidates: Vec<(&str, Invalid)> = m
        .spec
        .params
        .iter()
        .filter(|p| !tied.contains(p.name.as_str()))
        .filter_map(|p| invalid_kind(truth, &p.name).map(|k| (p.name.as_str(), k)))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (param, kind) = candidates[rng.below(candidates.len())];
    let value = match kind {
        Invalid::AboveRange => {
            let (_, hi) = interval(truth, param).expect("kind chosen from an interval");
            (hi + 1 + rng.range(0, 64)).to_string()
        }
        Invalid::NotInEnum => match enum_values(truth, param) {
            Some(vals) if vals.iter().all(|v| v.parse::<i64>().is_ok()) => {
                (vals.len() as i64 + 3 + rng.range(0, 16)).to_string()
            }
            _ => "maybe".to_string(),
        },
        Invalid::NotInteger => format!("{}k9", rng.range(1, 99)),
        Invalid::MissingFile => format!("/missing/{param}.dat"),
        Invalid::TakenPort => "80".to_string(),
    };
    let text = set_value(template, param, &value);
    Some((
        text,
        Fault::Invalid {
            param: param.to_string(),
            value,
            kind,
        },
    ))
}

/// The kind of invalid value a parameter's truth supports, if any.
fn invalid_kind(truth: &[TruthConstraint], param: &str) -> Option<Invalid> {
    let mine = || truth.iter().filter(move |t| t.param == param);
    if interval(truth, param).is_some() {
        Some(Invalid::AboveRange)
    } else if enum_values(truth, param).is_some() {
        Some(Invalid::NotInEnum)
    } else if mine().any(|t| t.key == "FILE") {
        Some(Invalid::MissingFile)
    } else if mine().any(|t| t.key == "PORT") {
        Some(Invalid::TakenPort)
    } else if mine().all(|t| t.category == "basic-type" && t.key.contains("INTEGER")) {
        Some(Invalid::NotInteger)
    } else {
        None
    }
}

/// The `[lo,hi]` interval a parameter's truth states.
pub fn interval(truth: &[TruthConstraint], param: &str) -> Option<(i64, i64)> {
    truth.iter().find_map(|t| {
        let inner = t.key.strip_prefix('[')?.strip_suffix(']')?;
        let (lo, hi) = inner.split_once(',')?;
        (t.param == param && t.category == "data-range")
            .then(|| Some((lo.parse().ok()?, hi.parse().ok()?)))
            .flatten()
    })
}

/// The values of an enumerated range in a parameter's truth.
fn enum_values(truth: &[TruthConstraint], param: &str) -> Option<Vec<String>> {
    truth.iter().find_map(|t| {
        let inner = t.key.strip_prefix('{')?.strip_suffix('}')?;
        (t.param == param && t.category == "data-range").then(|| {
            inner
                .split(',')
                .map(|v| v.trim_matches('"').to_string())
                .collect()
        })
    })
}

/// `template` with `param` set to `value`: its line rewritten when the
/// template sets it, otherwise one line appended.
fn set_value(template: &str, param: &str, value: &str) -> String {
    let mut out = String::with_capacity(template.len() + 32);
    let mut found = false;
    for line in template.lines() {
        if line.split_whitespace().next() == Some(param) {
            out.push_str(&format!("{param} = {value}\n"));
            found = true;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    if !found {
        out.push_str(&format!("{param} = {value}\n"));
    }
    out
}
