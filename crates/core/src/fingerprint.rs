//! Stable fingerprints of lowered modules, for incremental re-inference.
//!
//! The workspace API re-runs constraint inference only over functions whose
//! bodies actually changed. Change detection hashes the *lowered* IR rather
//! than source text, so whitespace and comment edits never dirty a
//! function, while any edit that survives lowering does.
//!
//! Two kinds of fingerprints cover a module:
//!
//! * [`function_fingerprints`] — one hash per function, keyed by name,
//!   over the function's printed IR (value numbering is function-local, so
//!   an edit in one function never shifts another's hash);
//! * [`header_fingerprint`] — one hash over everything that is *not* a
//!   function body: globals (types and initializers), struct layouts and
//!   enum constants. Mapping extraction and declared-type fallbacks read
//!   these, so a header change invalidates all functions at once.

use spex_ir::printer::print_function;
use spex_ir::Module;
use std::collections::BTreeMap;
use std::fmt::Write;

/// 64-bit FNV-1a; deterministic across runs and platforms (no `RandomState`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes every function body, keyed by function name.
///
/// Duplicate names (ill-formed modules) fold both bodies into one hash, so
/// a change to either dirties the name.
pub fn function_fingerprints(module: &Module) -> BTreeMap<String, u64> {
    let mut fps: BTreeMap<String, u64> = BTreeMap::new();
    for f in &module.functions {
        let text = print_function(f, module);
        let fp = fnv1a(text.as_bytes());
        fps.entry(f.name.clone())
            .and_modify(|prev| *prev = fnv1a(&[prev.to_le_bytes(), fp.to_le_bytes()].concat()))
            .or_insert(fp);
    }
    fps
}

/// Hashes the module's non-function surface: globals, struct layouts and
/// enum constants, in deterministic order.
pub fn header_fingerprint(module: &Module) -> u64 {
    let mut text = String::new();
    for g in &module.globals {
        let _ = writeln!(text, "global {} : {} = {:?}", g.name, g.ty, g.init);
    }
    for s in &module.structs {
        let _ = write!(text, "struct {} {{", s.name);
        for (fname, fty) in &s.fields {
            let _ = write!(text, " {fname}: {fty};");
        }
        let _ = writeln!(text, " }}");
    }
    let consts: BTreeMap<&str, i64> = module
        .enum_consts
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    for (k, v) in consts {
        let _ = writeln!(text, "enum {k} = {v}");
    }
    fnv1a(text.as_bytes())
}

/// The difference between two fingerprint maps: which function names must
/// be considered dirty for re-inference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintDiff {
    /// Present in both maps with different hashes.
    pub changed: Vec<String>,
    /// Present only in the new map.
    pub added: Vec<String>,
    /// Present only in the old map.
    pub removed: Vec<String>,
}

impl FingerprintDiff {
    /// Whether the two maps are identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// All dirty names — changed, added and removed — in sorted order.
    pub fn dirty_names(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .changed
            .iter()
            .chain(&self.added)
            .chain(&self.removed)
            .cloned()
            .collect();
        all.sort_unstable();
        all
    }
}

/// Whether `next` keeps `prev`'s id space: the same globals (name and
/// order) and `prev`'s function table a prefix of `next`'s, so every
/// `FuncId`/`GlobalId` embedded in a `prev` function body or a cached
/// artifact still resolves to the same entity in `next`.
pub fn ids_stable(prev: &Module, next: &Module) -> bool {
    prev.functions.len() <= next.functions.len()
        && prev
            .functions
            .iter()
            .zip(&next.functions)
            .all(|(a, b)| a.name == b.name)
        && prev.globals.len() == next.globals.len()
        && prev
            .globals
            .iter()
            .zip(&next.globals)
            .all(|(a, b)| a.name == b.name)
}

/// Diffs two fingerprint maps (old → new).
pub fn diff_fingerprints(
    old: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
) -> FingerprintDiff {
    let mut diff = FingerprintDiff::default();
    for (name, fp) in new {
        match old.get(name) {
            None => diff.added.push(name.clone()),
            Some(prev) if prev != fp => diff.changed.push(name.clone()),
            Some(_) => {}
        }
    }
    for name in old.keys() {
        if !new.contains_key(name) {
            diff.removed.push(name.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> Module {
        let p = spex_lang::parse_program(src).unwrap();
        spex_ir::lower_program(&p).unwrap()
    }

    const BASE: &str = r#"
        int threads = 4;
        void f() { if (threads > 8) { exit(1); } }
        void g() { sleep(threads); }
    "#;

    #[test]
    fn whitespace_and_comment_edits_do_not_dirty() {
        let a = function_fingerprints(&lower(BASE));
        let b = function_fingerprints(&lower(
            r#"
            int threads = 4;
            // a comment
            void f() {
                if (threads > 8) { exit(1); }
            }
            void g() { sleep(threads); }
            "#,
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn editing_one_function_dirties_only_it() {
        let old = function_fingerprints(&lower(BASE));
        let new = function_fingerprints(&lower(
            r#"
            int threads = 4;
            void f() { if (threads > 8) { exit(1); } }
            void g() { sleep(threads); sleep(threads); }
            "#,
        ));
        let d = diff_fingerprints(&old, &new);
        assert_eq!(d.changed, vec!["g".to_string()]);
        assert!(d.added.is_empty() && d.removed.is_empty());
    }

    #[test]
    fn added_and_removed_functions_are_reported() {
        let old = function_fingerprints(&lower(BASE));
        let new = function_fingerprints(&lower(
            r#"
            int threads = 4;
            void f() { if (threads > 8) { exit(1); } }
            void h() { listen(0, threads); }
            "#,
        ));
        let d = diff_fingerprints(&old, &new);
        assert!(d.changed.is_empty());
        assert_eq!(d.added, vec!["h".to_string()]);
        assert_eq!(d.removed, vec!["g".to_string()]);
        assert_eq!(d.dirty_names(), vec!["g".to_string(), "h".to_string()]);
    }

    #[test]
    fn header_tracks_globals_not_bodies() {
        let base = header_fingerprint(&lower(BASE));
        let body_edit = header_fingerprint(&lower(
            r#"
            int threads = 4;
            void f() { exit(1); }
            void g() { sleep(threads); }
            "#,
        ));
        assert_eq!(base, body_edit, "body edits must not dirty the header");
        let global_edit = header_fingerprint(&lower(
            r#"
            int threads = 8;
            void f() { if (threads > 8) { exit(1); } }
            void g() { sleep(threads); }
            "#,
        ));
        assert_ne!(base, global_edit, "initializer edits must dirty the header");
    }
}
