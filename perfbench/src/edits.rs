//! The edit script of the `edit-loop` workload. Each step edits one
//! module in one of three ways seen across releases of real systems:
//! a range check's bound moves outward, an unrelated helper function
//! comes or goes, or a new global lands in the module header. The three
//! dirty different amounts: one function, no parameter's slice, or the
//! whole module.

use crate::fleet::Member;
use crate::rng::Rng;
use spex_core::accuracy::TruthConstraint;
use spex_systems::spec::{Role, SystemSpec};
use std::fmt::Write;

/// One kind of edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Raise the maximum of a parameter checked at startup. Only the
    /// check's function changes; the spec changes too, so the ground
    /// truth follows.
    WidenBound,
    /// Add or remove a helper no parameter reaches.
    ToggleHelper,
    /// Add a global to the module header, which dirties the whole module.
    AddGlobal,
}

/// A module's current sources, as the edit script has left them.
pub struct LiveModule {
    pub name: String,
    spec: SystemSpec,
    generated: String,
    pub truth: Vec<TruthConstraint>,
    globals: usize,
    helper: bool,
}

impl LiveModule {
    pub fn new(m: &Member) -> LiveModule {
        LiveModule {
            name: m.name.clone(),
            spec: m.spec.clone(),
            generated: m.gen.source.clone(),
            truth: m.gen.truth.clone(),
            globals: 0,
            helper: false,
        }
    }

    /// The module's source text.
    pub fn source(&self) -> String {
        let mut s = String::with_capacity(self.generated.len() + 128);
        for g in 0..self.globals {
            let _ = writeln!(s, "int bench_global_{g} = {g};");
        }
        s.push_str(&self.generated);
        if self.helper {
            s.push_str("\nint bench_helper(int x) {\n    return x * 2 + 1;\n}\n");
        }
        s
    }

    /// Applies one edit of `kind`, or a helper toggle when the module has
    /// no range check to widen.
    pub fn apply(&mut self, kind: EditKind, rng: &mut Rng) {
        match kind {
            EditKind::WidenBound => {
                let ranged: Vec<usize> = (0..self.spec.params.len())
                    .filter(|&i| matches!(self.spec.params[i].role, Role::RangeExit { .. }))
                    .collect();
                if ranged.is_empty() {
                    return self.apply(EditKind::ToggleHelper, rng);
                }
                let i = ranged[rng.below(ranged.len())];
                let by = rng.range(1, 64);
                match &mut self.spec.params[i].role {
                    Role::RangeExit { max, .. } => *max += by,
                    _ => unreachable!("filtered to range roles"),
                }
                // The generator derives the global's initializer from the
                // bound. Keep the old one, so that the header is untouched
                // and the edit dirties only the function holding the check.
                let gen = spex_systems::generate(&self.spec);
                let global = &gen.param_globals[&self.spec.params[i].name];
                let old = global_line(&self.generated, global);
                let new = global_line(&gen.source, global);
                self.generated = gen.source.replacen(new, old, 1);
                self.truth = gen.truth;
            }
            EditKind::ToggleHelper => self.helper = !self.helper,
            EditKind::AddGlobal => self.globals += 1,
        }
    }
}

/// The line of `source` that declares `global`.
fn global_line<'s>(source: &'s str, global: &str) -> &'s str {
    let decl = format!("int {global} = ");
    source
        .lines()
        .find(|l| l.starts_with(&decl))
        .unwrap_or_else(|| panic!("no declaration of {global}"))
}

/// The next step of the script: which module, and which kind of edit.
/// No published traffic gives the kinds' shares, so each gets a third.
pub fn next_step(rng: &mut Rng, modules: usize) -> (usize, EditKind) {
    let module = rng.below(modules);
    let kind = match rng.below(3) {
        0 => EditKind::WidenBound,
        1 => EditKind::ToggleHelper,
        _ => EditKind::AddGlobal,
    };
    (module, kind)
}
