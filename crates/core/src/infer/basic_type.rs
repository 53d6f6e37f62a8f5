//! Basic-type inference (§2.2.2, Figure 3a).
//!
//! "SPEX infers each parameter's basic type from its type information in
//! source code. On the data-flow path of a parameter, its type might be
//! casted multiple times. In such cases, we record the type after the first
//! casting as the basic type, because it is common for a parameter to be
//! first stored as a string before being transformed into its real type."

use crate::constraint::{BasicType, Constraint, ConstraintKind};
use crate::mapping::MappedParam;
use spex_dataflow::{AnalyzedModule, ModuleSummaries, ReturnTransfer, TaintResult, UseSite};
use spex_ir::{Callee, FuncId, Instr, ValueId};
use spex_lang::diag::Span;
use spex_lang::types::CType;

/// A string-to-value conversion event on the data-flow path.
struct ConversionEvent {
    depth: u32,
    ty: CType,
    func: FuncId,
    span: Span,
    dst: Option<ValueId>,
}

/// Infers the basic-type constraint for one parameter.
pub fn infer(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    param: &MappedParam,
    taint: &TaintResult,
) -> Option<Constraint> {
    let event = first_conversion(am, summaries, taint);
    if let Some(ev) = event {
        // Follow one refinement step: a conversion result immediately cast
        // or stored into a narrower location takes that location's type
        // (`int val = strtoll(...)` is a 32-bit integer parameter).
        let ty = refine_through_store(am, &ev).unwrap_or(ev.ty.clone());
        return Some(Constraint {
            param: param.name.clone(),
            kind: ConstraintKind::BasicType(BasicType::from_ctype(&ty)),
            in_function: am.module.func(ev.func).name.clone(),
            span: ev.span,
        });
    }
    // No conversion found: fall back on the backing variable's declared
    // type, then on the type of the shallowest tainted value (comparison-
    // mapped parameters have no declaration; their root value's type is the
    // representation the code reads).
    let ty = param
        .decl_ty
        .clone()
        .or_else(|| shallowest_type(am, taint))?;
    Some(Constraint {
        param: param.name.clone(),
        kind: ConstraintKind::BasicType(BasicType::from_ctype(&ty)),
        in_function: String::new(),
        span: param.decl_span,
    })
}

/// Ties on depth go to the lowest `(function, value)` id: the slice's
/// values are hashed, so iteration order alone would pick arbitrarily.
fn shallowest_type(am: &AnalyzedModule, taint: &TaintResult) -> Option<CType> {
    taint
        .values
        .iter()
        .min_by_key(|(&(f, v), &depth)| (depth, f, v))
        .map(|((f, v), _)| am.module.func(*f).value_type(*v).clone())
}

fn first_conversion(
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    taint: &TaintResult,
) -> Option<ConversionEvent> {
    let mut best: Option<ConversionEvent> = None;
    let mut consider = |ev: ConversionEvent| {
        if best.as_ref().map(|b| ev.depth < b.depth).unwrap_or(true) {
            best = Some(ev);
        }
    };
    for fid in taint.touched_functions() {
        let func = am.module.func(fid);
        for (_, _, instr, span) in func.iter_instrs() {
            match instr {
                Instr::Cast { dst, ty, operand } if taint.is_tainted(fid, *operand) => {
                    // Only casts that change representation matter.
                    let from = func.value_type(*operand);
                    if from != ty {
                        consider(ConversionEvent {
                            depth: taint.depth(fid, *operand).unwrap_or(u32::MAX),
                            ty: ty.clone(),
                            func: fid,
                            span,
                            dst: Some(*dst),
                        });
                    }
                }
                Instr::Call {
                    dst,
                    callee: Callee::Builtin(b),
                    args,
                } if b.is_numeric_conversion() => {
                    if let Some(arg) = args.first() {
                        if taint.is_tainted(fid, *arg) {
                            consider(ConversionEvent {
                                depth: taint.depth(fid, *arg).unwrap_or(u32::MAX),
                                ty: b.ret_type(),
                                func: fid,
                                span,
                                dst: *dst,
                            });
                        }
                    }
                }
                // A summarised wrapper around a numeric conversion acts as
                // the conversion itself at the call site; using the caller's
                // destination lets a caller-side store refine the type.
                Instr::Call {
                    dst,
                    callee: Callee::Func(g),
                    args,
                } => {
                    let Some(ReturnTransfer::Builtin(b)) = &summaries.get(*g).ret else {
                        continue;
                    };
                    if !b.is_numeric_conversion() {
                        continue;
                    }
                    if let Some(arg) = args.first() {
                        if taint.is_tainted(fid, *arg) {
                            consider(ConversionEvent {
                                depth: taint.depth(fid, *arg).unwrap_or(u32::MAX),
                                ty: b.ret_type(),
                                func: fid,
                                span,
                                dst: *dst,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    best
}

/// If the conversion result is immediately cast or stored somewhere typed,
/// use that type (the paper's Storage-A example narrows `strtoll` to i32).
fn refine_through_store(am: &AnalyzedModule, ev: &ConversionEvent) -> Option<CType> {
    let dst = ev.dst?;
    let func = am.module.func(ev.func);
    let ud = &am.usedefs[ev.func.index()];
    for site in ud.uses_of(dst) {
        if let UseSite::Instr(b, i) = site {
            match &func.blocks[b.index()].instrs[*i].0 {
                Instr::Cast { ty, .. } => return Some(ty.clone()),
                Instr::Store { place, value } if *value == dst => {
                    return place_type(am, ev.func, place);
                }
                Instr::Phi { dst: phi, .. } => {
                    // A phi merges the conversion with other defs; its type
                    // is the merged slot's declared type.
                    return Some(func.value_type(*phi).clone());
                }
                _ => {}
            }
        }
    }
    None
}

fn place_type(am: &AnalyzedModule, fid: FuncId, place: &spex_ir::Place) -> Option<CType> {
    use spex_ir::{PlaceBase, PlaceElem};
    let mut ty = match place.base {
        PlaceBase::Slot(s) => am.module.func(fid).slots[s.index()].ty.clone(),
        PlaceBase::Global(g) => am.module.global(g).ty.clone(),
        PlaceBase::ValuePtr(v) => match am.module.func(fid).value_type(v) {
            CType::Ptr(inner) => (**inner).clone(),
            _ => return None,
        },
    };
    for e in &place.elems {
        ty = match (e, ty) {
            (PlaceElem::Field(i), CType::Struct(name)) => am
                .module
                .struct_layout(&name)?
                .fields
                .get(*i as usize)?
                .1
                .clone(),
            (PlaceElem::IndexConst(_) | PlaceElem::IndexValue(_), CType::Array(elem, _)) => *elem,
            (PlaceElem::IndexConst(_) | PlaceElem::IndexValue(_), CType::Ptr(elem)) => *elem,
            (PlaceElem::Deref, CType::Ptr(elem)) => *elem,
            _ => return None,
        };
    }
    Some(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Annotation;
    use crate::constraint::BasicType;
    use crate::infer::Spex;

    fn basic_of(src: &str, ann: &str, param: &str) -> BasicType {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let anns = Annotation::parse(ann).unwrap();
        let a = Spex::analyze(m, &anns);
        a.param(param)
            .unwrap()
            .constraints
            .iter()
            .find_map(|c| match &c.kind {
                ConstraintKind::BasicType(b) => Some(b.clone()),
                _ => None,
            })
            .expect("basic type inferred")
    }

    #[test]
    fn declared_int_global() {
        let b = basic_of(
            r#"
            int workers = 4;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "workers", &workers } };
            void f() { listen(0, workers); }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
            "workers",
        );
        assert_eq!(
            b,
            BasicType::Int {
                bits: 32,
                signed: true
            }
        );
    }

    #[test]
    fn conversion_in_handler_gives_numeric_type() {
        // Figure 3(a): string converted with strtoll then stored in an int —
        // the parameter is a 32-bit integer.
        let b = basic_of(
            r#"
            struct cmd { char* name; fnptr handler; };
            int log_filesize = 0;
            int set_filesize(char* arg) {
                int val = strtoll(arg, NULL, 0);
                log_filesize = val;
                return 0;
            }
            struct cmd cmds[] = { { "log.filesize", set_filesize } };
            "#,
            "{ @STRUCT = cmds\n @PAR = [cmd, 1]\n @VAR = ([cmd, 2], $arg) }",
            "log.filesize",
        );
        assert_eq!(
            b,
            BasicType::Int {
                bits: 32,
                signed: true
            }
        );
    }

    #[test]
    fn atoi_without_narrowing_is_i32() {
        let b = basic_of(
            r#"
            struct cmd { char* name; fnptr handler; };
            int set_n(char* arg) { return atoi(arg); }
            struct cmd cmds[] = { { "n", set_n } };
            "#,
            "{ @STRUCT = cmds\n @PAR = [cmd, 1]\n @VAR = ([cmd, 2], $arg) }",
            "n",
        );
        assert_eq!(
            b,
            BasicType::Int {
                bits: 32,
                signed: true
            }
        );
    }

    #[test]
    fn string_param_without_conversion() {
        let b = basic_of(
            r#"
            char* log_path = "/var/log";
            struct opt { char* name; char* var; };
            struct opt options[] = { { "log_path", &log_path } };
            void f() { open(log_path, 0); }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
            "log_path",
        );
        assert_eq!(b, BasicType::Str);
    }

    #[test]
    fn strtod_gives_double() {
        let b = basic_of(
            r#"
            struct cmd { char* name; fnptr handler; };
            double ratio = 0.5;
            int set_ratio(char* arg) {
                ratio = strtod(arg, NULL);
                return 0;
            }
            struct cmd cmds[] = { { "ratio", set_ratio } };
            "#,
            "{ @STRUCT = cmds\n @PAR = [cmd, 1]\n @VAR = ([cmd, 2], $arg) }",
            "ratio",
        );
        assert_eq!(b, BasicType::Float { bits: 64 });
    }
}
