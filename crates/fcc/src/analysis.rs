//! Access analysis: regular sections, indirection detection, reduction
//! recognition (paper §3.3).
//!
//! "For each statement p in the program, for each definition or reference
//! in p to an indirection array, a section is constructed. A {READ},
//! {WRITE}, or {READ&WRITE} tag is associated with the section depending
//! on the access type. This section is associated with each element of F
//! that directly precedes p." With no interprocedural analysis, the fetch
//! point F for our units is the procedure entry.

use std::collections::BTreeMap;

use rsd::{Affine, Sym, SymDim, SymRsd};

use crate::ast::{BinOp, Expr, Stmt, Unit};
use crate::codegen::expr_to_string;

/// Merged access tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acc {
    Read,
    Write,
    ReadWrite,
}

impl Acc {
    fn merge(self, other: Acc) -> Acc {
        if self == other {
            self
        } else {
            Acc::ReadWrite
        }
    }

    pub fn tag(&self) -> &'static str {
        match self {
            Acc::Read => "READ",
            Acc::Write => "WRITE",
            Acc::ReadWrite => "READ&WRITE",
        }
    }
}

/// How a shared array is accessed within the analyzed nest.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessKind {
    /// The section of the array itself.
    Direct { section: SymRsd },
    /// Accessed through `ind`; `ind_section` is the slice of the
    /// indirection array traversed (the thing `Validate` needs).
    Indirect {
        ind: String,
        ind_section: SymRsd,
        /// Declared shape of the indirection array (printed extents).
        ind_dims: Vec<String>,
    },
}

/// One shared array's access summary at the fetch point.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSummary {
    pub array: String,
    pub acc: Acc,
    pub kind: AccessKind,
}

/// An irregular reduction `a(n) = a(n) ± e` with `n` from an indirection
/// array: rewritten to accumulate into a private `local_a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionInfo {
    pub array: String,
    pub local: String,
}

/// Everything the transformer needs to know about one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitAnalysis {
    pub unit: String,
    pub accesses: Vec<AccessSummary>,
    pub reductions: Vec<ReductionInfo>,
}

/// A loop in the current nest.
#[derive(Clone)]
struct LoopCtx {
    var: String,
    /// Bounds with outer loop variables already substituted by their own
    /// bounds (so evaluating at the extremes is direct).
    lo: Expr,
    hi: Expr,
}

/// Analyze a unit: walk its loop nests, summarize shared-array accesses.
pub fn analyze_unit(unit: &Unit) -> UnitAnalysis {
    let mut st = Analyzer {
        unit,
        loops: Vec::new(),
        copies: BTreeMap::new(),
        accesses: BTreeMap::new(),
        reductions: Vec::new(),
    };
    st.block(&unit.body);
    let mut accesses: Vec<AccessSummary> = st.accesses.into_values().collect();
    accesses.sort_by(|a, b| a.array.cmp(&b.array));
    UnitAnalysis {
        unit: unit.name.clone(),
        accesses,
        reductions: st.reductions,
    }
}

struct Analyzer<'u> {
    unit: &'u Unit,
    loops: Vec<LoopCtx>,
    /// Scalar copy table: `n1 = interaction_list(1, i)` records
    /// n1 → (interaction_list, [1, i]).
    copies: BTreeMap<String, (String, Vec<Expr>)>,
    /// Keyed by (array, indirection-array-or-"") for hull merging.
    accesses: BTreeMap<(String, String), AccessSummary>,
    reductions: Vec<ReductionInfo>,
}

impl Analyzer<'_> {
    fn shared(&self, name: &str) -> bool {
        self.unit.shared.contains(name)
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Do {
                var, lo, hi, body, ..
            } => {
                // Substitute enclosing loop extremes into the bounds so
                // deeper levels can evaluate their ranges (standard
                // monotone-bounds assumption of section analysis).
                let lo_s = self.subst_extremes(lo, false);
                let hi_s = self.subst_extremes(hi, true);
                self.loops.push(LoopCtx {
                    var: var.clone(),
                    lo: lo_s,
                    hi: hi_s,
                });
                // Loop bounds referencing shared arrays are reads too
                // (nbf's `last`).
                self.expr_reads(lo);
                self.expr_reads(hi);
                self.block(body);
                self.loops.pop();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr_reads(cond);
                self.block(then_body);
                self.block(else_body);
            }
            Stmt::Raw(_) => {}
            Stmt::Call { args, .. } => {
                for a in args {
                    self.expr_reads(a);
                }
                // A call is a possible fetch point / kill: scalar copies
                // may be clobbered.
                self.copies.clear();
            }
            Stmt::Assign { lhs, rhs } => {
                // Reduction recognition first: a(n) = a(n) ± e.
                if let Some(red) = self.match_reduction(lhs, rhs) {
                    if !self.reductions.contains(&red) {
                        self.reductions.push(red);
                    }
                    // The reduction becomes local accumulation: the
                    // shared array is NOT summarized as a fetch (its
                    // update happens in the pipelined epilogue).
                    // Still: RHS subexpressions other than the self
                    // reference are reads.
                    if let Expr::Bin(_, _, r) = rhs {
                        self.expr_reads(r);
                    }
                    return;
                }

                self.expr_reads(rhs);
                match lhs {
                    Expr::Var(v) => {
                        // Track scalar copies from array elements.
                        if let Expr::ArrayRef(a, subs) = rhs {
                            self.copies.insert(v.clone(), (a.clone(), subs.clone()));
                        } else {
                            self.copies.remove(v);
                        }
                    }
                    Expr::ArrayRef(a, subs) => {
                        for sub in subs {
                            self.expr_reads(sub);
                        }
                        self.record_access(a, subs, Acc::Write);
                    }
                    _ => {}
                }
            }
        }
    }

    /// `a(n) = a(n) + e` or `a(n) = a(n) - e`, `a` shared, `n` indirect.
    fn match_reduction(&self, lhs: &Expr, rhs: &Expr) -> Option<ReductionInfo> {
        let Expr::ArrayRef(a, subs) = lhs else {
            return None;
        };
        if !self.shared(a) {
            return None;
        }
        let Expr::Bin(op, l, _) = rhs else {
            return None;
        };
        if !matches!(op, BinOp::Add | BinOp::Sub) || **l != *lhs {
            return None;
        }
        // Subscript must come (directly or via copy) from an array — an
        // *irregular* reduction. Regular reductions stay as they are.
        let indirect = subs.iter().any(|s| match s {
            Expr::Var(v) => self.copies.contains_key(v),
            Expr::ArrayRef(..) => true,
            _ => false,
        });
        indirect.then(|| ReductionInfo {
            array: a.clone(),
            local: format!("local_{a}"),
        })
    }

    fn expr_reads(&mut self, e: &Expr) {
        match e {
            Expr::ArrayRef(a, subs) => {
                for s in subs {
                    self.expr_reads(s);
                }
                let a = a.clone();
                let subs = subs.clone();
                self.record_access(&a, &subs, Acc::Read);
            }
            Expr::Intrinsic(_, args) => {
                for a in args {
                    self.expr_reads(a);
                }
            }
            Expr::Bin(_, l, r) => {
                self.expr_reads(l);
                self.expr_reads(r);
            }
            Expr::Neg(x) => self.expr_reads(x),
            _ => {}
        }
    }

    /// Record one reference `array(subs)` with the given tag.
    fn record_access(&mut self, array: &str, subs: &[Expr], acc: Acc) {
        if !self.shared(array) {
            return;
        }
        // Indirect if any subscript is a tracked scalar copy or a direct
        // array reference.
        let origin: Option<(String, Vec<Expr>)> = subs.iter().find_map(|s| match s {
            Expr::Var(v) => self.copies.get(v).cloned(),
            Expr::ArrayRef(a, inner) => Some((a.clone(), inner.clone())),
            _ => None,
        });

        match origin {
            Some((ind, ind_subs)) if self.shared(&ind) => {
                let section = self.section_of(&ind_subs);
                let ind_dims = self
                    .unit
                    .dims
                    .get(&ind)
                    .map(|d| d.iter().map(expr_to_string).collect())
                    .unwrap_or_default();
                let key = (array.to_string(), ind.clone());
                match self.accesses.get_mut(&key) {
                    Some(sum) => {
                        sum.acc = sum.acc.merge(acc);
                        if let AccessKind::Indirect { ind_section, .. } = &mut sum.kind {
                            if let Some(h) = hull_sym(ind_section, &section) {
                                *ind_section = h;
                            }
                        }
                    }
                    None => {
                        self.accesses.insert(
                            key,
                            AccessSummary {
                                array: array.to_string(),
                                acc,
                                kind: AccessKind::Indirect {
                                    ind,
                                    ind_section: section,
                                    ind_dims,
                                },
                            },
                        );
                    }
                }
            }
            _ => {
                let section = self.section_of(subs);
                let key = (array.to_string(), String::new());
                match self.accesses.get_mut(&key) {
                    Some(sum) => {
                        sum.acc = sum.acc.merge(acc);
                        if let AccessKind::Direct { section: s0 } = &mut sum.kind {
                            if let Some(h) = hull_sym(s0, &section) {
                                *s0 = h;
                            }
                        }
                    }
                    None => {
                        self.accesses.insert(
                            key,
                            AccessSummary {
                                array: array.to_string(),
                                acc,
                                kind: AccessKind::Direct { section },
                            },
                        );
                    }
                }
            }
        }
    }

    /// Regular section of a subscript vector over the current loop nest.
    fn section_of(&self, subs: &[Expr]) -> SymRsd {
        SymRsd::new(subs.iter().map(|s| self.dim_of(s)).collect())
    }

    /// One dimension: evaluate the subscript at the loop extremes.
    fn dim_of(&self, sub: &Expr) -> SymDim {
        // Substitute every loop variable by its lo (resp. hi) bound and
        // affine-ize; non-affine parts become opaque symbols.
        let lo_e = fold(&self.subst_extremes(sub, false));
        let hi_e = fold(&self.subst_extremes(sub, true));
        let lo = affinize(&lo_e);
        let hi = affinize(&hi_e);
        // Stride: coefficient of the innermost loop variable, if the
        // subscript is affine in it (else 1).
        let stride = innermost_coeff(sub, &self.loops).unwrap_or(1).abs().max(1);
        // A subscript *decreasing* in the loop variable swaps bounds.
        if innermost_coeff(sub, &self.loops).unwrap_or(1) < 0 {
            SymDim {
                lo: hi,
                hi: lo,
                stride,
            }
        } else {
            SymDim { lo, hi, stride }
        }
    }

    /// Substitute every in-scope loop variable with its lower (upper)
    /// bound expression, outermost first.
    fn subst_extremes(&self, e: &Expr, upper: bool) -> Expr {
        let mut out = e.clone();
        for ctx in self.loops.iter().rev() {
            let bound = if upper { &ctx.hi } else { &ctx.lo };
            out = subst(&out, &ctx.var, bound);
        }
        out
    }
}

/// Coefficient of the innermost loop variable in `sub`, if affine.
fn innermost_coeff(sub: &Expr, loops: &[LoopCtx]) -> Option<i64> {
    let inner = loops.last()?;
    let a = affinize(sub);
    a.terms.get(&Sym::new(inner.var.clone())).copied()
}

/// Substitute `var := repl` in `e`.
pub(crate) fn subst(e: &Expr, var: &str, repl: &Expr) -> Expr {
    match e {
        Expr::Var(v) if v == var => repl.clone(),
        Expr::Var(_) | Expr::Int(_) | Expr::Real(_) => e.clone(),
        Expr::ArrayRef(a, subs) => Expr::ArrayRef(
            a.clone(),
            subs.iter().map(|s| subst(s, var, repl)).collect(),
        ),
        Expr::Intrinsic(f, args) => Expr::Intrinsic(
            f.clone(),
            args.iter().map(|s| subst(s, var, repl)).collect(),
        ),
        Expr::Bin(op, l, r) => Expr::Bin(
            *op,
            Box::new(subst(l, var, repl)),
            Box::new(subst(r, var, repl)),
        ),
        Expr::Neg(x) => Expr::Neg(Box::new(subst(x, var, repl))),
    }
}

/// Constant folding (enough to turn `last(1 - 1)` into `last(0)`).
pub(crate) fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Bin(op, l, r) => {
            let l = fold(l);
            let r = fold(r);
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                let v = match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div if *b != 0 => Some(a / b),
                    _ => None,
                };
                if let Some(v) = v {
                    return Expr::Int(v);
                }
            }
            // x + 0, x - 0, x * 1 …
            match (op, &l, &r) {
                (BinOp::Add, x, Expr::Int(0)) | (BinOp::Sub, x, Expr::Int(0)) => x.clone(),
                (BinOp::Add, Expr::Int(0), x) => x.clone(),
                (BinOp::Mul, x, Expr::Int(1)) | (BinOp::Mul, Expr::Int(1), x) => x.clone(),
                _ => Expr::Bin(*op, Box::new(l), Box::new(r)),
            }
        }
        Expr::Neg(x) => {
            let x = fold(x);
            if let Expr::Int(v) = x {
                Expr::Int(-v)
            } else {
                Expr::Neg(Box::new(x))
            }
        }
        Expr::ArrayRef(a, subs) => Expr::ArrayRef(a.clone(), subs.iter().map(fold).collect()),
        Expr::Intrinsic(f, args) => Expr::Intrinsic(f.clone(), args.iter().map(fold).collect()),
        _ => e.clone(),
    }
}

/// Lower an expression to an affine form over symbols; non-affine
/// subexpressions (array refs, intrinsics, products of variables) become
/// *opaque symbols* named by their printed form — regular section
/// analysis can still carry them to run time, where the application binds
/// them (e.g. `last(0)`).
pub(crate) fn affinize(e: &Expr) -> Affine {
    match fold(e) {
        Expr::Int(v) => Affine::constant(v),
        Expr::Var(v) => Affine::sym(v),
        Expr::Bin(BinOp::Add, l, r) => affinize(&l).add(&affinize(&r)),
        Expr::Bin(BinOp::Sub, l, r) => affinize(&l).sub(&affinize(&r)),
        Expr::Bin(BinOp::Mul, l, r) => match (fold(&l), fold(&r)) {
            (Expr::Int(k), x) | (x, Expr::Int(k)) => affinize(&x).scale(k),
            (l, r) => Affine::sym(expr_to_string(&Expr::Bin(
                BinOp::Mul,
                Box::new(l),
                Box::new(r),
            ))),
        },
        Expr::Neg(x) => affinize(&x).scale(-1),
        other => Affine::sym(expr_to_string(&other)),
    }
}

/// Dimension-wise hull of symbolic sections: exact when the bounds are
/// equal, constant-valued where comparable, else `None` keeps the first
/// (conservative — our kernels always merge cleanly).
fn hull_sym(a: &SymRsd, b: &SymRsd) -> Option<SymRsd> {
    if a.dims.len() != b.dims.len() {
        return None;
    }
    let mut dims = Vec::with_capacity(a.dims.len());
    for (da, db) in a.dims.iter().zip(&b.dims) {
        let stride = gcd(da.stride, db.stride).max(1);
        let lo = min_affine(&da.lo, &db.lo)?;
        let hi = max_affine(&da.hi, &db.hi)?;
        dims.push(SymDim { lo, hi, stride });
    }
    Some(SymRsd::new(dims))
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn min_affine(a: &Affine, b: &Affine) -> Option<Affine> {
    if a == b {
        return Some(a.clone());
    }
    match (a.is_constant(), b.is_constant()) {
        (true, true) => Some(Affine::constant(a.constant.min(b.constant))),
        _ => {
            // Same symbolic part, different constants: comparable.
            if a.terms == b.terms {
                Some(if a.constant <= b.constant {
                    a.clone()
                } else {
                    b.clone()
                })
            } else {
                None
            }
        }
    }
}

fn max_affine(a: &Affine, b: &Affine) -> Option<Affine> {
    if a == b {
        return Some(a.clone());
    }
    match (a.is_constant(), b.is_constant()) {
        (true, true) => Some(Affine::constant(a.constant.max(b.constant))),
        _ => {
            if a.terms == b.terms {
                Some(if a.constant >= b.constant {
                    a.clone()
                } else {
                    b.clone()
                })
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze(src: &str, unit: &str) -> UnitAnalysis {
        let p = parse(src).unwrap();
        analyze_unit(p.unit(unit).unwrap())
    }

    #[test]
    fn moldyn_computeforces_analysis() {
        let a = analyze(crate::fixtures::MOLDYN_SOURCE, "computeforces");
        // x read indirectly through interaction_list[1:2, 1:num_interactions]
        let x = a.accesses.iter().find(|s| s.array == "x").unwrap();
        assert_eq!(x.acc, Acc::Read);
        match &x.kind {
            AccessKind::Indirect {
                ind,
                ind_section,
                ind_dims,
            } => {
                assert_eq!(ind, "interaction_list");
                assert_eq!(ind_section.to_string(), "[1:2, 1:num_interactions]");
                assert_eq!(ind_dims, &["2", "num_interactions"]);
            }
            other => panic!("{other:?}"),
        }
        // forces recognized as an irregular reduction — no fetch summary.
        assert_eq!(
            a.reductions,
            vec![ReductionInfo {
                array: "forces".into(),
                local: "local_forces".into()
            }]
        );
        assert!(a.accesses.iter().all(|s| s.array != "forces"));
        // interaction_list itself is read directly.
        let il = a
            .accesses
            .iter()
            .find(|s| s.array == "interaction_list")
            .unwrap();
        assert!(matches!(il.kind, AccessKind::Direct { .. }));
    }

    #[test]
    fn nbf_nested_loop_with_array_bounds() {
        let a = analyze(crate::fixtures::NBF_SOURCE, "computenbfforces");
        let x = a
            .accesses
            .iter()
            .find(|s| s.array == "x" && matches!(s.kind, AccessKind::Indirect { .. }))
            .unwrap();
        match &x.kind {
            AccessKind::Indirect {
                ind, ind_section, ..
            } => {
                assert_eq!(ind, "partners");
                // k runs from last(0)+1 to last(num_molecules): opaque
                // symbols carry the array-valued bounds.
                let s = ind_section.to_string();
                assert!(s.contains("last(0) + 1"), "{s}");
                assert!(s.contains("last(num_molecules)"), "{s}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.reductions.len(), 1);
        assert_eq!(a.reductions[0].array, "forces");
        // x(i) also appears directly (hulled to [1:num_molecules]).
        // It merges into the same descriptor only if same key — here the
        // direct reference is a separate summary.
        // `last` is read directly.
        assert!(a.accesses.iter().any(|s| s.array == "last"));
    }

    #[test]
    fn direct_strided_section() {
        let src =
            "PROGRAM t\n!$SHARED a\nDIMENSION a(n)\nDO i = 1, n, 1\na(2*i) = 0.0\nENDDO\nEND\n";
        let a = analyze(src, "t");
        let s = &a.accesses[0];
        assert_eq!(s.acc, Acc::Write);
        match &s.kind {
            AccessKind::Direct { section } => {
                assert_eq!(section.to_string(), "[2:2*n:2]");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_write_merge() {
        let src =
            "PROGRAM t\n!$SHARED a\nDIMENSION a(n)\nDO i = 1, n\nb = a(i)\na(i) = b + 1\nENDDO\nEND\n";
        let a = analyze(src, "t");
        assert_eq!(a.accesses[0].acc, Acc::ReadWrite);
        assert!(
            a.reductions.is_empty(),
            "regular self-update is not an irregular reduction"
        );
    }

    #[test]
    fn non_shared_arrays_ignored() {
        let src = "PROGRAM t\nDIMENSION a(n)\nDO i = 1, n\na(i) = 1\nENDDO\nEND\n";
        let a = analyze(src, "t");
        assert!(a.accesses.is_empty());
    }

    #[test]
    fn fold_and_affinize() {
        use crate::ast::Expr as E;
        let e = E::Bin(
            BinOp::Sub,
            Box::new(E::Var("i".into())),
            Box::new(E::Int(0)),
        );
        assert_eq!(fold(&e), E::Var("i".into()));
        let aff = affinize(&E::Bin(
            BinOp::Add,
            Box::new(E::Bin(
                BinOp::Mul,
                Box::new(E::Int(3)),
                Box::new(E::Var("n".into())),
            )),
            Box::new(E::Int(2)),
        ));
        assert_eq!(aff.to_string(), "3*n + 2");
    }
}
