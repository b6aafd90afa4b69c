//! Code generation: AST → Fortran-77-style text.
//!
//! Printing the transformed AST of the paper's Figure 1 regenerates its
//! Figure 2 (the golden test in `tests/figures.rs` checks this).

use crate::ast::{Expr, Program, Stmt, Unit};

/// Emit a whole program.
pub fn emit_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, u) in p.units.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        emit_unit(u, &mut out);
    }
    out
}

/// Emit one unit.
pub fn emit_unit(u: &Unit, out: &mut String) {
    let kw = if u.is_program {
        "PROGRAM"
    } else {
        "SUBROUTINE"
    };
    let name = pretty_name(&u.name);
    if u.is_program {
        out.push_str(&format!("{kw} {}\n", name.to_uppercase()));
    } else {
        out.push_str(&format!("      {kw} {name}()\n"));
    }
    if !u.shared.is_empty() && u.is_program {
        out.push_str(&format!(
            "!$SHARED {}\n",
            u.shared.iter().cloned().collect::<Vec<_>>().join(", ")
        ));
    }
    for (name, extents) in &u.dims {
        let ext = extents
            .iter()
            .map(expr_to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("      DIMENSION {name}({ext})\n"));
    }
    for s in &u.body {
        emit_stmt(s, 1, out);
    }
    out.push_str("      END\n");
}

fn indent(level: usize) -> String {
    // 6-column Fortran margin, then two spaces per nesting level.
    format!("      {}", "  ".repeat(level.saturating_sub(1)))
}

fn emit_stmt(s: &Stmt, level: usize, out: &mut String) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            out.push_str(&format!(
                "{}{} = {}\n",
                indent(level),
                expr_to_string(lhs),
                expr_to_string(rhs)
            ));
        }
        Stmt::Do {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let step_s = step
                .as_ref()
                .map(|e| format!(", {}", expr_to_string(e)))
                .unwrap_or_default();
            out.push_str(&format!(
                "{}DO {} = {}, {}{}\n",
                indent(level),
                var,
                expr_to_string(lo),
                expr_to_string(hi),
                step_s
            ));
            for b in body {
                emit_stmt(b, level + 1, out);
            }
            out.push_str(&format!("{}ENDDO\n", indent(level)));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push_str(&format!(
                "{}IF ({}) THEN\n",
                indent(level),
                expr_to_string(cond)
            ));
            for b in then_body {
                emit_stmt(b, level + 1, out);
            }
            if !else_body.is_empty() {
                out.push_str(&format!("{}ELSE\n", indent(level)));
                for b in else_body {
                    emit_stmt(b, level + 1, out);
                }
            }
            out.push_str(&format!("{}ENDIF\n", indent(level)));
        }
        Stmt::Call { name, args } => {
            let args_s = args
                .iter()
                .map(expr_to_string)
                .collect::<Vec<_>>()
                .join(", ");
            if args.is_empty() {
                out.push_str(&format!("{}call {}()\n", indent(level), pretty_name(name)));
            } else {
                out.push_str(&format!(
                    "{}call {}({})\n",
                    indent(level),
                    pretty_name(name),
                    args_s
                ));
            }
        }
        Stmt::Raw(line) => {
            out.push_str(&format!("{}{}\n", indent(level), line));
        }
    }
}

/// Well-known mixed-case names from the paper's figures; everything else
/// prints lowercase (the lexer normalized case away).
fn pretty_name(lower: &str) -> String {
    match lower {
        "computeforces" => "ComputeForces".into(),
        "computenbfforces" => "ComputeNbfForces".into(),
        "build_interaction_list" => "build_interaction_list".into(),
        "validate" => "Validate".into(),
        other => other.into(),
    }
}

/// Expression printer (also used to name opaque symbols in analysis).
pub fn expr_to_string(e: &Expr) -> String {
    prec_print(e, 0)
}

/// Print with minimal parentheses: `prec` is the binding power of the
/// context (0 loosest).
fn prec_print(e: &Expr, prec: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Real(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Expr::Var(v) => v.clone(),
        Expr::ArrayRef(a, subs) | Expr::Intrinsic(a, subs) => {
            let inner = subs
                .iter()
                .map(|s| prec_print(s, 0))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{a}({inner})")
        }
        Expr::Bin(op, l, r) => {
            use crate::ast::BinOp::*;
            let (p, assoc_r) = match op {
                Eq | Ne | Lt | Le | Gt | Ge => (1, 2),
                Add | Sub => (2, 3),
                Mul | Div => (3, 4),
            };
            let s = format!(
                "{} {} {}",
                prec_print(l, p),
                op.fortran(),
                prec_print(r, assoc_r)
            );
            if p < prec {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Neg(x) => format!("-{}", prec_print(x, 4)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_is_stable() {
        // emit(parse(emit(parse(src)))) == emit(parse(src))
        let src = crate::fixtures::MOLDYN_SOURCE;
        let once = emit_program(&parse(src).unwrap());
        let twice = emit_program(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn parenthesization_minimal_but_correct() {
        let src = "PROGRAM t\n  a = (1 + 2) * 3\n  b = 1 + 2 * 3\n  c = -(x + y)\nEND\n";
        let out = emit_program(&parse(src).unwrap());
        assert!(out.contains("a = (1 + 2) * 3"));
        assert!(out.contains("b = 1 + 2 * 3"));
        assert!(out.contains("c = -(x + y)"));
    }

    #[test]
    fn emits_figure1_shape() {
        let out = emit_program(&parse(crate::fixtures::MOLDYN_SOURCE).unwrap());
        assert!(out.contains("PROGRAM MOLDYN"));
        assert!(out.contains("      SUBROUTINE ComputeForces()"));
        assert!(out.contains("IF (mod(step, update_interval) .eq. 0) THEN"));
        assert!(out.contains("forces(n1) = forces(n1) + force"));
    }
}
