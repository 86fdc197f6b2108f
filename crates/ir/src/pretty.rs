//! Human-readable printing of IR entities, in the paper's notation where
//! one exists (`Check (...)`, `Cond-check ((...), ...)`).

use std::fmt;

use crate::cfg::{BlockId, Function, Program};
use crate::expr::{BinOp, Expr, UnOp};
use crate::stmt::{Arg, Stmt, Terminator, VarId};

/// Pretty-prints an expression with variable names resolved from `f`.
pub fn expr_to_string(f: &Function, e: &Expr) -> String {
    let mut out = String::new();
    let _ = write_expr(&mut out, e, &|out, v| {
        out.write_str(&f.vars[v.index()].name)
    });
    out
}

/// Writes `e` in MiniF syntax, naming each variable through `name`: `min`,
/// `max` and `mod` as calls, with bare arguments; every other operator
/// parenthesized. The one expression renderer: [`expr_to_string`] names
/// variables from the function, and [`crate::LinForm`]'s `Display` writes
/// opaque atoms with `vN` names.
pub fn write_expr(out: &mut dyn fmt::Write, e: &Expr, name: &VarNamer<'_>) -> fmt::Result {
    write_expr_in(out, e, name, false)
}

/// Writes a variable's name into the output.
pub type VarNamer<'a> = dyn Fn(&mut dyn fmt::Write, VarId) -> fmt::Result + 'a;

fn write_expr_in(
    out: &mut dyn fmt::Write,
    e: &Expr,
    name: &VarNamer<'_>,
    bare: bool,
) -> fmt::Result {
    match e {
        Expr::IntConst(v) => write!(out, "{v}"),
        Expr::RealConst(r) => write!(out, "{r}"),
        Expr::Var(v) => name(out, *v),
        Expr::Unary(op, inner) => {
            out.write_str(match op {
                UnOp::Neg => "(-",
                UnOp::Not => "(not ",
            })?;
            write_expr_in(out, inner, name, false)?;
            out.write_str(")")
        }
        Expr::Binary(op @ (BinOp::Min | BinOp::Max | BinOp::Mod), l, r) => {
            write!(out, "{}(", op.symbol())?;
            write_expr_in(out, l, name, true)?;
            out.write_str(", ")?;
            write_expr_in(out, r, name, true)?;
            out.write_str(")")
        }
        Expr::Binary(op, l, r) => {
            if !bare {
                out.write_str("(")?;
            }
            write_expr_in(out, l, name, false)?;
            write!(out, " {} ", op.symbol())?;
            write_expr_in(out, r, name, false)?;
            if !bare {
                out.write_str(")")?;
            }
            Ok(())
        }
    }
}

/// Pretty-prints one statement.
pub fn stmt_to_string(f: &Function, s: &Stmt) -> String {
    match s {
        Stmt::Assign { var, value } => format!(
            "{} = {}",
            f.vars[var.index()].name,
            expr_to_string(f, value)
        ),
        Stmt::Load { var, array, index } => format!(
            "{} = {}({})",
            f.vars[var.index()].name,
            f.arrays[array.index()].name,
            index
                .iter()
                .map(|e| expr_to_string(f, e))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Stmt::Store {
            array,
            index,
            value,
        } => format!(
            "{}({}) = {}",
            f.arrays[array.index()].name,
            index
                .iter()
                .map(|e| expr_to_string(f, e))
                .collect::<Vec<_>>()
                .join(", "),
            expr_to_string(f, value)
        ),
        Stmt::Check(c) => check_to_string(f, c),
        Stmt::Trap { message } => format!("TRAP \"{message}\""),
        Stmt::Call { callee, args } => format!(
            "call {}({})",
            callee,
            args.iter()
                .map(|a| match a {
                    Arg::Scalar(e) => expr_to_string(f, e),
                    Arg::Array(a) => f.arrays[a.index()].name.clone(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Stmt::Emit(e) => format!("emit {}", expr_to_string(f, e)),
    }
}

/// Renders a check (or conditional check) with source-level names, in
/// the paper's notation.
pub fn check_to_string(f: &Function, c: &crate::Check) -> String {
    let one =
        |ce: &crate::CheckExpr| format!("{} <= {}", linform_to_string(f, ce.form()), ce.bound());
    if c.guards.is_empty() {
        format!("Check ({})", one(&c.cond))
    } else {
        let guards = c.guards.iter().map(&one).collect::<Vec<_>>().join(", ");
        format!("Cond-check (({guards}), {})", one(&c.cond))
    }
}

/// Renders a canonical form with source-level variable names.
pub fn linform_to_string(f: &Function, form: &crate::LinForm) -> String {
    let mut out = String::new();
    let _ = form.write_with(&mut out, &|out, v| out.write_str(&f.vars[v.index()].name));
    out
}

/// Wrapper implementing [`fmt::Display`] for a whole function.
pub struct DisplayFunction<'a>(pub &'a Function);

impl fmt::Display for DisplayFunction<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let f = self.0;
        writeln!(out, "function {} (entry {})", f.name, f.entry)?;
        for (i, a) in f.arrays.iter().enumerate() {
            let dims = a
                .dims
                .iter()
                .map(|(lo, hi)| format!("{}..{}", expr_to_string(f, lo), expr_to_string(f, hi)))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(out, "  {} {}[{}]  ; a{}", a.ty, a.name, dims, i)?;
        }
        for b in f.block_ids() {
            writeln!(out, "{b}:")?;
            for s in &f.block(b).stmts {
                writeln!(out, "    {}", stmt_to_string(f, s))?;
            }
            match &f.block(b).term {
                Terminator::Jump(t) => writeln!(out, "    goto {t}")?,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(
                    out,
                    "    if {} goto {then_bb} else {else_bb}",
                    expr_to_string(f, cond)
                )?,
                Terminator::Return => writeln!(out, "    return")?,
            }
        }
        Ok(())
    }
}

/// Wrapper implementing [`fmt::Display`] for a whole program.
pub struct DisplayProgram<'a>(pub &'a Program);

impl fmt::Display for DisplayProgram<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        for f in &self.0.functions {
            writeln!(out, "{}", DisplayFunction(f))?;
        }
        Ok(())
    }
}

/// Lists every check in the function with its block, in the order it
/// appears; convenient for golden tests.
pub fn checks_to_strings(f: &Function) -> Vec<(BlockId, String)> {
    let mut out = Vec::new();
    for b in f.block_ids() {
        for s in &f.block(b).stmts {
            if let Stmt::Check(c) = s {
                out.push((b, c.to_string()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::check::{Check, CheckExpr};
    use crate::expr::Ty;

    #[test]
    fn prints_function() {
        let mut b = FunctionBuilder::new("p");
        let i = b.var("i", Ty::Int);
        let a = b.array("a", Ty::Int, vec![(Expr::int(1), Expr::int(10))]);
        let e = b.entry();
        b.push(e, Stmt::assign(i, Expr::int(3)));
        b.push(
            e,
            Stmt::Check(Check::unconditional(CheckExpr::upper(
                &Expr::var(i),
                &Expr::int(10),
            ))),
        );
        b.push(e, Stmt::store(a, vec![Expr::var(i)], Expr::int(0)));
        let f = b.finish();
        let s = DisplayFunction(&f).to_string();
        assert!(s.contains("i = 3"));
        assert!(s.contains("Check ("));
        assert!(s.contains("a(i) = 0"));
        assert_eq!(checks_to_strings(&f).len(), 1);
    }

    #[test]
    fn opaque_atoms_print_as_minif() {
        let mut b = FunctionBuilder::new("p");
        for name in ["w", "x", "y", "k"] {
            b.var(name, Ty::Int);
        }
        let f = b.finish();
        let k = VarId(3);
        let call = |op, l, r| Expr::Binary(op, Box::new(l), Box::new(r));
        // min(max(k + 1, 0), 9) and mod(k, 2): calls with bare arguments
        let clamp = call(
            BinOp::Min,
            call(
                BinOp::Max,
                Expr::add(Expr::var(k), Expr::int(1)),
                Expr::int(0),
            ),
            Expr::int(9),
        );
        let form = crate::LinForm::from_expr(&clamp).scale(-1);
        assert_eq!(form.to_string(), "-[min(max(v3 + 1, 0), 9)]");
        assert_eq!(linform_to_string(&f, &form), "-[min(max(k + 1, 0), 9)]");
        let parity = Expr::add(call(BinOp::Mod, Expr::var(k), Expr::int(2)), Expr::int(1));
        assert_eq!(expr_to_string(&f, &parity), "(mod(k, 2) + 1)");
        let half = crate::LinForm::from_expr(&call(BinOp::Div, Expr::var(k), Expr::int(2)));
        assert_eq!(half.to_string(), "[(v3 / 2)]");
    }
}
