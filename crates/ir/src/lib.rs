//! Mid-level intermediate representation for the `nascent-rc` range-check
//! optimizer, a reproduction of Kolte & Wolfe, *Elimination of Redundant
//! Array Subscript Range Checks* (PLDI 1995).
//!
//! The IR is a conventional control-flow graph of basic blocks holding
//! side-effect-free tree expressions and three-address-style statements.
//! Array accesses are statements (never sub-expressions) so that range
//! checks can be placed immediately before them, exactly as the paper's
//! Nascent compiler does.
//!
//! The crate also defines the *canonical form* of range checks from §2.2 of
//! the paper: a [`LinForm`] is a multilinear polynomial over program
//! variables (plus opaque atoms for non-affine subexpressions) with all
//! literal constants folded out, and a [`CheckExpr`] is the canonical
//! `range-expression <= range-constant` inequality.
//!
//! # Example
//!
//! ```
//! use nascent_ir::{FunctionBuilder, Ty, Expr, Terminator, Stmt};
//!
//! let mut b = FunctionBuilder::new("demo");
//! let n = b.var("n", Ty::Int);
//! let a = b.array("a", Ty::Int, vec![(Expr::int(1), Expr::int(10))]);
//! let entry = b.entry();
//! b.push(entry, Stmt::assign(n, Expr::int(4)));
//! b.push(entry, Stmt::store(a, vec![Expr::var(n)], Expr::int(7)));
//! b.terminate(entry, Terminator::Return);
//! let f = b.finish();
//! assert_eq!(f.blocks.len(), 1);
//! ```

pub mod builder;
pub mod cfg;
pub mod check;
pub mod expr;
pub mod fxhash;
pub mod linform;
pub mod pretty;
pub mod stmt;
pub mod validate;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use cfg::{Block, BlockId, Function, Program};
pub use check::{Check, CheckExpr};
pub use expr::{BinOp, Expr, Ty, UnOp, R64};
pub use fxhash::FxHashMap;
pub use linform::{Atom, LinForm, Term};
pub use stmt::{Arg, ArrayId, ArrayInfo, FuncId, Param, Stmt, Terminator, VarId, VarInfo};
