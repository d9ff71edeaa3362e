//! # dahlia-core
//!
//! The Dahlia language from *“Predictable Accelerator Design with
//! Time-Sensitive Affine Types”* (PLDI 2020), reimplemented in Rust:
//! lexer, parser, the time-sensitive affine type checker, memory views,
//! a checked interpreter, and the desugarings of §4.5.
//!
//! Dahlia models consumable hardware resources — memory banks and their
//! ports — with an affine type system extended with *time sensitivity*:
//! repeated uses of the same hardware are safe as long as they are
//! separated by ordered composition (`---`).
//!
//! ```
//! use dahlia_core::{parse, typecheck};
//!
//! // Reading A twice in one logical time step needs two ports…
//! let bad = parse("let A: float[10]; let x = A[0]; A[1] := 1;").unwrap();
//! assert!(typecheck(&bad).is_err());
//!
//! // …but ordered composition restores the capability.
//! let good = parse("let A: float[10]; let x = A[0] --- A[1] := 1;").unwrap();
//! assert!(typecheck(&good).is_ok());
//! ```

pub mod ast;
pub mod check;
pub mod desugar;
pub mod diag;
pub mod error;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;

pub use ast::{
    Cmd, Decl, Dim, Expr, FuncDef, Id, IntField, IntLeaf, MemType, Program, Type, ViewKind,
};
pub use check::{typecheck, CheckReport};
pub use diag::{Diagnostic, Phase};
pub use error::{Error, TypeError, TypeErrorKind};
pub use intern::{InternStats, Symbol, SymbolMap, SymbolSet};
pub use interp::{interpret, InterpOptions, Value};
pub use parser::{parse, parse_expr, parse_tokens};
pub use span::{Span, Spanned};
