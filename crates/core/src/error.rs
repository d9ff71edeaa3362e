//! Error types for every phase of the Dahlia front end.
//!
//! Dahlia's reason for existing is that *errors replace silently-bad
//! hardware*, so diagnostics carry enough structure for a caller to test
//! which rule fired (see [`TypeErrorKind`]) as well as a human-readable
//! message pointing at the offending source span.

use std::error::Error as StdError;
use std::fmt;

use crate::span::Span;

/// Any error produced while processing a Dahlia program.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexical error: unexpected character, malformed literal, …
    Lex { msg: String, span: Span },
    /// Syntax error from the parser.
    Parse { msg: String, span: Span },
    /// A violation of the time-sensitive affine type system.
    Type(TypeError),
    /// Runtime error from the checked interpreter (out-of-bounds, dynamic
    /// capability violation, …).
    Interp { msg: String, span: Span },
}

impl Error {
    /// The source span the error points at.
    pub fn span(&self) -> Span {
        match self {
            Error::Lex { span, .. } | Error::Parse { span, .. } | Error::Interp { span, .. } => {
                *span
            }
            Error::Type(t) => t.span,
        }
    }

    /// Shorthand constructor for parse errors.
    pub fn parse(msg: impl Into<String>, span: Span) -> Self {
        Error::Parse {
            msg: msg.into(),
            span,
        }
    }

    /// Shorthand constructor for interpreter errors.
    pub fn interp(msg: impl Into<String>, span: Span) -> Self {
        Error::Interp {
            msg: msg.into(),
            span,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { msg, span } => write!(f, "[{span}] lexical error: {msg}"),
            Error::Parse { msg, span } => write!(f, "[{span}] parse error: {msg}"),
            Error::Type(t) => write!(f, "{t}"),
            Error::Interp { msg, span } => write!(f, "[{span}] runtime error: {msg}"),
        }
    }
}

impl StdError for Error {}

impl From<TypeError> for Error {
    fn from(t: TypeError) -> Self {
        Error::Type(t)
    }
}

/// A type error together with the rule that fired.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError {
    /// Which typing rule rejected the program.
    pub kind: TypeErrorKind,
    /// Human-readable detail.
    pub msg: String,
    /// Offending location.
    pub span: Span,
}

impl TypeError {
    /// Create a new type error.
    pub fn new(kind: TypeErrorKind, msg: impl Into<String>, span: Span) -> Self {
        TypeError {
            kind,
            msg: msg.into(),
            span,
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] type error ({:?}): {}",
            self.span, self.kind, self.msg
        )
    }
}

impl StdError for TypeError {}

/// The individual rules of the affine type system, so tests can assert on
/// *why* a program was rejected — mirroring the paper's error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeErrorKind {
    /// Use of an undefined variable or memory.
    Unbound,
    /// A name was defined twice in the same scope.
    AlreadyDefined,
    /// Operand/annotation types don't line up.
    Mismatch,
    /// "Error: cannot copy memories." — memories are not first-class values.
    MemoryCopy,
    /// "Error: Previous read consumed A." — not enough ports/banks left in
    /// this logical time step.
    AlreadyConsumed,
    /// "Error: Insufficient banks." — unrolling exceeds the banking factor.
    InsufficientBanks,
    /// Unrolling factor does not match the banking factor (use a shrink
    /// view for lower factors).
    UnrollBankMismatch,
    /// "Error: Insufficient write capabilities." — parallel copies write the
    /// same location.
    WriteConflict,
    /// Index expression is not analyzable (e.g. `A[2*i]`); Dahlia rejects
    /// these instead of synthesizing indirection hardware.
    InvalidIndex,
    /// Access has the wrong number of dimensions or is out of bounds.
    BadAccess,
    /// Banking factor must evenly divide the array dimension.
    UnevenBanking,
    /// Invalid view construction (wrong factor, wrong dimensionality, …).
    BadView,
    /// Cross-iteration dependency in a `for` body (writes to an outer
    /// variable belong in a `combine` block).
    LoopDependency,
    /// Unroll factor must evenly divide the loop trip count.
    UnevenUnroll,
    /// Misuse of a combine register or reducer.
    BadCombine,
    /// Wrong arity or argument type in a function call.
    BadCall,
    /// The program declares more banks than the checker's budget
    /// ([`MAX_BANKS`](crate::check::MAX_BANKS)).
    SizeBudget,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_span_and_kind() {
        let e = Error::from(TypeError::new(
            TypeErrorKind::InsufficientBanks,
            "unrolled access needs 4 banks but `A` has 2",
            Span::new(0, 1, 3, 5),
        ));
        let s = e.to_string();
        assert!(s.contains("3:5"), "{s}");
        assert!(s.contains("InsufficientBanks"), "{s}");
    }

    #[test]
    fn type_error_converts() {
        let t = TypeError::new(TypeErrorKind::Unbound, "x", Span::synthetic());
        let e: Error = t.clone().into();
        assert_eq!(e, Error::Type(t));
    }
}
