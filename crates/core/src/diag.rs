//! Structured, thread-safe diagnostics.
//!
//! The long-lived compilation service ([`dahlia-server`]) shares compiler
//! results between worker threads and serializes them over a wire
//! protocol, which needs more structure than a `Display` string: a stable
//! machine-readable *code* per rule, the *phase* that rejected the
//! program, and the source span — all in a type that is `Clone + Send +
//! Sync` so one diagnostic can be cached once and handed to every
//! concurrent requester.
//!
//! [`dahlia-server`]: https://docs.rs/dahlia-server
//!
//! ```
//! use dahlia_core::{parse, typecheck};
//! use dahlia_core::diag::Phase;
//!
//! let p = parse("let A: float[10]; let x = A[0]; A[1] := 1.0;").unwrap();
//! let d = typecheck(&p).unwrap_err().diagnostic();
//! assert_eq!(d.phase, Phase::Check);
//! assert_eq!(d.code, "type/already-consumed");
//! assert!(d.message.contains("A"));
//! ```

use std::fmt;

use crate::error::{Error, TypeErrorKind};
use crate::span::Span;

/// The compiler phase a diagnostic originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Lexical analysis.
    Lex,
    /// Parsing.
    Parse,
    /// The time-sensitive affine type checker.
    Check,
    /// The checked interpreter.
    Interp,
    /// Not a language phase: an internal failure in the tooling itself
    /// (e.g. a compiler panic caught by the compilation service).
    Internal,
}

impl Phase {
    /// Stable lower-case name, used in protocol payloads and exit codes.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Check => "check",
            Phase::Interp => "interp",
            Phase::Internal => "internal",
        }
    }
}

/// A structured diagnostic: everything a tool (or a wire protocol) needs
/// to report an error without re-parsing a rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which phase rejected the program.
    pub phase: Phase,
    /// Stable machine-readable code, e.g. `type/insufficient-banks`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Offending source location.
    pub span: Span,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({}): {}",
            self.span,
            self.phase.name(),
            self.code,
            self.message
        )
    }
}

/// Stable code for each typing rule (kept in sync with
/// [`TypeErrorKind`]; tests enumerate the mapping).
pub fn type_error_code(kind: TypeErrorKind) -> &'static str {
    match kind {
        TypeErrorKind::Unbound => "type/unbound",
        TypeErrorKind::AlreadyDefined => "type/already-defined",
        TypeErrorKind::Mismatch => "type/mismatch",
        TypeErrorKind::MemoryCopy => "type/memory-copy",
        TypeErrorKind::AlreadyConsumed => "type/already-consumed",
        TypeErrorKind::InsufficientBanks => "type/insufficient-banks",
        TypeErrorKind::UnrollBankMismatch => "type/unroll-bank-mismatch",
        TypeErrorKind::WriteConflict => "type/write-conflict",
        TypeErrorKind::InvalidIndex => "type/invalid-index",
        TypeErrorKind::BadAccess => "type/bad-access",
        TypeErrorKind::UnevenBanking => "type/uneven-banking",
        TypeErrorKind::BadView => "type/bad-view",
        TypeErrorKind::LoopDependency => "type/loop-dependency",
        TypeErrorKind::UnevenUnroll => "type/uneven-unroll",
        TypeErrorKind::BadCombine => "type/bad-combine",
        TypeErrorKind::BadCall => "type/bad-call",
        TypeErrorKind::SizeBudget => "type/size-budget",
    }
}

impl Error {
    /// The phase this error came from.
    pub fn phase(&self) -> Phase {
        match self {
            Error::Lex { .. } => Phase::Lex,
            Error::Parse { .. } => Phase::Parse,
            Error::Type(_) => Phase::Check,
            Error::Interp { .. } => Phase::Interp,
        }
    }

    /// Stable machine-readable code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Lex { .. } => "lex/invalid",
            Error::Parse { .. } => "parse/invalid",
            Error::Type(t) => type_error_code(t.kind),
            Error::Interp { .. } => "interp/runtime",
        }
    }

    /// Convert into a structured diagnostic (cheap; clones the message).
    pub fn diagnostic(&self) -> Diagnostic {
        let message = match self {
            Error::Lex { msg, .. } | Error::Parse { msg, .. } | Error::Interp { msg, .. } => {
                msg.clone()
            }
            Error::Type(t) => t.msg.clone(),
        };
        Diagnostic {
            phase: self.phase(),
            code: self.code(),
            message,
            span: self.span(),
        }
    }
}

// The compilation service caches diagnostics and shares them across
// threads; keep the whole error surface Send + Sync + Clone.
const _: () = {
    const fn assert_shareable<T: Send + Sync + Clone>() {}
    assert_shareable::<Error>();
    assert_shareable::<Diagnostic>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TypeError;

    #[test]
    fn codes_are_stable_and_distinct() {
        let kinds = [
            TypeErrorKind::Unbound,
            TypeErrorKind::AlreadyDefined,
            TypeErrorKind::Mismatch,
            TypeErrorKind::MemoryCopy,
            TypeErrorKind::AlreadyConsumed,
            TypeErrorKind::InsufficientBanks,
            TypeErrorKind::UnrollBankMismatch,
            TypeErrorKind::WriteConflict,
            TypeErrorKind::InvalidIndex,
            TypeErrorKind::BadAccess,
            TypeErrorKind::UnevenBanking,
            TypeErrorKind::BadView,
            TypeErrorKind::LoopDependency,
            TypeErrorKind::UnevenUnroll,
            TypeErrorKind::BadCombine,
            TypeErrorKind::BadCall,
            TypeErrorKind::SizeBudget,
        ];
        let codes: std::collections::HashSet<&str> =
            kinds.iter().map(|k| type_error_code(*k)).collect();
        assert_eq!(codes.len(), kinds.len(), "codes must be distinct");
        assert!(codes.iter().all(|c| c.starts_with("type/")));
    }

    #[test]
    fn diagnostic_carries_structure() {
        let e = Error::from(TypeError::new(
            TypeErrorKind::InsufficientBanks,
            "needs 4 banks",
            Span::new(3, 7, 2, 1),
        ));
        let d = e.diagnostic();
        assert_eq!(d.phase, Phase::Check);
        assert_eq!(d.code, "type/insufficient-banks");
        assert_eq!(d.span.line, 2);
        assert_eq!(
            d.to_string(),
            "[2:1] check (type/insufficient-banks): needs 4 banks"
        );
    }

    #[test]
    fn parse_errors_map_to_parse_phase() {
        let e = Error::parse("oops", Span::synthetic());
        assert_eq!(e.phase(), Phase::Parse);
        assert_eq!(e.code(), "parse/invalid");
    }
}
