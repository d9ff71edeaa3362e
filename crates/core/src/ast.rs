//! Abstract syntax for the Dahlia surface language.
//!
//! The grammar follows §3 of the paper: memories with banking and port
//! annotations, ordered (`---`) and unordered (`;`) composition, `for`
//! loops with `unroll` and `combine` blocks, and the four memory views
//! (`shrink`, `suffix`, `shift`, `split`).

use std::fmt;
use std::sync::Arc;

use crate::intern::Symbol;
use crate::span::Span;

/// An identifier (variable, memory, view, or function name): an interned
/// [`Symbol`] — `Copy`, 4 bytes, integer equality/hashing. See
/// [`crate::intern`].
pub type Id = Symbol;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Eq,
    Neq,
    Lt,
    Gt,
    Lte,
    Gte,
}

impl BinOp {
    /// `true` for operators returning `bool` regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Gt | BinOp::Lte | BinOp::Gte
        )
    }

    /// `true` for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Eq => "==",
            BinOp::Neq => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Lte => "<=",
            BinOp::Gte => ">=",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

/// The built-in reducers usable in `combine` blocks (and as sugar for
/// `x := x op e` elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reducer {
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
}

impl Reducer {
    /// The underlying binary operator the reducer folds with.
    pub fn op(self) -> BinOp {
        match self {
            Reducer::AddAssign => BinOp::Add,
            Reducer::SubAssign => BinOp::Sub,
            Reducer::MulAssign => BinOp::Mul,
            Reducer::DivAssign => BinOp::Div,
        }
    }
}

impl fmt::Display for Reducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reducer::AddAssign => "+=",
            Reducer::SubAssign => "-=",
            Reducer::MulAssign => "*=",
            Reducer::DivAssign => "/=",
        };
        f.write_str(s)
    }
}

/// Scalar and memory types.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `bool`
    Bool,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `bit<N>` — signed fixed-width integer.
    Bit(u32),
    /// `ubit<N>` — unsigned fixed-width integer.
    UBit(u32),
    /// Index type of a loop iterator: statically known interval
    /// `idx{lo..hi}` of the unrolled offsets, plus the iterator's full
    /// dynamic range. Internal — produced by the checker, not writable in
    /// source.
    Idx {
        /// Inclusive lower bound of the unroll offsets (always 0 today).
        lo: i64,
        /// Exclusive upper bound; `hi - lo` is the unroll factor.
        hi: i64,
    },
    /// A memory (or view) type.
    Mem(MemType),
}

impl Type {
    /// Is this a scalar (non-memory, non-index) type?
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Type::Bool | Type::Float | Type::Double | Type::Bit(_) | Type::UBit(_)
        )
    }

    /// Is this a numeric scalar?
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            Type::Float | Type::Double | Type::Bit(_) | Type::UBit(_) | Type::Idx { .. }
        )
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::Bit(n) => write!(f, "bit<{n}>"),
            Type::UBit(n) => write!(f, "ubit<{n}>"),
            Type::Idx { lo, hi } => write!(f, "idx{{{lo}..{hi}}}"),
            Type::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// One dimension of a memory: its logical size and cyclic banking factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Number of logical elements.
    pub size: u64,
    /// Number of banks the dimension is striped across (cyclic,
    /// round-robin). Must divide `size`.
    pub banks: u64,
}

impl Dim {
    /// An unbanked dimension.
    pub fn flat(size: u64) -> Self {
        Dim { size, banks: 1 }
    }

    /// A banked dimension.
    pub fn banked(size: u64, banks: u64) -> Self {
        Dim { size, banks }
    }
}

/// The type of a memory: element type, read/write ports per bank, and one
/// [`Dim`] per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct MemType {
    /// Element type (must be scalar). `Arc` so cloning a memory type —
    /// which the checker and desugarer do per view and per access chain —
    /// never copies the element.
    pub elem: Arc<Type>,
    /// Read/write ports per bank (`float{2}[...]`); 1 if unannotated.
    pub ports: u32,
    /// Dimensions, outermost first.
    pub dims: Vec<Dim>,
}

impl MemType {
    /// Total number of banks (product over dimensions).
    pub fn total_banks(&self) -> u64 {
        self.dims.iter().map(|d| d.banks).product()
    }

    /// Total number of elements (product over dimensions), or `None`
    /// when the product overflows `u64`.
    pub fn total_size(&self) -> Option<u64> {
        self.dims
            .iter()
            .try_fold(1u64, |n, d| n.checked_mul(d.size))
    }
}

impl fmt::Display for MemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.elem)?;
        if self.ports != 1 {
            write!(f, "{{{}}}", self.ports)?;
        }
        for d in &self.dims {
            if d.banks != 1 {
                write!(f, "[{} bank {}]", d.size, d.banks)?;
            } else {
                write!(f, "[{}]", d.size)?;
            }
        }
        Ok(())
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    LitInt { val: i64, span: Span },
    /// Floating-point literal.
    LitFloat { val: f64, span: Span },
    /// Boolean literal.
    LitBool { val: bool, span: Span },
    /// Variable reference.
    Var { name: Id, span: Span },
    /// Binary operation.
    Bin {
        op: BinOp,
        lhs: Arc<Expr>,
        rhs: Arc<Expr>,
        span: Span,
    },
    /// Unary operation.
    Un {
        op: UnOp,
        arg: Arc<Expr>,
        span: Span,
    },
    /// Memory read: logical `A[i][j]` or physical `A{b}[i]`.
    Access {
        /// Memory or view name.
        mem: Id,
        /// `Some(b)` for a physical access `A{b}[i]`.
        phys_bank: Option<Arc<Expr>>,
        /// One index per dimension.
        idxs: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// Function call in expression position (pure helper functions).
    Call {
        func: Id,
        args: Vec<Expr>,
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::LitInt { span, .. }
            | Expr::LitFloat { span, .. }
            | Expr::LitBool { span, .. }
            | Expr::Var { span, .. }
            | Expr::Bin { span, .. }
            | Expr::Un { span, .. }
            | Expr::Access { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }

    /// Convenience constructor for a synthesized variable reference.
    pub fn var(name: impl Into<Id>) -> Expr {
        Expr::Var {
            name: name.into(),
            span: Span::synthetic(),
        }
    }

    /// Convenience constructor for a synthesized integer literal.
    pub fn int(val: i64) -> Expr {
        Expr::LitInt {
            val,
            span: Span::synthetic(),
        }
    }

    /// Does this expression syntactically mention `name`?
    pub fn mentions(&self, name: impl Into<Id>) -> bool {
        self.mentions_sym(name.into())
    }

    fn mentions_sym(&self, name: Id) -> bool {
        match self {
            Expr::LitInt { .. } | Expr::LitFloat { .. } | Expr::LitBool { .. } => false,
            Expr::Var { name: n, .. } => *n == name,
            Expr::Bin { lhs, rhs, .. } => lhs.mentions_sym(name) || rhs.mentions_sym(name),
            Expr::Un { arg, .. } => arg.mentions_sym(name),
            Expr::Access {
                mem,
                phys_bank,
                idxs,
                ..
            } => {
                *mem == name
                    || phys_bank.as_ref().is_some_and(|b| b.mentions_sym(name))
                    || idxs.iter().any(|i| i.mentions_sym(name))
            }
            Expr::Call { args, .. } => args.iter().any(|a| a.mentions_sym(name)),
        }
    }
}

/// The four memory views of §3.6.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewKind {
    /// `shrink A[by k]…` — divide each listed dimension's banking by `k`.
    Shrink {
        /// One integer factor per dimension.
        factors: Vec<u64>,
    },
    /// `suffix A[by k*e]…` — aligned suffix; each offset must be a multiple
    /// of the dimension's banking factor, written syntactically as `k * e`.
    Suffix {
        /// One offset expression per dimension (the whole `k*e` product).
        offsets: Vec<Expr>,
    },
    /// `shift A[by e]…` — suffix with unrestricted offsets; costs a full
    /// bank crossbar.
    Shift {
        /// One offset expression per dimension.
        offsets: Vec<Expr>,
    },
    /// `split A[by k]` — split a one-dimensional memory into `k` logical
    /// windows, exposing a two-dimensional view.
    Split {
        /// The split factor.
        factor: u64,
    },
}

/// Commands (statements).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Cmd {
    /// `let x = e;` or `let A: float[…];` (memory when `ty` is a `Mem`).
    Let {
        /// Bound name.
        name: Id,
        /// Optional type annotation.
        ty: Option<Type>,
        /// Optional initializer (required for scalars).
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// `view v = shrink A[by 2];`
    View {
        /// View name.
        name: Id,
        /// Underlying memory (or view).
        mem: Id,
        /// Which view.
        kind: ViewKind,
        /// Source location.
        span: Span,
    },
    /// `x := e;`
    Assign {
        /// Target variable.
        name: Id,
        /// Right-hand side.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// `A[i] := e;` or `A{b}[i] := e;`
    Store {
        /// Target memory or view.
        mem: Id,
        /// `Some(b)` for physical bank addressing.
        phys_bank: Option<Arc<Expr>>,
        /// One index per dimension.
        idxs: Vec<Expr>,
        /// Value to store.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// `x += e;` — reducer statement; `target_idxs` is nonempty when the
    /// target is a memory location (`prod[i][j] += v`).
    Reduce {
        /// Target variable or memory.
        target: Id,
        /// Indexes when the target is a memory location.
        target_idxs: Vec<Expr>,
        /// Which reducer.
        op: Reducer,
        /// Value folded in.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// Unordered composition `c1; c2; …` — the compiler may reorder and
    /// parallelize, so the checker forbids resource conflicts.
    Seq(Vec<Cmd>),
    /// Ordered composition `c1 --- c2 --- …` — each element is a logical
    /// time step; affine resources are restored between steps.
    Par(Vec<Cmd>),
    /// `if (c) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Arc<Cmd>,
        /// Optional else branch.
        else_branch: Option<Arc<Cmd>>,
        /// Source location.
        span: Span,
    },
    /// `while (c) { … }` — sequential loop, may carry dependencies.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Arc<Cmd>,
        /// Source location.
        span: Span,
    },
    /// `for (let i = lo..hi) unroll k { body } combine { c }` — doall loop.
    For {
        /// Iterator name.
        var: Id,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
        /// Unroll factor (1 = sequential).
        unroll: u64,
        /// Loop body.
        body: Arc<Cmd>,
        /// Optional reduction block.
        combine: Option<Arc<Cmd>>,
        /// Source location.
        span: Span,
    },
    /// Bare expression in statement position (e.g. a call `f(x);`).
    Expr(Expr),
    /// Empty statement.
    #[default]
    Skip,
}

impl Cmd {
    /// A best-effort span for diagnostics.
    pub fn span(&self) -> Span {
        match self {
            Cmd::Let { span, .. }
            | Cmd::View { span, .. }
            | Cmd::Assign { span, .. }
            | Cmd::Store { span, .. }
            | Cmd::Reduce { span, .. }
            | Cmd::If { span, .. }
            | Cmd::While { span, .. }
            | Cmd::For { span, .. } => *span,
            Cmd::Seq(cs) | Cmd::Par(cs) => {
                cs.first().map(Cmd::span).unwrap_or_else(Span::synthetic)
            }
            Cmd::Expr(e) => e.span(),
            Cmd::Skip => Span::synthetic(),
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: Id,
    /// Parameter type (scalars or memories; memories are affine).
    pub ty: Type,
}

/// A function definition: `def f(x: bit<32>, A: float[8 bank 4]) { … }`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: Id,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Cmd,
    /// Source location.
    pub span: Span,
}

/// A top-level external memory declaration: `decl A: float[512];`.
///
/// `decl` memories model the accelerator's interface buffers (the paper's
/// kernels receive their arrays from the host).
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Memory name.
    pub name: Id,
    /// Memory type.
    pub ty: MemType,
    /// Source location.
    pub span: Span,
}

/// A complete Dahlia program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Interface memory declarations.
    pub decls: Vec<Decl>,
    /// Function definitions.
    pub defs: Vec<FuncDef>,
    /// The kernel body.
    pub body: Cmd,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_type_totals() {
        let m = MemType {
            elem: Arc::new(Type::Float),
            ports: 1,
            dims: vec![Dim::banked(4, 2), Dim::banked(4, 2)],
        };
        assert_eq!(m.total_banks(), 4);
        assert_eq!(m.total_size(), Some(16));
        assert_eq!(m.to_string(), "float[4 bank 2][4 bank 2]");
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Bit(32).to_string(), "bit<32>");
        assert_eq!(Type::Idx { lo: 0, hi: 4 }.to_string(), "idx{0..4}");
        let m = MemType {
            elem: Arc::new(Type::Float),
            ports: 2,
            dims: vec![Dim::flat(10)],
        };
        assert_eq!(Type::Mem(m).to_string(), "float{2}[10]");
    }

    #[test]
    fn expr_mentions() {
        let e = Expr::Bin {
            op: BinOp::Add,
            lhs: Arc::new(Expr::var("i")),
            rhs: Arc::new(Expr::int(1)),
            span: Span::synthetic(),
        };
        assert!(e.mentions("i"));
        assert!(!e.mentions("j"));
    }

    #[test]
    fn reducer_ops() {
        assert_eq!(Reducer::AddAssign.op(), BinOp::Add);
        assert_eq!(Reducer::MulAssign.op(), BinOp::Mul);
        assert_eq!(Reducer::AddAssign.to_string(), "+=");
    }
}
