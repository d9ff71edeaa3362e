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

/// Which field an integer leaf of a [`Program`] is, and so how the
/// parser converts a source integer into it ([`IntField::accept`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntField {
    /// An integer literal, [`Expr::LitInt`].
    Lit,
    /// A loop bound, [`Cmd::For`]'s `lo` or `hi`.
    Bound,
    /// A loop's unroll factor, [`Cmd::For`]'s `unroll`.
    Unroll,
    /// A memory dimension's size, [`Dim::size`].
    Size,
    /// A memory dimension's banking, [`Dim::banks`].
    Banks,
    /// A memory's ports per bank, [`MemType::ports`].
    Ports,
    /// A [`Type::Bit`] or [`Type::UBit`] width.
    Width,
    /// A [`ViewKind::Shrink`] or [`ViewKind::Split`] factor.
    Factor,
}

impl IntField {
    /// The value a source integer `v` gives this field, or the parse
    /// error's message when the field refuses it. The value is `v`
    /// itself, and it fits the field's type. The parser converts every
    /// integer it stores through here, so a rule that depends on an
    /// integer's value lives in this one place.
    pub fn accept(self, v: i64) -> Result<i64, &'static str> {
        let (ok, message) = match self {
            IntField::Lit | IntField::Bound => (true, ""),
            IntField::Size | IntField::Banks => (v >= 0, "a memory dimension must be non-negative"),
            IntField::Unroll => (v > 0, "unroll factor must be positive"),
            IntField::Factor => (v > 0, "this view requires positive integer factors"),
            IntField::Ports => (
                (0..=i64::from(u32::MAX)).contains(&v),
                "a port count must be at most 4294967295",
            ),
            IntField::Width => (
                (1..=i64::from(u32::MAX)).contains(&v),
                "a bit width must be between 1 and 4294967295",
            ),
        };
        if ok {
            Ok(v)
        } else {
            Err(message)
        }
    }
}

/// One integer leaf of a [`Program`], as [`Program::for_each_int_mut`]
/// visits it: its field and a mutable reference to its value.
#[derive(Debug)]
pub struct IntLeaf<'a> {
    /// Which field the leaf is.
    pub field: IntField,
    value: IntRef<'a>,
}

/// The storage of an [`IntLeaf`]: the field's own integer type.
#[derive(Debug)]
enum IntRef<'a> {
    I64(&'a mut i64),
    U64(&'a mut u64),
    U32(&'a mut u32),
}

impl IntLeaf<'_> {
    /// The leaf's value.
    pub fn get(&self) -> i128 {
        match &self.value {
            IntRef::I64(v) => i128::from(**v),
            IntRef::U64(v) => i128::from(**v),
            IntRef::U32(v) => i128::from(**v),
        }
    }

    /// Write the source integer `v` as the parser would store it in
    /// this field ([`IntField::accept`]). When the field refuses `v`,
    /// nothing is written and the parse error's message is returned.
    pub fn set(&mut self, v: i64) -> Result<(), &'static str> {
        let v = self.field.accept(v)?;
        match &mut self.value {
            IntRef::I64(at) => **at = v,
            IntRef::U64(at) => **at = v as u64,
            IntRef::U32(at) => **at = v as u32,
        }
        Ok(())
    }
}

impl Program {
    /// Visit every integer leaf, mutably, in a fixed order: the
    /// declarations, the definitions' parameter types and bodies, then
    /// the body; within a node, its fields in declaration order. Shared
    /// subtrees are made unique first ([`Arc::make_mut`]), so a program
    /// that owns its tree is patched in place and one that shares it is
    /// copied only along the shared paths.
    pub fn for_each_int_mut(&mut self, f: &mut impl FnMut(IntLeaf<'_>)) {
        for d in &mut self.decls {
            mem_ints(&mut d.ty, f);
        }
        for def in &mut self.defs {
            for p in &mut def.params {
                type_ints(&mut p.ty, f);
            }
            cmd_ints(&mut def.body, f);
        }
        cmd_ints(&mut self.body, f);
    }
}

fn leaf(field: IntField, value: IntRef<'_>) -> IntLeaf<'_> {
    IntLeaf { field, value }
}

fn type_ints(ty: &mut Type, f: &mut impl FnMut(IntLeaf<'_>)) {
    match ty {
        Type::Bit(w) | Type::UBit(w) => f(leaf(IntField::Width, IntRef::U32(w))),
        Type::Mem(m) => mem_ints(m, f),
        Type::Bool | Type::Float | Type::Double | Type::Idx { .. } => {}
    }
}

fn mem_ints(m: &mut MemType, f: &mut impl FnMut(IntLeaf<'_>)) {
    type_ints(Arc::make_mut(&mut m.elem), f);
    f(leaf(IntField::Ports, IntRef::U32(&mut m.ports)));
    for d in &mut m.dims {
        f(leaf(IntField::Size, IntRef::U64(&mut d.size)));
        f(leaf(IntField::Banks, IntRef::U64(&mut d.banks)));
    }
}

fn expr_ints(e: &mut Expr, f: &mut impl FnMut(IntLeaf<'_>)) {
    match e {
        Expr::LitInt { val, .. } => f(leaf(IntField::Lit, IntRef::I64(val))),
        Expr::LitFloat { .. } | Expr::LitBool { .. } | Expr::Var { .. } => {}
        Expr::Bin { lhs, rhs, .. } => {
            expr_ints(Arc::make_mut(lhs), f);
            expr_ints(Arc::make_mut(rhs), f);
        }
        Expr::Un { arg, .. } => expr_ints(Arc::make_mut(arg), f),
        Expr::Access {
            phys_bank, idxs, ..
        } => {
            if let Some(b) = phys_bank {
                expr_ints(Arc::make_mut(b), f);
            }
            for i in idxs {
                expr_ints(i, f);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                expr_ints(a, f);
            }
        }
    }
}

fn cmd_ints(c: &mut Cmd, f: &mut impl FnMut(IntLeaf<'_>)) {
    match c {
        Cmd::Let { ty, init, .. } => {
            if let Some(ty) = ty {
                type_ints(ty, f);
            }
            if let Some(e) = init {
                expr_ints(e, f);
            }
        }
        Cmd::View { kind, .. } => match kind {
            ViewKind::Shrink { factors } => {
                for k in factors {
                    f(leaf(IntField::Factor, IntRef::U64(k)));
                }
            }
            ViewKind::Suffix { offsets } | ViewKind::Shift { offsets } => {
                for e in offsets {
                    expr_ints(e, f);
                }
            }
            ViewKind::Split { factor } => f(leaf(IntField::Factor, IntRef::U64(factor))),
        },
        Cmd::Assign { rhs, .. } => expr_ints(rhs, f),
        Cmd::Store {
            phys_bank,
            idxs,
            rhs,
            ..
        } => {
            if let Some(b) = phys_bank {
                expr_ints(Arc::make_mut(b), f);
            }
            for i in idxs {
                expr_ints(i, f);
            }
            expr_ints(rhs, f);
        }
        Cmd::Reduce {
            target_idxs, rhs, ..
        } => {
            for i in target_idxs {
                expr_ints(i, f);
            }
            expr_ints(rhs, f);
        }
        Cmd::Seq(cs) | Cmd::Par(cs) => {
            for c in cs {
                cmd_ints(c, f);
            }
        }
        Cmd::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr_ints(cond, f);
            cmd_ints(Arc::make_mut(then_branch), f);
            if let Some(e) = else_branch {
                cmd_ints(Arc::make_mut(e), f);
            }
        }
        Cmd::While { cond, body, .. } => {
            expr_ints(cond, f);
            cmd_ints(Arc::make_mut(body), f);
        }
        Cmd::For {
            lo,
            hi,
            unroll,
            body,
            combine,
            ..
        } => {
            f(leaf(IntField::Bound, IntRef::I64(lo)));
            f(leaf(IntField::Bound, IntRef::I64(hi)));
            f(leaf(IntField::Unroll, IntRef::U64(unroll)));
            cmd_ints(Arc::make_mut(body), f);
            if let Some(c) = combine {
                cmd_ints(Arc::make_mut(c), f);
            }
        }
        Cmd::Expr(e) => expr_ints(e, f),
        Cmd::Skip => {}
    }
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
    fn int_leaves_are_visited_in_a_fixed_order_and_set_as_the_parser_stores_them() {
        let src = "decl A: bit<8>{2}[16 bank 4];
                   def f(x: ubit<3>) { let y = x + 5; }
                   view s = shrink A[by 2]; view p = split A[by 4];
                   for (let i = 1..9) unroll 2 { A{3}[i] := -7; } combine { z += 6; }";
        let mut prog = crate::parse(src).unwrap();
        let mut seen = Vec::new();
        prog.for_each_int_mut(&mut |l| seen.push((l.field, l.get())));
        use IntField::*;
        let expected = [
            (Width, 8),
            (Ports, 2),
            (Size, 16),
            (Banks, 4),
            (Width, 3),
            (Lit, 5),
            (Factor, 2),
            (Factor, 4),
            (Bound, 1),
            (Bound, 9),
            (Unroll, 2),
            (Lit, 3),
            (Lit, 7),
            (Lit, 6),
        ];
        assert_eq!(seen, expected);
        // Every leaf takes a value its field accepts, and refuses one
        // it does not without writing it.
        let mut refused = Vec::new();
        prog.for_each_int_mut(&mut |mut l| {
            let v = l.get() as i64;
            refused.push(l.set(0).is_err());
            l.set(v + 1).unwrap();
        });
        let expected_refusals: Vec<bool> = expected
            .iter()
            .map(|(f, _)| matches!(f, Width | Unroll | Factor))
            .collect();
        assert_eq!(refused, expected_refusals);
        let mut bumped = Vec::new();
        prog.for_each_int_mut(&mut |l| bumped.push(l.get()));
        let plus_one: Vec<i128> = expected.iter().map(|(_, v)| v + 1).collect();
        assert_eq!(bumped, plus_one);
    }

    #[test]
    fn int_fields_accept_what_their_types_hold() {
        let max = i64::from(u32::MAX);
        assert!(IntField::Ports.accept(max).is_ok());
        assert!(IntField::Ports.accept(max + 1).is_err());
        assert!(IntField::Ports.accept(0).is_ok());
        assert!(IntField::Width.accept(max).is_ok());
        assert!(IntField::Width.accept(max + 1).is_err());
        assert!(IntField::Width.accept(0).is_err());
        assert!(IntField::Lit.accept(i64::MAX).is_ok());
        assert!(IntField::Size.accept(-1).is_err());
    }

    #[test]
    fn reducer_ops() {
        assert_eq!(Reducer::AddAssign.op(), BinOp::Add);
        assert_eq!(Reducer::MulAssign.op(), BinOp::Mul);
        assert_eq!(Reducer::AddAssign.to_string(), "+=");
    }
}
