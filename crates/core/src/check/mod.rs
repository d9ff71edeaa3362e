//! The time-sensitive affine type checker (§3–§4 of the paper).
//!
//! The checker enforces Dahlia's safety property: *the number of
//! simultaneous reads and writes to a memory bank never exceeds its port
//! count*. Memories are affine resources tracked in a capability context
//! [`caps::Caps`]; ordered composition (`---`) restores capabilities,
//! unordered composition (`;`) threads them; unrolled loops are checked in
//! lockstep (one body under an index type describes all parallel copies).

pub mod caps;

use std::rc::Rc;

use crate::ast::*;
use crate::error::{Error, TypeError, TypeErrorKind};
use crate::intern::SymbolMap;
use crate::span::Span;
use caps::{BankSet, Caps, ResolvedAccess};

/// Most flat banks one program may declare, summed over its memories,
/// function parameters, and shift views. The checker keeps capability
/// state per bank, so this bounds its memory before it allocates any; a
/// program past it is rejected with [`TypeErrorKind::SizeBudget`].
pub const MAX_BANKS: u64 = 65_536;

/// Statistics about a successfully checked program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of physical memories declared (`let`/`decl`).
    pub memories: usize,
    /// Number of views declared.
    pub views: usize,
    /// Number of memory accesses checked.
    pub accesses: usize,
    /// Number of function definitions.
    pub functions: usize,
    /// Largest unroll factor seen.
    pub max_unroll: u64,
}

/// Type-check a Dahlia program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found, wrapped in [`Error::Type`]; the
/// error's [`TypeErrorKind`] names the rule that fired.
///
/// ```
/// use dahlia_core::{parse, typecheck, TypeErrorKind};
/// let p = parse("let A: float[10];
///                for (let i = 0..10) unroll 2 { A[i] := 1.0; }").unwrap();
/// let err = typecheck(&p).unwrap_err();
/// assert!(format!("{err}").contains("InsufficientBanks"));
/// ```
pub fn typecheck(prog: &Program) -> Result<CheckReport, Error> {
    let mut ck = Checker::new();
    ck.check_program(prog)?;
    Ok(ck.report)
}

/// What a name is bound to.
#[derive(Debug, Clone)]
enum Binding {
    /// Ordinary scalar variable.
    Scalar(Type),
    /// Loop iterator with its unroll factor and dynamic range.
    Iter { unroll: u64, lo: i64, hi: i64 },
    /// Memory or view.
    Mem(Rc<MemEntry>),
    /// A variable declared in a `for` body, visible in the `combine` block
    /// as a tuple of the unrolled copies' values.
    CombineReg(Type),
}

/// A memory (or view) visible in scope.
#[derive(Debug, Clone)]
struct MemEntry {
    ty: MemType,
    origin: Origin,
}

#[derive(Debug, Clone)]
enum Origin {
    /// A physical memory.
    Direct,
    /// A view of `parent` (which may itself be a view).
    View { parent: Id, op: ViewOp },
}

/// The bank-mapping behaviour of each view kind (§3.6).
#[derive(Debug, Clone)]
enum ViewOp {
    /// Per-dimension banking divisors.
    Shrink(Vec<u64>),
    /// Bank-preserving aligned suffix.
    Suffix,
    /// Unrestricted offset: touches every bank of the parent.
    Shift,
    /// 1-D → 2-D window split with the given factor.
    Split(u64),
}

struct Checker {
    scopes: Vec<SymbolMap<Binding>>,
    caps: Caps,
    funcs: SymbolMap<Rc<[Param]>>,
    /// Scope index of each enclosing `for` body.
    for_frames: Vec<usize>,
    /// Enclosing unrolled iterators (name, factor > 1).
    unrolled: Vec<(Id, u64)>,
    in_combine: bool,
    in_reduce_rhs: bool,
    /// Flat banks declared so far, across memories, parameters, and
    /// shift views; bounded by [`MAX_BANKS`].
    banks: u64,
    report: CheckReport,
}

impl Checker {
    fn new() -> Self {
        Checker {
            scopes: vec![SymbolMap::default()],
            caps: Caps::default(),
            funcs: SymbolMap::default(),
            for_frames: Vec::new(),
            unrolled: Vec::new(),
            in_combine: false,
            in_reduce_rhs: false,
            banks: 0,
            report: CheckReport::default(),
        }
    }

    // ----------------------------------------------------------- scopes

    fn push_scope(&mut self) {
        self.scopes.push(SymbolMap::default());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn lookup(&self, name: Id) -> Option<(usize, &Binding)> {
        for (i, s) in self.scopes.iter().enumerate().rev() {
            if let Some(b) = s.get(&name) {
                return Some((i, b));
            }
        }
        None
    }

    fn declare(&mut self, name: Id, b: Binding, span: Span) -> Result<(), TypeError> {
        let top = self.scopes.last_mut().expect("scope stack nonempty");
        if top.contains_key(&name) {
            return Err(TypeError::new(
                TypeErrorKind::AlreadyDefined,
                format!("`{name}` is already defined in this scope"),
                span,
            ));
        }
        top.insert(name, b);
        Ok(())
    }

    // ---------------------------------------------------------- program

    fn check_program(&mut self, prog: &Program) -> Result<(), TypeError> {
        for d in &prog.decls {
            self.declare_memory(d.name, &d.ty, d.span)?;
        }
        for f in &prog.defs {
            self.check_func(f)?;
        }
        self.check_cmd(&prog.body)
    }

    fn check_func(&mut self, f: &FuncDef) -> Result<(), TypeError> {
        // Functions are checked in isolation: fresh capability context with
        // the parameter memories fully available.
        let saved_caps = std::mem::take(&mut self.caps);
        let saved_frames = std::mem::take(&mut self.for_frames);
        let saved_unrolled = std::mem::take(&mut self.unrolled);
        self.push_scope();
        let mut result = Ok(());
        for p in &f.params {
            let r = match &p.ty {
                Type::Mem(m) => {
                    let r = self
                        .validate_mem_type(m, f.span)
                        .and_then(|()| self.add_memory(p.name, m, m.ports, f.span));
                    if r.is_ok() {
                        self.declare(
                            p.name,
                            Binding::Mem(Rc::new(MemEntry {
                                ty: m.clone(),
                                origin: Origin::Direct,
                            })),
                            f.span,
                        )
                        .expect("fresh scope");
                    }
                    r
                }
                t if t.is_scalar() => self.declare(p.name, Binding::Scalar(t.clone()), f.span),
                t => Err(TypeError::new(
                    TypeErrorKind::BadCall,
                    format!("parameter `{}` has non-parameter type `{t}`", p.name),
                    f.span,
                )),
            };
            if let Err(e) = r {
                result = Err(e);
                break;
            }
        }
        if result.is_ok() {
            result = self.check_cmd(&f.body);
        }
        self.pop_scope();
        self.caps = saved_caps;
        self.for_frames = saved_frames;
        self.unrolled = saved_unrolled;
        result?;
        // Register after checking the body: recursion is rejected as an
        // unbound call.
        self.funcs.insert(f.name, f.params.as_slice().into());
        self.report.functions += 1;
        Ok(())
    }

    fn validate_mem_type(&self, m: &MemType, span: Span) -> Result<(), TypeError> {
        if !m.elem.is_scalar() {
            return Err(TypeError::new(
                TypeErrorKind::Mismatch,
                "memory element type must be scalar",
                span,
            ));
        }
        if m.ports == 0 {
            return Err(TypeError::new(
                TypeErrorKind::Mismatch,
                "memories need at least one port",
                span,
            ));
        }
        for d in &m.dims {
            if d.banks == 0 || d.size == 0 {
                return Err(TypeError::new(
                    TypeErrorKind::UnevenBanking,
                    "dimension sizes and banking factors must be positive",
                    span,
                ));
            }
            if d.size % d.banks != 0 {
                return Err(TypeError::new(
                    TypeErrorKind::UnevenBanking,
                    format!(
                        "banking factor {} must evenly divide the dimension size {}",
                        d.banks, d.size
                    ),
                    span,
                ));
            }
        }
        Ok(())
    }

    /// Give `m`'s banks `ports` capabilities each — after checking the
    /// bank count against the program's budget. The capability state
    /// holds one entry per flat bank, so the count is bounded from the
    /// types before anything is allocated; an overflowing product
    /// counts as over budget, and so does an element count past `u64`.
    fn add_memory(
        &mut self,
        name: Id,
        m: &MemType,
        ports: u32,
        span: Span,
    ) -> Result<(), TypeError> {
        let dims = bank_dims(m);
        let banks = dims.iter().try_fold(1u64, |acc, &b| acc.checked_mul(b));
        let total = banks
            .and_then(|b| b.checked_add(self.banks))
            .filter(|&t| t <= MAX_BANKS);
        let Some(total) = total else {
            let count = banks.map_or_else(|| format!("more than {}", u64::MAX), |b| b.to_string());
            let before = match self.banks {
                0 => String::new(),
                n => format!(" on top of the {n} declared before it"),
            };
            return Err(TypeError::new(
                TypeErrorKind::SizeBudget,
                format!(
                    "memory `{name}` has {count} banks{before}, over the budget of \
                     {MAX_BANKS} banks per program"
                ),
                span,
            ));
        };
        if m.total_size().is_none() {
            return Err(TypeError::new(
                TypeErrorKind::SizeBudget,
                format!("memory `{name}` has more than {} elements", u64::MAX),
                span,
            ));
        }
        self.banks = total;
        self.caps.add_memory(name, &dims, ports);
        Ok(())
    }

    fn declare_memory(&mut self, name: Id, m: &MemType, span: Span) -> Result<(), TypeError> {
        self.validate_mem_type(m, span)?;
        self.add_memory(name, m, m.ports, span)?;
        self.declare(
            name,
            Binding::Mem(Rc::new(MemEntry {
                ty: m.clone(),
                origin: Origin::Direct,
            })),
            span,
        )?;
        self.report.memories += 1;
        Ok(())
    }

    // ---------------------------------------------------------- commands

    fn check_cmd(&mut self, c: &Cmd) -> Result<(), TypeError> {
        match c {
            Cmd::Skip => Ok(()),
            Cmd::Seq(cs) => {
                for c in cs {
                    self.check_cmd(c)?;
                }
                Ok(())
            }
            Cmd::Par(steps) => self.check_ordered(steps),
            Cmd::Let {
                name,
                ty,
                init,
                span,
            } => self.check_let(*name, ty, init, *span),
            Cmd::View {
                name,
                mem,
                kind,
                span,
            } => self.check_view(*name, *mem, kind, *span),
            Cmd::Assign { name, rhs, span } => self.check_assign(*name, rhs, *span),
            Cmd::Store {
                mem,
                phys_bank,
                idxs,
                rhs,
                span,
            } => {
                let rt = self.check_expr(rhs)?;
                let et = self.check_access(*mem, phys_bank.as_deref(), idxs, Mode::Write, *span)?;
                join_scalar(&et, &rt, *span)?;
                Ok(())
            }
            Cmd::Reduce {
                target,
                target_idxs,
                op,
                rhs,
                span,
            } => self.check_reduce(*target, target_idxs, *op, rhs, *span),
            Cmd::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let ct = self.check_expr(cond)?;
                if ct != Type::Bool {
                    return Err(TypeError::new(
                        TypeErrorKind::Mismatch,
                        format!("`if` condition must be bool, found `{ct}`"),
                        *span,
                    ));
                }
                let entry = self.caps.clone();
                self.push_scope();
                let r1 = self.check_cmd(then_branch);
                self.pop_scope();
                r1?;
                let after_then = std::mem::replace(&mut self.caps, entry);
                if let Some(e) = else_branch {
                    self.push_scope();
                    let r2 = self.check_cmd(e);
                    self.pop_scope();
                    r2?;
                }
                let after_else = std::mem::take(&mut self.caps);
                self.caps = after_then.meet(&after_else);
                Ok(())
            }
            Cmd::While { cond, body, span } => {
                let ct = self.check_expr(cond)?;
                if ct != Type::Bool {
                    return Err(TypeError::new(
                        TypeErrorKind::Mismatch,
                        format!("`while` condition must be bool, found `{ct}`"),
                        *span,
                    ));
                }
                self.push_scope();
                let r = self.check_cmd(body);
                self.pop_scope();
                r
            }
            Cmd::For {
                var,
                lo,
                hi,
                unroll,
                body,
                combine,
                span,
            } => self.check_for(*var, *lo, *hi, *unroll, body, combine.as_deref(), *span),
            Cmd::Expr(Expr::Call { func, args, span }) => self.check_call(*func, args, *span),
            Cmd::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
        }
    }

    /// Ordered composition: every step is checked from the capability state
    /// at entry, and the resulting states are met (`Δ2 ∩ Δ3`).
    fn check_ordered(&mut self, steps: &[Cmd]) -> Result<(), TypeError> {
        let entry = self.caps.clone();
        let mut step_start = entry.clone();
        let mut result: Option<Caps> = None;
        for s in steps {
            self.caps = step_start.clone();
            self.check_cmd(s)?;
            let after = std::mem::take(&mut self.caps);
            // Memories declared in this step stay visible (and fresh) in
            // later steps.
            step_start = after.step_entry(&entry);
            result = Some(match result {
                None => after,
                Some(prev) => prev.meet(&after),
            });
        }
        self.caps = result.unwrap_or(entry);
        Ok(())
    }

    fn check_let(
        &mut self,
        name: Id,
        ty: &Option<Type>,
        init: &Option<Expr>,
        span: Span,
    ) -> Result<(), TypeError> {
        match (ty, init) {
            (Some(Type::Mem(m)), None) => self.declare_memory(name, m, span),
            (Some(Type::Mem(_)), Some(_)) => Err(TypeError::new(
                TypeErrorKind::Mismatch,
                "memories cannot be initialized; they model physical BRAMs",
                span,
            )),
            (_, Some(e)) => {
                let it = self.check_expr(e)?;
                if let Type::Mem(_) = it {
                    return Err(TypeError::new(
                        TypeErrorKind::MemoryCopy,
                        "cannot copy memories",
                        span,
                    ));
                }
                let final_ty = match ty {
                    Some(t) => join_scalar(t, &it, span)?,
                    // An iterator stored into a variable decays to an int.
                    None => decay(&it),
                };
                self.declare(name, Binding::Scalar(final_ty), span)
            }
            (_, None) => Err(TypeError::new(
                TypeErrorKind::Mismatch,
                format!("`let {name}` needs an initializer or a memory type"),
                span,
            )),
        }
    }

    fn check_assign(&mut self, name: Id, rhs: &Expr, span: Span) -> Result<(), TypeError> {
        let rt = self.check_expr(rhs)?;
        let (depth, binding) = self.lookup(name).ok_or_else(|| {
            TypeError::new(
                TypeErrorKind::Unbound,
                format!("unbound variable `{name}`"),
                span,
            )
        })?;
        match binding {
            Binding::Scalar(t) => {
                join_scalar(t, &rt, span)?;
                self.check_loop_dependency(name, depth, span, false)
            }
            Binding::Iter { .. } => Err(TypeError::new(
                TypeErrorKind::Mismatch,
                format!("cannot assign to loop iterator `{name}`"),
                span,
            )),
            Binding::CombineReg(_) => Err(TypeError::new(
                TypeErrorKind::BadCombine,
                format!("combine register `{name}` can only be consumed by a reducer"),
                span,
            )),
            Binding::Mem(_) => Err(TypeError::new(
                TypeErrorKind::Mismatch,
                format!("cannot assign to memory `{name}` without a subscript"),
                span,
            )),
        }
    }

    /// Writes to variables declared outside a `for` body are cross-iteration
    /// dependencies — rejected unless performed by a reducer in a `combine`
    /// block (`is_reduce`).
    fn check_loop_dependency(
        &self,
        name: Id,
        binding_depth: usize,
        span: Span,
        is_reduce: bool,
    ) -> Result<(), TypeError> {
        if let Some(&frame) = self.for_frames.last() {
            if binding_depth < frame && !(is_reduce && self.in_combine) {
                return Err(TypeError::new(
                    TypeErrorKind::LoopDependency,
                    format!(
                        "`{name}` is declared outside this `for` loop; updating it creates a \
                         cross-iteration dependency (move the update into a `combine` block \
                         or use a sequential `while` loop)"
                    ),
                    span,
                ));
            }
        }
        Ok(())
    }

    fn check_reduce(
        &mut self,
        target: Id,
        target_idxs: &[Expr],
        _op: Reducer,
        rhs: &Expr,
        span: Span,
    ) -> Result<(), TypeError> {
        if target_idxs.is_empty() {
            // Scalar reduction: `x += e` ≡ read + write of a register.
            let (depth, binding) = self.lookup(target).ok_or_else(|| {
                TypeError::new(
                    TypeErrorKind::Unbound,
                    format!("unbound variable `{target}`"),
                    span,
                )
            })?;
            let t = match binding {
                Binding::Scalar(t) => t.clone(),
                _ => {
                    return Err(TypeError::new(
                        TypeErrorKind::BadCombine,
                        format!(
                        "reducer target `{target}` must be a scalar variable or memory location"
                    ),
                        span,
                    ))
                }
            };
            self.check_loop_dependency(target, depth, span, true)?;
            let prev = std::mem::replace(&mut self.in_reduce_rhs, true);
            let rt = self.check_expr(rhs);
            self.in_reduce_rhs = prev;
            join_scalar(&t, &rt?, span)?;
            Ok(())
        } else {
            // Memory reduction `m[i] += e` desugars to
            // `let t = m[i] --- m[i] := t op e`: two ordered micro-steps.
            let entry = self.caps.clone();
            let prev = std::mem::replace(&mut self.in_reduce_rhs, true);
            let rt = self.check_expr(rhs);
            let et = self.check_access(target, None, target_idxs, Mode::Read, span);
            self.in_reduce_rhs = prev;
            let (rt, et) = (rt?, et?);
            join_scalar(&et, &rt, span)?;
            let read_state = std::mem::replace(&mut self.caps, entry);
            self.check_access(target, None, target_idxs, Mode::Write, span)?;
            let write_state = std::mem::take(&mut self.caps);
            self.caps = read_state.meet(&write_state);
            Ok(())
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_for(
        &mut self,
        var: Id,
        lo: i64,
        hi: i64,
        unroll: u64,
        body: &Cmd,
        combine: Option<&Cmd>,
        span: Span,
    ) -> Result<(), TypeError> {
        if hi <= lo {
            return Err(TypeError::new(
                TypeErrorKind::Mismatch,
                format!("empty iteration range {lo}..{hi}"),
                span,
            ));
        }
        let trips = (hi - lo) as u64;
        if !trips.is_multiple_of(unroll) {
            return Err(TypeError::new(
                TypeErrorKind::UnevenUnroll,
                format!("unroll factor {unroll} must evenly divide the trip count {trips}"),
                span,
            ));
        }
        self.report.max_unroll = self.report.max_unroll.max(unroll);

        let entry = self.caps.clone();

        // Body, in lockstep: the iterator's index type stands for all
        // parallel copies at once.
        self.push_scope();
        self.for_frames.push(self.scopes.len() - 1);
        self.declare(var, Binding::Iter { unroll, lo, hi }, span)?;
        if unroll > 1 {
            self.unrolled.push((var, unroll));
        }
        let body_result = self.check_cmd(body);
        if unroll > 1 {
            self.unrolled.pop();
        }
        self.for_frames.pop();
        // Variables declared at the top level of the body become combine
        // registers.
        let body_scope = self.scopes.pop().expect("body scope");
        body_result?;
        let body_state = std::mem::replace(&mut self.caps, entry.clone());

        let combine_state = if let Some(comb) = combine {
            // The combine block is ordered after the body (fresh caps), runs
            // once per iteration group, and sees body variables as combine
            // registers.
            self.push_scope();
            self.declare(var, Binding::Iter { unroll: 1, lo, hi }, span)?;
            for (&name, b) in &body_scope {
                if name == var {
                    continue;
                }
                if let Binding::Scalar(t) = b {
                    self.declare(name, Binding::CombineReg(t.clone()), span)?;
                }
            }
            let was = std::mem::replace(&mut self.in_combine, true);
            let r = self.check_cmd(comb);
            self.in_combine = was;
            self.pop_scope();
            r?;
            std::mem::take(&mut self.caps)
        } else {
            entry
        };
        self.caps = body_state.meet(&combine_state);
        Ok(())
    }

    fn check_call(&mut self, func: Id, args: &[Expr], span: Span) -> Result<(), TypeError> {
        let params = self.funcs.get(&func).cloned().ok_or_else(|| {
            TypeError::new(
                TypeErrorKind::Unbound,
                format!("unbound function `{func}`"),
                span,
            )
        })?;
        if params.len() != args.len() {
            return Err(TypeError::new(
                TypeErrorKind::BadCall,
                format!(
                    "`{func}` expects {} arguments, got {}",
                    params.len(),
                    args.len()
                ),
                span,
            ));
        }
        for (p, a) in params.iter().zip(args) {
            match &p.ty {
                Type::Mem(want) => {
                    let name = match a {
                        Expr::Var { name, .. } => *name,
                        other => {
                            return Err(TypeError::new(
                                TypeErrorKind::BadCall,
                                "memory arguments must be memory names",
                                other.span(),
                            ))
                        }
                    };
                    let entry = match self.lookup(name) {
                        Some((_, Binding::Mem(e))) => Rc::clone(e),
                        _ => {
                            return Err(TypeError::new(
                                TypeErrorKind::BadCall,
                                format!("`{name}` is not a memory"),
                                a.span(),
                            ))
                        }
                    };
                    if entry.ty != *want {
                        return Err(TypeError::new(
                            TypeErrorKind::BadCall,
                            format!(
                                "memory argument `{name}: {}` does not match parameter type `{want}`",
                                entry.ty
                            ),
                            a.span(),
                        ));
                    }
                    // The callee may touch any bank: consume the whole root
                    // memory for this time step.
                    let (root, ports) = self.root_of(name);
                    self.caps.consume_all(root, ports, span)?;
                }
                t => {
                    let at = self.check_expr(a)?;
                    join_scalar(t, &at, a.span())?;
                }
            }
        }
        Ok(())
    }

    /// Follow a view chain to the underlying physical memory.
    fn root_of(&self, name: Id) -> (Id, u32) {
        let mut cur = name;
        loop {
            match self.lookup(cur) {
                Some((_, Binding::Mem(e))) => match &e.origin {
                    Origin::Direct => return (cur, e.ty.ports),
                    Origin::View { parent, .. } => cur = *parent,
                },
                _ => return (cur, 1),
            }
        }
    }

    // ------------------------------------------------------------- views

    fn check_view(
        &mut self,
        name: Id,
        mem: Id,
        kind: &ViewKind,
        span: Span,
    ) -> Result<(), TypeError> {
        let parent = match self.lookup(mem) {
            Some((_, Binding::Mem(e))) => Rc::clone(e),
            Some(_) => {
                return Err(TypeError::new(
                    TypeErrorKind::BadView,
                    format!("`{mem}` is not a memory"),
                    span,
                ))
            }
            None => {
                return Err(TypeError::new(
                    TypeErrorKind::Unbound,
                    format!("unbound memory `{mem}`"),
                    span,
                ))
            }
        };
        let pdims = &parent.ty.dims;
        let (dims, op) = match kind {
            ViewKind::Shrink { factors } => {
                if factors.len() != pdims.len() {
                    return Err(TypeError::new(
                        TypeErrorKind::BadView,
                        format!(
                            "shrink needs one factor per dimension ({} != {})",
                            factors.len(),
                            pdims.len()
                        ),
                        span,
                    ));
                }
                let mut dims = Vec::new();
                for (f, d) in factors.iter().zip(pdims) {
                    if *f == 0 || d.banks % f != 0 {
                        return Err(TypeError::new(
                            TypeErrorKind::BadView,
                            format!(
                                "shrink factor {f} must divide the banking factor {}",
                                d.banks
                            ),
                            span,
                        ));
                    }
                    dims.push(Dim {
                        size: d.size,
                        banks: d.banks / f,
                    });
                }
                (dims, ViewOp::Shrink(factors.clone()))
            }
            ViewKind::Suffix { offsets } => {
                if offsets.len() != pdims.len() {
                    return Err(TypeError::new(
                        TypeErrorKind::BadView,
                        "suffix needs one offset per dimension",
                        span,
                    ));
                }
                for (off, d) in offsets.iter().zip(pdims) {
                    self.check_aligned_offset(off, d.banks)?;
                    let t = self.check_expr(off)?;
                    require_numeric(&t, off.span())?;
                }
                (pdims.clone(), ViewOp::Suffix)
            }
            ViewKind::Shift { offsets } => {
                if offsets.len() != pdims.len() {
                    return Err(TypeError::new(
                        TypeErrorKind::BadView,
                        "shift needs one offset per dimension",
                        span,
                    ));
                }
                for off in offsets {
                    let t = self.check_expr(off)?;
                    require_numeric(&t, off.span())?;
                }
                (pdims.clone(), ViewOp::Shift)
            }
            ViewKind::Split { factor } => {
                if pdims.len() != 1 {
                    return Err(TypeError::new(
                        TypeErrorKind::BadView,
                        "split applies to one-dimensional memories",
                        span,
                    ));
                }
                let d = pdims[0];
                if *factor == 0 || d.banks % factor != 0 || d.size % factor != 0 {
                    return Err(TypeError::new(
                        TypeErrorKind::BadView,
                        format!(
                            "split factor {factor} must divide both the banking factor {} and the size {}",
                            d.banks, d.size
                        ),
                        span,
                    ));
                }
                (
                    vec![
                        Dim {
                            size: *factor,
                            banks: *factor,
                        },
                        Dim {
                            size: d.size / factor,
                            banks: d.banks / factor,
                        },
                    ],
                    ViewOp::Split(*factor),
                )
            }
        };
        let ty = MemType {
            elem: parent.ty.elem.clone(),
            ports: parent.ty.ports,
            dims,
        };
        // Shift views track capabilities on their own logical banks (the
        // offset makes the bank mapping an unknown permutation), claiming
        // the underlying memory on first use per time step.
        if matches!(op, ViewOp::Shift) {
            let (_, root_ports) = self.root_of(mem);
            self.add_memory(name, &ty, root_ports, span)?;
        }
        self.declare(
            name,
            Binding::Mem(Rc::new(MemEntry {
                ty,
                origin: Origin::View { parent: mem, op },
            })),
            span,
        )?;
        self.report.views += 1;
        Ok(())
    }

    /// An aligned suffix offset must be provably a multiple of the banking
    /// factor: a literal multiple, or syntactically `k * e` with `banks | k`.
    fn check_aligned_offset(&self, off: &Expr, banks: u64) -> Result<(), TypeError> {
        if banks == 1 {
            return Ok(());
        }
        let ok = match off {
            Expr::LitInt { val, .. } => *val >= 0 && (*val as u64).is_multiple_of(banks),
            Expr::Bin {
                op: BinOp::Mul,
                lhs,
                rhs,
                ..
            } => {
                let lit = |e: &Expr| match e {
                    Expr::LitInt { val, .. } if *val > 0 => Some(*val as u64),
                    _ => None,
                };
                lit(lhs).is_some_and(|k| k % banks == 0) || lit(rhs).is_some_and(|k| k % banks == 0)
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(TypeError::new(
                TypeErrorKind::BadView,
                format!(
                    "suffix offset must be a multiple of the banking factor {banks} \
                     (write it as `{banks} * e`, or use a shift view)"
                ),
                off.span(),
            ))
        }
    }

    /// Map per-dimension bank sets through the view chain towards the root
    /// physical memory. Resolution stops at the first *shift* view: its
    /// bank mapping is an unknown permutation, so the view carries its own
    /// capability pool and the physical root is claimed wholesale (returned
    /// as the second component).
    fn resolve_chain(
        &self,
        name: Id,
        mut sets: Vec<BankSet>,
        span: Span,
    ) -> Result<(ResolvedAccess, Option<Id>), TypeError> {
        let mut cur = name;
        loop {
            let entry = match self.lookup(cur) {
                Some((_, Binding::Mem(e))) => Rc::clone(e),
                _ => {
                    return Err(TypeError::new(
                        TypeErrorKind::Unbound,
                        format!("unbound memory `{cur}`"),
                        span,
                    ))
                }
            };
            match &entry.origin {
                Origin::Direct => {
                    return Ok((
                        ResolvedAccess {
                            root: cur,
                            bank_sets: sets,
                            dim_banks: bank_dims(&entry.ty),
                        },
                        None,
                    ))
                }
                Origin::View { parent, op } => {
                    if matches!(op, ViewOp::Shift) {
                        let (phys_root, _) = self.root_of(cur);
                        return Ok((
                            ResolvedAccess {
                                root: cur,
                                bank_sets: sets,
                                dim_banks: bank_dims(&entry.ty),
                            },
                            Some(phys_root),
                        ));
                    }
                    let pentry = match self.lookup(*parent) {
                        Some((_, Binding::Mem(e))) => Rc::clone(e),
                        _ => {
                            return Err(TypeError::new(
                                TypeErrorKind::Unbound,
                                format!("unbound memory `{parent}`"),
                                span,
                            ))
                        }
                    };
                    sets = map_banks(op, &sets, &entry.ty, &pentry.ty);
                    cur = *parent;
                }
            }
        }
    }

    // ---------------------------------------------------------- accesses

    fn check_access(
        &mut self,
        mem: Id,
        phys_bank: Option<&Expr>,
        idxs: &[Expr],
        mode: Mode,
        span: Span,
    ) -> Result<Type, TypeError> {
        let entry = match self.lookup(mem) {
            Some((_, Binding::Mem(e))) => Rc::clone(e),
            Some(_) => {
                return Err(TypeError::new(
                    TypeErrorKind::BadAccess,
                    format!("`{mem}` is not a memory"),
                    span,
                ))
            }
            None => {
                return Err(TypeError::new(
                    TypeErrorKind::Unbound,
                    format!("unbound memory `{mem}`"),
                    span,
                ))
            }
        };
        self.report.accesses += 1;
        let elem = (*entry.ty.elem).clone();

        let (sets, key) = if let Some(b) = phys_bank {
            self.physical_access(&entry, b, idxs, span)?
        } else {
            self.logical_access(&entry, idxs, span)?
        };

        // Parallel copies of a write must target distinct locations: the
        // index must mention every enclosing unrolled iterator.
        if mode == Mode::Write {
            for &(z, _) in &self.unrolled {
                let mentioned =
                    idxs.iter().any(|e| e.mentions(z)) || phys_bank.is_some_and(|b| b.mentions(z));
                if !mentioned {
                    return Err(TypeError::new(
                        TypeErrorKind::WriteConflict,
                        format!(
                            "insufficient write capabilities: all {}-unrolled copies write \
                             `{mem}` at the same location (the index does not depend on `{z}`)",
                            self.unrolled
                                .iter()
                                .map(|(_, u)| u.to_string())
                                .collect::<Vec<_>>()
                                .join("×"),
                        ),
                        span,
                    ));
                }
            }
        }

        let (resolved, claim) = self.resolve_chain(mem, sets, span)?;
        if let Some(phys_root) = claim {
            self.caps.acquire_claim(phys_root, resolved.root, span)?;
        }
        let access_key = (mem, key);
        match mode {
            Mode::Read => self.caps.acquire_read(&resolved, access_key, span)?,
            Mode::Write => self.caps.acquire_write(&resolved, access_key, span)?,
        }
        Ok(elem)
    }

    fn physical_access(
        &mut self,
        entry: &MemEntry,
        bank: &Expr,
        idxs: &[Expr],
        span: Span,
    ) -> Result<(Vec<BankSet>, u128), TypeError> {
        let b = const_eval(bank).ok_or_else(|| {
            TypeError::new(
                TypeErrorKind::InvalidIndex,
                "physical bank selectors must be integer constants",
                bank.span(),
            )
        })?;
        let total = entry.ty.total_banks();
        if b < 0 || b as u64 >= total {
            return Err(TypeError::new(
                TypeErrorKind::BadAccess,
                format!("bank {b} out of range (memory has {total} banks)"),
                bank.span(),
            ));
        }
        if idxs.len() != 1 {
            return Err(TypeError::new(
                TypeErrorKind::BadAccess,
                "physical accesses take exactly one in-bank offset",
                span,
            ));
        }
        let t = self.check_expr(&idxs[0])?;
        require_numeric(&t, idxs[0].span())?;
        // Unflatten the bank id into per-dimension coordinates
        // (row-major over dimensions).
        let mut rem = b as u64;
        let banks = bank_dims(&entry.ty);
        let mut coord = vec![0u64; banks.len()];
        for (i, &nb) in banks.iter().enumerate().rev() {
            coord[i] = rem % nb;
            rem /= nb;
        }
        let sets = coord.into_iter().map(BankSet::one).collect();
        let mut fp = Fingerprint::new();
        fp.byte(0xFE); // physical-access tag
        fp.u64(b as u64);
        expr_fingerprint(&idxs[0], &mut fp);
        Ok((sets, fp.finish()))
    }

    fn logical_access(
        &mut self,
        entry: &MemEntry,
        idxs: &[Expr],
        span: Span,
    ) -> Result<(Vec<BankSet>, u128), TypeError> {
        let dims = &entry.ty.dims;
        if idxs.len() != dims.len() {
            return Err(TypeError::new(
                TypeErrorKind::BadAccess,
                format!(
                    "access has {} indices but the memory has {} dimensions",
                    idxs.len(),
                    dims.len()
                ),
                span,
            ));
        }
        let mut sets = Vec::with_capacity(dims.len());
        let mut fp = Fingerprint::new();
        for (e, d) in idxs.iter().zip(dims) {
            let set = self.classify_index(e, d)?;
            sets.push(set);
            fp.byte(0xFF); // dimension separator
            expr_fingerprint(e, &mut fp);
        }
        Ok((sets, fp.finish()))
    }

    /// Determine which banks of one dimension an index expression can touch,
    /// enforcing the paper's "simple indexing" restriction.
    fn classify_index(&mut self, e: &Expr, d: &Dim) -> Result<BankSet, TypeError> {
        if let Some(n) = const_eval(e) {
            if n < 0 || n as u64 >= d.size {
                return Err(TypeError::new(
                    TypeErrorKind::BadAccess,
                    format!("index {n} out of bounds for dimension of size {}", d.size),
                    e.span(),
                ));
            }
            return Ok(BankSet::one(n as u64 % d.banks));
        }
        match e {
            Expr::Var { name, span } => match self.lookup(*name) {
                Some((_, Binding::Iter { unroll, lo, hi })) => {
                    let (unroll, lo, hi) = (*unroll, *lo, *hi);
                    if lo < 0 || hi > d.size as i64 {
                        return Err(TypeError::new(
                            TypeErrorKind::BadAccess,
                            format!(
                                "iterator `{name}` ranges over {lo}..{hi} but the dimension has {} elements",
                                d.size
                            ),
                            *span,
                        ));
                    }
                    if unroll == 1 {
                        // Sequential: one unknown bank per step — reserve all.
                        Ok(BankSet::All)
                    } else if unroll > d.banks {
                        Err(TypeError::new(
                            TypeErrorKind::InsufficientBanks,
                            format!(
                                "insufficient banks: {unroll} parallel accesses through `{name}` \
                                 but the dimension has only {} bank(s)",
                                d.banks
                            ),
                            *span,
                        ))
                    } else if unroll < d.banks {
                        Err(TypeError::new(
                            TypeErrorKind::UnrollBankMismatch,
                            format!(
                                "unrolling factor {unroll} must match the banking factor {} \
                                 (create a `shrink` view to use fewer banks)",
                                d.banks
                            ),
                            *span,
                        ))
                    } else {
                        Ok(BankSet::All)
                    }
                }
                Some((_, Binding::Scalar(t))) if t.is_numeric() => {
                    if d.banks > 1 {
                        Err(TypeError::new(
                            TypeErrorKind::InvalidIndex,
                            format!(
                                "dynamic index `{name}` on a dimension banked {} ways would \
                                 require bank indirection hardware; use a view",
                                d.banks
                            ),
                            *span,
                        ))
                    } else {
                        Ok(BankSet::All)
                    }
                }
                Some((_, Binding::CombineReg(_))) => Err(TypeError::new(
                    TypeErrorKind::BadCombine,
                    format!("combine register `{name}` cannot be used as an index"),
                    *span,
                )),
                Some(_) => Err(TypeError::new(
                    TypeErrorKind::InvalidIndex,
                    format!("`{name}` cannot be used as an index"),
                    *span,
                )),
                None => Err(TypeError::new(
                    TypeErrorKind::Unbound,
                    format!("unbound variable `{name}`"),
                    *span,
                )),
            },
            other => {
                // Arbitrary index calculations are rejected on banked
                // dimensions (`A[2*i]` in §3.6): the bank cannot be deduced.
                if d.banks > 1 {
                    Err(TypeError::new(
                        TypeErrorKind::InvalidIndex,
                        "Dahlia only allows simple indexing expressions (an iterator or a \
                         constant) on banked dimensions; restructure with a view",
                        other.span(),
                    ))
                } else {
                    let t = self.check_expr(other)?;
                    require_numeric(&t, other.span())?;
                    Ok(BankSet::All)
                }
            }
        }
    }

    // ------------------------------------------------------- expressions

    fn check_expr(&mut self, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::LitInt { .. } => Ok(Type::Bit(32)),
            Expr::LitFloat { .. } => Ok(Type::Float),
            Expr::LitBool { .. } => Ok(Type::Bool),
            Expr::Var { name, span } => {
                let (_, b) = self.lookup(*name).ok_or_else(|| {
                    TypeError::new(
                        TypeErrorKind::Unbound,
                        format!("unbound variable `{name}`"),
                        *span,
                    )
                })?;
                match b {
                    Binding::Scalar(t) => Ok(t.clone()),
                    Binding::Iter { unroll, .. } => Ok(Type::Idx {
                        lo: 0,
                        hi: *unroll as i64,
                    }),
                    Binding::Mem(m) => Ok(Type::Mem(m.ty.clone())),
                    Binding::CombineReg(t) => {
                        if self.in_reduce_rhs {
                            Ok(t.clone())
                        } else {
                            Err(TypeError::new(
                                TypeErrorKind::BadCombine,
                                format!(
                                    "combine register `{name}` holds one value per unrolled copy \
                                     and can only be consumed by a reducer (`+=`, `-=`, `*=`, `/=`)"
                                ),
                                *span,
                            ))
                        }
                    }
                }
            }
            Expr::Bin { op, lhs, rhs, span } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                if op.is_logical() {
                    if lt == Type::Bool && rt == Type::Bool {
                        Ok(Type::Bool)
                    } else {
                        Err(TypeError::new(
                            TypeErrorKind::Mismatch,
                            format!("`{op}` needs bool operands, found `{lt}` and `{rt}`"),
                            *span,
                        ))
                    }
                } else if op.is_comparison() {
                    if lt == Type::Bool && rt == Type::Bool {
                        return Ok(Type::Bool);
                    }
                    join_scalar(&lt, &rt, *span)?;
                    Ok(Type::Bool)
                } else {
                    join_scalar(&lt, &rt, *span)
                }
            }
            Expr::Un { op, arg, span } => {
                let t = self.check_expr(arg)?;
                match op {
                    UnOp::Not => {
                        if t == Type::Bool {
                            Ok(Type::Bool)
                        } else {
                            Err(TypeError::new(
                                TypeErrorKind::Mismatch,
                                format!("`!` needs a bool operand, found `{t}`"),
                                *span,
                            ))
                        }
                    }
                    UnOp::Neg => {
                        require_numeric(&t, *span)?;
                        Ok(decay(&t))
                    }
                }
            }
            Expr::Access {
                mem,
                phys_bank,
                idxs,
                span,
            } => self.check_access(*mem, phys_bank.as_deref(), idxs, Mode::Read, *span),
            Expr::Call { func, span, .. } => Err(TypeError::new(
                TypeErrorKind::BadCall,
                format!("`{func}` is a procedure; calls are statements, not expressions"),
                *span,
            )),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

/// Which bank sets of the *parent* does an access to these view banks touch?
fn map_banks(op: &ViewOp, sets: &[BankSet], child: &MemType, parent: &MemType) -> Vec<BankSet> {
    match op {
        ViewOp::Shrink(factors) => sets
            .iter()
            .zip(factors)
            .zip(&child.dims)
            .map(|((s, &f), d)| {
                let child_banks = d.banks;
                match s {
                    BankSet::All => BankSet::All,
                    BankSet::Some(bs) => BankSet::Some(
                        bs.iter()
                            .flat_map(|&b| (0..f).map(move |t| b + t * child_banks))
                            .collect(),
                    ),
                }
            })
            .collect(),
        ViewOp::Suffix => sets.to_vec(),
        ViewOp::Shift => vec![BankSet::All; parent.dims.len()],
        ViewOp::Split(f) => {
            // Child dims: [f bank f][n/f bank B/f] → parent bank
            // b0 * (B/f) + b1.
            let pb = parent.dims[0].banks;
            let per_window = pb / f;
            let b0s = sets[0].expand(*f);
            let b1s = sets[1].expand(per_window);
            let mut out = std::collections::BTreeSet::new();
            for &b0 in &b0s {
                for &b1 in &b1s {
                    out.insert(b0 * per_window + b1);
                }
            }
            vec![BankSet::Some(out)]
        }
    }
}

/// Bank counts per dimension.
fn bank_dims(m: &MemType) -> Vec<u64> {
    m.dims.iter().map(|d| d.banks).collect()
}

/// Iterator types decay to plain integers when stored or negated.
fn decay(t: &Type) -> Type {
    match t {
        Type::Idx { .. } => Type::Bit(32),
        other => other.clone(),
    }
}

/// Join two scalar types, with the conveniences documented in DESIGN.md:
/// integer widths widen, indexes decay, and integers widen to floats.
fn join_scalar(a: &Type, b: &Type, span: Span) -> Result<Type, TypeError> {
    use Type::*;
    let err = || {
        Err(TypeError::new(
            TypeErrorKind::Mismatch,
            format!("incompatible types `{a}` and `{b}`"),
            span,
        ))
    };
    Ok(match (a, b) {
        (Mem(_), _) | (_, Mem(_)) => return err(),
        (Bool, Bool) => Bool,
        (Bool, _) | (_, Bool) => return err(),
        (Idx { .. }, Idx { .. }) => Bit(32),
        (Idx { .. }, t) | (t, Idx { .. }) => decay(t),
        (Double, Double | Float) | (Float, Double) => Double,
        (Float, Float) => Float,
        (Bit(x), Bit(y)) => Bit(*x.max(y)),
        (UBit(x), UBit(y)) => UBit(*x.max(y)),
        (Bit(x), UBit(y)) | (UBit(y), Bit(x)) => Bit(*x.max(y)),
        (Float, Bit(_) | UBit(_)) | (Bit(_) | UBit(_), Float) => Float,
        (Double, Bit(_) | UBit(_)) | (Bit(_) | UBit(_), Double) => Double,
    })
}

fn require_numeric(t: &Type, span: Span) -> Result<(), TypeError> {
    if t.is_numeric() {
        Ok(())
    } else {
        Err(TypeError::new(
            TypeErrorKind::Mismatch,
            format!("expected a numeric type, found `{t}`"),
            span,
        ))
    }
}

/// Constant-fold an index expression.
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::LitInt { val, .. } => Some(*val),
        Expr::Un {
            op: UnOp::Neg, arg, ..
        } => Some(-const_eval(arg)?),
        Expr::Bin { op, lhs, rhs, .. } => {
            let (a, b) = (const_eval(lhs)?, const_eval(rhs)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div if b != 0 => a / b,
                BinOp::Mod if b != 0 => a % b,
                _ => return None,
            })
        }
        _ => None,
    }
}

/// A 128-bit FNV-1a accumulator for structural access fingerprints.
///
/// The checker identifies "the same syntactic access" (for read-port
/// sharing and double-write detection) by this fingerprint instead of a
/// printed string: the hot path hashes symbols and literals, it never
/// allocates. Spans are excluded, so two textually identical accesses on
/// different lines share as before. 128 bits makes an accidental
/// collision between *different* accesses within one program
/// astronomically unlikely.
pub struct Fingerprint(u128);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The FNV-1a 128-bit offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self
            .0
            .wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// Fold an expression's structure (operators, literals, interned
/// identifiers — not spans) into `fp`. The structural identity used for
/// [`caps::AccessKey`]s.
pub fn expr_fingerprint(e: &Expr, fp: &mut Fingerprint) {
    match e {
        Expr::LitInt { val, .. } => {
            fp.byte(1);
            fp.u64(*val as u64);
        }
        Expr::LitFloat { val, .. } => {
            fp.byte(2);
            fp.u64(val.to_bits());
        }
        Expr::LitBool { val, .. } => {
            fp.byte(3);
            fp.byte(*val as u8);
        }
        Expr::Var { name, .. } => {
            fp.byte(4);
            fp.u64(name.id() as u64);
        }
        Expr::Bin { op, lhs, rhs, .. } => {
            fp.byte(5);
            fp.byte(*op as u8);
            expr_fingerprint(lhs, fp);
            expr_fingerprint(rhs, fp);
        }
        Expr::Un { op, arg, .. } => {
            fp.byte(6);
            fp.byte(*op as u8);
            expr_fingerprint(arg, fp);
        }
        Expr::Access {
            mem,
            phys_bank,
            idxs,
            ..
        } => {
            fp.byte(7);
            fp.u64(mem.id() as u64);
            match phys_bank {
                Some(b) => {
                    fp.byte(1);
                    expr_fingerprint(b, fp);
                }
                None => fp.byte(0),
            }
            fp.u64(idxs.len() as u64);
            for i in idxs {
                expr_fingerprint(i, fp);
            }
        }
        Expr::Call { func, args, .. } => {
            fp.byte(8);
            fp.u64(func.id() as u64);
            fp.u64(args.len() as u64);
            for a in args {
                expr_fingerprint(a, fp);
            }
        }
    }
}

#[cfg(test)]
mod tests;
