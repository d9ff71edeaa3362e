//! A checked interpreter for Dahlia surface programs.
//!
//! The interpreter gives Dahlia programs an executable semantics and doubles
//! as a *dynamic capability monitor*: when enabled, it tracks per-bank port
//! usage within each logical time step exactly like the checked operational
//! semantics of §4, so well-typed programs must run without tripping it
//! (tested by property tests — the executable analogue of the soundness
//! theorem).
//!
//! Unrolled loops execute their iteration groups in lockstep: all parallel
//! copies of a logical time step run against the same monitor frame, which
//! is what makes bank conflicts between copies observable.

use std::collections::HashMap;

use crate::ast::*;
use crate::error::Error;
use crate::intern::SymbolMap;
use crate::span::Span;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (all `bit`/`ubit` widths are modelled as `i64`).
    Int(i64),
    /// Floating point (`float` and `double` are both `f64`).
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Numeric value as `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
            Value::Bool(b) => b as i64 as f64,
        }
    }

    /// Numeric value as `i64` (floats truncate).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
            Value::Bool(b) => b as i64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Most memory elements one run may hold, summed over its memories. A
/// memory that would take the total past it is a runtime error, raised
/// before its storage is allocated.
pub const MAX_ELEMENTS: u64 = 1 << 24;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Enforce the checked semantics (bank-port capabilities) at runtime.
    pub check_capabilities: bool,
    /// Execution fuel: maximum number of command steps before aborting
    /// (guards against runaway `while` loops).
    pub max_steps: u64,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            check_capabilities: true,
            max_steps: 200_000_000,
        }
    }
}

/// Final state of a completed program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Contents of every physical memory, flattened row-major.
    pub mems: HashMap<String, Vec<Value>>,
    /// Final values of top-level scalars.
    pub vars: HashMap<String, Value>,
}

/// Run a program with default options and zero-initialized memories.
///
/// # Errors
///
/// Returns [`Error::Interp`] on out-of-bounds accesses, division by zero,
/// dynamic capability violations, fuel exhaustion, or unbound names (the
/// interpreter does not assume the program was type-checked).
pub fn interpret(prog: &Program) -> Result<Outcome, Error> {
    interpret_with(prog, &InterpOptions::default(), &HashMap::new())
}

/// Run a program with explicit options and initial contents for `decl`
/// (interface) memories.
///
/// # Errors
///
/// See [`interpret`].
pub fn interpret_with(
    prog: &Program,
    opts: &InterpOptions,
    inputs: &HashMap<String, Vec<Value>>,
) -> Result<Outcome, Error> {
    let mut m = Machine::new(opts.clone());
    for d in &prog.decls {
        m.alloc(d.name, &d.ty, inputs.get(d.name.as_str()), d.span)?;
    }
    for f in &prog.defs {
        m.funcs.insert(f.name, f.clone());
    }
    m.exec(&prog.body)?;
    Ok(m.finish())
}

/// What a name is bound to at runtime.
#[derive(Debug, Clone)]
enum Slot {
    Val(Value),
    Iter(i64),
    /// Root memory or view over one.
    Mem(MemRt),
    /// Per-copy values of a body variable, visible in `combine`.
    Combine(Vec<Value>),
}

#[derive(Debug, Clone)]
struct MemRt {
    ty: MemType,
    origin: RtOrigin,
}

#[derive(Debug, Clone)]
enum RtOrigin {
    Direct(Id),
    /// View with offsets captured at declaration time.
    View {
        parent: Box<MemRt>,
        op: RtView,
    },
}

#[derive(Debug, Clone)]
enum RtView {
    Shrink,
    /// Per-dimension additive offsets (both `suffix` and `shift`).
    Offset(Vec<i64>),
    /// Split with factor `f`; parent is 1-D.
    Split {
        factor: u64,
    },
}

#[derive(Debug, Clone)]
struct MemData {
    ty: MemType,
    data: Vec<Value>,
}

/// The dynamic capability monitor: port usage per bank per time frame.
///
/// Keys are interned symbols, so the per-access bookkeeping is integer
/// hashing — no string allocation on the interpreter's hot path.
#[derive(Debug, Default)]
struct Monitor {
    enabled: bool,
    /// Port counts per root memory.
    ports: SymbolMap<u32>,
    /// Ports used this frame per (memory, flat bank id).
    used: HashMap<(Id, u64), u32>,
    /// Addresses read this frame (identical reads share a port).
    reads: std::collections::HashSet<(Id, u64)>,
    /// Addresses written this frame (double writes are illegal).
    writes: std::collections::HashSet<(Id, u64)>,
}

impl Monitor {
    fn new_frame(&mut self) {
        self.used.clear();
        self.reads.clear();
        self.writes.clear();
    }

    fn read(&mut self, mem: Id, addr: u64, bank: u64, span: Span) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        if self.reads.contains(&(mem, addr)) {
            return Ok(());
        }
        self.consume(mem, bank, span)?;
        self.reads.insert((mem, addr));
        Ok(())
    }

    fn write(&mut self, mem: Id, addr: u64, bank: u64, span: Span) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        if !self.writes.insert((mem, addr)) {
            return Err(Error::interp(
                format!(
                    "dynamic write conflict: `{mem}` address {addr} written twice in one time step"
                ),
                span,
            ));
        }
        self.consume(mem, bank, span)
    }

    fn consume(&mut self, mem: Id, bank: u64, span: Span) -> Result<(), Error> {
        let ports = self.ports.get(&mem).copied().unwrap_or(1);
        let used = self.used.entry((mem, bank)).or_insert(0);
        if *used >= ports {
            return Err(Error::interp(
                format!(
                    "dynamic capability violation: bank {bank} of `{mem}` needs {} ports \
                     in one logical time step but has {ports}",
                    *used + 1
                ),
                span,
            ));
        }
        *used += 1;
        Ok(())
    }
}

struct Machine {
    scopes: Vec<SymbolMap<Slot>>,
    mems: SymbolMap<MemData>,
    funcs: SymbolMap<FuncDef>,
    monitor: Monitor,
    fuel: u64,
    /// When executing a `combine` reducer, selects which unrolled copy's
    /// register value a [`Slot::Combine`] read resolves to.
    combine_copy: Option<usize>,
}

impl Machine {
    fn new(opts: InterpOptions) -> Self {
        let monitor = Monitor {
            enabled: opts.check_capabilities,
            ..Monitor::default()
        };
        Machine {
            scopes: vec![SymbolMap::default()],
            mems: SymbolMap::default(),
            funcs: SymbolMap::default(),
            monitor,
            fuel: opts.max_steps,
            combine_copy: None,
        }
    }

    fn finish(mut self) -> Outcome {
        let vars = self
            .scopes
            .pop()
            .expect("top scope")
            .into_iter()
            .filter_map(|(k, v)| match v {
                Slot::Val(v) => Some((k.to_string(), v)),
                _ => None,
            })
            .collect();
        let mems = self
            .mems
            .into_iter()
            .map(|(k, m)| (k.to_string(), m.data))
            .collect();
        Outcome { mems, vars }
    }

    // ----------------------------------------------------------- helpers

    fn alloc(
        &mut self,
        name: Id,
        ty: &MemType,
        init: Option<&Vec<Value>>,
        span: Span,
    ) -> Result<(), Error> {
        let held: u64 = self
            .mems
            .iter()
            .filter(|(k, _)| **k != name)
            .map(|(_, m)| m.data.len() as u64)
            .sum();
        let Some(n) = ty.total_size().filter(|&n| n <= MAX_ELEMENTS - held) else {
            let count = ty
                .total_size()
                .map_or_else(|| format!("more than {}", u64::MAX), |n| n.to_string());
            let before = match held {
                0 => String::new(),
                n => format!(" on top of the {n} held"),
            };
            return Err(Error::interp(
                format!(
                    "memory `{name}` needs {count} elements{before}, over the budget of \
                     {MAX_ELEMENTS} elements per run"
                ),
                span,
            ));
        };
        let n = n as usize;
        let zero = match *ty.elem {
            Type::Float | Type::Double => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            _ => Value::Int(0),
        };
        let data = match init {
            Some(v) => {
                if v.len() != n {
                    return Err(Error::interp(
                        format!(
                            "initializer for `{name}` has {} values, expected {n}",
                            v.len()
                        ),
                        span,
                    ));
                }
                v.clone()
            }
            None => vec![zero; n],
        };
        self.mems.insert(
            name,
            MemData {
                ty: ty.clone(),
                data,
            },
        );
        self.monitor.ports.insert(name, ty.ports);
        self.bind(
            name,
            Slot::Mem(MemRt {
                ty: ty.clone(),
                origin: RtOrigin::Direct(name),
            }),
        );
        Ok(())
    }

    fn bind(&mut self, name: Id, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name, slot);
    }

    fn lookup(&self, name: Id) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(&name))
    }

    fn set_var(&mut self, name: Id, v: Value, span: Span) -> Result<(), Error> {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(&name) {
                *slot = Slot::Val(v);
                return Ok(());
            }
        }
        Err(Error::interp(format!("unbound variable `{name}`"), span))
    }

    fn burn(&mut self, span: Span) -> Result<(), Error> {
        if self.fuel == 0 {
            return Err(Error::interp(
                "execution fuel exhausted (runaway loop?)",
                span,
            ));
        }
        self.fuel -= 1;
        Ok(())
    }

    // ---------------------------------------------------------- commands

    fn exec(&mut self, c: &Cmd) -> Result<(), Error> {
        self.burn(c.span())?;
        match c {
            Cmd::Skip => Ok(()),
            Cmd::Seq(cs) => {
                for c in cs {
                    self.exec(c)?;
                }
                Ok(())
            }
            Cmd::Par(steps) => {
                for s in steps {
                    self.monitor.new_frame();
                    self.exec(s)?;
                }
                self.monitor.new_frame();
                Ok(())
            }
            Cmd::Let {
                name,
                ty,
                init,
                span,
            } => match (ty, init) {
                (Some(Type::Mem(m)), None) => self.alloc(*name, m, None, *span),
                (_, Some(e)) => {
                    let v = self.eval(e)?;
                    let v = coerce(v, ty.as_ref());
                    self.bind(*name, Slot::Val(v));
                    Ok(())
                }
                _ => Err(Error::interp(
                    format!("`let {name}` needs an initializer"),
                    *span,
                )),
            },
            Cmd::View {
                name,
                mem,
                kind,
                span,
            } => {
                let parent = self.mem_rt(*mem, *span)?;
                let rt = self.view_rt(&parent, kind, *span)?;
                self.bind(*name, Slot::Mem(rt));
                Ok(())
            }
            Cmd::Assign { name, rhs, span } => {
                let v = self.eval(rhs)?;
                self.set_var(*name, v, *span)
            }
            Cmd::Store {
                mem,
                phys_bank,
                idxs,
                rhs,
                span,
            } => {
                let v = self.eval(rhs)?;
                let rt = self.mem_rt(*mem, *span)?;
                let (root, addr, bank) = self.resolve(&rt, phys_bank.as_deref(), idxs, *span)?;
                self.monitor.write(root, addr, bank, *span)?;
                self.store_raw(root, addr, v, *span)
            }
            Cmd::Reduce {
                target,
                target_idxs,
                op,
                rhs,
                span,
            } => self.exec_reduce(*target, target_idxs, *op, rhs, *span),
            Cmd::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let c = self.eval(cond)?;
                let taken = match c {
                    Value::Bool(b) => b,
                    other => {
                        return Err(Error::interp(
                            format!("`if` condition evaluated to non-bool {other:?}"),
                            *span,
                        ))
                    }
                };
                self.scopes.push(SymbolMap::default());
                let r = if taken {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(())
                };
                self.scopes.pop();
                r
            }
            Cmd::While { cond, body, span } => loop {
                self.burn(*span)?;
                let c = self.eval(cond)?;
                if !matches!(c, Value::Bool(true)) {
                    return Ok(());
                }
                self.monitor.new_frame();
                self.scopes.push(SymbolMap::default());
                let r = self.exec(body);
                self.scopes.pop();
                r?;
                self.monitor.new_frame();
            },
            Cmd::For {
                var,
                lo,
                hi,
                unroll,
                body,
                combine,
                span,
            } => self.exec_for(*var, *lo, *hi, *unroll, body, combine.as_deref(), *span),
            Cmd::Expr(Expr::Call { func, args, span }) => self.exec_call(*func, args, *span),
            Cmd::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
        }
    }

    /// Doall loop: iteration groups of `unroll` copies run in lockstep —
    /// all copies of one logical time step share a monitor frame.
    #[allow(clippy::too_many_arguments)]
    fn exec_for(
        &mut self,
        var: Id,
        lo: i64,
        hi: i64,
        unroll: u64,
        body: &Cmd,
        combine: Option<&Cmd>,
        span: Span,
    ) -> Result<(), Error> {
        let trips = (hi - lo).max(0) as u64;
        let u = unroll.max(1) as usize;
        let steps: Vec<&Cmd> = match body {
            Cmd::Par(steps) => steps.iter().collect(),
            other => vec![other],
        };
        let groups = trips / u as u64 + u64::from(!trips.is_multiple_of(u as u64));
        for g in 0..groups {
            self.burn(span)?;
            // One private environment per copy, persisting across steps.
            let mut envs: Vec<SymbolMap<Slot>> = vec![SymbolMap::default(); u];
            for (c, env) in envs.iter_mut().enumerate() {
                env.insert(var, Slot::Iter(lo + (g * u as u64) as i64 + c as i64));
            }
            for step in &steps {
                self.monitor.new_frame();
                for env in envs.iter_mut() {
                    let iter_val = match env.get(&var) {
                        Some(Slot::Iter(v)) => *v,
                        _ => unreachable!("iterator bound above"),
                    };
                    if iter_val >= hi {
                        continue; // partial final group
                    }
                    let scope = std::mem::take(env);
                    self.scopes.push(scope);
                    let r = self.exec(step);
                    *env = self.scopes.pop().expect("copy scope");
                    r?;
                }
            }
            self.monitor.new_frame();
            if let Some(comb) = combine {
                // Collect per-copy values of body-local scalars.
                let mut regs: SymbolMap<Vec<Value>> = SymbolMap::default();
                for env in &envs {
                    for (&k, slot) in env {
                        if let Slot::Val(v) = slot {
                            regs.entry(k).or_default().push(*v);
                        }
                    }
                }
                let mut scope: SymbolMap<Slot> = regs
                    .into_iter()
                    .map(|(k, vs)| (k, Slot::Combine(vs)))
                    .collect();
                scope.insert(var, Slot::Iter(lo + (g * u as u64) as i64));
                self.scopes.push(scope);
                let r = self.exec(comb);
                self.scopes.pop();
                r?;
                self.monitor.new_frame();
            }
        }
        Ok(())
    }

    fn exec_reduce(
        &mut self,
        target: Id,
        target_idxs: &[Expr],
        op: Reducer,
        rhs: &Expr,
        span: Span,
    ) -> Result<(), Error> {
        // How many copies does the rhs fold over?
        let copies = self.combine_arity(rhs);
        let fold = |m: &mut Machine, mut acc: Value| -> Result<Value, Error> {
            match copies {
                None => {
                    let v = m.eval(rhs)?;
                    acc = binop(op.op(), acc, v, span)?;
                    Ok(acc)
                }
                Some(n) => {
                    for c in 0..n {
                        let prev = m.combine_copy.replace(c);
                        let v = m.eval(rhs);
                        m.combine_copy = prev;
                        acc = binop(op.op(), acc, v?, span)?;
                    }
                    Ok(acc)
                }
            }
        };
        if target_idxs.is_empty() {
            let cur = match self.lookup(target) {
                Some(Slot::Val(v)) => *v,
                _ => {
                    return Err(Error::interp(
                        format!("unbound reducer target `{target}`"),
                        span,
                    ))
                }
            };
            let v = fold(self, cur)?;
            self.set_var(target, v, span)
        } else {
            let rt = self.mem_rt(target, span)?;
            let (root, addr, bank) = self.resolve(&rt, None, target_idxs, span)?;
            // Read and write happen in separate micro-steps of the
            // reduction tree; the monitor sees them in distinct frames.
            self.monitor.read(root, addr, bank, span)?;
            let cur = self.load_raw(root, addr, span)?;
            let v = fold(self, cur)?;
            self.monitor.new_frame();
            self.monitor.write(root, addr, bank, span)?;
            self.store_raw(root, addr, v, span)?;
            self.monitor.new_frame();
            Ok(())
        }
    }

    /// If the expression mentions combine registers, their common arity.
    fn combine_arity(&self, e: &Expr) -> Option<usize> {
        let mut arity = None;
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            match e {
                Expr::Var { name, .. } => {
                    if let Some(Slot::Combine(vs)) = self.lookup(*name) {
                        arity = Some(arity.map_or(vs.len(), |a: usize| a.max(vs.len())));
                    }
                }
                Expr::Bin { lhs, rhs, .. } => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                Expr::Un { arg, .. } => stack.push(arg),
                Expr::Access {
                    idxs, phys_bank, ..
                } => {
                    stack.extend(idxs.iter());
                    if let Some(b) = phys_bank {
                        stack.push(b);
                    }
                }
                Expr::Call { args, .. } => stack.extend(args.iter()),
                _ => {}
            }
        }
        arity
    }

    fn exec_call(&mut self, func: Id, args: &[Expr], span: Span) -> Result<(), Error> {
        let def = self
            .funcs
            .get(&func)
            .cloned()
            .ok_or_else(|| Error::interp(format!("unbound function `{func}`"), span))?;
        if def.params.len() != args.len() {
            return Err(Error::interp(
                format!(
                    "`{func}` expects {} arguments, got {}",
                    def.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut frame: SymbolMap<Slot> = SymbolMap::default();
        for (p, a) in def.params.iter().zip(args) {
            match &p.ty {
                Type::Mem(_) => {
                    let name = match a {
                        Expr::Var { name, .. } => *name,
                        other => {
                            return Err(Error::interp(
                                "memory arguments must be memory names",
                                other.span(),
                            ))
                        }
                    };
                    let rt = self.mem_rt(name, span)?;
                    frame.insert(p.name, Slot::Mem(rt));
                }
                _ => {
                    let v = self.eval(a)?;
                    frame.insert(p.name, Slot::Val(v));
                }
            }
        }
        // Function bodies see only their parameters (closed world).
        let saved = std::mem::replace(&mut self.scopes, vec![frame]);
        let r = self.exec(&def.body);
        self.scopes = saved;
        r
    }

    // ------------------------------------------------------ memory model

    fn mem_rt(&self, name: Id, span: Span) -> Result<MemRt, Error> {
        match self.lookup(name) {
            Some(Slot::Mem(rt)) => Ok(rt.clone()),
            _ => Err(Error::interp(format!("`{name}` is not a memory"), span)),
        }
    }

    fn view_rt(&mut self, parent: &MemRt, kind: &ViewKind, span: Span) -> Result<MemRt, Error> {
        let pdims = &parent.ty.dims;
        let (dims, op) = match kind {
            ViewKind::Shrink { factors } => {
                let dims = pdims
                    .iter()
                    .zip(factors)
                    .map(|(d, f)| Dim {
                        size: d.size,
                        banks: d.banks / f.max(&1),
                    })
                    .collect();
                (dims, RtView::Shrink)
            }
            ViewKind::Suffix { offsets } | ViewKind::Shift { offsets } => {
                let mut offs = Vec::with_capacity(offsets.len());
                for o in offsets {
                    offs.push(self.eval(o)?.as_i64());
                }
                (pdims.clone(), RtView::Offset(offs))
            }
            ViewKind::Split { factor } => {
                let d = pdims.first().copied().ok_or_else(|| {
                    Error::interp("split view requires a one-dimensional memory", span)
                })?;
                let f = (*factor).max(1);
                (
                    vec![
                        Dim { size: f, banks: f },
                        Dim {
                            size: d.size / f,
                            banks: (d.banks / f).max(1),
                        },
                    ],
                    RtView::Split { factor: f },
                )
            }
        };
        Ok(MemRt {
            ty: MemType {
                elem: parent.ty.elem.clone(),
                ports: parent.ty.ports,
                dims,
            },
            origin: RtOrigin::View {
                parent: Box::new(parent.clone()),
                op,
            },
        })
    }

    /// Resolve an access to (root memory, flat address, flat bank id).
    fn resolve(
        &mut self,
        rt: &MemRt,
        phys_bank: Option<&Expr>,
        idxs: &[Expr],
        span: Span,
    ) -> Result<(Id, u64, u64), Error> {
        // Evaluate logical per-dimension indices.
        let logical = if let Some(b) = phys_bank {
            let bank = self.eval(b)?.as_i64();
            let off = self
                .eval(
                    idxs.first()
                        .ok_or_else(|| Error::interp("physical access needs an offset", span))?,
                )?
                .as_i64();
            physical_to_logical(&rt.ty, bank, off, span)?
        } else {
            if idxs.len() != rt.ty.dims.len() {
                return Err(Error::interp(
                    format!(
                        "access has {} indices but the memory has {} dimensions",
                        idxs.len(),
                        rt.ty.dims.len()
                    ),
                    span,
                ));
            }
            let mut v = Vec::with_capacity(idxs.len());
            for e in idxs {
                v.push(self.eval(e)?.as_i64());
            }
            v
        };
        self.resolve_logical(rt, &logical, span)
    }

    /// Translate logical per-dimension indices through the view chain.
    fn resolve_logical(
        &self,
        rt: &MemRt,
        logical: &[i64],
        span: Span,
    ) -> Result<(Id, u64, u64), Error> {
        for (i, (&ix, d)) in logical.iter().zip(&rt.ty.dims).enumerate() {
            if ix < 0 || ix as u64 >= d.size {
                return Err(Error::interp(
                    format!(
                        "index {ix} out of bounds in dimension {i} (size {})",
                        d.size
                    ),
                    span,
                ));
            }
        }
        match &rt.origin {
            RtOrigin::Direct(name) => {
                let dims = &rt.ty.dims;
                let mut addr = 0u64;
                let mut bank = 0u64;
                for (&ix, d) in logical.iter().zip(dims) {
                    addr = addr * d.size + ix as u64;
                    bank = bank * d.banks + (ix as u64 % d.banks);
                }
                Ok((*name, addr, bank))
            }
            RtOrigin::View { parent, op } => {
                let plogical: Vec<i64> = match op {
                    RtView::Shrink => logical.to_vec(),
                    RtView::Offset(offs) => {
                        logical.iter().zip(offs).map(|(&i, &o)| i + o).collect()
                    }
                    RtView::Split { factor } => {
                        // sp[i][j] → parent index (j div b)·B + i·b + (j mod b)
                        // where B is the parent bank count and b = B / factor.
                        let pb = parent.ty.dims[0].banks.max(1);
                        let b = (pb / factor).max(1) as i64;
                        let (i, j) = (logical[0], logical[1]);
                        vec![(j / b) * pb as i64 + i * b + (j % b)]
                    }
                };
                self.resolve_logical(parent, &plogical, span)
            }
        }
    }

    fn load_raw(&self, root: Id, addr: u64, span: Span) -> Result<Value, Error> {
        let m = self
            .mems
            .get(&root)
            .ok_or_else(|| Error::interp(format!("unknown memory `{root}`"), span))?;
        m.data.get(addr as usize).copied().ok_or_else(|| {
            Error::interp(format!("address {addr} out of bounds for `{root}`"), span)
        })
    }

    fn store_raw(&mut self, root: Id, addr: u64, v: Value, span: Span) -> Result<(), Error> {
        let m = self
            .mems
            .get_mut(&root)
            .ok_or_else(|| Error::interp(format!("unknown memory `{root}`"), span))?;
        let elem = match *m.ty.elem {
            Type::Float | Type::Double => Value::Float(v.as_f64()),
            Type::Bool => Value::Bool(matches!(v, Value::Bool(true)) || v.as_i64() != 0),
            _ => Value::Int(v.as_i64()),
        };
        match m.data.get_mut(addr as usize) {
            Some(slot) => {
                *slot = elem;
                Ok(())
            }
            None => Err(Error::interp(
                format!("address {addr} out of bounds for `{root}`"),
                span,
            )),
        }
    }

    // ------------------------------------------------------- expressions

    fn eval(&mut self, e: &Expr) -> Result<Value, Error> {
        match e {
            Expr::LitInt { val, .. } => Ok(Value::Int(*val)),
            Expr::LitFloat { val, .. } => Ok(Value::Float(*val)),
            Expr::LitBool { val, .. } => Ok(Value::Bool(*val)),
            Expr::Var { name, span } => match self.lookup(*name) {
                Some(Slot::Val(v)) => Ok(*v),
                Some(Slot::Iter(v)) => Ok(Value::Int(*v)),
                Some(Slot::Combine(vs)) => {
                    let c = self.combine_copy.ok_or_else(|| {
                        Error::interp(
                            format!("combine register `{name}` used outside a reducer"),
                            *span,
                        )
                    })?;
                    vs.get(c).copied().ok_or_else(|| {
                        Error::interp(format!("combine register `{name}` has no copy {c}"), *span)
                    })
                }
                Some(Slot::Mem(_)) => Err(Error::interp(
                    format!("memory `{name}` used as a value"),
                    *span,
                )),
                None => Err(Error::interp(format!("unbound variable `{name}`"), *span)),
            },
            Expr::Bin { op, lhs, rhs, span } => {
                let l = self.eval(lhs)?;
                // Short-circuit logical operators.
                match op {
                    BinOp::And if l == Value::Bool(false) => return Ok(Value::Bool(false)),
                    BinOp::Or if l == Value::Bool(true) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = self.eval(rhs)?;
                binop(*op, l, r, *span)
            }
            Expr::Un { op, arg, span } => {
                let v = self.eval(arg)?;
                match op {
                    UnOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(Error::interp(format!("`!` on non-bool {other:?}"), *span)),
                    },
                    UnOp::Neg => Ok(match v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        Value::Bool(_) => {
                            return Err(Error::interp("`-` on bool", *span));
                        }
                    }),
                }
            }
            Expr::Access {
                mem,
                phys_bank,
                idxs,
                span,
            } => {
                let rt = self.mem_rt(*mem, *span)?;
                let (root, addr, bank) = self.resolve(&rt, phys_bank.as_deref(), idxs, *span)?;
                self.monitor.read(root, addr, bank, *span)?;
                self.load_raw(root, addr, *span)
            }
            Expr::Call { func, span, .. } => Err(Error::interp(
                format!("procedure `{func}` called in expression position"),
                *span,
            )),
        }
    }
}

/// Convert a physical (bank, in-bank offset) pair to logical per-dimension
/// indices.
fn physical_to_logical(ty: &MemType, bank: i64, off: i64, span: Span) -> Result<Vec<i64>, Error> {
    let total = ty.total_banks();
    if bank < 0 || bank as u64 >= total {
        return Err(Error::interp(
            format!("bank {bank} out of range ({total} banks)"),
            span,
        ));
    }
    // Unflatten the bank id per dimension (row-major).
    let mut rem = bank as u64;
    let mut bank_coord = vec![0u64; ty.dims.len()];
    for (i, d) in ty.dims.iter().enumerate().rev() {
        bank_coord[i] = rem % d.banks;
        rem /= d.banks;
    }
    // Unflatten the offset over the within-bank extents.
    let mut rem = off as u64;
    let mut sub = vec![0u64; ty.dims.len()];
    for (i, d) in ty.dims.iter().enumerate().rev() {
        let within = d.size / d.banks;
        sub[i] = rem % within;
        rem /= within;
    }
    if rem != 0 {
        return Err(Error::interp(
            format!("offset {off} out of range for bank {bank}"),
            span,
        ));
    }
    Ok(ty
        .dims
        .iter()
        .enumerate()
        .map(|(i, d)| (sub[i] * d.banks + bank_coord[i]) as i64)
        .collect())
}

/// Apply a binary operator with numeric promotion.
fn binop(op: BinOp, l: Value, r: Value, span: Span) -> Result<Value, Error> {
    use BinOp::*;
    use Value::*;
    let both_int = matches!((l, r), (Int(_), Int(_)));
    match op {
        And | Or => match (l, r) {
            (Bool(a), Bool(b)) => Ok(Bool(if op == And { a && b } else { a || b })),
            _ => Err(Error::interp("logical operator on non-bools", span)),
        },
        Eq | Neq | Lt | Gt | Lte | Gte => {
            let res = match (l, r) {
                (Bool(a), Bool(b)) => match op {
                    Eq => a == b,
                    Neq => a != b,
                    _ => return Err(Error::interp("ordering on bools", span)),
                },
                _ => {
                    let (a, b) = (l.as_f64(), r.as_f64());
                    match op {
                        Eq => a == b,
                        Neq => a != b,
                        Lt => a < b,
                        Gt => a > b,
                        Lte => a <= b,
                        Gte => a >= b,
                        _ => unreachable!(),
                    }
                }
            };
            Ok(Bool(res))
        }
        Add | Sub | Mul | Div | Mod => {
            if both_int {
                let (a, b) = (l.as_i64(), r.as_i64());
                if matches!(op, Div | Mod) && b == 0 {
                    return Err(Error::interp("integer division by zero", span));
                }
                Ok(Int(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => a / b,
                    Mod => a % b,
                    _ => unreachable!(),
                }))
            } else {
                let (a, b) = (l.as_f64(), r.as_f64());
                Ok(Float(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                    _ => unreachable!(),
                }))
            }
        }
    }
}

/// Coerce a value to a declared scalar type.
fn coerce(v: Value, ty: Option<&Type>) -> Value {
    match ty {
        Some(Type::Float | Type::Double) => Value::Float(v.as_f64()),
        Some(Type::Bit(_) | Type::UBit(_)) => Value::Int(v.as_i64()),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Outcome {
        let p = parse(src).unwrap();
        interpret(&p).unwrap_or_else(|e| panic!("interp error: {e}\n{src}"))
    }

    fn run_unchecked(src: &str) -> Outcome {
        let p = parse(src).unwrap();
        let opts = InterpOptions {
            check_capabilities: false,
            ..Default::default()
        };
        interpret_with(&p, &opts, &HashMap::new()).unwrap()
    }

    #[test]
    fn scalar_arithmetic() {
        let o = run("let x = 2; let y = x * 3 + 1; let z = y % 4;");
        assert_eq!(o.vars["y"], Value::Int(7));
        assert_eq!(o.vars["z"], Value::Int(3));
    }

    #[test]
    fn memory_store_load() {
        let o = run("let A: bit<32>[4]; A[2] := 7 --- let x = A[2];");
        assert_eq!(o.vars["x"], Value::Int(7));
        assert_eq!(o.mems["A"][2], Value::Int(7));
    }

    #[test]
    fn ordered_composition_frames() {
        // Checked mode accepts ordered reuse of a memory (two ports let the
        // final step read both addresses at once).
        let o = run("let A: bit<32>{2}[4]; A[0] := 1 --- A[1] := 2 --- let s = A[0] + A[1];");
        assert_eq!(o.vars["s"], Value::Int(3));
    }

    #[test]
    fn monitor_catches_conflicts() {
        let p = parse("let A: bit<32>[4]; A[0] := 1; A[1] := 2;").unwrap();
        let err = interpret(&p).unwrap_err();
        assert!(err.to_string().contains("capability"), "{err}");
        // Unchecked mode runs it fine.
        let o = run_unchecked("let A: bit<32>[4]; A[0] := 1; A[1] := 2;");
        assert_eq!(o.mems["A"][1], Value::Int(2));
    }

    #[test]
    fn monitor_allows_identical_reads() {
        run("let A: bit<32>[4]; let x = A[0]; let y = A[0];");
    }

    #[test]
    fn unrolled_loop_runs_all_copies() {
        let o = run("let A: bit<32>[8 bank 2];
             for (let i = 0..8) unroll 2 { A[i] := i; }
             ---
             let x = A[5];");
        assert_eq!(o.vars["x"], Value::Int(5));
        assert_eq!(o.mems["A"], (0..8).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn lockstep_monitor_catches_bank_conflicts() {
        // Two parallel copies into one bank: the monitor must object.
        let p = parse(
            "let A: bit<32>[8];
             for (let i = 0..8) unroll 2 { A[i] := i; }",
        )
        .unwrap();
        assert!(interpret(&p).is_err());
    }

    #[test]
    fn combine_reduces_over_copies() {
        let o = run("let A: bit<32>[8 bank 4]; let B: bit<32>[8 bank 4];
             for (let i = 0..8) unroll 4 { A[i] := i; B[i] := 2; }
             ---
             let dot = 0;
             for (let i = 0..8) unroll 4 {
               let v = A[i] * B[i];
             } combine {
               dot += v;
             }");
        // dot = Σ 2i for i in 0..8 = 56.
        assert_eq!(o.vars["dot"], Value::Int(56));
    }

    #[test]
    fn memory_reduce_target() {
        let o = run("let acc: bit<32>[2];
             for (let g = 0..4) {
               for (let i = 0..4) unroll 2 {
                 let v = 1;
               } combine {
                 acc[0] += v;
               }
             }");
        // 4 outer × 2 inner groups × 2 copies = 16.
        assert_eq!(o.mems["acc"][0], Value::Int(16));
    }

    #[test]
    fn shrink_view_access() {
        let o = run("let A: bit<32>[8 bank 4];
             for (let i = 0..8) unroll 4 { A[i] := i * 10; }
             ---
             view sh = shrink A[by 2];
             for (let i = 0..8) unroll 2 { let x = sh[i]; }
             ---
             let y = sh[3];");
        assert_eq!(o.vars["y"], Value::Int(30));
    }

    #[test]
    fn suffix_view_offsets() {
        let o = run("let A: bit<32>[8 bank 2];
             for (let i = 0..8) unroll 2 { A[i] := i; }
             ---
             view s2 = suffix A[by 2*3];
             let z = s2[1];");
        // s2[1] = A[7].
        assert_eq!(o.vars["z"], Value::Int(7));
    }

    #[test]
    fn split_view_translation() {
        // A[12 bank 4] split by 2: row 0 = {0,1,4,5,8,9}, row 1 = {2,3,6,7,10,11}.
        let o = run("let A: bit<32>[12 bank 4];
             for (let i = 0..12) { A[i] := i; }
             ---
             view sp = split A[by 2];
             let a = sp[0][2]; let b = sp[1][3];");
        // sp[0][2] = A[4], sp[1][3] = A[7] — different banks, so one step.
        assert_eq!(o.vars["a"], Value::Int(4));
        assert_eq!(o.vars["b"], Value::Int(7));
    }

    #[test]
    fn physical_access_roundtrip() {
        let o = run("let A: bit<32>[8 bank 2];
             A{0}[1] := 42; A{1}[0] := 7;
             ---
             let x = A[2]; let y = A[1];");
        // Bank 0 offset 1 = element 2; bank 1 offset 0 = element 1.
        assert_eq!(o.vars["x"], Value::Int(42));
        assert_eq!(o.vars["y"], Value::Int(7));
    }

    #[test]
    fn physical_multidim() {
        // M{3}[0] is logically M[1][1] under 2×2 banking.
        let o = run("let M: bit<32>[4 bank 2][4 bank 2];
             M{3}[0] := 9;
             ---
             let x = M[1][1];");
        assert_eq!(o.vars["x"], Value::Int(9));
    }

    #[test]
    fn if_else_and_while() {
        let o = run("let x = 0; let n = 0;
             while (n < 5) { n := n + 1; if (n % 2 == 0) { x := x + 10; } else { x := x + 1; } }");
        assert_eq!(o.vars["x"], Value::Int(23));
    }

    #[test]
    fn function_call_writes_through() {
        let o = run("def set1(M: bit<32>[4], v: bit<32>) { M[0] := v; }
             let A: bit<32>[4];
             set1(A, 13);");
        assert_eq!(o.mems["A"][0], Value::Int(13));
    }

    #[test]
    fn decl_inputs_feed_in() {
        let p = parse("decl A: bit<32>{4}[4]; let s = A[0] + A[1] + A[2] + A[3];").unwrap();
        let inputs = HashMap::from([(
            "A".to_string(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
        )]);
        let o = interpret_with(&p, &InterpOptions::default(), &inputs).unwrap();
        assert_eq!(o.vars["s"], Value::Int(10));
    }

    #[test]
    fn fuel_guards_infinite_loops() {
        let p = parse("let t = true; while (t) { let x = 1; }").unwrap();
        let opts = InterpOptions {
            check_capabilities: false,
            max_steps: 10_000,
        };
        let err = interpret_with(&p, &opts, &HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("fuel"), "{err}");
    }

    #[test]
    fn memories_past_the_element_budget_are_refused_before_allocation() {
        let refusal = |src: &str| interpret(&parse(src).unwrap()).unwrap_err().to_string();
        // An element count past u64 is refused, not wrapped to zero.
        let e = refusal("let A: float[4294967296][4294967296]; let x = A[0][0];");
        assert!(e.contains("more than 18446744073709551615 elements"), "{e}");
        // 10^9 elements would take 16 GB; the run stops before any of it.
        let e = refusal("let A: float[1000000000]; let x = A[0];");
        assert!(e.contains("needs 1000000000 elements"), "{e}");
        assert!(e.contains(&format!("budget of {MAX_ELEMENTS}")), "{e}");
        // The budget is per run: one element held leaves room for one
        // fewer than the whole budget.
        let e = refusal("let A: float[1]; let B: float[16777216]; let x = B[0];");
        assert!(e.contains("on top of the 1 held"), "{e}");
    }

    #[test]
    fn division_by_zero_reported() {
        let p = parse("let x = 1 / 0;").unwrap();
        assert!(interpret(&p).is_err());
    }

    #[test]
    fn stencil_end_to_end() {
        // 1-D 3-tap stencil with a shift view; three reads per step need
        // three ports on the single bank.
        let o = run("let inp: bit<32>{3}[8];
             let out: bit<32>[8];
             for (let i = 0..8) { inp[i] := i * i; }
             ---
             for (let r = 0..6) {
               view w = shift inp[by r];
               out[r] := w[0] + w[1] + w[2];
             }");
        // out[r] = r² + (r+1)² + (r+2)².
        for r in 0..6i64 {
            assert_eq!(
                o.mems["out"][r as usize],
                Value::Int(r * r + (r + 1) * (r + 1) + (r + 2) * (r + 2))
            );
        }
    }
}
