//! Recursive-descent parser for the Dahlia surface language.
//!
//! Composition is parsed per the paper: within a block, `---` separates
//! logical time steps (ordered composition, low precedence) and `;`
//! composes commands within a step (unordered composition, high
//! precedence). So `a; b --- c` is `Par([Seq([a, b]), c])`.

use std::sync::Arc;

use crate::ast::*;
use crate::error::Error;
use crate::lexer::{lex, Tok, Token};
use crate::span::Span;

/// How deeply a program may nest. Each parenthesis, index, call,
/// unary prefix, block, `if`, `else if`, `for` and `while` is one
/// level, and so is each binary operator: `a + b + c` folds into a tree
/// as deep as the chain has operators. Every stage after the parser
/// walks the tree recursively, so this one budget bounds their stack
/// use as well; a program past it is a parse error, never a stack
/// overflow.
pub const MAX_NESTING: usize = 256;

/// Parse a complete Dahlia program: [`parse_tokens`] over its [`lex`].
///
/// # Errors
///
/// Returns [`Error::Lex`] or [`Error::Parse`] on malformed input.
pub fn parse(src: &str) -> Result<Program, Error> {
    parse_tokens(&lex(src)?)
}

/// Parse a complete Dahlia program from its tokens, as [`lex`] returns
/// them: the last one is [`Tok::Eof`].
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed input, or on a token slice
/// that does not end in [`Tok::Eof`].
pub fn parse_tokens(tokens: &[Token]) -> Result<Program, Error> {
    Parser::new(tokens)?.program()
}

/// Parse a single expression (used by tests and tools).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, Error> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens)?;
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

struct Parser<'t> {
    /// Ends in [`Tok::Eof`], which the cursor never moves past.
    toks: &'t [Token],
    pos: usize,
    /// Levels of nesting open around the current token.
    depth: usize,
}

impl<'t> Parser<'t> {
    fn new(toks: &'t [Token]) -> Result<Parser<'t>, Error> {
        match toks.last() {
            Some(Token { tok: Tok::Eof, .. }) => Ok(Parser {
                toks,
                pos: 0,
                depth: 0,
            }),
            last => Err(Error::parse(
                "token stream does not end in Eof",
                last.map(|t| t.span).unwrap_or_default(),
            )),
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok;
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, Error> {
        if self.peek() == t {
            let s = self.span();
            self.bump();
            Ok(s)
        } else {
            Err(Error::parse(
                format!("expected {t:?}, found {:?}", self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<(Id, Span), Error> {
        match *self.peek() {
            Tok::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((s, sp))
            }
            other => Err(Error::parse(
                format!("expected identifier, found {other:?}"),
                self.span(),
            )),
        }
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        self.depth += 1;
        let out = self.within_budget(0).and_then(|()| f(self));
        self.depth -= 1;
        out
    }

    /// Refuse a tree `height` levels tall at the current depth when the
    /// two together pass [`MAX_NESTING`].
    fn within_budget(&self, height: usize) -> Result<(), Error> {
        if self.depth + height > MAX_NESTING {
            return Err(Error::parse(
                format!("program nests deeper than the limit of {MAX_NESTING} levels"),
                self.span(),
            ));
        }
        Ok(())
    }

    fn int(&mut self) -> Result<i64, Error> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            ref other => Err(Error::parse(
                format!("expected integer, found {other:?}"),
                self.span(),
            )),
        }
    }

    /// An integer token as `field` takes it ([`IntField::accept`]),
    /// refused with the token's span.
    fn int_as(&mut self, field: IntField) -> Result<i64, Error> {
        let span = self.span();
        let v = self.int()?;
        field.accept(v).map_err(|m| Error::parse(m, span))
    }

    // ---------------------------------------------------------- program

    fn program(&mut self) -> Result<Program, Error> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Decl => {
                    let d = self.decl()?;
                    prog.decls.push(d);
                }
                Tok::Def => {
                    let f = self.func_def()?;
                    prog.defs.push(f);
                }
                _ => break,
            }
        }
        prog.body = self.cmd_sequence(&Tok::Eof)?;
        self.expect(&Tok::Eof)?;
        Ok(prog)
    }

    fn decl(&mut self) -> Result<Decl, Error> {
        let start = self.expect(&Tok::Decl)?;
        let (name, _) = self.ident()?;
        self.expect(&Tok::Colon)?;
        let ty = self.ty()?;
        let span = start.merge(self.prev_span());
        self.expect(&Tok::Semi)?;
        match ty {
            Type::Mem(m) => Ok(Decl { name, ty: m, span }),
            other => Err(Error::parse(
                format!("`decl` requires a memory type, found `{other}`"),
                span,
            )),
        }
    }

    fn func_def(&mut self) -> Result<FuncDef, Error> {
        let start = self.expect(&Tok::Def)?;
        let (name, _) = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (pname, _) = self.ident()?;
                self.expect(&Tok::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let body = self.block()?;
        let span = start.merge(self.prev_span());
        Ok(FuncDef {
            name,
            params,
            body,
            span,
        })
    }

    // ------------------------------------------------------------- types

    fn ty(&mut self) -> Result<Type, Error> {
        let scalar = match self.bump() {
            Tok::BoolTy => Type::Bool,
            Tok::FloatTy => Type::Float,
            Tok::DoubleTy => Type::Double,
            Tok::BitTy => {
                self.expect(&Tok::Lt)?;
                let n = self.int_as(IntField::Width)?;
                self.expect(&Tok::Gt)?;
                Type::Bit(n as u32)
            }
            Tok::UBitTy => {
                self.expect(&Tok::Lt)?;
                let n = self.int_as(IntField::Width)?;
                self.expect(&Tok::Gt)?;
                Type::UBit(n as u32)
            }
            other => {
                return Err(Error::parse(
                    format!("expected a type, found {other:?}"),
                    self.prev_span(),
                ))
            }
        };
        // Optional port annotation `{k}` and dimension list `[n bank m]…`.
        let mut ports = 1u32;
        if *self.peek() == Tok::LBrace {
            self.bump();
            ports = self.int_as(IntField::Ports)? as u32;
            self.expect(&Tok::RBrace)?;
        }
        let mut dims = Vec::new();
        while self.eat(&Tok::LBracket) {
            let size = self.int_as(IntField::Size)? as u64;
            let mut banks = 1u64;
            if let Tok::Ident(w) = self.peek() {
                if *w == "bank" {
                    self.bump();
                    banks = self.int_as(IntField::Banks)? as u64;
                }
            }
            self.expect(&Tok::RBracket)?;
            dims.push(Dim { size, banks });
        }
        if dims.is_empty() {
            if ports != 1 {
                return Err(Error::parse(
                    "port annotation requires a memory type",
                    self.prev_span(),
                ));
            }
            Ok(scalar)
        } else {
            Ok(Type::Mem(MemType {
                elem: Arc::new(scalar),
                ports,
                dims,
            }))
        }
    }

    // ---------------------------------------------------------- commands

    /// Parse commands up to (not consuming) `end`, honoring `;` vs `---`.
    fn cmd_sequence(&mut self, end: &Tok) -> Result<Cmd, Error> {
        let mut steps: Vec<Vec<Cmd>> = vec![Vec::new()];
        loop {
            // Skip stray semicolons.
            while self.eat(&Tok::Semi) {}
            if self.peek() == end {
                break;
            }
            if self.eat(&Tok::SeqComp) {
                steps.push(Vec::new());
                continue;
            }
            let c = self.cmd()?;
            steps.last_mut().expect("nonempty").push(c);
            // Separator: `;` continues the step, `---` begins a new one.
            match self.peek() {
                Tok::Semi => {
                    self.bump();
                    if self.eat(&Tok::SeqComp) {
                        steps.push(Vec::new());
                    }
                }
                Tok::SeqComp => {
                    self.bump();
                    steps.push(Vec::new());
                }
                _ => {}
            }
        }
        let mut groups: Vec<Cmd> = steps
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|mut g| {
                if g.len() == 1 {
                    g.pop().expect("len 1")
                } else {
                    Cmd::Seq(g)
                }
            })
            .collect();
        Ok(match groups.len() {
            0 => Cmd::Skip,
            1 => groups.pop().expect("len 1"),
            _ => Cmd::Par(groups),
        })
    }

    fn block(&mut self) -> Result<Cmd, Error> {
        self.expect(&Tok::LBrace)?;
        let c = self.cmd_sequence(&Tok::RBrace)?;
        self.expect(&Tok::RBrace)?;
        Ok(c)
    }

    fn cmd(&mut self) -> Result<Cmd, Error> {
        match self.peek() {
            Tok::Let => self.let_cmd(),
            Tok::View => self.view_cmd(),
            Tok::If => self.nested(Self::if_cmd),
            Tok::While => self.nested(Self::while_cmd),
            Tok::For => self.nested(Self::for_cmd),
            Tok::LBrace => self.nested(Self::block),
            Tok::Ident(_) => self.stmt_starting_with_ident(),
            other => Err(Error::parse(
                format!("expected a command, found {other:?}"),
                self.span(),
            )),
        }
    }

    fn let_cmd(&mut self) -> Result<Cmd, Error> {
        let start = self.expect(&Tok::Let)?;
        let (name, _) = self.ident()?;
        let ty = if self.eat(&Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        let init = if self.eat(&Tok::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        let span = start.merge(self.prev_span());
        Ok(Cmd::Let {
            name,
            ty,
            init,
            span,
        })
    }

    fn view_cmd(&mut self) -> Result<Cmd, Error> {
        let start = self.expect(&Tok::View)?;
        let mut names = vec![self.ident()?.0];
        while self.eat(&Tok::Comma) {
            names.push(self.ident()?.0);
        }
        self.expect(&Tok::Eq)?;
        let kind_tok = self.bump();
        let mut cmds = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let (mem, _) = self.ident()?;
            let kind = self.view_args(&kind_tok)?;
            let span = start.merge(self.prev_span());
            cmds.push(Cmd::View {
                name: *name,
                mem,
                kind,
                span,
            });
            let more = self.eat(&Tok::Comma);
            if more != (i + 1 < names.len()) {
                return Err(Error::parse(
                    "view name list and view expression list have different lengths",
                    self.span(),
                ));
            }
        }
        Ok(if cmds.len() == 1 {
            cmds.pop().expect("len 1")
        } else {
            Cmd::Seq(cmds)
        })
    }

    /// Parse `[by …]…` according to the view kind keyword.
    fn view_args(&mut self, kind: &Tok) -> Result<ViewKind, Error> {
        let mut offsets = Vec::new();
        while self.eat(&Tok::LBracket) {
            self.expect(&Tok::By)?;
            offsets.push(self.expr()?);
            self.expect(&Tok::RBracket)?;
        }
        if offsets.is_empty() {
            return Err(Error::parse(
                "view requires at least one `[by …]`",
                self.span(),
            ));
        }
        let const_factors = |offsets: &[Expr]| -> Result<Vec<u64>, Error> {
            offsets
                .iter()
                .map(|e| {
                    let Expr::LitInt { val, .. } = e else {
                        return Err(Error::parse(
                            "this view requires positive integer factors",
                            e.span(),
                        ));
                    };
                    let k = IntField::Factor.accept(*val);
                    k.map(|k| k as u64).map_err(|m| Error::parse(m, e.span()))
                })
                .collect()
        };
        match kind {
            Tok::Shrink => Ok(ViewKind::Shrink {
                factors: const_factors(&offsets)?,
            }),
            Tok::Suffix => Ok(ViewKind::Suffix { offsets }),
            Tok::Shift => Ok(ViewKind::Shift { offsets }),
            Tok::Split => {
                let fs = const_factors(&offsets)?;
                if fs.len() != 1 {
                    return Err(Error::parse(
                        "`split` takes exactly one factor",
                        self.span(),
                    ));
                }
                Ok(ViewKind::Split { factor: fs[0] })
            }
            other => Err(Error::parse(
                format!("expected a view kind, found {other:?}"),
                self.prev_span(),
            )),
        }
    }

    fn if_cmd(&mut self) -> Result<Cmd, Error> {
        let start = self.expect(&Tok::If)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_branch = Arc::new(self.block()?);
        let else_branch = if self.eat(&Tok::Else) {
            Some(Arc::new(if *self.peek() == Tok::If {
                self.nested(Self::if_cmd)?
            } else {
                self.block()?
            }))
        } else {
            None
        };
        let span = start.merge(self.prev_span());
        Ok(Cmd::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn while_cmd(&mut self) -> Result<Cmd, Error> {
        let start = self.expect(&Tok::While)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let body = Arc::new(self.block()?);
        let span = start.merge(self.prev_span());
        Ok(Cmd::While { cond, body, span })
    }

    fn for_cmd(&mut self) -> Result<Cmd, Error> {
        let start = self.expect(&Tok::For)?;
        self.expect(&Tok::LParen)?;
        self.expect(&Tok::Let)?;
        let (var, _) = self.ident()?;
        self.expect(&Tok::Eq)?;
        let lo = self.int_as(IntField::Bound)?;
        self.expect(&Tok::DotDot)?;
        let hi = self.int_as(IntField::Bound)?;
        self.expect(&Tok::RParen)?;
        let unroll = if self.eat(&Tok::Unroll) {
            self.int_as(IntField::Unroll)? as u64
        } else {
            1
        };
        let body = Arc::new(self.block()?);
        let combine = if self.eat(&Tok::Combine) {
            Some(Arc::new(self.block()?))
        } else {
            None
        };
        let span = start.merge(self.prev_span());
        Ok(Cmd::For {
            var,
            lo,
            hi,
            unroll,
            body,
            combine,
            span,
        })
    }

    /// Statements beginning with an identifier: assignment, store, reducer,
    /// or a bare expression (e.g. a call).
    fn stmt_starting_with_ident(&mut self) -> Result<Cmd, Error> {
        let (name, start) = self.ident()?;

        // Physical bank `A{b}` and/or indices `A[i]…`.
        let mut height = 0;
        let mut phys_bank = None;
        if *self.peek() == Tok::LBrace {
            self.bump();
            phys_bank = Some(Arc::new(self.child(&mut height)?));
            self.expect(&Tok::RBrace)?;
        }
        let mut idxs = Vec::new();
        while self.eat(&Tok::LBracket) {
            idxs.push(self.child(&mut height)?);
            self.expect(&Tok::RBracket)?;
        }

        let reducer = match self.peek() {
            Tok::PlusEq => Some(Reducer::AddAssign),
            Tok::MinusEq => Some(Reducer::SubAssign),
            Tok::StarEq => Some(Reducer::MulAssign),
            Tok::SlashEq => Some(Reducer::DivAssign),
            _ => None,
        };
        if let Some(op) = reducer {
            if phys_bank.is_some() {
                return Err(Error::parse(
                    "reducers cannot target a physical bank",
                    self.span(),
                ));
            }
            self.bump();
            let rhs = self.expr()?;
            let span = start.merge(self.prev_span());
            return Ok(Cmd::Reduce {
                target: name,
                target_idxs: idxs,
                op,
                rhs,
                span,
            });
        }

        if self.eat(&Tok::Assign) {
            let rhs = self.expr()?;
            let span = start.merge(self.prev_span());
            return if idxs.is_empty() && phys_bank.is_none() {
                Ok(Cmd::Assign { name, rhs, span })
            } else {
                Ok(Cmd::Store {
                    mem: name,
                    phys_bank,
                    idxs,
                    rhs,
                    span,
                })
            };
        }

        // Otherwise it is an expression statement; re-wrap what we parsed.
        let base = if idxs.is_empty() && phys_bank.is_none() {
            if *self.peek() == Tok::LParen {
                return self.call_stmt(name, start);
            }
            Expr::Var { name, span: start }
        } else {
            Expr::Access {
                mem: name,
                phys_bank,
                idxs,
                span: start.merge(self.prev_span()),
            }
        };
        let (e, _) = self.binop_rhs(base, height, 0)?;
        Ok(Cmd::Expr(e))
    }

    fn call_stmt(&mut self, func: Id, start: Span) -> Result<Cmd, Error> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let span = start.merge(self.prev_span());
        Ok(Cmd::Expr(Expr::Call { func, args, span }))
    }

    // ------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, Error> {
        Ok(self.expr_with_height()?.0)
    }

    /// An expression with its tree height (0 for a leaf): the height a
    /// binary operator folded onto it extends.
    fn expr_with_height(&mut self) -> Result<(Expr, usize), Error> {
        let (lhs, height) = self.unary()?;
        self.binop_rhs(lhs, height, 0)
    }

    /// A sub-expression one level deeper, raising `height` to cover the
    /// node it hangs under.
    fn child(&mut self, height: &mut usize) -> Result<Expr, Error> {
        let (e, h) = self.nested(Self::expr_with_height)?;
        *height = (*height).max(h + 1);
        Ok(e)
    }

    fn binop_prec(t: &Tok) -> Option<(BinOp, u8)> {
        Some(match t {
            Tok::OrOr => (BinOp::Or, 1),
            Tok::AndAnd => (BinOp::And, 2),
            Tok::EqEq => (BinOp::Eq, 3),
            Tok::Ne => (BinOp::Neq, 3),
            Tok::Lt => (BinOp::Lt, 4),
            Tok::Gt => (BinOp::Gt, 4),
            Tok::Le => (BinOp::Lte, 4),
            Tok::Ge => (BinOp::Gte, 4),
            Tok::Plus => (BinOp::Add, 5),
            Tok::Minus => (BinOp::Sub, 5),
            Tok::Star => (BinOp::Mul, 6),
            Tok::Slash => (BinOp::Div, 6),
            Tok::Percent => (BinOp::Mod, 6),
            _ => return None,
        })
    }

    /// Precedence-climbing loop over `lhs`, which is `height` tall.
    fn binop_rhs(
        &mut self,
        mut lhs: Expr,
        mut height: usize,
        min_prec: u8,
    ) -> Result<(Expr, usize), Error> {
        while let Some((op, prec)) = Self::binop_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let (mut rhs, mut rhs_height) = self.unary()?;
            while let Some((_, next_prec)) = Self::binop_prec(self.peek()) {
                if next_prec > prec {
                    (rhs, rhs_height) = self.binop_rhs(rhs, rhs_height, next_prec)?;
                } else {
                    break;
                }
            }
            // The fold parses no deeper, but its node sits over both
            // operands: a left-deep chain is as tall as it is long.
            height = height.max(rhs_height) + 1;
            self.within_budget(height)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Bin {
                op,
                lhs: Arc::new(lhs),
                rhs: Arc::new(rhs),
                span,
            };
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), Error> {
        let op = match self.peek() {
            Tok::Bang => UnOp::Not,
            Tok::Minus => UnOp::Neg,
            _ => return self.postfix(),
        };
        let sp = self.span();
        self.bump();
        let (arg, height) = self.nested(Self::unary)?;
        let span = sp.merge(arg.span());
        let un = Expr::Un {
            op,
            arg: Arc::new(arg),
            span,
        };
        Ok((un, height + 1))
    }

    fn postfix(&mut self) -> Result<(Expr, usize), Error> {
        let sp = self.span();
        let leaf = match self.bump() {
            Tok::Int(v) => Expr::LitInt { val: v, span: sp },
            Tok::Float(v) => Expr::LitFloat { val: v, span: sp },
            Tok::True => Expr::LitBool {
                val: true,
                span: sp,
            },
            Tok::False => Expr::LitBool {
                val: false,
                span: sp,
            },
            Tok::LParen => {
                let inner = self.nested(Self::expr_with_height)?;
                self.expect(&Tok::RParen)?;
                return Ok(inner);
            }
            Tok::Ident(name) => return self.ident_expr(name, sp),
            other => {
                return Err(Error::parse(
                    format!("expected an expression, found {other:?}"),
                    sp,
                ))
            }
        };
        Ok((leaf, 0))
    }

    /// A variable, call or memory access starting with `name`.
    fn ident_expr(&mut self, name: Id, sp: Span) -> Result<(Expr, usize), Error> {
        let mut height = 0;
        // Call?
        if *self.peek() == Tok::LParen {
            self.bump();
            let mut args = Vec::new();
            if !self.eat(&Tok::RParen) {
                loop {
                    args.push(self.child(&mut height)?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            let call = Expr::Call {
                func: name,
                args,
                span: sp.merge(self.prev_span()),
            };
            return Ok((call, height));
        }
        // Physical bank and/or indices?
        let mut phys_bank = None;
        if *self.peek() == Tok::LBrace && !self.brace_is_block() {
            self.bump();
            phys_bank = Some(Arc::new(self.child(&mut height)?));
            self.expect(&Tok::RBrace)?;
        }
        let mut idxs = Vec::new();
        while *self.peek() == Tok::LBracket {
            self.bump();
            idxs.push(self.child(&mut height)?);
            self.expect(&Tok::RBracket)?;
        }
        if idxs.is_empty() && phys_bank.is_none() {
            Ok((Expr::Var { name, span: sp }, 0))
        } else {
            let access = Expr::Access {
                mem: name,
                phys_bank,
                idxs,
                span: sp.merge(self.prev_span()),
            };
            Ok((access, height))
        }
    }

    /// Disambiguate `x {`: in expression position a `{` could only be a
    /// physical-bank selector, which must contain an expression followed by
    /// `}` and then `[`. A block would start a new statement — but blocks
    /// never directly follow an expression, so we treat `{` as a selector
    /// when the token two ahead keeps the selector shape.
    fn brace_is_block(&self) -> bool {
        // `A{0}[…]` — selector always has `Int`/`Ident` right after `{`.
        !matches!(self.peek2(), Tok::Int(_) | Tok::Ident(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(src: &str) -> Cmd {
        parse(src).unwrap().body
    }

    #[test]
    fn tokens_parse_as_their_source_does() {
        let src = "decl A: float[8 bank 4];\nfor (let i = 0..8) unroll 4 { A[i] := 1.0; }";
        let tokens = lex(src).unwrap();
        assert_eq!(parse_tokens(&tokens).unwrap(), parse(src).unwrap());
        let err = parse_tokens(&tokens[..tokens.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("Eof"), "{err}");
        assert!(parse_tokens(&[]).is_err());
    }

    #[test]
    fn parses_memory_let() {
        let c = body("let A: float[8 bank 4];");
        match c {
            Cmd::Let {
                name,
                ty: Some(Type::Mem(m)),
                init: None,
                ..
            } => {
                assert_eq!(name, "A");
                assert_eq!(m.dims, vec![Dim::banked(8, 4)]);
                assert_eq!(m.ports, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_multiported() {
        let c = body("let A: float{2}[10];");
        match c {
            Cmd::Let {
                ty: Some(Type::Mem(m)),
                ..
            } => {
                assert_eq!(m.ports, 2);
                assert_eq!(m.dims, vec![Dim::flat(10)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn semi_vs_seqcomp_precedence() {
        // a; b --- c  ==>  Par([Seq([a,b]), c])
        let c = body("x := 1; y := 2 --- z := 3");
        match c {
            Cmd::Par(steps) => {
                assert_eq!(steps.len(), 2);
                assert!(matches!(steps[0], Cmd::Seq(ref v) if v.len() == 2));
                assert!(matches!(steps[1], Cmd::Assign { .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn paper_ordered_block_example() {
        let c = body(
            "let A: float[10]; let B: float[10];
             {
               let x = A[0] + 1
               ---
               B[1] := A[1] + x
             };
             let y = B[0];",
        );
        match c {
            Cmd::Seq(v) => {
                assert_eq!(v.len(), 4);
                assert!(matches!(v[2], Cmd::Par(ref steps) if steps.len() == 2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_for_unroll_combine() {
        let c = body(
            "for (let i = 0..10) unroll 2 {
               let v = A[i] * B[i];
             } combine {
               dot += v;
             }",
        );
        match c {
            Cmd::For {
                var,
                lo,
                hi,
                unroll,
                combine,
                ..
            } => {
                assert_eq!(var, "i");
                assert_eq!((lo, hi), (0, 10));
                assert_eq!(unroll, 2);
                let comb = combine.expect("combine block");
                assert!(matches!(
                    *comb,
                    Cmd::Reduce {
                        op: Reducer::AddAssign,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_views() {
        let c = body("view sh = shrink A[by 2];");
        assert!(
            matches!(c, Cmd::View { ref kind, .. } if *kind == ViewKind::Shrink { factors: vec![2] })
        );
        let c = body("view w = shift orig[by row][by col];");
        match c {
            Cmd::View {
                kind: ViewKind::Shift { offsets },
                mem,
                ..
            } => {
                assert_eq!(mem, "orig");
                assert_eq!(offsets.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let c = body("view sp = split A[by 2];");
        assert!(matches!(
            c,
            Cmd::View {
                kind: ViewKind::Split { factor: 2 },
                ..
            }
        ));
    }

    #[test]
    fn parses_multi_view() {
        let c = body("view vA, vB = suffix shA[by 2*i], shB[by 2*i];");
        match c {
            Cmd::Seq(v) => {
                assert_eq!(v.len(), 2);
                assert!(matches!(
                    v[0],
                    Cmd::View {
                        kind: ViewKind::Suffix { .. },
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn mismatched_multi_view_errors() {
        assert!(parse("view a, b = shrink A[by 2];").is_err());
    }

    #[test]
    fn parses_physical_access() {
        let c = body("A{0}[0] := 1;");
        match c {
            Cmd::Store {
                mem,
                phys_bank,
                idxs,
                ..
            } => {
                assert_eq!(mem, "A");
                assert!(phys_bank.is_some());
                assert_eq!(idxs.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let e = parse_expr("M{3}[0]").unwrap();
        assert!(matches!(
            e,
            Expr::Access {
                phys_bank: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_decl_and_def() {
        let p = parse(
            "decl A: float[512 bank 2][512];
             def f(x: bit<32>, M: float[8 bank 4]) { M[x] := 1; }
             f(3, A);",
        )
        .unwrap();
        assert_eq!(p.decls.len(), 1);
        assert_eq!(p.decls[0].ty.dims.len(), 2);
        assert_eq!(p.defs.len(), 1);
        assert_eq!(p.defs[0].params.len(), 2);
        assert!(matches!(p.body, Cmd::Expr(Expr::Call { .. })));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Bin {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Bin { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let e = parse_expr("a < b && c < d").unwrap();
        assert!(matches!(e, Expr::Bin { op: BinOp::And, .. }));
    }

    #[test]
    fn if_else_chain() {
        let c = body("if (x < 1) { y := 0; } else if (x < 2) { y := 1; } else { y := 2; }");
        match c {
            Cmd::If {
                else_branch: Some(e),
                ..
            } => assert!(matches!(*e, Cmd::If { .. })),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn memory_reducer_target() {
        let c = body("prod[i][j] += mul;");
        match c {
            Cmd::Reduce {
                target,
                target_idxs,
                op: Reducer::AddAssign,
                ..
            } => {
                assert_eq!(target, "prod");
                assert_eq!(target_idxs.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("let = 4;").is_err());
        assert!(parse("for (let i = 0..10) unroll 0 { }").is_err());
        assert!(parse("view v = chunk A[by 2];").is_err());
        assert!(parse("decl x: bit<32>;").is_err());
    }

    #[test]
    fn integers_that_fit_no_field_are_parse_errors() {
        // Each used to wrap into its `u32` field: 2^32 + 1 ports read as
        // one, 2^32 as none, and a width past 2^32 as its remainder.
        for (src, message) in [
            ("let A: float{4294967297}[8]; let x = A[0];", "port count"),
            ("let A: float{4294967296}[8];", "port count"),
            ("let x: bit<4294967328> = 1;", "bit width"),
            ("let x: bit<4294967296> = 1;", "bit width"),
            ("let x: bit<0> = 1;", "bit width"),
            ("let x: ubit<0> = 1;", "bit width"),
            ("decl A: bit<0>[8];", "bit width"),
            ("for (let i = 0..8) unroll 0 { }", "unroll factor"),
            ("view v = shrink A[by 0];", "positive integer factors"),
            ("view v = split A[by 0];", "positive integer factors"),
        ] {
            let err = parse(src).expect_err(src);
            assert!(matches!(err, Error::Parse { .. }), "{src}: {err}");
            assert!(err.to_string().contains(message), "{src}: {err}");
            assert_eq!(err.diagnostic().code, "parse/invalid", "{src}");
        }
        // The largest values each field holds still parse.
        let c = body("let A: bit<4294967295>{4294967295}[8];");
        match c {
            Cmd::Let {
                ty: Some(Type::Mem(m)),
                ..
            } => {
                assert_eq!(m.ports, u32::MAX);
                assert_eq!(*m.elem, Type::Bit(u32::MAX));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(
            parse("let A: float{0}[8];").is_ok(),
            "the checker's to refuse"
        );
    }

    #[test]
    fn while_loop() {
        let c = body("while (i < 10) { i := i + 1; }");
        assert!(matches!(c, Cmd::While { .. }));
    }

    /// `open` n times, then `core`, then `close` n times.
    fn nest(n: usize, open: &str, core: &str, close: &str) -> String {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    }

    /// A program nested as many levels deep as its argument.
    type Shape = fn(usize) -> String;

    /// Every way a program can nest.
    fn shapes() -> Vec<(&'static str, Shape)> {
        vec![
            ("parentheses", |n| {
                format!("let x = {};", nest(n, "(", "1", ")"))
            }),
            ("unary prefixes", |n| {
                format!("let x = {}true;", "!".repeat(n))
            }),
            ("chain terms", |n| {
                format!("let x = 1.0{};", " + 1.0".repeat(n))
            }),
            ("indices", |n| {
                format!("let x = {};", nest(n, "A[", "0", "]"))
            }),
            ("calls", |n| format!("let x = {};", nest(n, "f(", "0", ")"))),
            ("blocks", |n| nest(n, "{ ", "x := 1;", " }")),
            ("ifs", |n| nest(n, "if (true) { ", "x := 1;", " }")),
            ("else ifs", |n| {
                format!("if (true) {{ }}{}", " else if (true) { }".repeat(n - 1))
            }),
            ("fors", |n| {
                nest(n, "for (let i = 0..1) { ", "x := 1;", " }")
            }),
            ("whiles", |n| nest(n, "while (true) { ", "x := 1;", " }")),
        ]
    }

    #[test]
    fn nesting_up_to_the_limit_parses_and_one_past_it_is_refused() {
        for (name, shape) in shapes() {
            if let Err(e) = parse(&shape(MAX_NESTING)) {
                panic!("{name} at the limit: {e}");
            }
            let err = parse(&shape(MAX_NESTING + 1)).expect_err(name);
            assert!(matches!(err, Error::Parse { .. }), "{name}: {err}");
            assert!(
                err.to_string().contains("limit of 256 levels"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn nesting_is_charged_along_one_path_not_summed() {
        // Siblings each get the whole budget; nesting a chain inside a
        // parenthesis spends the parenthesis's level plus the chain's.
        let wide = format!("let x = {};", vec![nest(200, "(", "1", ")"); 8].join(" * "));
        assert!(parse(&wide).is_ok());
        let chain = " + 1.0".repeat(MAX_NESTING - 1);
        assert!(parse(&format!("let x = (1.0{chain});")).is_ok());
        assert!(parse(&format!("let x = (1.0{chain} + 1.0);")).is_err());
        // A chain folded onto a tall operand is charged the operand's
        // height: this tree is 2 × 200 deep, though no parse nests 201.
        let tall = nest(200, "!", "true", "");
        let deep = format!("let x = ({tall}){};", " && true".repeat(200));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn a_deep_program_is_an_error_not_a_stack_overflow() {
        // Without the budget, each of these overflowed a 2 MiB stack in
        // some stage of the pipeline; now the parser refuses them.
        for src in [
            format!("let x = {};", nest(20_000, "(", "A[0]", ")")),
            format!("let x = 1.0{};", " + 1.0".repeat(50_000)),
            nest(2_048, "{ ", "x := 1;", " }"),
        ] {
            assert!(matches!(parse(&src), Err(Error::Parse { .. })));
        }
    }
}
