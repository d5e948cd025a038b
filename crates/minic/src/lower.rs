//! Semantic analysis and lowering from the mini-C AST to `levee-ir`.
//!
//! Lowering follows the clang -O0 convention the paper's analyses expect:
//! every local variable (including parameters) gets a stack slot
//! (`alloca`), and all access goes through typed loads/stores. The
//! safe-stack pass later proves most of these slots safe and the
//! sensitivity analysis decides which loads/stores get instrumented —
//! preserving pointer element types through every cast is therefore
//! load-bearing here.
//!
//! Deliberate simplifications (documented mini-C semantics):
//! * integer arithmetic is performed on 64-bit registers; narrowing
//!   happens at stores and explicit casts,
//! * structs must be defined before use (self-reference through
//!   pointers is allowed),
//! * no typedefs, unions, enums, bitfields, varargs or floats.

use std::collections::HashMap;

use levee_ir::prelude::*;

use crate::ast::{self, BinKind, CTy, Expr, ExprKind, Init, Program, Stmt, UnKind};
use crate::error::CompileError;

/// Lowers a parsed program into an IR module named `name`.
pub fn lower(prog: &Program, name: &str) -> Result<Module, CompileError> {
    let mut cx = Cx {
        module: Module::new(name),
        funcs: HashMap::new(),
        globals: HashMap::new(),
        strings: HashMap::new(),
        struct_sensitive: HashMap::new(),
        incomplete: std::collections::HashSet::new(),
    };
    cx.declare_structs(prog)?;
    cx.declare_functions(prog)?;
    cx.declare_globals(prog)?;
    for f in &prog.funcs {
        cx.lower_function(f)?;
    }
    cx.module.compute_address_taken();
    Ok(cx.module)
}

/// Module-level lowering context.
struct Cx {
    module: Module,
    /// Function name → (id, param types, return type).
    funcs: HashMap<String, (FuncId, Vec<CTy>, CTy)>,
    /// Global name → (id, source type).
    globals: HashMap<String, (GlobalId, CTy)>,
    /// Interned string literals.
    strings: HashMap<String, GlobalId>,
    /// Struct name → `__sensitive` annotation.
    struct_sensitive: HashMap<String, bool>,
    /// Struct names declared forward but not yet defined.
    incomplete: std::collections::HashSet<String>,
}

impl Cx {
    // ---- declarations -------------------------------------------------------

    fn declare_structs(&mut self, prog: &Program) -> Result<(), CompileError> {
        // First pass: reserve a slot for every struct name (definitions
        // and forward declarations alike), so pointers to
        // not-yet-defined structs resolve.
        for s in &prog.structs {
            match self.module.types.struct_by_name(&s.name) {
                None => {
                    self.module
                        .types
                        .define_struct_ext(&s.name, vec![], s.sensitive);
                    self.struct_sensitive.insert(s.name.clone(), s.sensitive);
                    self.incomplete.insert(s.name.clone());
                }
                Some(_) if s.forward => {} // repeat forward decls are fine
                Some(_) if self.incomplete.contains(&s.name) => {}
                Some(_) => {
                    return Err(CompileError::ty(
                        s.line,
                        format!("duplicate struct {}", s.name),
                    ));
                }
            }
        }
        // Second pass: fill in field layouts for real definitions.
        for s in &prog.structs {
            if s.forward {
                continue;
            }
            let own_id = self
                .module
                .types
                .struct_by_name(&s.name)
                .expect("reserved in first pass");
            if !self.incomplete.remove(&s.name) {
                return Err(CompileError::ty(
                    s.line,
                    format!("duplicate struct {}", s.name),
                ));
            }
            let mut converted = Vec::new();
            for (fname, fty) in &s.fields {
                let ty = self.cty_to_ir_with_self(fty, &s.name, s.line)?;
                converted.push((fname.clone(), ty));
            }
            self.module.types.redefine_struct(own_id, converted);
        }
        Ok(())
    }

    fn declare_functions(&mut self, prog: &Program) -> Result<(), CompileError> {
        for f in &prog.funcs {
            if self.funcs.contains_key(&f.name) {
                return Err(CompileError::ty(
                    f.line,
                    format!("duplicate function {}", f.name),
                ));
            }
            if Intrinsic::by_name(&f.name).is_some() {
                return Err(CompileError::ty(
                    f.line,
                    format!("{} shadows a libc intrinsic", f.name),
                ));
            }
            let params: Vec<Ty> = f
                .params
                .iter()
                .map(|(_, t)| self.cty_to_ir(&self.decay(t.clone()), f.line))
                .collect::<Result<_, _>>()?;
            let ret = self.cty_to_ir(&f.ret, f.line)?;
            let id = self
                .module
                .add_func(Function::new(&f.name, FnSig::new(params, ret)));
            self.funcs.insert(
                f.name.clone(),
                (
                    id,
                    f.params
                        .iter()
                        .map(|(_, t)| self.decay(t.clone()))
                        .collect(),
                    f.ret.clone(),
                ),
            );
        }
        Ok(())
    }

    fn declare_globals(&mut self, prog: &Program) -> Result<(), CompileError> {
        for g in &prog.globals {
            let ir_ty = self.cty_to_ir(&g.ty, g.line)?;
            let init = match &g.init {
                None => Vec::new(),
                Some(i) => self.global_init(&g.ty, i, g.line)?,
            };
            let id = self.module.add_global(GlobalDef {
                name: g.name.clone(),
                ty: ir_ty,
                init,
                read_only: false,
            });
            self.globals.insert(g.name.clone(), (id, g.ty.clone()));
        }
        Ok(())
    }

    fn global_init(
        &mut self,
        ty: &CTy,
        init: &Init,
        line: u32,
    ) -> Result<Vec<InitAtom>, CompileError> {
        let atom_err = |msg: &str| Err(CompileError::ty(line, format!("bad initializer: {msg}")));
        match (ty, init) {
            (CTy::Char | CTy::Short | CTy::Int | CTy::Long, Init::Int(v)) => {
                let size = scalar_size(ty);
                Ok(vec![InitAtom::Int {
                    value: *v as u64,
                    size,
                }])
            }
            (CTy::Ptr(_), Init::Int(0)) => Ok(vec![InitAtom::Int { value: 0, size: 8 }]),
            (CTy::Array(elem, n), Init::Str(s)) if **elem == CTy::Char => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                if bytes.len() as u64 > *n {
                    return atom_err("string longer than array");
                }
                let pad = *n - bytes.len() as u64;
                let mut atoms = vec![InitAtom::Bytes(bytes)];
                if pad > 0 {
                    atoms.push(InitAtom::Zero(pad));
                }
                Ok(atoms)
            }
            (CTy::Ptr(inner), Init::Str(s)) if **inner == CTy::Char => {
                let sid = self.intern_string(s);
                Ok(vec![InitAtom::GlobalPtr(sid, 0)])
            }
            (CTy::FnPtr(..), Init::Ident(fname)) => {
                let (fid, _, _) = self
                    .funcs
                    .get(fname)
                    .ok_or_else(|| CompileError::ty(line, format!("unknown function {fname}")))?;
                Ok(vec![InitAtom::FuncPtr(*fid)])
            }
            (CTy::Ptr(_), Init::Ident(gname)) => {
                let (gid, _) = self
                    .globals
                    .get(gname)
                    .ok_or_else(|| CompileError::ty(line, format!("unknown global {gname}")))?;
                Ok(vec![InitAtom::GlobalPtr(*gid, 0)])
            }
            (CTy::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return atom_err("too many elements");
                }
                let mut atoms = Vec::new();
                for item in items {
                    atoms.extend(self.global_init(elem, item, line)?);
                }
                let elem_size = self.sizeof(elem, line)?;
                let pad = (*n - items.len() as u64) * elem_size;
                if pad > 0 {
                    atoms.push(InitAtom::Zero(pad));
                }
                Ok(atoms)
            }
            (CTy::Struct(sname), Init::List(items)) => {
                let sid = self
                    .module
                    .types
                    .struct_by_name(sname)
                    .ok_or_else(|| CompileError::ty(line, format!("unknown struct {sname}")))?;
                let def = self.module.types.struct_def(sid).clone();
                if items.len() > def.fields.len() {
                    return atom_err("too many fields");
                }
                let mut atoms = Vec::new();
                let mut off = 0u64;
                for (field, item) in def.fields.iter().zip(items) {
                    if field.offset > off {
                        atoms.push(InitAtom::Zero(field.offset - off));
                        off = field.offset;
                    }
                    let fty = self.ir_to_cty_approx(&field.ty);
                    let sub = self.global_init(&fty, item, line)?;
                    off += sub.iter().map(|a| a.size()).sum::<u64>();
                    atoms.extend(sub);
                }
                if def.size > off {
                    atoms.push(InitAtom::Zero(def.size - off));
                }
                Ok(atoms)
            }
            _ => atom_err("unsupported type/initializer combination"),
        }
    }

    fn intern_string(&mut self, s: &str) -> GlobalId {
        if let Some(id) = self.strings.get(s) {
            return *id;
        }
        let name = format!(".str.{}", self.strings.len());
        let id = self.module.add_string(&name, s);
        self.strings.insert(s.to_string(), id);
        id
    }

    // ---- types ---------------------------------------------------------------

    /// Array-to-pointer decay for parameter types.
    fn decay(&self, ty: CTy) -> CTy {
        match ty {
            CTy::Array(elem, _) => CTy::Ptr(elem),
            other => other,
        }
    }

    fn cty_to_ir(&self, ty: &CTy, line: u32) -> Result<Ty, CompileError> {
        self.cty_rec(ty, "", true, line)
    }

    fn cty_to_ir_with_self(
        &self,
        ty: &CTy,
        self_name: &str,
        line: u32,
    ) -> Result<Ty, CompileError> {
        self.cty_rec(ty, self_name, true, line)
    }

    /// Recursive conversion; `by_value` is false under pointers, where
    /// self-reference is legal.
    fn cty_rec(
        &self,
        ty: &CTy,
        self_name: &str,
        by_value: bool,
        line: u32,
    ) -> Result<Ty, CompileError> {
        Ok(match ty {
            CTy::Void => Ty::Void,
            CTy::Char => Ty::I8,
            CTy::Short => Ty::I16,
            CTy::Int => Ty::I32,
            CTy::Long => Ty::I64,
            CTy::Ptr(inner) if **inner == CTy::Void => Ty::VoidPtr,
            CTy::Ptr(inner) => self.cty_rec(inner, self_name, false, line)?.ptr_to(),
            CTy::Array(elem, n) => {
                Ty::Array(Box::new(self.cty_rec(elem, self_name, by_value, line)?), *n)
            }
            CTy::Struct(name) => {
                let id = self.module.types.struct_by_name(name).ok_or_else(|| {
                    CompileError::ty(line, format!("unknown struct {name} (define before use)"))
                })?;
                if by_value && name == self_name {
                    return Err(CompileError::ty(
                        line,
                        format!("struct {name} contains itself by value"),
                    ));
                }
                Ty::Struct(id)
            }
            CTy::FnPtr(params, ret) => {
                let ps: Vec<Ty> = params
                    .iter()
                    .map(|p| self.cty_rec(p, self_name, false, line))
                    .collect::<Result<_, _>>()?;
                let r = self.cty_rec(ret, self_name, false, line)?;
                Ty::fn_ptr(FnSig::new(ps, r))
            }
        })
    }

    /// Approximate reverse mapping, used for nested global initializers.
    fn ir_to_cty_approx(&self, ty: &Ty) -> CTy {
        match ty {
            Ty::I8 => CTy::Char,
            Ty::I16 => CTy::Short,
            Ty::I32 => CTy::Int,
            Ty::I64 => CTy::Long,
            Ty::VoidPtr => CTy::Void.ptr(),
            Ty::Ptr(inner) => self.ir_to_cty_approx(inner).ptr(),
            Ty::FnPtr(sig) => CTy::FnPtr(
                sig.params
                    .iter()
                    .map(|p| self.ir_to_cty_approx(p))
                    .collect(),
                Box::new(self.ir_to_cty_approx(&sig.ret)),
            ),
            Ty::Array(elem, n) => CTy::Array(Box::new(self.ir_to_cty_approx(elem)), *n),
            Ty::Struct(id) => {
                let name = self.module.types.struct_def(*id).name.clone();
                CTy::Struct(name)
            }
            Ty::Void => CTy::Void,
        }
    }

    fn sizeof(&self, ty: &CTy, line: u32) -> Result<u64, CompileError> {
        let ir = self.cty_to_ir(ty, line)?;
        Ok(self.module.types.size_of(&ir))
    }

    // ---- function lowering ----------------------------------------------------

    fn lower_function(&mut self, f: &ast::FuncDecl) -> Result<(), CompileError> {
        let (fid, _, _) = self.funcs[&f.name];
        let sig = self.module.func(fid).sig.clone();
        let mut fx = FnCx {
            cx: self,
            b: FuncBuilder::new(&f.name, sig),
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            ret_ty: f.ret.clone(),
        };
        // Parameters: spill into stack slots so `&param` works and the
        // safe-stack analysis sees a uniform shape.
        for (i, (pname, pty)) in f.params.iter().enumerate() {
            let pty = fx.cx.decay(pty.clone());
            let ir_ty = fx.cx.cty_to_ir(&pty, f.line)?;
            let slot = fx.b.alloca(ir_ty.clone(), 1);
            let param = fx.b.param(i);
            fx.b.store(slot, param, ir_ty);
            fx.scopes
                .last_mut()
                .expect("scope")
                .insert(pname.clone(), Var { slot, ty: pty });
        }
        fx.lower_block(&f.body)?;
        if !fx.b.current_sealed() {
            // Implicit return (UB in C for non-void; we return zero).
            if f.ret == CTy::Void {
                fx.b.ret(None);
            } else {
                fx.b.ret(Some(Operand::Const(0)));
            }
        }
        let built = fx.b.finish();
        self.module.funcs[fid.0 as usize] = built;
        Ok(())
    }
}

fn scalar_size(ty: &CTy) -> u64 {
    match ty {
        CTy::Char => 1,
        CTy::Short => 2,
        CTy::Int => 4,
        CTy::Long => 8,
        _ => 8,
    }
}

/// A local variable: its stack slot (a register holding the address)
/// and its source type.
#[derive(Clone)]
struct Var {
    slot: ValueId,
    ty: CTy,
}

/// Per-function lowering context.
struct FnCx<'a> {
    cx: &'a mut Cx,
    b: FuncBuilder,
    scopes: Vec<HashMap<String, Var>>,
    /// (continue target, break target) stack.
    loops: Vec<(BlockId, BlockId)>,
    ret_ty: CTy,
}

/// An evaluated rvalue: operand plus its source type. Aggregates
/// (structs and arrays) are represented by their address.
struct RV {
    op: Operand,
    ty: CTy,
}

impl RV {
    fn scalar(op: impl Into<Operand>, ty: CTy) -> Self {
        RV { op: op.into(), ty }
    }
}

impl<'a> FnCx<'a> {
    fn lookup(&self, name: &str) -> Option<Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name).cloned())
    }

    fn lower_block(&mut self, blk: &ast::Block) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        for stmt in &blk.stmts {
            self.lower_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    /// Ensures the builder has an open (unsealed) block, creating a dead
    /// continuation block for code after returns/breaks.
    fn ensure_open(&mut self) {
        if self.b.current_sealed() {
            let dead = self.b.new_block();
            self.b.switch_to(dead);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        self.ensure_open();
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                line,
            } => {
                let ir_ty = self.cx.cty_to_ir(ty, *line)?;
                let slot = self.b.alloca(ir_ty.clone(), 1);
                self.scopes.last_mut().expect("scope").insert(
                    name.clone(),
                    Var {
                        slot,
                        ty: ty.clone(),
                    },
                );
                if let Some(e) = init {
                    let rv = self.rvalue(e)?;
                    let coerced = self.coerce(rv, ty, *line)?;
                    let store_ty = self.cx.cty_to_ir(&self.store_ty(ty), *line)?;
                    self.b.store(slot, coerced, store_ty);
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.rvalue(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.b.cond_br(c.op, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.lower_block(then_blk)?;
                if !self.b.current_sealed() {
                    self.b.br(join);
                }
                self.b.switch_to(else_bb);
                if let Some(eb) = else_blk {
                    self.lower_block(eb)?;
                }
                if !self.b.current_sealed() {
                    self.b.br(join);
                }
                self.b.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                let c = self.rvalue(cond)?;
                self.b.cond_br(c.op, body_bb, exit);
                self.b.switch_to(body_bb);
                self.loops.push((header, exit));
                self.lower_block(body)?;
                self.loops.pop();
                if !self.b.current_sealed() {
                    self.b.br(header);
                }
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(s) = init {
                    self.lower_stmt(s)?;
                }
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                match cond {
                    Some(c) => {
                        let cv = self.rvalue(c)?;
                        self.b.cond_br(cv.op, body_bb, exit);
                    }
                    None => self.b.br(body_bb),
                }
                self.b.switch_to(body_bb);
                self.loops.push((step_bb, exit));
                self.lower_block(body)?;
                self.loops.pop();
                if !self.b.current_sealed() {
                    self.b.br(step_bb);
                }
                self.b.switch_to(step_bb);
                if let Some(s) = step {
                    self.expr(s)?;
                }
                self.b.br(header);
                self.b.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(v, line) => {
                match v {
                    Some(e) => {
                        let rv = self.rvalue(e)?;
                        let ret_ty = self.ret_ty.clone();
                        let coerced = self.coerce(rv, &ret_ty, *line)?;
                        self.b.ret(Some(coerced));
                    }
                    None => self.b.ret(None),
                }
                Ok(())
            }
            Stmt::Break(line) => {
                let (_, exit) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::ty(*line, "break outside loop"))?;
                self.b.br(exit);
                Ok(())
            }
            Stmt::Continue(line) => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::ty(*line, "continue outside loop"))?;
                self.b.br(cont);
                Ok(())
            }
            Stmt::Block(b) => self.lower_block(b),
        }
    }

    /// The in-memory type of a declaration (identity; kept separate for
    /// clarity at call sites that must not decay arrays).
    fn store_ty(&self, ty: &CTy) -> CTy {
        ty.clone()
    }

    // ---- lvalues ----------------------------------------------------------

    /// Lowers an lvalue to (address operand, object type).
    fn lvalue(&mut self, e: &Expr) -> Result<(Operand, CTy), CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(var) = self.lookup(name) {
                    return Ok((var.slot.into(), var.ty));
                }
                if let Some((gid, gty)) = self.cx.globals.get(name).cloned() {
                    let ir = self.cx.cty_to_ir(&gty, e.line)?;
                    let addr = self.b.global_addr(gid, ir.ptr_to());
                    return Ok((addr.into(), gty));
                }
                Err(CompileError::ty(e.line, format!("unknown variable {name}")))
            }
            ExprKind::Unary(UnKind::Deref, inner) => {
                let rv = self.rvalue(inner)?;
                match rv.ty.clone() {
                    CTy::Ptr(pointee) => Ok((rv.op, *pointee)),
                    CTy::FnPtr(..) => Err(CompileError::ty(
                        e.line,
                        "cannot dereference a function pointer as data",
                    )),
                    other => Err(CompileError::ty(
                        e.line,
                        format!("cannot dereference non-pointer {other:?}"),
                    )),
                }
            }
            ExprKind::Index(base, idx) => {
                let (addr, elem_ty) = self.indexed_addr(base, idx, e.line)?;
                Ok((addr, elem_ty))
            }
            ExprKind::Member(base, field, arrow) => {
                let (base_addr, struct_ty) = if *arrow {
                    let rv = self.rvalue(base)?;
                    match rv.ty.clone() {
                        CTy::Ptr(inner) => (rv.op, *inner),
                        other => {
                            return Err(CompileError::ty(
                                e.line,
                                format!("-> on non-pointer {other:?}"),
                            ))
                        }
                    }
                } else {
                    self.lvalue(base)?
                };
                let CTy::Struct(sname) = &struct_ty else {
                    return Err(CompileError::ty(
                        e.line,
                        format!("member access on non-struct {struct_ty:?}"),
                    ));
                };
                let sid =
                    self.cx.module.types.struct_by_name(sname).ok_or_else(|| {
                        CompileError::ty(e.line, format!("unknown struct {sname}"))
                    })?;
                let (idx, fld) = self
                    .cx
                    .module
                    .types
                    .struct_def(sid)
                    .fields
                    .iter()
                    .enumerate()
                    .find(|(_, f)| f.name == *field)
                    .map(|(i, f)| (i as u32, f.clone()))
                    .ok_or_else(|| {
                        CompileError::ty(e.line, format!("struct {sname} has no field {field}"))
                    })?;
                let fty_c = self.cx.ir_to_cty_approx(&fld.ty);
                let addr = self
                    .b
                    .gep_field(base_addr, sid, idx, fld.ty.clone(), fld.offset);
                Ok((addr.into(), fty_c))
            }
            _ => Err(CompileError::ty(e.line, "expression is not an lvalue")),
        }
    }

    /// Address of `base[idx]`; returns (address, element type).
    fn indexed_addr(
        &mut self,
        base: &Expr,
        idx: &Expr,
        line: u32,
    ) -> Result<(Operand, CTy), CompileError> {
        let base_rv = self.rvalue(base)?; // arrays decay to pointers here
        let idx_rv = self.rvalue(idx)?;
        let elem = match base_rv.ty.clone() {
            CTy::Ptr(p) => *p,
            other => {
                return Err(CompileError::ty(
                    line,
                    format!("indexing non-pointer {other:?}"),
                ))
            }
        };
        let ir_elem = self.cx.cty_to_ir(&elem, line)?;
        let addr = self.b.gep(base_rv.op, idx_rv.op, ir_elem, 0);
        Ok((addr.into(), elem))
    }

    // ---- rvalues ----------------------------------------------------------

    /// Lowers `e` for its value: a `void` expression has none.
    fn rvalue(&mut self, e: &Expr) -> Result<RV, CompileError> {
        let rv = self.expr(e)?;
        if rv.ty == CTy::Void {
            return Err(CompileError::ty(e.line, "void value used"));
        }
        Ok(rv)
    }

    /// Lowers `e`, which may be a `void` expression evaluated for its
    /// effects (an expression statement, or the operand of a cast to
    /// `void`).
    fn expr(&mut self, e: &Expr) -> Result<RV, CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(RV::scalar(*v, CTy::Long)),
            ExprKind::CharLit(c) => Ok(RV::scalar(*c as i64, CTy::Char)),
            ExprKind::StrLit(s) => {
                let gid = self.cx.intern_string(s);
                let addr = self.b.global_addr(gid, Ty::I8.ptr_to());
                Ok(RV::scalar(addr, CTy::Char.ptr()))
            }
            ExprKind::Ident(name) => {
                // Function designators become code pointers.
                if self.lookup(name).is_none() && !self.cx.globals.contains_key(name) {
                    if let Some((fid, params, ret)) = self.cx.funcs.get(name).cloned() {
                        let sig = self.fn_sig(&params, &ret, e.line)?;
                        let v = self.b.func_addr(fid, sig);
                        return Ok(RV::scalar(v, CTy::FnPtr(params, Box::new(ret))));
                    }
                }
                self.load_lvalue(e)
            }
            ExprKind::Assign(lhs, rhs) => {
                let (addr, lty) = self.lvalue(lhs)?;
                let rv = self.rvalue(rhs)?;
                if let CTy::Struct(_) = lty {
                    // Struct assignment is a memcpy.
                    let size = self.cx.sizeof(&lty, e.line)?;
                    self.b.intrinsic(
                        Intrinsic::Memcpy,
                        vec![addr, rv.op, Operand::Const(size as i64)],
                        Ty::VoidPtr,
                    );
                    return Ok(RV { op: rv.op, ty: lty });
                }
                let coerced = self.coerce(rv, &lty, e.line)?;
                let ir_ty = self.cx.cty_to_ir(&lty, e.line)?;
                self.b.store(addr, coerced, ir_ty);
                Ok(RV::scalar(coerced, lty))
            }
            ExprKind::Bin(op, lhs, rhs) => self.lower_bin(*op, lhs, rhs, e.line),
            ExprKind::Unary(op, inner) => self.lower_unary(*op, inner, e.line),
            ExprKind::Index(..) | ExprKind::Member(..) => self.load_lvalue(e),
            ExprKind::Call(callee, args) => self.lower_call(callee, args, e.line),
            ExprKind::Cast(to, inner) => {
                let rv = self.expr(inner)?;
                self.lower_cast(rv, to, e.line)
            }
            ExprKind::Sizeof(ty) => {
                let size = self.cx.sizeof(ty, e.line)?;
                Ok(RV::scalar(size as i64, CTy::Long))
            }
        }
    }

    /// Loads (or decays) an lvalue expression as an rvalue.
    fn load_lvalue(&mut self, e: &Expr) -> Result<RV, CompileError> {
        let (addr, ty) = self.lvalue(e)?;
        match &ty {
            CTy::Array(elem, _) => {
                // Decay: the address itself, typed elem*.
                Ok(RV::scalar(addr, CTy::Ptr(elem.clone())))
            }
            CTy::Struct(_) => Ok(RV { op: addr, ty }),
            _ => {
                let ir_ty = self.cx.cty_to_ir(&ty, e.line)?;
                let v = self.b.load(addr, ir_ty);
                Ok(RV::scalar(v, ty))
            }
        }
    }

    fn fn_sig(&self, params: &[CTy], ret: &CTy, line: u32) -> Result<FnSig, CompileError> {
        let ps: Vec<Ty> = params
            .iter()
            .map(|p| self.cx.cty_to_ir(p, line))
            .collect::<Result<_, _>>()?;
        Ok(FnSig::new(ps, self.cx.cty_to_ir(ret, line)?))
    }

    fn lower_bin(
        &mut self,
        op: BinKind,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<RV, CompileError> {
        // Short-circuit operators need control flow.
        if matches!(op, BinKind::LogAnd | BinKind::LogOr) {
            return self.lower_logical(op, lhs, rhs, line);
        }
        let l = self.rvalue(lhs)?;
        let r = self.rvalue(rhs)?;
        let lptr = matches!(l.ty, CTy::Ptr(_));
        let rptr = matches!(r.ty, CTy::Ptr(_));
        match op {
            BinKind::Add | BinKind::Sub if lptr && !rptr => {
                // Pointer ± integer → gep.
                let elem = match &l.ty {
                    CTy::Ptr(p) => (**p).clone(),
                    _ => unreachable!("checked lptr"),
                };
                let ir_elem = self.cx.cty_to_ir(&elem, line)?;
                let idx = if op == BinKind::Sub {
                    self.b.bin(BinOp::Sub, 0, r.op, Ty::I64).into()
                } else {
                    r.op
                };
                let addr = self.b.gep(l.op, idx, ir_elem, 0);
                Ok(RV::scalar(addr, l.ty))
            }
            BinKind::Add if rptr && !lptr => {
                let elem = match &r.ty {
                    CTy::Ptr(p) => (**p).clone(),
                    _ => unreachable!("checked rptr"),
                };
                let ir_elem = self.cx.cty_to_ir(&elem, line)?;
                let addr = self.b.gep(r.op, l.op, ir_elem, 0);
                Ok(RV::scalar(addr, r.ty))
            }
            BinKind::Sub if lptr && rptr => {
                // Pointer difference, in elements.
                let elem_size = match &l.ty {
                    CTy::Ptr(p) => self.cx.sizeof(p, line)?,
                    _ => unreachable!("checked lptr"),
                };
                let diff = self.b.bin(BinOp::Sub, l.op, r.op, Ty::I64);
                let v = self.b.bin(BinOp::Div, diff, elem_size as i64, Ty::I64);
                Ok(RV::scalar(v, CTy::Long))
            }
            BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge | BinKind::Eq | BinKind::Ne => {
                let cmp = match op {
                    BinKind::Lt => CmpOp::Lt,
                    BinKind::Le => CmpOp::Le,
                    BinKind::Gt => CmpOp::Gt,
                    BinKind::Ge => CmpOp::Ge,
                    BinKind::Eq => CmpOp::Eq,
                    BinKind::Ne => CmpOp::Ne,
                    _ => unreachable!("comparison subset"),
                };
                let v = self.b.cmp(cmp, l.op, r.op);
                Ok(RV::scalar(v, CTy::Int))
            }
            _ => {
                let bop = match op {
                    BinKind::Add => BinOp::Add,
                    BinKind::Sub => BinOp::Sub,
                    BinKind::Mul => BinOp::Mul,
                    BinKind::Div => BinOp::Div,
                    BinKind::Rem => BinOp::Rem,
                    BinKind::And => BinOp::And,
                    BinKind::Or => BinOp::Or,
                    BinKind::Xor => BinOp::Xor,
                    BinKind::Shl => BinOp::Shl,
                    BinKind::Shr => BinOp::Shr,
                    _ => unreachable!("arith subset"),
                };
                let v = self.b.bin(bop, l.op, r.op, Ty::I64);
                Ok(RV::scalar(v, promote(&l.ty, &r.ty)))
            }
        }
    }

    fn lower_logical(
        &mut self,
        op: BinKind,
        lhs: &Expr,
        rhs: &Expr,
        _line: u32,
    ) -> Result<RV, CompileError> {
        // result = alloca-free: a fresh register written on both paths.
        let result = self.b.fresh_local(Ty::I32);
        let l = self.rvalue(lhs)?;
        let rhs_bb = self.b.new_block();
        let short_bb = self.b.new_block();
        let join = self.b.new_block();
        match op {
            BinKind::LogAnd => self.b.cond_br(l.op, rhs_bb, short_bb),
            _ => self.b.cond_br(l.op, short_bb, rhs_bb),
        }
        self.b.switch_to(rhs_bb);
        let r = self.rvalue(rhs)?;
        let r_bool = self.b.cmp(CmpOp::Ne, r.op, 0);
        self.b.func_mut_push(Inst::Bin {
            dest: result,
            op: BinOp::Or,
            lhs: r_bool.into(),
            rhs: Operand::Const(0),
        });
        self.b.br(join);
        self.b.switch_to(short_bb);
        let short_val = if op == BinKind::LogAnd { 0 } else { 1 };
        self.b.func_mut_push(Inst::Bin {
            dest: result,
            op: BinOp::Or,
            lhs: Operand::Const(short_val),
            rhs: Operand::Const(0),
        });
        self.b.br(join);
        self.b.switch_to(join);
        Ok(RV::scalar(result, CTy::Int))
    }

    fn lower_unary(&mut self, op: UnKind, inner: &Expr, line: u32) -> Result<RV, CompileError> {
        match op {
            UnKind::Neg => {
                let rv = self.rvalue(inner)?;
                let v = self.b.bin(BinOp::Sub, 0, rv.op, Ty::I64);
                Ok(RV::scalar(v, rv.ty))
            }
            UnKind::Not => {
                let rv = self.rvalue(inner)?;
                let v = self.b.cmp(CmpOp::Eq, rv.op, 0);
                Ok(RV::scalar(v, CTy::Int))
            }
            UnKind::BitNot => {
                let rv = self.rvalue(inner)?;
                let v = self.b.bin(BinOp::Xor, rv.op, -1, Ty::I64);
                Ok(RV::scalar(v, rv.ty))
            }
            UnKind::Deref => self.load_lvalue(&Expr::new(
                ExprKind::Unary(UnKind::Deref, Box::new(inner.clone())),
                line,
            )),
            UnKind::Addr => {
                // &function is the function designator itself.
                if let ExprKind::Ident(name) = &inner.kind {
                    if self.lookup(name).is_none()
                        && !self.cx.globals.contains_key(name)
                        && self.cx.funcs.contains_key(name)
                    {
                        return self.rvalue(inner);
                    }
                }
                let (addr, ty) = self.lvalue(inner)?;
                Ok(RV::scalar(addr, ty.ptr()))
            }
        }
    }

    fn lower_cast(&mut self, rv: RV, to: &CTy, line: u32) -> Result<RV, CompileError> {
        // `(void)e` only discards the already evaluated operand.
        if *to == CTy::Void {
            return Ok(RV::scalar(0, CTy::Void));
        }
        if rv.ty == CTy::Void {
            return Err(CompileError::ty(line, "void value used"));
        }
        let to_ir = self.cx.cty_to_ir(to, line)?;
        let from_ptr = matches!(rv.ty, CTy::Ptr(_) | CTy::FnPtr(..));
        let to_ptr = matches!(to, CTy::Ptr(_) | CTy::FnPtr(..));
        let kind = match (from_ptr, to_ptr) {
            (true, true) => CastKind::PtrToPtr,
            (true, false) => CastKind::PtrToInt,
            (false, true) => CastKind::IntToPtr,
            (false, false) => CastKind::IntToInt,
        };
        let v = self.b.cast(kind, rv.op, to_ir);
        Ok(RV::scalar(v, to.clone()))
    }

    /// Implicit conversion of `rv` to `target`, inserting casts that the
    /// sensitivity analysis needs to see (pointer retypes in particular).
    fn coerce(&mut self, rv: RV, target: &CTy, line: u32) -> Result<Operand, CompileError> {
        if rv.ty == *target {
            return Ok(rv.op);
        }
        let from_ptr = matches!(rv.ty, CTy::Ptr(_) | CTy::FnPtr(..));
        let to_ptr = matches!(target, CTy::Ptr(_) | CTy::FnPtr(..));
        match (from_ptr, to_ptr) {
            (true, true) => {
                let casted = self.lower_cast(rv, target, line)?;
                Ok(casted.op)
            }
            (false, false) => Ok(rv.op), // integer widths reconcile at stores
            (false, true) => {
                // Implicit int→pointer: only the NULL constant is clean C,
                // but legacy code does this; emit the cast for analysis.
                let casted = self.lower_cast(rv, target, line)?;
                Ok(casted.op)
            }
            (true, false) => {
                let casted = self.lower_cast(rv, target, line)?;
                Ok(casted.op)
            }
        }
    }

    fn lower_call(&mut self, callee: &Expr, args: &[Expr], line: u32) -> Result<RV, CompileError> {
        // Direct call to a named function or intrinsic?
        if let ExprKind::Ident(name) = &callee.kind {
            if self.lookup(name).is_none() && !self.cx.globals.contains_key(name) {
                if let Some(intr) = Intrinsic::by_name(name) {
                    return self.lower_intrinsic_call(intr, args, line);
                }
                if let Some((fid, params, ret)) = self.cx.funcs.get(name).cloned() {
                    if params.len() != args.len() {
                        return Err(CompileError::ty(
                            line,
                            format!(
                                "{name} expects {} arguments, got {}",
                                params.len(),
                                args.len()
                            ),
                        ));
                    }
                    let mut ops = Vec::new();
                    for (a, pty) in args.iter().zip(&params) {
                        let rv = self.rvalue(a)?;
                        ops.push(self.coerce(rv, pty, line)?);
                    }
                    let ret_ir = self.cx.cty_to_ir(&ret, line)?;
                    let dest = self.b.call(fid, ops, ret_ir);
                    return Ok(match dest {
                        Some(d) => RV::scalar(d, ret),
                        None => RV::scalar(0, CTy::Void),
                    });
                }
            }
        }
        // Indirect call through a function-pointer value.
        let frv = self.rvalue(callee)?;
        let CTy::FnPtr(params, ret) = frv.ty.clone() else {
            return Err(CompileError::ty(
                line,
                format!("call of non-function value of type {:?}", frv.ty),
            ));
        };
        if params.len() != args.len() {
            return Err(CompileError::ty(
                line,
                format!(
                    "function pointer expects {} arguments, got {}",
                    params.len(),
                    args.len()
                ),
            ));
        }
        let mut ops = Vec::new();
        for (a, pty) in args.iter().zip(&params) {
            let rv = self.rvalue(a)?;
            ops.push(self.coerce(rv, pty, line)?);
        }
        let sig = self.fn_sig(&params, &ret, line)?;
        let dest = self.b.call_indirect(frv.op, sig, ops);
        Ok(match dest {
            Some(d) => RV::scalar(d, *ret),
            None => RV::scalar(0, CTy::Void),
        })
    }

    fn lower_intrinsic_call(
        &mut self,
        intr: Intrinsic,
        args: &[Expr],
        line: u32,
    ) -> Result<RV, CompileError> {
        let (arity, ret): (usize, CTy) = match intr {
            Intrinsic::Malloc => (1, CTy::Void.ptr()),
            Intrinsic::Calloc => (2, CTy::Void.ptr()),
            Intrinsic::Free => (1, CTy::Void),
            Intrinsic::Memcpy | Intrinsic::Memmove => (3, CTy::Void.ptr()),
            Intrinsic::Memset => (3, CTy::Void.ptr()),
            Intrinsic::Memcmp => (3, CTy::Int),
            Intrinsic::Strcpy | Intrinsic::Strcat => (2, CTy::Char.ptr()),
            Intrinsic::Strncpy | Intrinsic::Strncat => (3, CTy::Char.ptr()),
            Intrinsic::Strlen => (1, CTy::Long),
            Intrinsic::Strcmp => (2, CTy::Int),
            Intrinsic::PrintInt => (1, CTy::Void),
            Intrinsic::PrintStr => (1, CTy::Void),
            Intrinsic::ReadInput => (2, CTy::Long),
            Intrinsic::InputLen => (0, CTy::Long),
            Intrinsic::Setjmp => (1, CTy::Int),
            Intrinsic::Longjmp => (2, CTy::Void),
            Intrinsic::System => (1, CTy::Int),
            Intrinsic::Rand => (0, CTy::Long),
            Intrinsic::Exit => (1, CTy::Void),
            Intrinsic::AbortProg => (0, CTy::Void),
        };
        if args.len() != arity {
            return Err(CompileError::ty(
                line,
                format!(
                    "{} expects {arity} arguments, got {}",
                    intr.name(),
                    args.len()
                ),
            ));
        }
        let mut ops = Vec::new();
        for a in args {
            let rv = self.rvalue(a)?;
            ops.push(rv.op);
        }
        let ret_ir = self.cx.cty_to_ir(&ret, line)?;
        let dest = self.b.intrinsic(intr, ops, ret_ir);
        Ok(match dest {
            Some(d) => RV::scalar(d, ret),
            None => RV::scalar(0, CTy::Void),
        })
    }
}

/// Usual arithmetic promotion (approximate: widest wins).
fn promote(a: &CTy, b: &CTy) -> CTy {
    let rank = |t: &CTy| match t {
        CTy::Char => 1,
        CTy::Short => 2,
        CTy::Int => 3,
        CTy::Long => 4,
        _ => 4,
    };
    if rank(a) >= rank(b) {
        a.clone()
    } else {
        b.clone()
    }
}
