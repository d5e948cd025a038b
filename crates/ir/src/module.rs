//! Modules: the compilation unit holding functions, globals and types.

use std::collections::HashMap;

use crate::inst::{FuncId, GlobalId, Inst};
use crate::types::{Ty, TypeTable};

/// One atom of a global initializer.
///
/// Globals may embed function addresses (jump tables, vtables, opcode
/// dispatch tables) — these are exactly the compiler/linker-generated
/// code pointers §4 ("Binary level functionality") discusses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitAtom {
    /// `size` bytes of a little-endian integer value.
    Int { value: u64, size: u64 },
    /// The address of a function (a code pointer).
    FuncPtr(FuncId),
    /// The address of another global, plus a byte offset.
    GlobalPtr(GlobalId, u64),
    /// Raw bytes (string literals).
    Bytes(Vec<u8>),
    /// `n` zero bytes.
    Zero(u64),
}

impl InitAtom {
    /// Size of this atom in bytes.
    pub fn size(&self) -> u64 {
        match self {
            InitAtom::Int { size, .. } => *size,
            InitAtom::FuncPtr(_) | InitAtom::GlobalPtr(..) => crate::types::PTR_SIZE,
            InitAtom::Bytes(b) => b.len() as u64,
            InitAtom::Zero(n) => *n,
        }
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDef {
    /// Source-level name.
    pub name: String,
    /// Value type of the global (its address has type `ty*`).
    pub ty: Ty,
    /// Initializer atoms, laid out consecutively from the global's base.
    /// An empty vector zero-initializes the whole object.
    pub init: Vec<InitAtom>,
    /// Read-only data (string constants, vtables, jump tables). The VM
    /// write-protects these, modelling §4's read-only GOT/jump tables.
    pub read_only: bool,
}

/// A compilation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    /// Struct definitions and layout.
    pub types: TypeTable,
    /// Function definitions; `FuncId(i)` indexes this vector.
    pub funcs: Vec<crate::func::Function>,
    /// Global definitions; `GlobalId(i)` indexes this vector.
    pub globals: Vec<GlobalDef>,
    func_by_name: HashMap<String, FuncId>,
    global_by_name: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate function names.
    pub fn add_func(&mut self, f: crate::func::Function) -> FuncId {
        assert!(
            !self.func_by_name.contains_key(&f.name),
            "duplicate function: {}",
            f.name
        );
        let id = FuncId(self.funcs.len() as u32);
        self.func_by_name.insert(f.name.clone(), id);
        self.funcs.push(f);
        id
    }

    /// Adds a global, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate global names.
    pub fn add_global(&mut self, g: GlobalDef) -> GlobalId {
        assert!(
            !self.global_by_name.contains_key(&g.name),
            "duplicate global: {}",
            g.name
        );
        let id = GlobalId(self.globals.len() as u32);
        self.global_by_name.insert(g.name.clone(), id);
        self.globals.push(g);
        id
    }

    /// Convenience: adds a read-only NUL-terminated string constant.
    pub fn add_string(&mut self, name: &str, text: &str) -> GlobalId {
        let mut bytes = text.as_bytes().to_vec();
        bytes.push(0);
        let n = bytes.len() as u64;
        self.add_global(GlobalDef {
            name: name.to_string(),
            ty: Ty::Array(Box::new(Ty::I8), n),
            init: vec![InitAtom::Bytes(bytes)],
            read_only: true,
        })
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_by_name.get(name).copied()
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_by_name.get(name).copied()
    }

    /// Returns the function with the given id.
    pub fn func(&self, id: FuncId) -> &crate::func::Function {
        &self.funcs[id.0 as usize]
    }

    /// Returns the global with the given id.
    pub fn global(&self, id: GlobalId) -> &GlobalDef {
        &self.globals[id.0 as usize]
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &crate::func::Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Recomputes the `address_taken` flag of every function by scanning
    /// for [`Inst::FuncAddr`] and function pointers in global
    /// initializers. Must be called after construction and after any
    /// pass that adds or removes address-taking instructions.
    pub fn compute_address_taken(&mut self) {
        let mut taken = vec![false; self.funcs.len()];
        for f in &self.funcs {
            for inst in f.iter_insts() {
                if let Inst::FuncAddr { func, .. } = inst {
                    taken[func.0 as usize] = true;
                }
            }
        }
        for g in &self.globals {
            for atom in &g.init {
                if let InitAtom::FuncPtr(fid) = atom {
                    taken[fid.0 as usize] = true;
                }
            }
        }
        for (f, t) in self.funcs.iter_mut().zip(taken) {
            f.address_taken = t;
        }
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Function;
    use crate::inst::{BlockId, Terminator, ValueId};
    use crate::types::FnSig;

    #[test]
    fn function_and_global_lookup() {
        let mut m = Module::new("t");
        let f = m.add_func(Function::new("main", FnSig::new(vec![], Ty::I32)));
        assert_eq!(m.func_by_name("main"), Some(f));
        assert_eq!(m.func_by_name("missing"), None);
        let g = m.add_string("s", "hi");
        assert_eq!(m.global_by_name("s"), Some(g));
        assert_eq!(m.global(g).init[0].size(), 3); // "hi\0"
        assert!(m.global(g).read_only);
    }

    #[test]
    fn address_taken_via_instruction_and_global() {
        let mut m = Module::new("t");
        let callee = m.add_func(Function::new("callee", FnSig::new(vec![], Ty::Void)));
        let tabled = m.add_func(Function::new("tabled", FnSig::new(vec![], Ty::Void)));
        let plain = m.add_func(Function::new("plain", FnSig::new(vec![], Ty::Void)));
        let mut main = Function::new("main", FnSig::new(vec![], Ty::I32));
        let d = main.new_local(Ty::fn_ptr(FnSig::new(vec![], Ty::Void)));
        main.block_mut(BlockId(0)).insts.push(Inst::FuncAddr {
            dest: d,
            func: callee,
        });
        main.block_mut(BlockId(0)).term = Terminator::Ret(Some(crate::inst::Operand::Const(0)));
        m.add_func(main);
        m.add_global(GlobalDef {
            name: "table".into(),
            ty: Ty::Array(Box::new(Ty::fn_ptr(FnSig::new(vec![], Ty::Void))), 1),
            init: vec![InitAtom::FuncPtr(tabled)],
            read_only: true,
        });
        m.compute_address_taken();
        assert!(m.func(callee).address_taken);
        assert!(m.func(tabled).address_taken);
        assert!(!m.func(plain).address_taken);
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new("t");
        m.add_func(Function::new("f", FnSig::new(vec![], Ty::Void)));
        m.add_func(Function::new("f", FnSig::new(vec![], Ty::Void)));
    }

    #[test]
    fn init_atom_sizes() {
        assert_eq!(InitAtom::Int { value: 1, size: 4 }.size(), 4);
        assert_eq!(InitAtom::FuncPtr(FuncId(0)).size(), 8);
        assert_eq!(InitAtom::Zero(16).size(), 16);
        let _ = ValueId(0); // silence unused import in some cfgs
    }
}
