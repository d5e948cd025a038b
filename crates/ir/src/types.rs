//! The IR type system.
//!
//! The type language mirrors the subset of C that the CPI paper's analyses
//! operate on (Fig. 6 of the paper): integers, typed pointers, universal
//! pointers (`void*`), function pointers, structs and arrays. Pointer
//! *element* types are preserved because the sensitivity criterion of
//! Fig. 7 is a predicate over this structure.

use std::collections::HashMap;
use std::fmt;

/// Width of a machine pointer, in bytes. The VM models an x86-64-like
/// machine with a 64-bit flat address space.
pub const PTR_SIZE: u64 = 8;

/// Identifier of a named struct type within a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A function signature: parameter types and return type.
///
/// Signatures identify indirect-call targets and are the unit over which
/// type-based CFI policies compute their target sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FnSig {
    /// Parameter types, in order.
    pub params: Vec<Ty>,
    /// Return type; [`Ty::Void`] for `void` functions.
    pub ret: Ty,
}

impl FnSig {
    /// Creates a signature from parameter types and a return type.
    pub fn new(params: Vec<Ty>, ret: Ty) -> Self {
        FnSig { params, ret }
    }

    /// A stable hash of the signature, used by type-based CFI policies to
    /// partition indirect-call targets into equivalence classes.
    pub fn type_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// An IR type.
///
/// `Ty` is structural except for [`Ty::Struct`], which names a definition
/// held by the enclosing [`TypeTable`]; this indirection is what lets the
/// recursive `sensitive` criterion handle self-referential structs (e.g.
/// linked lists of function pointers) without infinite recursion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The empty type; legal only as a function return type.
    Void,
    /// 8-bit integer (also the `char` type of the frontend).
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer (the `int` type of the frontend).
    I32,
    /// 64-bit integer (also the integer type pointers cast to).
    I64,
    /// A typed data pointer, `T*`.
    Ptr(Box<Ty>),
    /// The universal pointer `void*`: may hold any pointer, sensitive or
    /// not, and is therefore always classified sensitive (Fig. 7).
    VoidPtr,
    /// A pointer to a function with the given signature.
    FnPtr(Box<FnSig>),
    /// A named struct; layout and fields live in the [`TypeTable`].
    Struct(StructId),
    /// A fixed-size array `T[n]`.
    Array(Box<Ty>, u64),
}

impl Ty {
    /// Shorthand for `T*`.
    pub fn ptr_to(self) -> Ty {
        Ty::Ptr(Box::new(self))
    }

    /// Shorthand for a pointer to a function with signature `sig`.
    pub fn fn_ptr(sig: FnSig) -> Ty {
        Ty::FnPtr(Box::new(sig))
    }

    /// Returns true for types that fit in a single virtual register and
    /// can be the value of a [`Load`](crate::inst::Inst::Load) or
    /// [`Store`](crate::inst::Inst::Store).
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64 | Ty::Ptr(_) | Ty::VoidPtr | Ty::FnPtr(_)
        )
    }

    /// Returns true for any pointer-shaped type (data, universal or
    /// function pointer).
    pub fn is_pointer(&self) -> bool {
        matches!(self, Ty::Ptr(_) | Ty::VoidPtr | Ty::FnPtr(_))
    }

    /// Returns true if this is the `char*` type. The CPI analysis treats
    /// `char*` as universal unless the string heuristic proves otherwise.
    pub fn is_char_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(inner) if **inner == Ty::I8)
    }

    /// Returns true for the universal pointer types of §3.2.1: `void*`
    /// and `char*`.
    pub fn is_universal_pointer(&self) -> bool {
        matches!(self, Ty::VoidPtr) || self.is_char_ptr()
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::I8 => write!(f, "i8"),
            Ty::I16 => write!(f, "i16"),
            Ty::I32 => write!(f, "i32"),
            Ty::I64 => write!(f, "i64"),
            Ty::Ptr(inner) => write!(f, "{inner}*"),
            Ty::VoidPtr => write!(f, "void*"),
            Ty::FnPtr(sig) => {
                write!(f, "{}(*)(", sig.ret)?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Ty::Struct(id) => write!(f, "%struct.{}", id.0),
            Ty::Array(elem, n) => write!(f, "[{n} x {elem}]"),
        }
    }
}

/// A field of a struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Source-level field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Byte offset from the start of the struct, filled in by layout.
    pub offset: u64,
}

/// A named struct definition with computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Source-level struct name.
    pub name: String,
    /// Fields in declaration order, with offsets assigned.
    pub fields: Vec<Field>,
    /// Total size in bytes, including trailing padding.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Whether the frontend marked this struct `sensitive` (the paper's
    /// `struct ucred` use-case: programmer-annotated sensitive data).
    pub annotated_sensitive: bool,
}

/// The registry of struct definitions for a module, plus layout queries.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    structs: Vec<StructDef>,
    by_name: HashMap<String, StructId>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a struct with the given fields, computing natural C
    /// layout (fields at aligned offsets, size rounded up to alignment).
    ///
    /// # Panics
    ///
    /// Panics if a struct with the same name is already defined.
    pub fn define_struct(&mut self, name: &str, fields: Vec<(String, Ty)>) -> StructId {
        self.define_struct_ext(name, fields, false)
    }

    /// Like [`define_struct`](Self::define_struct) but allows marking the
    /// struct as programmer-annotated sensitive data.
    pub fn define_struct_ext(
        &mut self,
        name: &str,
        fields: Vec<(String, Ty)>,
        annotated_sensitive: bool,
    ) -> StructId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate struct definition: {name}"
        );
        let id = StructId(self.structs.len() as u32);
        // Reserve the slot first so self-referential structs (through
        // pointers only, as in C) can compute their layout.
        self.structs.push(StructDef {
            name: name.to_string(),
            fields: Vec::new(),
            size: 0,
            align: 1,
            annotated_sensitive,
        });
        self.by_name.insert(name.to_string(), id);

        let mut laid_out = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        for (fname, fty) in fields {
            let fa = self.align_of(&fty);
            let fs = self.size_of(&fty);
            offset = round_up(offset, fa);
            laid_out.push(Field {
                name: fname,
                ty: fty,
                offset,
            });
            offset += fs;
            align = align.max(fa);
        }
        let size = round_up(offset.max(1), align);
        let def = &mut self.structs[id.0 as usize];
        def.fields = laid_out;
        def.size = size;
        def.align = align;
        id
    }

    /// Replaces the fields of an already-declared struct and recomputes
    /// its layout. Supports the frontend's two-phase definition of
    /// self-referential structs (declare empty, then fill).
    pub fn redefine_struct(&mut self, id: StructId, fields: Vec<(String, Ty)>) {
        let mut laid_out = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        for (fname, fty) in fields {
            let fa = self.align_of(&fty);
            let fs = self.size_of(&fty);
            offset = round_up(offset, fa);
            laid_out.push(Field {
                name: fname,
                ty: fty,
                offset,
            });
            offset += fs;
            align = align.max(fa);
        }
        let size = round_up(offset.max(1), align);
        let def = &mut self.structs[id.0 as usize];
        def.fields = laid_out;
        def.size = size;
        def.align = align;
    }

    /// Looks up a struct by source name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// Returns the definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid struct in this table.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.0 as usize]
    }

    /// Iterates over all struct definitions with their ids.
    pub fn structs(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, d)| (StructId(i as u32), d))
    }

    /// Size of `ty` in bytes.
    ///
    /// # Panics
    ///
    /// Panics on [`Ty::Void`], which has no size.
    pub fn size_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => panic!("void has no size"),
            Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 => 4,
            Ty::I64 => 8,
            Ty::Ptr(_) | Ty::VoidPtr | Ty::FnPtr(_) => PTR_SIZE,
            Ty::Struct(id) => self.struct_def(*id).size,
            Ty::Array(elem, n) => self.size_of(elem) * n,
        }
    }

    /// Alignment of `ty` in bytes.
    pub fn align_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => 1,
            Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 => 4,
            Ty::I64 => 8,
            Ty::Ptr(_) | Ty::VoidPtr | Ty::FnPtr(_) => PTR_SIZE,
            Ty::Struct(id) => self.struct_def(*id).align,
            Ty::Array(elem, _) => self.align_of(elem),
        }
    }

    /// Byte offset and type of field `name` in struct `id`.
    pub fn field(&self, id: StructId, name: &str) -> Option<&Field> {
        self.struct_def(id).fields.iter().find(|f| f.name == name)
    }
}

/// Rounds `x` up to the next multiple of `align` (which must be a power
/// of two or any positive integer; this uses plain arithmetic).
pub fn round_up(x: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_x86_64() {
        let t = TypeTable::new();
        assert_eq!(t.size_of(&Ty::I8), 1);
        assert_eq!(t.size_of(&Ty::I16), 2);
        assert_eq!(t.size_of(&Ty::I32), 4);
        assert_eq!(t.size_of(&Ty::I64), 8);
        assert_eq!(t.size_of(&Ty::VoidPtr), 8);
        assert_eq!(t.size_of(&Ty::I32.ptr_to()), 8);
    }

    #[test]
    fn struct_layout_inserts_padding() {
        let mut t = TypeTable::new();
        let s = t.define_struct(
            "mix",
            vec![
                ("c".into(), Ty::I8),
                ("x".into(), Ty::I64),
                ("s".into(), Ty::I16),
            ],
        );
        let def = t.struct_def(s);
        assert_eq!(def.fields[0].offset, 0);
        assert_eq!(def.fields[1].offset, 8); // padded to 8
        assert_eq!(def.fields[2].offset, 16);
        assert_eq!(def.size, 24); // rounded up to align 8
        assert_eq!(def.align, 8);
    }

    #[test]
    fn nested_struct_layout() {
        let mut t = TypeTable::new();
        let inner = t.define_struct("inner", vec![("a".into(), Ty::I32), ("b".into(), Ty::I32)]);
        let outer = t.define_struct(
            "outer",
            vec![("c".into(), Ty::I8), ("i".into(), Ty::Struct(inner))],
        );
        let def = t.struct_def(outer);
        assert_eq!(def.fields[1].offset, 4); // inner aligns to 4
        assert_eq!(def.size, 12);
    }

    #[test]
    fn self_referential_struct_through_pointer() {
        let mut t = TypeTable::new();
        // Forward declaration pattern: define with a pointer to itself by
        // name lookup after reserving the slot.
        let id = t.define_struct("node", vec![("val".into(), Ty::I64)]);
        // A second struct pointing at the first works fine.
        let id2 = t.define_struct("holder", vec![("n".into(), Ty::Struct(id).ptr_to())]);
        assert_eq!(t.struct_def(id2).size, 8);
    }

    #[test]
    fn array_size() {
        let t = TypeTable::new();
        assert_eq!(t.size_of(&Ty::Array(Box::new(Ty::I32), 10)), 40);
        assert_eq!(t.align_of(&Ty::Array(Box::new(Ty::I64), 3)), 8);
    }

    #[test]
    fn universal_pointer_classification() {
        assert!(Ty::VoidPtr.is_universal_pointer());
        assert!(Ty::I8.ptr_to().is_universal_pointer()); // char*
        assert!(!Ty::I32.ptr_to().is_universal_pointer());
        assert!(!Ty::I8.ptr_to().ptr_to().is_universal_pointer()); // char**
    }

    #[test]
    fn fn_sig_hash_distinguishes_signatures() {
        let a = FnSig::new(vec![Ty::I32], Ty::Void);
        let b = FnSig::new(vec![Ty::I64], Ty::Void);
        assert_ne!(a.type_hash(), b.type_hash());
        assert_eq!(
            a.type_hash(),
            FnSig::new(vec![Ty::I32], Ty::Void).type_hash()
        );
    }

    #[test]
    fn field_lookup() {
        let mut t = TypeTable::new();
        let s = t.define_struct("p", vec![("x".into(), Ty::I32), ("y".into(), Ty::I32)]);
        assert_eq!(t.field(s, "y").unwrap().offset, 4);
        assert!(t.field(s, "z").is_none());
    }

    #[test]
    fn empty_struct_has_size_one() {
        let mut t = TypeTable::new();
        let s = t.define_struct("empty", vec![]);
        assert_eq!(t.struct_def(s).size, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate struct")]
    fn duplicate_struct_panics() {
        let mut t = TypeTable::new();
        t.define_struct("s", vec![]);
        t.define_struct("s", vec![]);
    }
}
