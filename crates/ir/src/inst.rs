//! IR instructions, operands and terminators.
//!
//! The instruction set is a register machine over per-function virtual
//! registers ([`ValueId`]). It deliberately mirrors the LLVM subset the
//! Levee passes touch: allocas, typed loads/stores, `getelementptr`-style
//! address arithmetic, casts, direct/indirect calls, and a small libc
//! intrinsic set. Instrumentation passes rewrite plain memory operations
//! into [`CpiOp`]s and set per-instruction [`MemSpace`] tags.

use crate::types::{FnSig, StructId, Ty};

/// A virtual register, local to one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// A basic block identifier, local to one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A function identifier, global to a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A global-variable identifier, global to a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// An instruction operand: a constant or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// An integer constant (sign bits are interpreted per use-site type).
    Const(i64),
    /// The value of a virtual register.
    Value(ValueId),
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::Value(v)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; traps on division by zero.
    Div,
    /// Signed remainder; traps on division by zero.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Logical shift right.
    Shr,
}

/// Integer comparison predicates (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Pointer/integer cast kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// Pointer-to-pointer cast (includes casts to/from `void*`).
    PtrToPtr,
    /// Pointer to integer.
    PtrToInt,
    /// Integer to pointer. The result carries no valid provenance:
    /// the paper's instrumentation assigns "invalid" metadata here.
    IntToPtr,
    /// Integer width change (truncate / sign-extend as needed).
    IntToInt,
}

/// Which memory a load/store accesses.
///
/// Plain code only ever uses [`MemSpace::Regular`]. Instrumentation tags
/// proven-safe stack accesses as [`MemSpace::SafeStack`]; the safe
/// pointer store is reached only through [`CpiOp`]s. The VM enforces the
/// isolation invariant of §3.2.3: regular operations can never touch the
/// safe region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemSpace {
    /// Ordinary process memory; unchecked, attacker-corruptible.
    #[default]
    Regular,
    /// The safe stack inside the safe region; statically proven safe.
    SafeStack,
}

/// Which stack an alloca lives on once the safe-stack pass has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StackKind {
    /// Before the safe-stack pass: the single conventional stack
    /// (regular memory, return address adjacent to locals).
    #[default]
    Conventional,
    /// Proven-safe object: placed on the safe stack in the safe region.
    Safe,
    /// Potentially-unsafe object (address escapes, dynamic indexing):
    /// placed on the separate unsafe stack in regular memory.
    Unsafe,
}

/// The libc-like intrinsics the frontend can call.
///
/// `ReadInput` models attacker-controlled input (`read`/`gets`): this is
/// how RIPE-style vulnerabilities introduce corrupted bytes. `System` is
/// the classic return-to-libc target; transferring control to it with
/// attacker-controlled arguments counts as a successful hijack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Malloc,
    Calloc,
    Free,
    Memcpy,
    Memmove,
    Memset,
    Memcmp,
    Strcpy,
    Strncpy,
    Strcat,
    Strncat,
    Strlen,
    Strcmp,
    /// `printf("%d", x)`-style output of one integer.
    PrintInt,
    /// `puts`-style output of a NUL-terminated string.
    PrintStr,
    /// Reads up to `len` attacker-supplied bytes into `buf`; returns the
    /// number of bytes read. The unchecked variant (`len = -1`) models
    /// `gets` and copies the whole attacker payload.
    ReadInput,
    /// Returns the length of the remaining attacker payload.
    InputLen,
    /// Saves the execution context into a `jmp_buf` (a code pointer plus
    /// stack state — sensitive data per §3.2.1).
    Setjmp,
    /// Restores a context saved by `Setjmp`.
    Longjmp,
    /// The `system()` attack target; reaching it via a hijacked transfer
    /// is a successful attack, reaching it legitimately executes no-op.
    System,
    /// Deterministic pseudo-random number (LCG seeded by the VM).
    Rand,
    /// Terminates the program successfully with the given exit code.
    Exit,
    /// Aborts the program (models `abort()`; distinct from CPI traps).
    AbortProg,
}

impl Intrinsic {
    /// The conventional C name, used by the frontend and printer.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Malloc => "malloc",
            Intrinsic::Calloc => "calloc",
            Intrinsic::Free => "free",
            Intrinsic::Memcpy => "memcpy",
            Intrinsic::Memmove => "memmove",
            Intrinsic::Memset => "memset",
            Intrinsic::Memcmp => "memcmp",
            Intrinsic::Strcpy => "strcpy",
            Intrinsic::Strncpy => "strncpy",
            Intrinsic::Strcat => "strcat",
            Intrinsic::Strncat => "strncat",
            Intrinsic::Strlen => "strlen",
            Intrinsic::Strcmp => "strcmp",
            Intrinsic::PrintInt => "print_int",
            Intrinsic::PrintStr => "print_str",
            Intrinsic::ReadInput => "read_input",
            Intrinsic::InputLen => "input_len",
            Intrinsic::Setjmp => "setjmp",
            Intrinsic::Longjmp => "longjmp",
            Intrinsic::System => "system",
            Intrinsic::Rand => "rand",
            Intrinsic::Exit => "exit",
            Intrinsic::AbortProg => "abort",
        }
    }

    /// All intrinsics, for name lookup tables.
    pub fn all() -> &'static [Intrinsic] {
        use Intrinsic::*;
        &[
            Malloc, Calloc, Free, Memcpy, Memmove, Memset, Memcmp, Strcpy, Strncpy, Strcat,
            Strncat, Strlen, Strcmp, PrintInt, PrintStr, ReadInput, InputLen, Setjmp, Longjmp,
            System, Rand, Exit, AbortProg,
        ]
    }

    /// Looks an intrinsic up by its C name.
    pub fn by_name(name: &str) -> Option<Intrinsic> {
        Intrinsic::all().iter().copied().find(|i| i.name() == name)
    }

    /// True for the string functions whose `char*` arguments the paper's
    /// heuristic treats as genuine strings rather than universal pointers.
    pub fn is_string_fn(self) -> bool {
        matches!(
            self,
            Intrinsic::Strcpy
                | Intrinsic::Strncpy
                | Intrinsic::Strcat
                | Intrinsic::Strncat
                | Intrinsic::Strlen
                | Intrinsic::Strcmp
                | Intrinsic::PrintStr
        )
    }

    /// True for the memory-manipulation functions that receive
    /// type-specific safe variants under CPI (§3.2.2).
    pub fn is_mem_fn(self) -> bool {
        matches!(
            self,
            Intrinsic::Memcpy | Intrinsic::Memmove | Intrinsic::Memset
        )
    }
}

/// Which enforcement policy a [`CpiOp`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Full code-pointer integrity: value + bounds (+ temporal id)
    /// metadata in the safe pointer store, checks on dereference.
    Cpi,
    /// Code-pointer separation: value-only entries for code pointers,
    /// no bounds metadata (§3.3).
    Cps,
    /// SoftBound mode: the `sensitive ≡ true` instantiation of the
    /// Appendix-A semantics — full spatial memory safety baseline.
    SoftBound,
}

/// Runtime intrinsics inserted by the instrumentation passes (§3.2.2).
///
/// These correspond to Levee's `cpi_ptr_store()`, `cpi_ptr_load()`,
/// `cpi_memcpy()` runtime calls. `universal` marks operations on
/// universal pointers (`void*`/`char*`), which must check at runtime
/// whether the value currently held is sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpiOp {
    /// Store a sensitive pointer: writes value and metadata to the safe
    /// pointer store, keyed by the pointer's regular-region address.
    PtrStore {
        policy: Policy,
        ptr: Operand,
        value: Operand,
        /// Universal-pointer store: falls back to a regular store when
        /// the stored value has no valid metadata.
        universal: bool,
    },
    /// Load a sensitive pointer: reads value and metadata from the safe
    /// pointer store.
    PtrLoad {
        policy: Policy,
        dest: ValueId,
        ptr: Operand,
        /// Universal-pointer load: falls back to a regular load when the
        /// safe store holds no valid entry for this address.
        universal: bool,
    },
    /// Bounds (+ temporal) check before dereferencing a sensitive
    /// pointer: traps unless `[ptr, ptr+size)` lies within the target
    /// object the pointer is based on.
    Check {
        policy: Policy,
        ptr: Operand,
        size: u64,
    },
    /// Check that an indirect-call target is a genuine code pointer
    /// (its metadata is a control-flow destination).
    FnCheck { policy: Policy, callee: Operand },
    /// Safe variant of `memcpy`/`memmove`: copies regular bytes *and*
    /// transfers safe-pointer-store entries for each pointer-aligned
    /// word (the expensive path noted in §5.2).
    SafeMemcpy {
        policy: Policy,
        dst: Operand,
        src: Operand,
        len: Operand,
        moving: bool,
    },
    /// Safe variant of `memset`: clears any safe-pointer-store entries
    /// covered by the written range.
    SafeMemset {
        policy: Policy,
        dst: Operand,
        byte: Operand,
        len: Operand,
    },
    /// Pointer-authentication sign (the PAC defense family, `levee-pac`):
    /// seals a MAC tag over `(value, ctx)` into the spare high bits of
    /// the 64-bit pointer word. `ctx` is 0 for context-free signing
    /// (`-fpac`) or the storage slot address for per-context binding
    /// (`-fpac-tight`). Inserted before code-pointer stores by
    /// `levee_core::pac`.
    PacSign {
        dest: ValueId,
        value: Operand,
        ctx: Operand,
    },
    /// Pointer-authentication check: recomputes the MAC over the
    /// stripped pointer and `ctx`; yields the raw pointer when the
    /// sealed tag matches and traps (`Trap::Pac`) otherwise. Inserted
    /// after code-pointer loads by `levee_core::pac`.
    PacAuth {
        dest: ValueId,
        value: Operand,
        ctx: Operand,
    },
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Reserve `count` × sizeof(`ty`) bytes of stack storage; yields the
    /// object's address. `stack` is assigned by the safe-stack pass.
    Alloca {
        dest: ValueId,
        ty: Ty,
        count: u64,
        stack: StackKind,
    },
    /// Load a scalar of type `ty` from the address in `ptr`.
    Load {
        dest: ValueId,
        ptr: Operand,
        ty: Ty,
        space: MemSpace,
    },
    /// Store a scalar of type `ty` to the address in `ptr`.
    Store {
        ptr: Operand,
        value: Operand,
        ty: Ty,
        space: MemSpace,
    },
    /// Address arithmetic: `dest = base + index * size_of(elem) + offset`.
    /// `field_of` records the struct whose field is being addressed, when
    /// known, so analyses can recover sub-object structure.
    Gep {
        dest: ValueId,
        base: Operand,
        index: Operand,
        elem: Ty,
        offset: u64,
        field_of: Option<(StructId, u32)>,
    },
    /// Materialize the address of a global.
    GlobalAddr { dest: ValueId, global: GlobalId },
    /// Materialize the address (entry point) of a function: the only
    /// legitimate way a code pointer is born (based-on case (ii)).
    FuncAddr { dest: ValueId, func: FuncId },
    /// Integer arithmetic.
    Bin {
        dest: ValueId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Integer comparison; yields 0 or 1.
    Cmp {
        dest: ValueId,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Type cast; see [`CastKind`] for provenance behaviour.
    Cast {
        dest: ValueId,
        kind: CastKind,
        value: Operand,
        to: Ty,
    },
    /// Direct call.
    Call {
        dest: Option<ValueId>,
        func: FuncId,
        args: Vec<Operand>,
    },
    /// Indirect call through a function pointer. `cfi` carries the CFI
    /// policy check inserted by the CFI baseline pass, if any.
    CallIndirect {
        dest: Option<ValueId>,
        callee: Operand,
        sig: FnSig,
        args: Vec<Operand>,
        cfi: Option<CfiPolicy>,
    },
    /// Call to a libc-like intrinsic.
    IntrinsicCall {
        dest: Option<ValueId>,
        which: Intrinsic,
        args: Vec<Operand>,
    },
    /// Instrumentation-inserted runtime operation.
    Cpi(CpiOp),
}

/// Granularity of a CFI policy's valid-target sets (§6 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CfiPolicy {
    /// Coarse-grained: any function in the program is a valid target
    /// (the "globally merged target sets" of binCFI/CCFIR).
    AnyFunction,
    /// Medium: any address-taken function.
    AddressTaken,
    /// Fine-grained: address-taken functions with a matching type
    /// signature (the strongest practical static CFI).
    TypeSignature,
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way branch on a non-zero condition.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return, with a value unless the function returns `void`.
    Ret(Option<Operand>),
    /// Statically unreachable point; executing it is a VM error.
    Unreachable,
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn dest(&self) -> Option<ValueId> {
        match self {
            Inst::Alloca { dest, .. }
            | Inst::Load { dest, .. }
            | Inst::Gep { dest, .. }
            | Inst::GlobalAddr { dest, .. }
            | Inst::FuncAddr { dest, .. }
            | Inst::Bin { dest, .. }
            | Inst::Cmp { dest, .. }
            | Inst::Cast { dest, .. } => Some(*dest),
            Inst::Call { dest, .. }
            | Inst::CallIndirect { dest, .. }
            | Inst::IntrinsicCall { dest, .. } => *dest,
            Inst::Store { .. } => None,
            Inst::Cpi(op) => match op {
                CpiOp::PtrLoad { dest, .. }
                | CpiOp::PacSign { dest, .. }
                | CpiOp::PacAuth { dest, .. } => Some(*dest),
                _ => None,
            },
        }
    }

    /// All operands read by this instruction.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Inst::Alloca { .. } | Inst::GlobalAddr { .. } | Inst::FuncAddr { .. } => vec![],
            Inst::Load { ptr, .. } => vec![*ptr],
            Inst::Store { ptr, value, .. } => vec![*ptr, *value],
            Inst::Gep { base, index, .. } => vec![*base, *index],
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Cast { value, .. } => vec![*value],
            Inst::Call { args, .. } => args.clone(),
            Inst::CallIndirect { callee, args, .. } => {
                let mut v = vec![*callee];
                v.extend(args.iter().copied());
                v
            }
            Inst::IntrinsicCall { args, .. } => args.clone(),
            Inst::Cpi(op) => match op {
                CpiOp::PtrStore { ptr, value, .. } => vec![*ptr, *value],
                CpiOp::PtrLoad { ptr, .. } => vec![*ptr],
                CpiOp::Check { ptr, .. } => vec![*ptr],
                CpiOp::FnCheck { callee, .. } => vec![*callee],
                CpiOp::SafeMemcpy { dst, src, len, .. } => vec![*dst, *src, *len],
                CpiOp::SafeMemset { dst, byte, len, .. } => vec![*dst, *byte, *len],
                CpiOp::PacSign { value, ctx, .. } | CpiOp::PacAuth { value, ctx, .. } => {
                    vec![*value, *ctx]
                }
            },
        }
    }

    /// True for call-shaped instructions (direct, indirect and intrinsic
    /// calls) — the instructions that get a return-site address assigned
    /// by the VM's loader and the bytecode compiler.
    pub fn is_call_shaped(&self) -> bool {
        matches!(
            self,
            Inst::Call { .. } | Inst::CallIndirect { .. } | Inst::IntrinsicCall { .. }
        )
    }

    /// True if this is a memory operation (load or store, plain or
    /// instrumented) — the denominator of the paper's MO ratios.
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::Cpi(CpiOp::PtrLoad { .. })
                | Inst::Cpi(CpiOp::PtrStore { .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_name_roundtrip() {
        for i in Intrinsic::all() {
            assert_eq!(Intrinsic::by_name(i.name()), Some(*i));
        }
        assert_eq!(Intrinsic::by_name("nonsense"), None);
    }

    #[test]
    fn dest_and_operands() {
        let i = Inst::Bin {
            dest: ValueId(3),
            op: BinOp::Add,
            lhs: Operand::Const(1),
            rhs: Operand::Value(ValueId(2)),
        };
        assert_eq!(i.dest(), Some(ValueId(3)));
        assert_eq!(i.operands().len(), 2);
    }

    #[test]
    fn store_has_no_dest() {
        let i = Inst::Store {
            ptr: Operand::Value(ValueId(0)),
            value: Operand::Const(7),
            ty: Ty::I32,
            space: MemSpace::Regular,
        };
        assert_eq!(i.dest(), None);
        assert!(i.is_memory_op());
    }

    #[test]
    fn cpi_ptr_load_defines_dest() {
        let i = Inst::Cpi(CpiOp::PtrLoad {
            policy: Policy::Cpi,
            dest: ValueId(9),
            ptr: Operand::Value(ValueId(1)),
            universal: false,
        });
        assert_eq!(i.dest(), Some(ValueId(9)));
        assert!(i.is_memory_op());
    }

    #[test]
    fn string_and_mem_fn_classification() {
        assert!(Intrinsic::Strcpy.is_string_fn());
        assert!(!Intrinsic::Memcpy.is_string_fn());
        assert!(Intrinsic::Memcpy.is_mem_fn());
        assert!(!Intrinsic::Strlen.is_mem_fn());
    }
}
