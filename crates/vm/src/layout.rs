//! The simulated address-space layout.
//!
//! Models an x86-64-like 48-bit virtual address space (§3.2.3). The
//! regular region (code, globals, heap, stacks) sits in the low
//! addresses; the safe region lives at a high base that is either fixed
//! (segmentation/SFI isolation) or randomized (information hiding). The
//! key invariant of the paper's leak-proof hiding — no safe-region
//! address is ever stored in regular memory — holds by construction: the
//! VM never materializes safe-region addresses as program values.

use rand::Rng;

/// Base of the code segment (function entries and return sites).
pub const CODE_BASE: u64 = 0x0040_0000;
/// Bytes reserved per function in the code segment.
pub const FUNC_STRIDE: u64 = 0x1000;
/// Base of the read-only data segment.
pub const RODATA_BASE: u64 = 0x0200_0000;
/// Base of the writable data/bss segment.
pub const DATA_BASE: u64 = 0x0400_0000;
/// Base of the heap (grows upward).
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Heap size limit in bytes.
pub const HEAP_LIMIT: u64 = 0x4000_0000;
/// Top of the conventional/regular stack (grows downward).
pub const STACK_TOP: u64 = 0x7fff_f000;
/// Maximum regular stack size.
pub const STACK_LIMIT: u64 = 8 << 20;
/// Top of the unsafe stack used by the safe-stack transformation.
pub const UNSAFE_STACK_TOP: u64 = 0x7f00_0000;
/// Maximum unsafe stack size.
pub const UNSAFE_STACK_LIMIT: u64 = 8 << 20;

/// Lowest possible safe-region base (48-bit space, high half).
pub const SAFE_REGION_MIN: u64 = 0x4000_0000_0000;
/// Width of the window the randomized safe-region base is drawn from
/// (16 TB of the 48-bit space).
pub const SAFE_REGION_WINDOW: u64 = 0x1000_0000_0000;
/// Footprint of one safe region (sparse store span + safe stacks).
pub const SAFE_REGION_FOOTPRINT: u64 = 0x8_0000_0000;
/// Offset of the safe stack within the safe region.
pub const SAFE_STACK_OFFSET: u64 = 0x100_0000;
/// Offset of the safe pointer store within the safe region.
pub const PTR_STORE_OFFSET: u64 = 0x1_0000_0000;
/// Alignment of randomized safe-region bases; window ÷ alignment is the
/// guessing space that makes probing crash-prone (§3.2.3).
pub const SAFE_REGION_ALIGN: u64 = SAFE_REGION_FOOTPRINT;

/// Base offset of the "libc" (intrinsic) entry block inside the code
/// segment; placed above program functions so shifting it never
/// collides with them.
pub const LIBC_CODE_OFFSET: u64 = 0x100_0000;

/// The concrete layout of one execution, after ASLR decisions.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Shift applied to heap/stack bases when ASLR is on.
    pub aslr_shift: u64,
    /// Shift applied to the libc (intrinsic) code block when ASLR is on
    /// — program code and globals stay fixed, modelling a non-PIE
    /// binary with a randomized libc, which is why code-reuse attacks
    /// against the *program's own* code survive ASLR.
    pub libc_shift: u64,
    /// Base address of the safe region for this execution.
    pub safe_base: u64,
    /// Top of the regular stack.
    pub stack_top: u64,
    /// Top of the unsafe stack.
    pub unsafe_stack_top: u64,
    /// Base of the heap.
    pub heap_base: u64,
    /// Base of writable globals.
    pub data_base: u64,
    /// Base of read-only globals.
    pub rodata_base: u64,
}

impl Layout {
    /// A fixed, predictable layout (no ASLR; fixed safe-region base).
    pub fn fixed() -> Self {
        Layout {
            aslr_shift: 0,
            libc_shift: 0,
            safe_base: SAFE_REGION_MIN,
            stack_top: STACK_TOP,
            unsafe_stack_top: UNSAFE_STACK_TOP,
            heap_base: HEAP_BASE,
            data_base: DATA_BASE,
            rodata_base: RODATA_BASE,
        }
    }

    /// A randomized layout. `aslr` shifts the regular-region bases (the
    /// deployed-defense model); the safe-region base is always drawn at
    /// random for information-hiding isolation.
    pub fn randomized<R: Rng>(rng: &mut R, aslr: bool) -> Self {
        let shift = if aslr {
            // Page-aligned shift of up to 16 MB, like mmap randomization.
            (rng.gen_range(0..4096u64)) * 4096
        } else {
            0
        };
        let slots = SAFE_REGION_WINDOW / SAFE_REGION_ALIGN;
        let safe_base = SAFE_REGION_MIN + rng.gen_range(0..slots) * SAFE_REGION_ALIGN;
        let libc_shift = if aslr {
            (rng.gen_range(0..2048u64)) * 4096
        } else {
            0
        };
        Layout {
            aslr_shift: shift,
            libc_shift,
            safe_base,
            stack_top: STACK_TOP - shift,
            unsafe_stack_top: UNSAFE_STACK_TOP - shift,
            heap_base: HEAP_BASE + shift,
            // Non-PIE model: globals (data/rodata) are not randomized.
            data_base: DATA_BASE,
            rodata_base: RODATA_BASE,
        }
    }

    /// True if `addr` lies in the code segment.
    pub fn in_code(&self, addr: u64) -> bool {
        (CODE_BASE..self.rodata_base).contains(&addr)
    }

    /// True if `addr` lies in the safe region of this execution.
    pub fn in_safe_region(&self, addr: u64) -> bool {
        (self.safe_base..self.safe_base + SAFE_REGION_FOOTPRINT).contains(&addr)
    }

    /// Base of the safe stack.
    pub fn safe_stack_top(&self) -> u64 {
        self.safe_base + SAFE_STACK_OFFSET + (4 << 20)
    }

    /// Base of the safe pointer store.
    pub fn ptr_store_base(&self) -> u64 {
        self.safe_base + PTR_STORE_OFFSET
    }

    /// Number of distinct safe-region base candidates an attacker must
    /// guess among under information hiding.
    pub fn safe_base_candidates() -> u64 {
        SAFE_REGION_WINDOW / SAFE_REGION_ALIGN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_layout_is_deterministic() {
        let a = Layout::fixed();
        let b = Layout::fixed();
        assert_eq!(a.safe_base, b.safe_base);
        assert_eq!((a.aslr_shift, a.libc_shift), (0, 0));
        assert!(a.in_code(CODE_BASE));
    }

    #[test]
    fn randomized_layout_varies_by_seed() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = Layout::randomized(&mut r1, true);
        let b = Layout::randomized(&mut r2, true);
        assert_ne!(a.safe_base, b.safe_base);
        // Same seed → same layout (reproducibility).
        let mut r1b = StdRng::seed_from_u64(1);
        let c = Layout::randomized(&mut r1b, true);
        assert_eq!(a.safe_base, c.safe_base);
        assert_eq!(a.aslr_shift, c.aslr_shift);
    }

    #[test]
    fn no_aslr_keeps_regular_bases_fixed() {
        let mut r = StdRng::seed_from_u64(7);
        let l = Layout::randomized(&mut r, false);
        assert_eq!(l.heap_base, HEAP_BASE);
        assert_eq!(l.stack_top, STACK_TOP);
        assert_eq!(l.libc_shift, 0);
        // Safe base still randomized.
        assert!(l.safe_base >= SAFE_REGION_MIN);
    }

    #[test]
    fn aslr_randomizes_libc_and_stack_but_not_globals() {
        let mut r = StdRng::seed_from_u64(3);
        let l = Layout::randomized(&mut r, true);
        assert_eq!(l.data_base, DATA_BASE); // non-PIE: globals fixed
        assert!(l.aslr_shift > 0 || l.libc_shift > 0);
    }

    #[test]
    fn region_predicates() {
        let l = Layout::fixed();
        assert!(l.in_code(CODE_BASE));
        assert!(!l.in_code(l.rodata_base));
        assert!(!l.in_code(l.heap_base));
        assert!(l.in_safe_region(l.ptr_store_base()));
        assert!(l.in_safe_region(l.safe_stack_top() - 8));
        assert!(!l.in_safe_region(l.stack_top - 8));
    }

    #[test]
    fn guessing_space_is_large() {
        assert!(Layout::safe_base_candidates() >= 256);
    }
}
