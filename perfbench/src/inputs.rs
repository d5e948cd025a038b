//! Seeded inputs. Every workload's inputs are a pure function of the
//! seed, and the program under test receives only these generated
//! inputs: the order in which requests reach the pages.

/// SplitMix64: small, portable and fixed, so a seed names the same
/// inputs on every host and at every commit.
struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, stream) pair.
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything a
    /// workload mix could show).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seed's request order over the three Table-4 pages (indices into
/// `levee_workloads::web_stack()`): blocks of three requests, each block
/// a seeded permutation of the pages, so every page serves the same
/// share of requests whatever the seed.
pub fn web_schedule(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 2);
    let mut order = Vec::with_capacity(n + 2);
    while order.len() < n {
        let mut block = [0, 1, 2];
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(n);
    order
}
