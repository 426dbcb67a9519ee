//! The deterministic input generator's plumbing: a seeded random
//! stream, the digest that proves two results measured identical
//! inputs, and the manifest each workload prints about what it drew.
//!
//! Nothing here reads a clock: inputs are a pure function of the seed
//! and the frozen sizes in [`crate::sizes`].

use crate::json::Json;

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream` so that
    /// adding a draw to one part of a generator does not shift another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for
    /// every `n` the generators use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct values of `0..n` (all of them when `k >= n`), in
    /// draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n as u32).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// 128-bit FNV-1a over everything a workload will feed the program:
/// equal digests mean equal op sequences.
#[derive(Debug, Clone)]
pub struct Digest(u64, u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325, 0x6C62_272E_07BB_0142)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            self.1 = (self.1 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3) ^ (self.1 >> 29);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string (so `"ab","c"` and `"a","bc"` differ).
    pub fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn ids(&mut self, ids: &[u32]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.bytes(&id.to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// What a generator drew and what its selection rules turned away —
/// printed with every result so a reader can tell what was measured.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Hash of the generated op sequence.
    pub inputs_digest: String,
    /// Named counts: ops by kind, runs, candidates tried/rejected.
    pub counts: Vec<(String, u64)>,
}

impl Manifest {
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counts.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => *total += n,
            None => self.counts.push((name.to_owned(), n)),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            self.counts
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn sample_is_distinct_and_in_range() {
        let mut r = Rng::new(3, 0);
        let s = r.sample(100, 40);
        assert_eq!(s.len(), 40);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(s.iter().all(|&x| x < 100));
        assert_eq!(r.sample(5, 9).len(), 5);
        let mut items: Vec<u32> = (0..50).collect();
        r.shuffle(&mut items);
        let mut back = items.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<u32>>());
        assert_ne!(items, back);
    }

    #[test]
    fn digest_separates_field_boundaries_and_order() {
        let hex = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.hex()
        };
        assert_eq!(hex(&|d| d.text("ab")), hex(&|d| d.text("ab")));
        assert_ne!(
            hex(&|d| {
                d.text("ab");
                d.text("c")
            }),
            hex(&|d| {
                d.text("a");
                d.text("bc")
            })
        );
        assert_ne!(hex(&|d| d.ids(&[1, 2])), hex(&|d| d.ids(&[2, 1])));
        assert_eq!(Digest::default().hex().len(), 32);
    }
}
