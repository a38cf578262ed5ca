//! Input generation from the benchmark's `--seed`.
//!
//! Every input the benchmark hands to the program derives from one run
//! seed through [`derive`], so the same seed reproduces the same inputs
//! and another seed changes them. The program itself only ever sees the
//! generated inputs.

/// One splitmix64 step: a well-mixed 64-bit function of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed of `seed` for the input stream named `stream`, so separate
/// streams of one run are independent of each other.
pub fn derive(seed: u64, stream: &str) -> u64 {
    // FNV-1a over the stream name, then mixed with the run seed.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(seed ^ splitmix64(h))
}

/// A small deterministic generator over [`splitmix64`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: &str) -> Self {
        Rng(derive(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// `n` input values of stream `stream`.
pub fn values(seed: u64, stream: &str, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.next_u64() >> 32).collect()
}

/// Open-loop Poisson schedule: `n` due times in seconds from the start,
/// with exponential gaps of mean `1 / rate_per_s`.
pub fn poisson_schedule(seed: u64, stream: &str, rate_per_s: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream);
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += rng.exponential(1.0 / rate_per_s);
            at
        })
        .collect()
}
