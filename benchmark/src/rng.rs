//! The benchmark's own seeded generator (SplitMix64). Every input the
//! engine sees — tuples, statement parameters, the operation sequence —
//! is drawn from one of these, so `--seed` alone fixes the load.

/// A SplitMix64 stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream` (data vs. operations vs. warm-up).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for load generation, no loop.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Draws operation classes in exact proportion: every hundred draws hold
/// each class exactly `shares[class]` times, in an order reshuffled per
/// hundred. Independent draws would give every slice of the window a
/// different mix, and with classes three orders of magnitude apart in
/// cost that alone moves a slice's throughput by a tenth.
/// Draws after which a [`Schedule`] has issued every class its share.
pub const SCHEDULE_CYCLE: usize = 100;

pub struct Schedule {
    pattern: Vec<u8>,
    pos: usize,
}

impl Schedule {
    /// `shares` are percentages and sum to 100.
    pub fn new(shares: &[usize]) -> Schedule {
        let pattern: Vec<u8> = shares
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class as u8, n))
            .collect();
        assert_eq!(
            pattern.len(),
            SCHEDULE_CYCLE,
            "class shares must sum to 100"
        );
        Schedule { pattern, pos: 0 }
    }

    pub fn next(&mut self, rng: &mut Rng) -> u8 {
        if self.pos == 0 {
            rng.shuffle(&mut self.pattern);
        }
        let class = self.pattern[self.pos];
        self.pos = (self.pos + 1) % self.pattern.len();
        class
    }
}
