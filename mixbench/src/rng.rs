//! SplitMix64: the benchmark's only source of randomness. Every script
//! is a pure function of `(seed, script index)`, so a run repeats
//! exactly and threads need no shared generator.

/// Steele, Lea & Flood's SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The generator for script `index` of the run seeded `seed`.
    pub fn for_script(seed: u64, index: u64) -> SplitMix64 {
        let mut outer = SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64::new(outer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Slot `index` of a balanced schedule over `period` slots: the
/// sequence runs through every slot once per cycle, in an order the
/// seed picks anew for each cycle. The seed chooses the *order* of the
/// work, never its proportions — so two runs of different seeds do the
/// same mix of work, and their timings compare.
pub fn balanced_slot(seed: u64, index: u64, period: u64) -> usize {
    let mut order: Vec<usize> = (0..period as usize).collect();
    SplitMix64::for_script(seed ^ 0x5C4E_D01E, index / period).shuffle(&mut order);
    order[(index % period) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn balanced_schedule_covers_every_slot_each_cycle() {
        for seed in [1, 2] {
            for cycle in 0..3 {
                let mut seen: Vec<usize> = (0..13)
                    .map(|i| balanced_slot(seed, cycle * 13 + i, 13))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..13).collect::<Vec<_>>());
            }
        }
        let order = |seed| -> Vec<usize> { (0..26).map(|i| balanced_slot(seed, i, 13)).collect() };
        assert_ne!(order(1), order(2));
        assert_ne!(order(1)[..13], order(1)[13..]);
    }

    #[test]
    fn below_stays_in_range_and_scripts_differ() {
        let mut r = SplitMix64::new(7);
        assert!((0..1000).all(|_| r.below(12) < 12));
        let a = SplitMix64::for_script(1, 0).next_u64();
        let b = SplitMix64::for_script(1, 1).next_u64();
        let c = SplitMix64::for_script(2, 0).next_u64();
        assert!(a != b && a != c);
    }
}
