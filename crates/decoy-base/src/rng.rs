//! The workspace's one seeded generator: xoshiro256** (Blackman and Vigna)
//! seeded through SplitMix64.
//!
//! The attacker population, visit schedule, actor scripts, credentials,
//! bait data and sampled source addresses all draw from [`Rng`], and so do
//! the randomized tests and benches. The committed golden report was drawn
//! from this stream, and the tests below pin it. [`for_all`] runs the
//! workspace's property tests over it, and [`mutate`] and
//! [`mutate_journal`] draw from it the hostile inputs of the mutation
//! campaigns: the wire decoders, journal recovery, the JSON codec and the
//! JSON-lines import.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The SplitMix64 increment, 2^64 / φ.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step from state `x`: advance by the golden gamma, then
/// avalanche. `splitmix64(0)` is the reference generator's first output.
/// It seeds [`Rng`] and doubles as a cheap, well-mixed 64-bit hash.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256**: 256 bits of state, whose whole stream is a function of
/// the seed. Not a cryptographic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: the state is the first four outputs of a
    /// SplitMix64 sequence started at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng {
            s: std::array::from_fn(|i| splitmix64(seed.wrapping_add(GAMMA.wrapping_mul(i as u64)))),
        }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// 53 random bits scaled into `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`; panics unless `0 <= p <= 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p={p} is not a probability"
        );
        self.unit() < p
    }

    /// A value uniform over `range` (`a..b` or `a..=b`); panics when the
    /// range is empty.
    #[inline]
    pub fn gen_range<T: Uniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// An element type [`Rng::gen_range`] draws.
pub trait Uniform: Sized {
    /// A value from `[low, high)`, or `[low, high]` when `inclusive`.
    /// Panics on an empty range.
    fn between(rng: &mut Rng, low: Self, high: Self, inclusive: bool) -> Self;
}

/// A range [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        T::between(rng, self.start, self.end, false)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        let (low, high) = self.into_inner();
        T::between(rng, low, high, true)
    }
}

macro_rules! integers {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl Uniform for $t {
            #[inline]
            fn between(rng: &mut Rng, low: Self, high: Self, inclusive: bool) -> Self {
                assert!(
                    if inclusive { low <= high } else { low < high },
                    "gen_range: empty range"
                );
                // Width of the range in the unsigned domain; 0 only for the
                // full inclusive 64-bit range.
                let span = (high.wrapping_sub(low) as $u as u64).wrapping_add(u64::from(inclusive));
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                // Multiply-shift maps 64 random bits onto [0, span); the
                // bias is at most span / 2^64.
                let offset = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                low.wrapping_add(offset as $u as $t)
            }
        }
    )*};
}

integers!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize, i32 => u32, i64 => u64);

/// Exclusive ranges only: no caller draws an inclusive `f64`, so one panics.
impl Uniform for f64 {
    #[inline]
    fn between(rng: &mut Rng, low: Self, high: Self, inclusive: bool) -> Self {
        assert!(
            !inclusive && low.is_finite() && high.is_finite() && low < high,
            "gen_range: inclusive, empty or non-finite f64 range"
        );
        loop {
            // rounding can land exactly on `high`; redraw instead
            let v = low + (high - low) * rng.unit();
            if v < high {
                return v;
            }
        }
    }
}

/// Check the property `prop` on `cases` seeded inputs: case `i` draws its
/// input with `gen` from `Rng::seed_from_u64(splitmix64(seed + i))`, so
/// the same `(seed, cases)` runs the same inputs under every build.
///
/// `prop` asserts with plain `assert!`s. When case `i` panics, the runner
/// prints the case number, its seed and the input, then re-raises the
/// panic. There is no shrinking: the printed case seed reproduces the
/// failing input exactly.
pub fn for_all<T: Debug>(
    seed: u64,
    cases: u64,
    mut gen: impl FnMut(&mut Rng) -> T,
    mut prop: impl FnMut(&T),
) {
    for case in 0..cases {
        let case_seed = splitmix64(seed.wrapping_add(case));
        let input = gen(&mut Rng::seed_from_u64(case_seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            eprintln!(
                "for_all: case {case} of {cases} failed (seed {seed:#x}, case seed \
                 {case_seed:#x}), input:\n{input:?}"
            );
            resume_unwind(panic);
        }
    }
}

/// Boundary values for length-field tampering: the ones a bounds check is
/// most likely to get wrong.
const BOUNDARY_LENGTHS: [u32; 8] = [0, 1, 7, 0xffff, 0x1_0000, 0xff_ffff, 0x7fff_ffff, u32::MAX];

/// A hostile variant of one of `seeds`: a seed picked at random, then one
/// to four byte-level mutations of it. Empty when `seeds` is.
///
/// The six mutations are equally likely: a bit flip, a byte set, a
/// truncation, an extension by 1-32 random bytes, a splice (a prefix of
/// the input, then a suffix of another seed), and a length tamper (a 2- or
/// 4-byte window overwritten with one of eight boundary lengths, in either
/// byte order).
pub fn mutate(rng: &mut Rng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let Some(seed) = pick(rng, seeds) else {
        return Vec::new();
    };
    let mut input = seed.clone();
    for _ in 0..rng.gen_range(1..=4) {
        mutate_bytes(rng, &mut input, seeds);
    }
    input
}

/// A corrupted variant of an encoded journal, its segments in replay
/// order: one to three faults, each a dropped, a duplicated or a swapped
/// segment (one in ten each), or else one of [`mutate`]'s byte-level
/// mutations inside one segment. These are the shapes a sick filesystem
/// or a botched copy produces.
pub fn mutate_journal(rng: &mut Rng, segments: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = segments.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if out.is_empty() {
            break;
        }
        let (i, j) = (rng.gen_range(0..out.len()), rng.gen_range(0..out.len()));
        match rng.gen_range(0..10) {
            0 => {
                out.remove(i);
            }
            1 => out.insert(i, out[i].clone()),
            2 => out.swap(i, j),
            _ => mutate_bytes(rng, &mut out[i], segments),
        }
    }
    out
}

/// One of `seeds`, or `None` when there is none.
fn pick<'a>(rng: &mut Rng, seeds: &'a [Vec<u8>]) -> Option<&'a Vec<u8>> {
    (!seeds.is_empty()).then(|| &seeds[rng.gen_range(0..seeds.len())])
}

/// One of [`mutate`]'s six byte-level mutations of `input`, in place;
/// `seeds` feed the splice. A mutation that needs a byte to work on
/// leaves an empty input as it is.
fn mutate_bytes(rng: &mut Rng, input: &mut Vec<u8>, seeds: &[Vec<u8>]) {
    let len = input.len();
    match rng.gen_range(0..6) {
        0 if len > 0 => input[rng.gen_range(0..len)] ^= 1 << rng.gen_range(0..8),
        1 if len > 0 => input[rng.gen_range(0..len)] = rng.gen_range(0..=u8::MAX),
        2 => input.truncate(rng.gen_range(0..=len)),
        3 => {
            for _ in 0..rng.gen_range(1..=32) {
                input.push(rng.gen_range(0..=u8::MAX));
            }
        }
        4 => {
            if let Some(other) = pick(rng, seeds) {
                input.truncate(rng.gen_range(0..=len));
                input.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
            }
        }
        5 if len > 0 => {
            let value = BOUNDARY_LENGTHS[rng.gen_range(0..BOUNDARY_LENGTHS.len())];
            let width = if rng.gen_bool(0.5) { 4 } else { 2 };
            // the low `width` bytes of the value, in either byte order
            let (le, be) = (value.to_le_bytes(), value.to_be_bytes());
            let window = if rng.gen_bool(0.5) {
                &le[..width]
            } else {
                &be[4 - width..]
            };
            // overwrite from `at`, growing the input past its end
            let at = rng.gen_range(0..len);
            let end = len.min(at + width);
            input[at..end].copy_from_slice(&window[..end - at]);
            input.extend_from_slice(&window[end - at..]);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_all_draws_each_case_from_its_own_seed_and_reraises() {
        let mut drawn = Vec::new();
        for_all(9, 4, |rng| rng.next_u64(), |&x| drawn.push(x));
        let expected: Vec<u64> = (0..4)
            .map(|i| Rng::seed_from_u64(splitmix64(9 + i)).next_u64())
            .collect();
        assert_eq!(drawn, expected);

        // the failing case's panic reaches the caller, after `prop` saw
        // every earlier case
        let mut seen = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let gen = |rng: &mut Rng| rng.next_u64();
            for_all(9, 4, gen, |&x| {
                seen += 1;
                assert_ne!(x, expected[2], "case 2 fails");
            })
        }));
        let message = outcome.expect_err("case 2 must fail");
        assert_eq!(seen, 3);
        assert!(message
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("case 2 fails")));
    }

    #[test]
    fn the_stream_is_pinned() {
        // the published SplitMix64 reference output for state 0
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        // the first draw of the seed the golden report is rendered at
        assert_eq!(Rng::seed_from_u64(7).next_u64(), 0xb358_faf7_4ef9_765a);

        // FNV-1a over every call shape the workspace makes, in a fixed
        // order, captured from the generator that drew the golden report
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..100 {
            eat(&rng.next_u64().to_le_bytes());
            eat(&[rng.gen_range(3u8..250), rng.gen_range(0..=u8::MAX)]);
            eat(&rng.gen_range(1u16..9999).to_le_bytes());
            eat(&rng.gen_range(0..=u16::MAX).to_le_bytes());
            eat(&rng.gen_range(7u32..1_000_000).to_le_bytes());
            eat(&rng.gen_range(0..=u32::MAX).to_le_bytes());
            eat(&rng.gen_range(10u64..86_400_000).to_le_bytes());
            eat(&rng.gen_range(0..=u64::MAX).to_le_bytes());
            eat(&(rng.gen_range(0usize..37) as u64).to_le_bytes());
            eat(&(rng.gen_range(2usize..=3) as u64).to_le_bytes());
            eat(&rng.gen_range(-50i32..50).to_le_bytes());
            eat(&rng.gen_range(i32::MIN..=i32::MAX).to_le_bytes());
            eat(&rng.gen_range(-1.5..2.5f64).to_bits().to_le_bytes());
            eat(&rng.unit().to_bits().to_le_bytes());
            eat(&[u8::from(rng.gen_bool(0.3))]);
        }
        assert_eq!(h, 0x0e35_6914_fcbc_cd9e);
    }

    #[test]
    fn the_mutants_are_pinned() {
        // FNV-1a over byte-level and journal mutants drawn from one seed,
        // each buffer behind its length and each journal ended by an empty
        // one; the journal campaign's digest depends on this stream
        let mut rng = Rng::seed_from_u64(0xf022);
        let seeds = vec![b"hello world".to_vec(), vec![0; 16]];
        let segments = vec![vec![0x11; 40], vec![0x22; 40], vec![0x33; 40]];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..200 {
            eat(&mutate(&mut rng, &seeds));
        }
        for _ in 0..100 {
            for segment in mutate_journal(&mut rng, &segments) {
                eat(&segment);
            }
            eat(&[]);
        }
        assert_eq!(h, 0x00ce_7e65_0eb9_e27d);
    }
}
