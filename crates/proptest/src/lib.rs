//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace
//! vendors the slice of proptest it uses: the [`Strategy`] trait with
//! `prop_map`/`boxed`, `any::<T>()`, range and tuple strategies,
//! [`collection`] and [`option`] combinators, and the
//! [`proptest!`]/[`prop_assert!`]/[`prop_oneof!`] macro family.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case number and seed
//!   (every run is deterministic, so a failure reproduces exactly);
//! * **uniform `prop_oneof!`** — no weighted variants (unused here);
//! * **set strategies** draw up to the requested size but settle for
//!   fewer when the element domain is too small, where real proptest
//!   would reject and retry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;

// The macros need a generator; re-export so expansions can use
// `$crate::__rt` paths without requiring `rand` in the caller.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::{RngExt, SeedableRng};

    /// Stable seed derivation: FNV-1a over the test name, mixed with
    /// the case index, so each test has its own reproducible stream.
    pub fn case_seed(test_name: &str, case: u32) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1))
    }
}

use __rt::StdRng;
use rand::{Random, RngExt};

/// How a single generated case ended.
pub mod test_runner {
    /// Failure or rejection of one test case.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the message explains it.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject,
    }

    impl TestCaseError {
        /// A failure carrying `reason` (accepts anything displayable,
        /// like the real crate's `Into<Reason>`).
        pub fn fail(reason: impl std::fmt::Display) -> Self {
            TestCaseError::Fail(reason.to_string())
        }

        /// A rejection: the generated inputs don't apply.
        pub fn reject(_reason: impl std::fmt::Display) -> Self {
            TestCaseError::Reject
        }
    }

    /// Runner configuration (`ProptestConfig` in the real crate).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// A generator of random values of one type.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy is just a deterministic function of the RNG state.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies — the engine behind
/// [`prop_oneof!`].
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union over the given alternatives.
    ///
    /// # Panics
    /// Panics if `alternatives` is empty.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs at least one alternative");
        Union(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.random_range(0..self.0.len());
        self.0[i].generate(rng)
    }
}

/// `any::<T>()` — the full uniform domain of `T`.
pub fn any<T: Random>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Random> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.random()
    }
}

/// Pattern-string strategies: in real proptest a `&str` is a regex and
/// the strategy generates matching strings. This shim supports the
/// subset the workspace (and typical tests) use — sequences of atoms
/// with optional repetition:
///
/// * literal characters, `.` (any printable non-newline)
/// * escapes: `\d` `\w` `\s`, `\PC` (any printable, ASCII or not),
///   and `\\`-escaped literals
/// * classes `[a-z0-9_]` (ranges and literals; no negation)
/// * repetitions `{m}`, `{m,n}`, `*`, `+`, `?` (unbounded ones are
///   capped at 8)
///
/// Unsupported syntax panics, so a misuse fails loudly rather than
/// silently generating the wrong language.
mod pattern {
    use super::StdRng;
    use rand::RngExt;

    #[derive(Debug, Clone)]
    enum Atom {
        Lit(char),
        Digit,
        Word,
        Space,
        Printable,
        AnyDot,
        Class(Vec<(char, char)>),
    }

    const EXOTIC: &[char] = &['é', 'ß', 'λ', '中', '本', '😀', '\u{00a0}', '§'];

    fn sample(atom: &Atom, rng: &mut StdRng) -> char {
        match atom {
            Atom::Lit(c) => *c,
            Atom::Digit => rng.random_range(b'0'..=b'9') as char,
            Atom::Word => {
                let pool = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
                pool[rng.random_range(0..pool.len())] as char
            }
            Atom::Space => *[' ', '\t'].get(rng.random_range(0..2usize)).unwrap(),
            Atom::Printable => {
                // Mostly ASCII printable, occasionally multi-byte, to
                // exercise UTF-8 handling in parsers.
                if rng.random_bool(0.9) {
                    rng.random_range(0x20u8..0x7f) as char
                } else {
                    EXOTIC[rng.random_range(0..EXOTIC.len())]
                }
            }
            Atom::AnyDot => rng.random_range(0x20u8..0x7f) as char,
            Atom::Class(ranges) => {
                let (lo, hi) = ranges[rng.random_range(0..ranges.len())];
                char::from_u32(rng.random_range(lo as u32..=hi as u32))
                    .expect("class range stays in valid chars")
            }
        }
    }

    fn parse_escape(chars: &[char], i: &mut usize) -> Atom {
        *i += 1; // consume the backslash
        let c = *chars.get(*i).expect("dangling escape in pattern");
        *i += 1;
        match c {
            'd' => Atom::Digit,
            'w' => Atom::Word,
            's' => Atom::Space,
            'P' | 'p' => {
                // Only the printable/control property is supported, in
                // both `\PC` and `\p{C}`-ish spellings.
                if chars.get(*i) == Some(&'{') {
                    while *i < chars.len() && chars[*i] != '}' {
                        *i += 1;
                    }
                    *i += 1;
                } else {
                    *i += 1; // the property letter, e.g. the C in \PC
                }
                Atom::Printable
            }
            'n' => Atom::Lit('\n'),
            't' => Atom::Lit('\t'),
            other => Atom::Lit(other),
        }
    }

    fn parse_class(chars: &[char], i: &mut usize) -> Atom {
        *i += 1; // consume '['
        let mut ranges = Vec::new();
        while *i < chars.len() && chars[*i] != ']' {
            let lo = chars[*i];
            assert!(lo != '^', "negated classes are not supported by the proptest shim");
            if chars.get(*i + 1) == Some(&'-') && chars.get(*i + 2).is_some_and(|&c| c != ']') {
                let hi = chars[*i + 2];
                assert!(lo <= hi, "descending class range in pattern");
                ranges.push((lo, hi));
                *i += 3;
            } else {
                ranges.push((lo, lo));
                *i += 1;
            }
        }
        assert!(chars.get(*i) == Some(&']'), "unterminated class in pattern");
        *i += 1;
        assert!(!ranges.is_empty(), "empty class in pattern");
        Atom::Class(ranges)
    }

    fn parse_repeat(chars: &[char], i: &mut usize) -> (usize, usize) {
        match chars.get(*i) {
            Some('{') => {
                *i += 1;
                let mut lo = 0usize;
                while chars[*i].is_ascii_digit() {
                    lo = lo * 10 + chars[*i].to_digit(10).unwrap() as usize;
                    *i += 1;
                }
                let hi = if chars[*i] == ',' {
                    *i += 1;
                    let mut hi = 0usize;
                    while chars[*i].is_ascii_digit() {
                        hi = hi * 10 + chars[*i].to_digit(10).unwrap() as usize;
                        *i += 1;
                    }
                    hi
                } else {
                    lo
                };
                assert!(chars[*i] == '}', "unterminated repetition in pattern");
                *i += 1;
                (lo, hi)
            }
            Some('*') => {
                *i += 1;
                (0, 8)
            }
            Some('+') => {
                *i += 1;
                (1, 8)
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            _ => (1, 1),
        }
    }

    pub fn generate(pattern: &str, rng: &mut StdRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut out = String::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '\\' => parse_escape(&chars, &mut i),
                '[' => parse_class(&chars, &mut i),
                '.' => {
                    i += 1;
                    Atom::AnyDot
                }
                '(' | ')' | '|' | '^' | '$' => {
                    panic!("pattern syntax {:?} is not supported by the proptest shim", chars[i])
                }
                c => {
                    i += 1;
                    Atom::Lit(c)
                }
            };
            let (lo, hi) = parse_repeat(&chars, &mut i);
            let n = rng.random_range(lo..=hi);
            for _ in 0..n {
                out.push(sample(&atom, rng));
            }
        }
        out
    }
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        pattern::generate(self, rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// A count or count range for collection strategies.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_incl: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi_incl: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi_incl: r.end - 1 }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi_incl: *r.end() }
    }
}

impl SizeRange {
    fn draw(&self, rng: &mut StdRng) -> usize {
        rng.random_range(self.lo..=self.hi_incl)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::*;

    /// A `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `HashSet` aiming for `size` elements (settles for fewer if the
    /// element domain is exhausted).
    pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S> {
        HashSetStrategy { element, size: size.into() }
    }

    /// See [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: core::hash::Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.draw(rng);
            let mut out = HashSet::new();
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 50 + 50 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// A `BTreeSet` aiming for `size` elements (settles for fewer if
    /// the element domain is exhausted).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.draw(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 50 + 50 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::*;

    /// `Some` of the inner strategy half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            if rng.random_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, Union,
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {} != {}\n  both: {:?}",
                    stringify!($left), stringify!($right), l),
            ));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// The test-definition macro. Accepts the same shape as real proptest:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..100, v in collection::vec(any::<u8>(), 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
///
/// Each case draws its inputs from a seed derived from the test name
/// and case index, so failures reproduce exactly; the reported message
/// includes both.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::__rt::SeedableRng as _;
            let config: $crate::ProptestConfig = $cfg;
            let mut rejected: u32 = 0;
            for case in 0..config.cases {
                let seed = $crate::__rt::case_seed(stringify!($name), case);
                let mut __proptest_rng = $crate::__rt::StdRng::seed_from_u64(seed);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)*
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject) => rejected += 1,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                        "proptest {} failed at case {} (seed {:#x}):\n{}",
                        stringify!($name), case, seed, msg
                    ),
                }
            }
            assert!(
                rejected < config.cases,
                "proptest {}: every case was rejected by prop_assume!",
                stringify!($name)
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_seed() {
        use crate::__rt::{SeedableRng, StdRng};
        let strat = (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| (bits, len));
        let a = strat.generate(&mut StdRng::seed_from_u64(9));
        let b = strat.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn collection_sizes_respect_bounds() {
        use crate::__rt::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let exact = crate::collection::vec(any::<u8>(), 8usize).generate(&mut rng);
            assert_eq!(exact.len(), 8);
            let s = crate::collection::hash_set(0u32..1000, 3..6).generate(&mut rng);
            assert!((3..6).contains(&s.len()));
        }
    }

    #[test]
    fn small_domains_do_not_hang_set_strategies() {
        use crate::__rt::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(4);
        // Only 2 possible values but 10 requested: settles for 2.
        let s = crate::collection::btree_set(0u32..2, 10usize).generate(&mut rng);
        assert_eq!(s.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_pipeline_works(
            x in 1u32..50,
            ys in crate::collection::vec(any::<u16>(), 1..10),
            flag in crate::option::of(any::<u8>()),
        ) {
            prop_assert!((1..50).contains(&x));
            prop_assert!(!ys.is_empty() && ys.len() < 10);
            prop_assert_eq!(flag.is_some() || flag.is_none(), true);
        }

        #[test]
        fn oneof_and_just_cover_alternatives(
            v in prop_oneof![Just(1u8), Just(2), (3u8..5).prop_map(|x| x)],
        ) {
            prop_assert!((1..5).contains(&v), "out of range: {}", v);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn pattern_strings_match_their_language(
            free in "\\PC{0,20}",
            word in "[a-z]{3}-\\d{2,4}x?",
        ) {
            prop_assert!(free.chars().count() <= 20);
            prop_assert!(free.chars().all(|c| !c.is_control()));
            let (head, tail) = word.split_at(4);
            prop_assert!(head.ends_with('-'));
            prop_assert!(head[..3].chars().all(|c| c.is_ascii_lowercase()));
            let digits = tail.trim_end_matches('x');
            prop_assert!((2..=4).contains(&digits.len()));
            prop_assert!(digits.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_and_seed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
