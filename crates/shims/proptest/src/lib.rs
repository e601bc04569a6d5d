//! Offline stand-in for the `proptest` crate (see DESIGN.md §6).
//!
//! The build environment cannot fetch the real `proptest`, so this crate
//! implements the subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map` / `boxed`,
//! range/tuple/[`Just`]/`any::<bool>()` strategies, weighted
//! [`prop_oneof!`], [`collection::vec`], and the [`proptest!`] /
//! `prop_assert*` macros. Cases are generated from a per-test
//! deterministic seed; there is **no shrinking** — a failure reports the
//! case number and the generated inputs via `Debug` where available.

use std::rc::Rc;

/// Deterministic case generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from a stable string (the test name).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name keeps seeds stable across runs/platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// A uniform boolean.
    pub fn random_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A test-case failure (what `prop_assert!` returns).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical strategy (`any::<T>()`).
pub trait Arbitrary {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.random_bool()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The canonical strategy for `T` — see [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Weighted union of strategies (what [`prop_oneof!`] builds).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// A union of weighted, type-erased options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or all weights are zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u32 = options.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted option");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(u64::from(self.total)) as u32;
        for (w, s) in &self.options {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights exhausted")
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive length range for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Weighted choice between strategies: `prop_oneof![a, b]` or
/// `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{}` != `{}`: {:?} vs {:?}",
            stringify!($a),
            stringify!($b),
            __l,
            __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(__l == __r, $($fmt)*);
    }};
}

/// Fails the current case if both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `{}` == `{}`: both {:?}",
            stringify!($a),
            stringify!($b),
            __l
        );
    }};
}

/// Declares property tests:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn holds(x in 0..10usize, flip in any::<bool>()) { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { <$crate::ProptestConfig as ::core::default::Default>::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $($(#[$meta:meta])+ fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(e) = __result {
                        panic!("proptest {} failed at case {}/{}: {}", stringify!($name), __case + 1, __config.cases, e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic("bounds");
        for _ in 0..200 {
            let v = (3..9usize).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1..=4i64).generate(&mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = crate::TestRng::deterministic("vec");
        let s = crate::collection::vec(0..5usize, 2..=6);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..=6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_honours_zero_weight() {
        let mut rng = crate::TestRng::deterministic("oneof");
        let s = prop_oneof![1 => Just(1u8), 0 => Just(2u8)];
        for _ in 0..50 {
            assert_eq!(s.generate(&mut rng), 1);
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = crate::TestRng::deterministic("flat");
        let s = (2..5usize).prop_flat_map(|n| crate::collection::vec(0..n, n..=n));
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_runs(x in 0..100usize, b in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assert_eq!(b, b);
            prop_assert_ne!(x, x + 1);
        }
    }
}
