//! Offline stand-in for `proptest`.
//!
//! Provides the macro/trait surface this workspace's property tests use —
//! `proptest!`, `prop_assert!`, `prop_assert_eq!`, [`strategy::Strategy`]
//! with `prop_map`/`prop_flat_map`, [`strategy::Just`], range strategies and
//! [`collection::vec`] — driven by plain random sampling. There is no
//! shrinking: a failing case panics with the case number and message, which
//! is enough for the deterministic seed to reproduce it.

pub mod test_runner {
    /// Run configuration; only the case count is honoured.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64 generator: deterministic, so failures replay.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn deterministic() -> Self {
            TestRng(0x9e37_79b9_7f4a_7c15)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 random bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[lo, hi)`.
        pub fn below(&mut self, lo: usize, hi: usize) -> usize {
            debug_assert!(lo < hi);
            lo + (self.next_u64() % (hi - lo) as u64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for producing random values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn sample(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.unit_f64() as f32 * (self.end - self.start)
        }
    }

    impl Strategy for Range<usize> {
        type Value = usize;
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.below(self.start, self.end)
        }
    }

    impl Strategy for RangeInclusive<usize> {
        type Value = usize;
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.below(*self.start(), *self.end() + 1)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for vectors whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Define property tests. Each `fn name(pat in strategy, ...)` body runs
/// for `cases` random samples; `prop_assert!` failures abort the case with
/// its number so the deterministic RNG replays it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            #[allow(unused_variables, clippy::all)]
            fn $name() {
                let __config = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic();
                for __case in 0..__config.cases {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(__msg) = __outcome {
                        panic!("proptest case {}: {}", __case, __msg);
                    }
                }
            }
        )*
    };
}

/// Assert inside a `proptest!` body; failure aborts the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sampled ranges stay in bounds.
        #[test]
        fn ranges_in_bounds(x in 0.25f64..0.75, n in 3usize..=9) {
            prop_assert!((0.25..0.75).contains(&x), "x={x}");
            prop_assert!((3..=9).contains(&n));
        }

        #[test]
        fn flat_map_links_sizes(
            (len, items) in (2usize..=5).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0.0f64..1.0, n))
            }),
        ) {
            prop_assert_eq!(len, items.len());
        }
    }
}
