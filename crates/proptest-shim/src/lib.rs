//! A small, offline, drop-in subset of the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace aliases `proptest` to this shim (see the root
//! `Cargo.toml`). It implements exactly the API surface our property
//! tests use: the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_flat_map`
//! / `boxed`, integer and float range strategies, tuples, [`Just`](strategy::Just),
//! `any::<T>()`, `prop_oneof!`, `collection::vec`, and the
//! [`proptest!`] test macro with `ProptestConfig { cases, .. }`.
//!
//! Differences from real proptest, by design:
//! - generation is a deterministic xorshift stream per test case (the
//!   seed can be moved with `MATC_PROPTEST_SEED`), so failures are
//!   reproducible without a persistence file;
//! - there is no shrinking — on failure the full generated input is
//!   printed instead;
//! - `prop_assume!` skips the case rather than retrying it.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies. Mirrors proptest's macro of the same name.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( cfg = ($cfg:expr);
      $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                    let __vals = ( $( $crate::strategy::Strategy::generate(&($strat), &mut __rng), )+ );
                    let __repr = format!("{:?}", __vals);
                    // Bodies may use `?` / `return Ok(())` as with real
                    // proptest, so they run inside a Result closure.
                    type __TestResult =
                        ::std::result::Result<(), ::std::boxed::Box<dyn ::std::error::Error>>;
                    let __res = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                        move || -> __TestResult {
                            let ( $($pat,)+ ) = __vals;
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        },
                    ));
                    let __failure = match __res {
                        Ok(Ok(())) => None,
                        Ok(Err(e)) => Some(Err(e)),
                        Err(p) => Some(Ok(p)),
                    };
                    if let Some(__f) = __failure {
                        eprintln!(
                            "[proptest-shim] case {}/{} failed; generated input:\n{}",
                            __case + 1,
                            __cfg.cases,
                            __repr
                        );
                        match __f {
                            Ok(__panic) => ::std::panic::resume_unwind(__panic),
                            Err(__err) => panic!("test case returned error: {__err}"),
                        }
                    }
                }
            }
        )*
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![ $( $crate::strategy::Strategy::boxed($s) ),+ ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skip the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Ok(());
        }
    };
}
