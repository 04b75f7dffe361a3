//! Panic isolation with quiet message capture.
//!
//! [`isolate`] runs a closure under `catch_unwind` and turns a panic
//! into `Err(message)`. Two details matter for the batch driver:
//!
//! * the default panic hook prints a backtrace banner to stderr *before*
//!   unwinding reaches `catch_unwind`; a batch run surviving dozens of
//!   injected panics must not spray that noise, so a process-wide hook
//!   (installed once, chaining to whatever hook was already set) swallows
//!   the report only while the current thread is inside [`isolate`];
//! * the panic *message* (payload downcast to `&str`/`String`) is
//!   preserved so a panicking unit yields a structured, attributable
//!   error instead of a bare "task panicked".
//!
//! The module also holds the workspace's two concurrency helpers:
//! [`lock_recover`] and the scoped [`par_map`].

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

thread_local! {
    /// True while the current thread is inside [`isolate`].
    static SUPPRESS_PANIC_REPORT: Cell<bool> = const { Cell::new(false) };
}

/// Installs the chaining, suppression-aware hook exactly once.
fn install_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_REPORT.with(|s| s.get()) {
                return; // captured by an isolate() frame on this thread
            }
            prev(info);
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(panic message)` without
/// letting the default hook print to stderr. Nested calls are fine; the
/// innermost frame catches.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_hook();
    let was = SUPPRESS_PANIC_REPORT.with(|s| s.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_REPORT.with(|s| s.set(was));
    result.map_err(|payload| payload_message(payload.as_ref()))
}

/// Locks `m`, recovering from poisoning.
///
/// A mutex is poisoned when a holder panicked; with every fallible
/// compile wrapped in [`isolate`] the data it guards (work queues,
/// result maps — never mid-mutation compiler state) is still
/// consistent, so the right response is to keep going, not to cascade
/// the panic through every other worker via `lock().unwrap()`.
#[allow(clippy::disallowed_methods)] // the one sanctioned `Mutex::lock`
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Maps `f` over the indices `0..n` on one scoped thread per entry of
/// `states`, returning the results in index order.
///
/// Each thread owns its state and claims the next unclaimed index from
/// one shared cursor until none is left, so every index runs exactly
/// once and a slow index never holds up work queued behind it. Results
/// land in per-index `OnceLock` slots: there is no mutex to poison and
/// no lock ordering to get wrong. `f` returns `None` to leave an index
/// without a result (the batch driver's fail-fast skip). With no
/// states, no thread runs and every slot is `None`.
pub fn par_map<S: Send, T: Send + Sync>(
    n: usize,
    states: Vec<S>,
    f: impl Fn(&mut S, usize) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for mut state in states {
            let (cursor, slots, f) = (&cursor, &slots, &f);
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if let Some(v) = f(&mut state, i) {
                    let _ = slots[i].set(v);
                }
            });
        }
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_value_passes_through() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // poisons the mutex on purpose
    fn lock_recover_survives_poisoning() {
        let m = Mutex::new(7u32);
        let _ = isolate(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn par_map_runs_every_index_exactly_once() {
        for (n, workers) in [(0, 3), (2, 5), (1000, 3)] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(n, vec![(); workers], |(), i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                Some(i)
            });
            assert_eq!(out, (0..n).map(Some).collect::<Vec<_>>(), "n={n}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "n={n}");
        }
    }

    #[test]
    fn par_map_keeps_index_order_and_skipped_slots() {
        let out = par_map(10, vec![(); 4], |(), i| {
            // Uneven work so later indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros(((10 - i) * 50) as u64));
            (i % 3 != 0).then_some(i * 10)
        });
        let want: Vec<Option<usize>> = (0..10).map(|i| (i % 3 != 0).then_some(i * 10)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn par_map_state_is_private_to_its_worker() {
        // Each worker counts the indices it ran in its own state. Were a
        // state shared or copied between workers, some worker's counts
        // would repeat or skip a value.
        let states = (0..4).map(|id| (id, 0usize)).collect();
        let out = par_map(200, states, |(id, ran), _| {
            std::thread::yield_now();
            *ran += 1;
            Some((*id, *ran))
        });
        assert_eq!(out.iter().flatten().count(), 200);
        for id in 0..4 {
            let mut counts: Vec<usize> = out
                .iter()
                .flatten()
                .filter(|(w, _)| *w == id)
                .map(|(_, c)| *c)
                .collect();
            counts.sort_unstable();
            assert_eq!(
                counts,
                (1..=counts.len()).collect::<Vec<_>>(),
                "worker {id}"
            );
        }
    }

    #[test]
    fn panic_message_is_captured() {
        let err = isolate(|| -> () { panic!("kaboom at {}", "plan") }).unwrap_err();
        assert_eq!(err, "kaboom at plan");
        let err = isolate(|| -> () { std::panic::panic_any(7u32) }).unwrap_err();
        assert!(err.contains("non-string payload"));
    }

    #[test]
    fn nested_isolation_restores_suppression() {
        let outer = isolate(|| {
            let inner = isolate(|| -> () { panic!("inner") });
            assert_eq!(inner.unwrap_err(), "inner");
            "outer ok"
        });
        assert_eq!(outer, Ok("outer ok"));
        // After an isolate() frame unwinds, the flag is back off.
        assert!(!SUPPRESS_PANIC_REPORT.with(|s| s.get()));
    }

    #[test]
    fn threads_do_not_leak_suppression() {
        let h = std::thread::spawn(|| isolate(|| -> () { panic!("worker died") }));
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, "worker died");
    }
}
