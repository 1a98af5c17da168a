//! Process-wide platform switches for the `recon` workspace.
//!
//! Two fallback paths can be pinned from outside the process, each by one
//! environment variable read once, on first use, so every consumer sees one
//! consistent value for the life of the process (any value other than empty,
//! `0`, or `false` turns the switch on):
//!
//! | variable | effect | read through |
//! |---|---|---|
//! | `RECON_IBLT_FORCE_SCALAR` | scalar IBLT bank kernels instead of AVX2 | [`scalar_kernels_forced`] |
//! | `RECON_RUNTIME_FORCE_POLL` | `poll(2)` readiness poller instead of epoll | [`poll_backend_forced`] |
//!
//! The switches are process-global because what they select is
//! process-global: which CPU kernel dispatch table and which poller syscall.
//! Both paths are bit-identical to the defaults, so the switches change
//! performance only; they exist so differential tests and CI can run the
//! fallback a platform without AVX2 or epoll would take. The differential
//! kernel tests also flip the scalar switch from code, through
//! [`set_force_scalar_kernels`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| switch_on(&v))
}

fn switch_on(value: &str) -> bool {
    !matches!(value, "" | "0" | "false")
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Programmatically force (or release) the scalar IBLT kernel path. The
/// environment variable stays in effect: an env-enabled switch cannot be
/// released from code, so a CI leg pinning the fallback cannot be undone by
/// a test.
pub fn set_force_scalar_kernels(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Whether the IBLT bank kernels must take the scalar path: the programmatic
/// setting OR `RECON_IBLT_FORCE_SCALAR`.
pub fn scalar_kernels_forced() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    FORCE_SCALAR.load(Ordering::Relaxed) || *ENV.get_or_init(|| env_flag("RECON_IBLT_FORCE_SCALAR"))
}

/// Whether the runtime's readiness poller must use `poll(2)` instead of
/// epoll (`RECON_RUNTIME_FORCE_POLL`).
pub fn poll_backend_forced() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| env_flag("RECON_RUNTIME_FORCE_POLL"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The scalar switch is process-global, and tests in one binary run
    // concurrently — this is the only test in the crate that flips it.
    #[test]
    fn programmatic_overrides_round_trip() {
        set_force_scalar_kernels(true);
        assert!(scalar_kernels_forced());
        set_force_scalar_kernels(false);
        assert_eq!(scalar_kernels_forced(), env_flag("RECON_IBLT_FORCE_SCALAR"));
    }

    #[test]
    fn env_parsing_treats_empty_zero_and_false_as_off() {
        // With no RECON_* variables set both switches are off, and under a CI
        // leg exactly that leg's switch is on.
        assert_eq!(poll_backend_forced(), env_flag("RECON_RUNTIME_FORCE_POLL"));
        for off in ["", "0", "false"] {
            assert!(!switch_on(off), "{off:?}");
        }
        for on in ["1", "true", "yes"] {
            assert!(switch_on(on), "{on:?}");
        }
    }
}
