//! Typed, process-wide runtime options for the `recon` workspace.
//!
//! Three fallback paths can be pinned from outside the process, each by one
//! environment variable (`RECON_IBLT_FORCE_SCALAR`, `RECON_RUNTIME_FORCE_POLL`,
//! `RECON_IBLT_FORCE_PEEL_ONLY`). Rather than each crate keeping a private
//! `AtomicBool` + `OnceLock` parse, this module holds all three in one typed
//! [`Options`] struct:
//!
//! * **programmatic override is the first-class path** — [`set`] /
//!   [`Options::apply`] from code, or the per-flag setters like
//!   [`set_force_scalar_kernels`];
//! * the environment is read **once**, lazily, as a thin compat shim
//!   ([`Options::from_env`] documents the variables), so existing CI legs and
//!   shell workflows keep working unchanged;
//! * consumers ask for the *effective* value ([`scalar_kernels_forced`] etc.),
//!   which is the programmatic setting OR the environment shim.
//!
//! The flags are process-global because what they select is process-global:
//! which CPU kernel dispatch table, which poller syscall, whether IBLT decodes
//! may fall back to the rescue solver. They exist so differential tests and CI
//! can pin the fallback paths. The kernel and poller paths are bit-identical,
//! so those two options change performance only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The workspace's runtime options, as one plain value.
///
/// `Options` is a snapshot type: build one (from [`Options::default`] or
/// [`Options::from_env`]), tweak fields, and [`Options::apply`] it. Reading
/// back the effective state goes through [`current`] or the per-flag getters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Options {
    /// Pin every IBLT bank kernel to the scalar fallback path (no AVX2), as
    /// `RECON_IBLT_FORCE_SCALAR` used to.
    pub force_scalar_kernels: bool,
    /// Pin the runtime's readiness poller to `poll(2)` instead of epoll, as
    /// `RECON_RUNTIME_FORCE_POLL` used to.
    pub force_poll_backend: bool,
    /// Disable the IBLT decode-rescue solver: a stalled peel is a hard
    /// failure, exactly as before the GF(2) rescue path existed
    /// (`RECON_IBLT_FORCE_PEEL_ONLY`). Unlike the other flags this changes
    /// *outcomes* (decodes that rescue would save now fail and are retried by
    /// amplification), which is precisely what the pinning CI leg wants.
    pub force_peel_only: bool,
}

impl Options {
    /// The options the environment requests, read fresh from the process
    /// environment. The recognized variables (any value other than empty,
    /// `0`, or `false` enables the flag):
    ///
    /// | variable | field |
    /// |---|---|
    /// | `RECON_IBLT_FORCE_SCALAR` | [`Options::force_scalar_kernels`] |
    /// | `RECON_RUNTIME_FORCE_POLL` | [`Options::force_poll_backend`] |
    /// | `RECON_IBLT_FORCE_PEEL_ONLY` | [`Options::force_peel_only`] |
    pub fn from_env() -> Self {
        Self {
            force_scalar_kernels: env_flag("RECON_IBLT_FORCE_SCALAR"),
            force_poll_backend: env_flag("RECON_RUNTIME_FORCE_POLL"),
            force_peel_only: env_flag("RECON_IBLT_FORCE_PEEL_ONLY"),
        }
    }

    /// Install these options as the process-wide programmatic setting.
    /// Equivalent to [`set`]`(self)`.
    pub fn apply(self) {
        set(self);
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| !matches!(v.as_str(), "" | "0" | "false")).unwrap_or(false)
}

/// The environment shim, parsed exactly once on first use so every consumer
/// sees one consistent snapshot for the life of the process.
fn env_options() -> Options {
    static ENV: OnceLock<Options> = OnceLock::new();
    *ENV.get_or_init(Options::from_env)
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static FORCE_POLL: AtomicBool = AtomicBool::new(false);
static FORCE_PEEL_ONLY: AtomicBool = AtomicBool::new(false);

/// Install `options` as the process-wide programmatic setting, replacing any
/// previous programmatic setting. The environment shim stays in effect: an
/// env-enabled flag cannot be programmatically disabled (the shim exists so
/// CI can pin fallback paths from outside the process, and a library
/// clearing it would defeat that).
pub fn set(options: Options) {
    FORCE_SCALAR.store(options.force_scalar_kernels, Ordering::Relaxed);
    FORCE_POLL.store(options.force_poll_backend, Ordering::Relaxed);
    FORCE_PEEL_ONLY.store(options.force_peel_only, Ordering::Relaxed);
}

/// The effective options: the programmatic setting OR'd with the environment
/// shim, flag by flag.
pub fn current() -> Options {
    let env = env_options();
    Options {
        force_scalar_kernels: FORCE_SCALAR.load(Ordering::Relaxed) || env.force_scalar_kernels,
        force_poll_backend: FORCE_POLL.load(Ordering::Relaxed) || env.force_poll_backend,
        force_peel_only: FORCE_PEEL_ONLY.load(Ordering::Relaxed) || env.force_peel_only,
    }
}

/// Programmatically force (or release) the scalar IBLT kernel path.
pub fn set_force_scalar_kernels(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Programmatically force (or release) the `poll(2)` poller backend.
pub fn set_force_poll_backend(force: bool) {
    FORCE_POLL.store(force, Ordering::Relaxed);
}

/// Programmatically force (or release) peel-only IBLT decoding (no rescue).
pub fn set_force_peel_only(force: bool) {
    FORCE_PEEL_ONLY.store(force, Ordering::Relaxed);
}

/// Effective value of [`Options::force_scalar_kernels`].
pub fn scalar_kernels_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) || env_options().force_scalar_kernels
}

/// Effective value of [`Options::force_poll_backend`].
pub fn poll_backend_forced() -> bool {
    FORCE_POLL.load(Ordering::Relaxed) || env_options().force_poll_backend
}

/// Effective value of [`Options::force_peel_only`].
pub fn peel_only_forced() -> bool {
    FORCE_PEEL_ONLY.load(Ordering::Relaxed) || env_options().force_peel_only
}

#[cfg(test)]
mod tests {
    use super::*;

    // The three flags are process-global, and tests in one binary run
    // concurrently — exercise them in a single test so set/restore can't race
    // another test's reads. (The env shim path is covered by the CI legs that
    // run the whole suite under each RECON_* variable.)
    #[test]
    fn programmatic_overrides_round_trip() {
        let baseline = current();

        set(Options {
            force_scalar_kernels: true,
            force_poll_backend: true,
            force_peel_only: true,
        });
        assert!(scalar_kernels_forced());
        assert!(poll_backend_forced());
        assert!(peel_only_forced());
        let all_on = current();
        assert!(all_on.force_scalar_kernels && all_on.force_poll_backend && all_on.force_peel_only);

        // Per-flag setters agree with the bulk setter.
        set_force_scalar_kernels(false);
        assert_eq!(scalar_kernels_forced(), env_options().force_scalar_kernels);

        set(Options::default());
        assert_eq!(current(), baseline);
    }

    #[test]
    fn env_parsing_treats_empty_zero_and_false_as_off() {
        // from_env reads the real environment; with no RECON_* variables set
        // every flag is off, and under a CI leg exactly that leg's flag is on.
        let opts = Options::from_env();
        assert_eq!(opts.force_scalar_kernels, env_flag("RECON_IBLT_FORCE_SCALAR"));
        assert_eq!(opts.force_poll_backend, env_flag("RECON_RUNTIME_FORCE_POLL"));
        assert_eq!(opts.force_peel_only, env_flag("RECON_IBLT_FORCE_PEEL_ONLY"));
    }
}
