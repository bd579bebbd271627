//! Process-wide graceful-stop flag and minimal signal plumbing.
//!
//! Both long-running binaries (`lab` and `serve`) stop the same way: a
//! SIGINT/SIGTERM handler flips one global [`AtomicBool`] and the work
//! loops poll it at their natural cell/request boundaries — no partial
//! writes, no torn ledgers, exit code 0. The handler does nothing but
//! the (async-signal-safe) atomic store; everything interesting happens
//! on ordinary threads.
//!
//! The signal registration is a direct `signal(2)` FFI call rather than
//! a `libc` dependency: this workspace vendors every third-party crate,
//! and two constants plus one extern function do not justify a vendor
//! tree. glibc's `signal()` installs BSD semantics (`SA_RESTART`), so
//! blocking accepts/reads are *restarted* after the handler runs —
//! which is why the server polls the flag with nonblocking accepts and
//! read timeouts instead of waiting for an `EINTR` that may never
//! surface.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide stop flag.
static STOP: AtomicBool = AtomicBool::new(false);

/// The flag itself, for APIs that take `&AtomicBool` (e.g.
/// `soma_bench::run_cells`, which the `lab` binary hands it).
pub fn stop_flag() -> &'static AtomicBool {
    &STOP
}

/// Whether a stop has been requested.
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// Raises the flag: the whole of the signal handler's work (one
/// atomic store, which is async-signal-safe).
fn request_stop() {
    STOP.store(true, Ordering::SeqCst);
}

/// Clears the flag, so independent test servers in one process do not
/// observe each other's stops.
#[cfg(test)]
fn reset_stop_for_tests() {
    STOP.store(false, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    request_stop();
}

/// Routes SIGINT and SIGTERM to the stop flag. Idempotent; call once at
/// binary start-up. On non-unix targets this is a no-op.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        type Handler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: Handler) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_stop_for_tests();
        assert!(!stop_requested());
        request_stop();
        assert!(stop_requested());
        assert!(stop_flag().load(Ordering::SeqCst));
        reset_stop_for_tests();
        assert!(!stop_requested());
    }
}
