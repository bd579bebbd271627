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
//! and a few constants plus two extern functions do not justify a
//! vendor tree. glibc's `signal()` installs BSD semantics
//! (`SA_RESTART`), so blocking accepts/reads are *restarted* after the
//! handler runs — which is why the server re-checks the flag between
//! bounded waits (a `poll(2)` on the listener, read timeouts on
//! connections) instead of waiting for an `EINTR` that may never
//! surface.

use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(unix)]
use std::time::Duration;

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

/// `struct pollfd` of `poll(2)`.
#[cfg(unix)]
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
#[cfg(all(unix, any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_ulong;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
type Nfds = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

/// Routes SIGINT and SIGTERM to the stop flag. Idempotent; call once at
/// binary start-up. On non-unix targets this is a no-op.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Blocks until `fd` is readable (for a listening socket: a connection
/// is waiting) or `timeout` has passed. A signal or an error ends the
/// wait early; callers re-check their state after every wait, so this
/// only bounds how long they sleep.
#[cfg(unix)]
pub(crate) fn wait_readable(fd: i32, timeout: Duration) {
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: one valid `pollfd`, borrowed for the whole call.
    unsafe {
        poll(&mut pfd, 1, ms);
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
