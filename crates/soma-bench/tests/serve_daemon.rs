//! The `serve` binary under a file-descriptor limit: a daemon that runs
//! out of descriptors while clients pile up counts each failed accept
//! in `stats` and keeps accepting once descriptors free up, instead of
//! closing its listener while the process stays up.

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use soma_serve::{Client, Listen};

/// The daemon process, killed if the test fails before stopping it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("scratch dir");
    path
}

#[test]
fn a_failed_accept_is_counted_and_accepting_goes_on() {
    let dir = tmp("serve-fd-limit");
    let sock = dir.join("d.sock");
    let listen = Listen::Unix(sock.clone());
    // 24 descriptors: the three standard streams, the listener and
    // room for about ten connections of two descriptors each.
    let mut daemon = Daemon(
        Command::new("sh")
            .args(["-c", "ulimit -n 24; exec \"$0\" --listen \"$1\" --ledger \"$2\""])
            .arg(env!("CARGO_BIN_EXE_serve"))
            .arg(listen.to_string())
            .arg(dir.join("d.ledger"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );
    let started = Instant::now();
    while Client::connect(&listen).and_then(|mut c| c.ping()).is_err() {
        assert!(started.elapsed() < Duration::from_secs(30), "serve did not answer ping");
        assert!(daemon.0.try_wait().expect("poll serve").is_none(), "serve exited at start-up");
        std::thread::sleep(Duration::from_millis(10));
    }

    // More connections than descriptors, held for a second: the
    // kernel queues the ones the daemon cannot accept.
    let held: Vec<UnixStream> =
        (0..40).map(|_| UnixStream::connect(&sock).expect("connect")).collect();
    std::thread::sleep(Duration::from_secs(1));
    drop(held);

    let mut client = Client::connect(&listen).expect("the daemon still listens");
    client.ping().expect("ping after the descriptors freed up");
    let stats = client.stats().expect("stats");
    assert!(stats.accept_failed > 0, "no failed accept counted: {stats:?}");
    drop(client);

    let term = Command::new("kill").args(["-TERM", &daemon.0.id().to_string()]).status();
    assert!(term.expect("run kill").success());
    assert!(daemon.0.wait().expect("reap serve").success(), "serve exits 0 on SIGTERM");
}
