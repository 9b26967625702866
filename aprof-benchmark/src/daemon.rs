//! The daemon under test runs in a child process of its own — this binary
//! re-executed as `aprof-benchmark daemon` — so its peak RSS and allocator
//! state are its own, and the benchmark reaches it only through the socket.

use aprof_serve::{client, ServeConfig, Server, Target};
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon child. Dropping it kills the child and waits for it.
pub struct Daemon {
    child: Child,
    target: Target,
}

impl Daemon {
    /// Starts a daemon serving `spool` on the unix socket `socket`.
    pub fn spawn(spool: &Path, socket: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--spool")
            .arg(spool)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(Daemon { child, target: Target::Unix(socket.to_owned()) })
    }

    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Pings until the daemon answers, returning how long that took.
    pub fn wait_ready(&mut self) -> Result<Duration, String> {
        let start = Instant::now();
        loop {
            match client::ping(&self.target) {
                Ok(()) => return Ok(start.elapsed()),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited before it was ready: {status}"));
                    }
                    if start.elapsed() > READY_TIMEOUT {
                        return Err(format!("daemon not ready after {READY_TIMEOUT:?}: {e}"));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Drains the daemon, waits for it to exit and returns the peak RSS in
    /// MiB it reported on the way out.
    pub fn shutdown(mut self) -> Result<f64, String> {
        client::shutdown(&self.target, false).map_err(|e| format!("daemon shutdown: {e}"))?;
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            stdout.read_to_string(&mut out).map_err(|e| format!("daemon stdout: {e}"))?;
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        out.lines()
            .find_map(|l| l.strip_prefix("peak_rss_kb "))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("daemon did not report its peak RSS: {out:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `daemon` subcommand: `Server::start` with the defaults `aprof-cli
/// serve` uses, obs counters on as there, until a client asks it to shut
/// down; then prints its peak RSS.
pub fn main(args: &[String]) -> i32 {
    let (mut spool, mut socket) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spool" => spool = it.next().cloned(),
            "--socket" => socket = it.next().cloned(),
            other => {
                eprintln!("daemon: unknown option `{other}`");
                return 2;
            }
        }
    }
    let (Some(spool), Some(socket)) = (spool, socket) else {
        eprintln!("daemon: needs --spool DIR --socket PATH");
        return 2;
    };
    aprof_obs::enable();
    let mut cfg = ServeConfig::new(spool);
    cfg.unix = Some(socket.into());
    let served = Server::start(cfg).and_then(|server| {
        for (path, e) in &server.damaged {
            eprintln!("daemon: damaged spool file {}: {e}", path.display());
        }
        server.wait()
    });
    if let Err(e) = served {
        eprintln!("daemon: {e}");
        return 1;
    }
    match crate::peak_rss_kb() {
        Some(kb) => {
            println!("peak_rss_kb {kb}");
            0
        }
        None => {
            eprintln!("daemon: cannot read VmHWM from /proc/self/status");
            1
        }
    }
}
