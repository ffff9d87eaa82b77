//! The daemons under test, run as child processes of the release `act`
//! binary on free loopback ports.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `act serve` or `act gate`. Dropping it kills the process
/// and waits for it, so no daemon outlives the benchmark.
pub struct Daemon {
    child: Option<Child>,
    /// `host:port` the daemon listens on.
    pub addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start `act <args>` and wait for its `listening on tcp://ADDR` line.
    pub fn spawn(act: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(act)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", act.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("act {} exited before listening", args.join(" ")));
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.split("listening on tcp://").nth(1) {
                let addr = addr.trim().to_string();
                return Ok(Daemon { child: Some(child), addr, _stdout: stdout });
            }
        }
    }

    /// Start `act serve` with `workers` workers over a corpus at `corpus`.
    pub fn serve(act: &Path, workers: usize, corpus: &Path) -> Result<Daemon, String> {
        let corpus = corpus.to_str().ok_or("corpus path is not UTF-8")?;
        let workers = workers.to_string();
        Daemon::spawn(
            act,
            &["serve", "--addr", "127.0.0.1:0", "--workers", &workers, "--corpus", corpus],
        )
    }

    /// Start `act gate` in front of `backends`.
    pub fn gate(act: &Path, workers: usize, backends: &[&Daemon]) -> Result<Daemon, String> {
        let list: Vec<&str> = backends.iter().map(|d| d.addr.as_str()).collect();
        let list = list.join(",");
        let workers = workers.to_string();
        Daemon::spawn(
            act,
            &["gate", "--listen", "127.0.0.1:0", "--workers", &workers, "--backends", &list],
        )
    }

    /// Peak resident set (`VmHWM`) in KiB, 0 if unreadable.
    pub fn peak_rss_kb(&self) -> u64 {
        self.child.as_ref().map_or(0, |c| vm_hwm_kb(&format!("/proc/{}/status", c.id())))
    }

    /// CPU time (user + system, all threads) used so far, in seconds.
    pub fn cpu_s(&self) -> f64 {
        self.child.as_ref().map_or(0.0, |c| cpu_s(c.id()))
    }

    /// Ask the daemon to exit with SHUTDOWN and wait for it; kill it if
    /// it does not answer or does not exit within ten seconds. Returns
    /// whether it shut down cleanly.
    pub fn shutdown(mut self) -> bool {
        let Some(mut child) = self.child.take() else { return true };
        let asked = act_client::Client::builder()
            .addr(self.addr.clone())
            .timeouts(Duration::from_secs(5), Duration::from_secs(10))
            .build()
            .and_then(|c| c.shutdown())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            if let Ok(Some(status)) = child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.kill();
        let _ = child.wait();
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// User + system CPU time of process `pid` in seconds (`/proc/PID/stat`,
/// in clock ticks of 1/100 s), 0 if unreadable.
pub fn cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0.0 };
    // The fields after the parenthesised command name; utime and stime
    // are the 14th and 15th fields of the line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of a `/proc/.../status` file in KiB, 0 if unreadable.
pub fn vm_hwm_kb(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
