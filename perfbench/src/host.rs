//! The host a run measured: core counts, toolchain, build profile, peak
//! memory, and the warm-up that precedes every timed window.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Spin on integer work until `d` has passed; returns the iterations done.
fn spin_for(d: Duration) -> u64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut iters = 0u64;
    while start.elapsed() < d {
        for _ in 0..1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iters += 1;
    }
    black_box(x);
    iters
}

/// Spin `threads` threads for `d`; returns their summed iterations.
fn spin_threads(threads: usize, d: Duration) -> u64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(move || spin_for(d))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spin thread"))
            .sum()
    })
}

/// Busy time before every timed window. On small virtual machines a
/// second vCPU may only come online after about a second of load.
pub const WARM_UP: Duration = Duration::from_millis(2000);

/// Keeps two threads busy for [`WARM_UP`], then measures the host's
/// capacity: the 2-thread against the 1-thread spin rate (about 2 when two
/// cores are really available, about 1 when they are not). A low reading
/// is reported, never dropped.
pub fn warm_up() -> f64 {
    spin_threads(2, WARM_UP);
    let probe = Duration::from_millis(150);
    let one = spin_threads(1, probe) as f64;
    let two = spin_threads(2, probe) as f64;
    two / one.max(1.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block printed with every run, as a JSON object.
pub fn host_json(capacity: f64) -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": \"{}\", \"available_parallelism\": {available}, \"rustc\": \"{}\", \
         \"profile\": \"{profile}\", \"capacity\": {capacity}}}",
        command_line("nproc", &[]),
        command_line("rustc", &["--version"]).replace('"', "'"),
    )
}
