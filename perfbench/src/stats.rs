//! Small numeric helpers and the `/proc` readers behind the CPU, memory
//! and host-steal accounting. Everything here reads the process from the
//! outside: no counter inside the program under test is consulted.

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide time origin: every timestamp the benchmark records is
/// nanoseconds since this instant, so generator spans and engine-call
/// spans share one clock.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// [`microscopiq_linalg::stats::percentile`] (`p` in 0..=100), or 0.0
/// for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    microscopiq_linalg::stats::percentile(samples, p)
}

/// Samples strictly above the `p`-th percentile — the evidence behind a
/// tail figure.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&v| v > cut).count()
}

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// on every architecture the kernel exports to user space.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in seconds, from a `/proc/.../stat` line. The command
/// name may contain spaces, so fields are counted after its closing
/// parenthesis.
fn stat_cpu_s(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let rest = &text[text.rfind(')').expect("stat line has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the fields start at `state` (field 3): utime is field 14
    // and stime field 15 of the full line.
    let utime: f64 = fields[11].parse().expect("utime");
    let stime: f64 = fields[12].parse().expect("stime");
    (utime + stime) / TICKS_PER_S
}

/// CPU seconds used by the whole process (all threads, live and exited).
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// The calling thread's kernel thread id, so another thread can sample
/// its CPU time at window edges with [`thread_cpu_s`].
pub fn current_tid() -> u32 {
    let text = std::fs::read_to_string("/proc/thread-self/stat").expect("read thread stat");
    text.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .expect("thread id")
}

/// CPU seconds used by one thread of this process.
pub fn thread_cpu_s(tid: u32) -> f64 {
    stat_cpu_s(&format!("/proc/self/task/{tid}/stat"))
}

/// Peak resident set (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read status");
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Host-wide CPU time split from the first line of `/proc/stat`:
/// `(steal ticks, all ticks)`.
pub fn host_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let line = text.lines().next().expect("cpu line");
    // user nice system idle iowait irq softirq steal (guest time is
    // already folded into user/nice).
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().expect("tick count"))
        .collect();
    (vals[7], vals.iter().sum())
}

/// FNV-1a over a token sequence, chained from `h`.
pub fn fnv(mut h: u64, tokens: &[usize]) -> u64 {
    for &t in tokens {
        for b in (t as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(beyond(&v, 50.0), 2);
    }

    #[test]
    fn proc_readers_answer() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s(current_tid()) >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let (steal, all) = host_ticks();
        assert!(all >= steal);
    }
}
