//! Statistics helpers and the result line the benchmark ends with.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`: the smallest
/// sample with at least `p` % of the samples at or below it. `0.0` for an
/// empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// CPU seconds this process has used so far: user and system time of
/// every thread, live or exited (`CLOCK_PROCESS_CPUTIME_ID`). On a guest
/// kernel with steal-time accounting this leaves out the time the host
/// gave the benchmark's vCPUs to other tenants, which wall time counts.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU seconds the calling thread has used so far
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `VmHWM` of this process in MiB: the workload's own peak resident set.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Is `name` a legal metric name: 1..=64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operation tally: every attempted operation, and those that failed
/// (a wrong output, a non-200 response, a transport error, a quarantined
/// cell).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`
/// (name, value, unit).
pub fn result_line(correct: bool, tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_right_sample() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50.0), 5.0);
        assert_eq!(nearest_rank(&ten, 90.0), 9.0);
        assert_eq!(nearest_rank(&ten, 91.0), 10.0);
        assert_eq!(nearest_rank(&ten, 100.0), 10.0);
        assert_eq!(nearest_rank(&ten, 0.0), 1.0);
        let shuffled = [3.0, 1.0, 2.0];
        assert_eq!(nearest_rank(&shuffled, 50.0), 2.0);
        assert_eq!(nearest_rank(&shuffled, 90.0), 3.0);
        assert_eq!(nearest_rank(&[7.5], 90.0), 7.5);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_cpu_clock_counts_this_process_s_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = process_cpu_s() - before;
        assert!((0.02..1.0).contains(&spent), "{spent}");
        // Sleeping costs this thread no CPU. (Other tests run in this
        // process at the same time, so the process clock moves on.)
        let before = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_s() - before < 0.01);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("serve.http.parse_us"));
        assert!(valid_name("p50_us"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_shape() {
        let m = [("rps", 12.5, "1/s"), ("bad", f64::NAN, "count")];
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"rps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
