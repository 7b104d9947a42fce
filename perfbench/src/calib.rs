//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host, and the speed of
//! those vCPUs changes with what the other tenants do: on the 2-vCPU KVM
//! guest the bounds were set on, the same `suite_cold` pass took 6.4–7.6
//! CPU seconds in one half hour and 10–13.5 in the next, with no steal
//! time booked. CPU time leaves out steal and waiting for a core, but not
//! a core that runs slower. So a run measures the host's slowdown between
//! its units of work — a fixed kernel, run in a child process on as many
//! threads at once as the workload keeps busy, timed by each thread's CPU
//! clock — and divides its CPU times by it. A reported time is CPU time
//! on a host where the kernel takes [`REFERENCE_S`] per thread.

use std::hint::black_box;
use std::process::Command;

use crate::report::{median, thread_cpu_s};

/// Per-thread CPU seconds of one [`kernel`] run at the reference speed.
/// It fixes the unit of every reported time.
pub const REFERENCE_S: f64 = 0.12;

/// Opcodes the kernel dispatches over, and its outer repetitions.
const CODE_LEN: usize = 8192;
const ROUNDS: u64 = 2400;
/// A 4 MiB table, about the size of the VM's own working set, so that
/// other tenants' use of the shared last-level cache slows the kernel as
/// it slows the workloads. (A 128 KiB table, which stays in L2, tracked
/// the suite half as well.)
const TABLE_LEN: usize = 1 << 19;

/// Fixed work shaped like the VM's inner loop: a `match` dispatch over
/// pseudo-random opcodes (unpredictable indirect branches), a small
/// operand stack, data-dependent branches and table loads and stores.
/// Returns the loop's CPU seconds on this thread (building the inputs is
/// not timed) and a value that depends on every step.
fn kernel() -> (f64, u64) {
    let mut x: u64 = 0x9876_5432;
    let code: Vec<u8> = (0..CODE_LEN)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 61) as u8
        })
        .collect();
    let mut table = vec![1u64; TABLE_LEN];
    let mut stack = [0u64; 16];
    let (mut sp, mut acc) = (1usize, 1u64);
    let cpu = thread_cpu_s();
    for round in 0..ROUNDS {
        for (pc, &op) in code.iter().enumerate() {
            match op {
                0 => {
                    stack[sp & 15] = acc;
                    sp += 1;
                }
                1 => {
                    sp = sp.wrapping_sub(1);
                    acc = acc.wrapping_add(stack[sp & 15]);
                }
                2 => acc = acc.wrapping_mul(31).wrapping_add(pc as u64),
                3 => {
                    let i = acc as usize % TABLE_LEN;
                    table[i] = table[i].wrapping_add(round);
                    acc ^= table[(acc as usize >> 7) % TABLE_LEN];
                }
                4 => {
                    acc = if acc & 1 == 0 {
                        acc >> 1
                    } else {
                        acc.wrapping_mul(3).wrapping_add(1)
                    }
                }
                5 => acc = acc.rotate_left(7) ^ round,
                6 => stack[(sp + 3) & 15] ^= acc,
                _ => acc = acc.wrapping_sub(stack[(sp + 1) & 15]),
            }
        }
    }
    let secs = thread_cpu_s() - cpu;
    let digest = acc ^ table.iter().fold(0, |a, &t| a ^ t) ^ stack.iter().fold(0, |a, &t| a ^ t);
    (secs, black_box(digest))
}

/// The kernel run on `threads` threads at once: each thread's loop CPU
/// seconds, averaged. `jprof-perfbench --calibrate <threads>` prints it.
pub fn kernel_cpu_s(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(|| kernel().0))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// The host's current slowdown: [`kernel_cpu_s`] over [`REFERENCE_S`];
/// above 1 the host is slower than the reference. The kernel runs in a
/// child process (this binary, `--calibrate`), so that its table counts
/// neither in the workload's peak RSS nor in its CPU time, and leaves
/// the workload's allocator as it was.
pub fn slowdown(threads: usize) -> f64 {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(["--calibrate", &threads.to_string()])
        .output()
        .expect("calibration process runs");
    let text = String::from_utf8_lossy(&out.stdout);
    let secs: f64 = match (out.status.success(), text.trim().parse()) {
        (true, Ok(secs)) => secs,
        _ => panic!("calibration process failed: {:?} {text}", out.status),
    };
    secs / REFERENCE_S
}

/// Slowdown readings taken between the units of work of one run. A run
/// reports its figures divided by the median reading: single readings
/// swing by ±10 % from one second to the next, while the host's speed
/// moves by half over tens of minutes.
pub struct Speed {
    threads: usize,
    readings: Vec<f64>,
}

impl Speed {
    pub fn new(threads: usize) -> Speed {
        Speed {
            threads,
            readings: Vec::new(),
        }
    }

    /// Take a reading.
    pub fn read(&mut self) {
        self.readings.push(slowdown(self.threads));
    }

    /// The median reading so far (1 before the first).
    pub fn median(&self) -> f64 {
        if self.readings.is_empty() {
            1.0
        } else {
            median(&self.readings)
        }
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        let ((a, x), (b, y)) = (kernel(), kernel());
        assert_eq!(x, y);
        assert!(a > 0.0 && b > 0.0);
        assert!(kernel_cpu_s(2) > 0.0);
    }

    #[test]
    fn a_run_takes_the_median_reading() {
        let mut speed = Speed::new(2);
        assert_eq!(speed.median(), 1.0);
        speed.readings = vec![1.7, 1.2, 1.5];
        assert_eq!(speed.median(), 1.5);
    }
}
