//! Sample statistics, the machine fingerprint and process memory.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile of `values`, linearly interpolated between ranks
/// (0.0 for an empty sample). Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a sample of `n` values has at least ten values beyond its
/// `q`-quantile, the least a reported tail percentile may rest on.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// What the numbers of one result were measured on. Results from
/// different fingerprints are not comparable.
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: &'static str,
    /// Nanoseconds per iteration of a fixed integer loop (median of five).
    pub calib_ns_per_iter: f64,
}

impl Fingerprint {
    pub fn measure() -> Self {
        const ITERS: u64 = 4_000_000;
        let mut trials: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for i in 0..ITERS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
                start.elapsed().as_nanos() as f64 / ITERS as f64
            })
            .collect();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("SERVEBENCH_RUSTC"),
            calib_ns_per_iter: median(&mut trials),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"calib_ns_per_iter\": {}}}",
            self.nproc,
            self.rustc.replace('"', "'"),
            self.calib_ns_per_iter
        )
    }
}

/// CPU time all of this process's threads have used, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`; NaN if the clock cannot be read). Unlike
/// wall time it leaves out the time threads waited for a CPU that another
/// process held.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec (the 64-bit Linux layout)
    // for the whole call, and the clock id is a valid constant.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn process_cpu_time_counts_work_not_sleep() {
        let start = process_cpu_seconds();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_seconds() - start;
        let mut x = black_box(1u64);
        for i in 0..20_000_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(black_box(i));
        }
        black_box(x);
        let worked = process_cpu_seconds() - start - slept;
        assert!(slept < 0.02, "{slept}");
        assert!(worked > 0.0, "{worked}");
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
    }
}
