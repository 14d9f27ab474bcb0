//! Order statistics, report digests and the micro-timing loop.

use nanowall::PlatformReport;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because that is what judges this benchmark's spread.
///
/// # Panics
///
/// Panics with fewer than two samples, as the Python function raises.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// FNV-1a over the `Debug` rendering of `report`. `Debug` prints every
/// field and every f64 with the shortest digits that round-trip, so two
/// reports share a digest exactly when `==` holds (up to hash collisions),
/// and a field added to `PlatformReport` later is covered without an edit
/// here.
pub fn digest(report: &PlatformReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median over `calls` individually timed calls of `f`, in microseconds —
/// for operations long enough (tens of µs up) that one clock read per call
/// does not distort them.
pub fn per_call_us<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let (r, secs) = timed(&mut f);
            black_box(r);
            secs * 1e6
        })
        .collect();
    median(&samples)
}

/// Samples per micro-timing; the median of these is reported.
const MICRO_SAMPLES: usize = 5;

/// Median nanoseconds per call of `f`: the batch size is grown until one
/// batch lasts `min_sample`, then [`MICRO_SAMPLES`] batches are timed.
pub fn micro_ns<R>(min_sample: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = 1u64;
    let run = |batch: u64, f: &mut dyn FnMut() -> R| {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        t.elapsed()
    };
    loop {
        let dt = run(batch, &mut f);
        if dt >= min_sample {
            break;
        }
        let grow = min_sample.as_secs_f64() / dt.as_secs_f64().max(1e-9) * 1.25;
        batch = ((batch as f64 * grow).ceil() as u64).max(batch + 1);
    }
    let samples: Vec<f64> = (0..MICRO_SAMPLES)
        .map(|_| run(batch, &mut f).as_secs_f64() * 1e9 / batch as f64)
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn micro_ns_grows_with_the_work_it_times() {
        let spin = |n: u64| move || (0..n).fold(0u64, |a, b| black_box(a ^ b));
        let short = micro_ns(Duration::from_millis(2), spin(100));
        let long = micro_ns(Duration::from_millis(2), spin(10_000));
        assert!(long > 10.0 * short, "short {short} ns, long {long} ns");
    }
}
