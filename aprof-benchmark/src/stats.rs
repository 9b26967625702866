//! Seeded randomness, percentiles and open-loop accounting.

use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always draws the same programs, sizes, orders and schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of draws under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The tail percentile a run of `n` samples supports: the highest of p99,
/// p90 and p75 with at least ten samples beyond its rank, else the median.
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.9, 0.75].into_iter().find(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= 10).unwrap_or(0.5)
}

/// When each request of an open loop is due, as offsets from the loop's
/// start: request `i` falls uniformly at random inside its own `1/rate`
/// slot. The count and span are fixed by `rate` and `count`, and the
/// random phase keeps requests from locking onto any periodic timer of the
/// system under test.
pub fn open_loop_schedule(rng: &mut Rng, rate: f64, count: usize) -> Vec<Duration> {
    (0..count).map(|i| Duration::from_secs_f64((i as f64 + rng.unit()) / rate)).collect()
}

/// The clock an open loop runs against; a trait so tests can drive the
/// accounting with simulated time.
pub trait Clock {
    /// Time since the loop started.
    fn now(&mut self) -> Duration;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn sleep_until(&mut self, t: Duration);
}

/// Real time since `self.0`.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.0.elapsed();
        if t > now {
            thread::sleep(t - now);
        }
    }
}

/// One open-loop request: its latency counted from when it was due, and
/// how late the generator started it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub latency: Duration,
    pub late: Duration,
    pub ok: bool,
}

/// Issues request `i` at `dues[i]`, or as soon as the previous request
/// returns if that is later. Timing from the due time, not from the send,
/// charges a stall to every request queued behind it.
pub fn drive_open_loop<C: Clock>(
    dues: &[Duration],
    clock: &mut C,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        let started = clock.now();
        let ok = op(i);
        let finished = clock.now();
        samples.push(Sample { latency: finished.saturating_sub(due), late: started.saturating_sub(due), ok });
    }
    samples
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        // 999 samples: p99 has rank 990, leaving only 9 beyond it.
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn schedule_is_seeded_ordered_and_spans_count_over_rate() {
        let a = open_loop_schedule(&mut Rng::new(7, 1), 25.0, 250);
        let b = open_loop_schedule(&mut Rng::new(7, 1), 25.0, 250);
        let c = open_loop_schedule(&mut Rng::new(8, 1), 25.0, 250);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().enumerate().all(|(i, d)| {
            let slot = d.as_secs_f64() * 25.0;
            slot >= i as f64 && slot < i as f64 + 1.0
        }));
    }

    struct FakeClock<'a>(&'a Cell<Duration>);

    impl Clock for FakeClock<'_> {
        fn now(&mut self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn stalls_are_charged_to_the_requests_behind_them() {
        let t = Cell::new(Duration::ZERO);
        let ms = Duration::from_millis;
        let dues = [ms(0), ms(10), ms(20), ms(40)];
        let costs = [ms(25), ms(1), ms(1), ms(2)];
        let samples = drive_open_loop(&dues, &mut FakeClock(&t), |i| {
            t.set(t.get() + costs[i]);
            i != 2
        });
        let lat: Vec<_> = samples.iter().map(|s| s.latency).collect();
        let late: Vec<_> = samples.iter().map(|s| s.late).collect();
        // A closed loop would time requests 1 and 2 at 1 ms each.
        assert_eq!(lat, [ms(25), ms(16), ms(7), ms(2)]);
        assert_eq!(late, [ms(0), ms(15), ms(6), ms(0)]);
        assert_eq!(samples.iter().filter(|s| !s.ok).count(), 1);
        assert_eq!(t.get(), ms(42));
    }

    #[test]
    fn rng_is_deterministic_and_streams_differ() {
        let mut a = Rng::new(1, 0);
        let mut b = Rng::new(1, 0);
        let mut c = Rng::new(1, 1);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        let mut v: Vec<u32> = (0..10).collect();
        a.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }
}
