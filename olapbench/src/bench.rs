//! Time-boxed micro-measurement: the layer batteries run each public
//! function repeatedly inside a slice of the run's `--seconds` and report
//! the median, so a battery costs the same wall time on a 5k-triple smoke
//! world and on the million-triple one.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A slice of wall time one measurement may spend.
#[derive(Debug, Clone, Copy)]
pub struct Budget(pub Duration);

impl Budget {
    /// Starts the clock.
    pub fn start(self) -> Clock {
        Clock {
            deadline: Instant::now() + self.0,
            reps: 0,
        }
    }

    /// This budget split `n` ways.
    pub fn split(self, n: u32) -> Budget {
        Budget(self.0 / n.max(1))
    }
}

/// Repetition control for one measurement.
#[derive(Debug)]
pub struct Clock {
    deadline: Instant,
    reps: usize,
}

impl Clock {
    /// True while another repetition should run: always for the first
    /// `min`, then until the budget is spent or `max` repetitions ran.
    pub fn again(&mut self, min: usize, max: usize) -> bool {
        let go = self.reps < min || (self.reps < max && Instant::now() < self.deadline);
        self.reps += usize::from(go);
        go
    }
}

/// Median wall time of `f`, in microseconds, over as many repetitions as
/// fit into `budget` (at most 200). A function so slow that one call
/// overruns the budget still gets that one call, so a battery's wall time
/// stays bounded on the million-triple world without leaving a metric
/// empty.
pub fn time_us<T>(budget: Budget, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let mut clock = budget.start();
    while clock.again(1, 200) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&samples)
}

/// Named metric values a battery produces.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Adds one value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Looks a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Appends another battery's values.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}
