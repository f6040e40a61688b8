//! Pieces the workloads share: run budgets, sample sets, run results.

use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// How long a workload's timed loop runs.
pub struct Budget<'a> {
    pub seconds: f64,
    /// Iterations to make however long they take: the cold one plus at
    /// least one warm one.
    pub min_iters: usize,
    /// Set-ups to time between iterations, outside their walls.
    pub setups: Option<&'a mut Setups>,
}

impl Budget<'_> {
    pub fn new(seconds: f64, min_iters: usize) -> Self {
        Budget {
            seconds,
            min_iters,
            setups: None,
        }
    }

    /// Whether to start another iteration after `done` of them. Between
    /// iterations it first times a set-up whose turn has come.
    pub fn more(&mut self, start: Instant, done: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        let more = done < self.min_iters || elapsed < self.seconds;
        if let Some(setups) = self.setups.as_deref_mut().filter(|_| more && done > 0) {
            setups.between(elapsed, self.seconds);
        }
        more
    }

    /// The workload's peak resident set, in MB: read before the first
    /// repeated set-up, which holds a second copy of the inputs, or now
    /// when none ran. The first iteration reaches the peak; later ones
    /// reuse its memory.
    pub fn peak_rss_mb(&self) -> f64 {
        self.setups
            .as_ref()
            .and_then(|s| s.rss_before_reps)
            .unwrap_or_else(peak_rss_mb)
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Samples of one quantity, split into the first iteration's (the cold
/// sample) and the rest (warm).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub cold: Vec<f64>,
    pub warm: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, iteration: usize, value: f64) {
        if iteration == 0 {
            self.cold.push(value);
        } else {
            self.warm.push(value);
        }
    }

    /// The warm median; the cold one when nothing ran warm.
    pub fn median(&self) -> f64 {
        stats::median(&self.warm)
            .or_else(|| stats::median(&self.cold))
            .unwrap_or(f64::NAN)
    }

    /// The warm p90, or why it cannot be read.
    pub fn p90(&self, unit: &str) -> String {
        stats::percentile(&self.warm, 90.0)
            .map_or_else(|e| format!("n/a ({e})"), |v| format!("{v:.3} {unit}"))
    }

    /// Warm median and p90 with the sample count, then the cold median.
    pub fn describe(&self, unit: &str) -> String {
        let p90 = self.p90(unit);
        let cold = stats::median(&self.cold).map_or(f64::NAN, |v| v);
        format!(
            "warm p50 {:.3} {unit}, p90 {p90} (n={}); cold p50 {cold:.3} {unit} (n={})",
            self.median(),
            self.warm.len(),
            self.cold.len()
        )
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    /// Exchanges per second of each iteration or pass.
    pub throughput: Samples,
    /// Report latencies in milliseconds.
    pub report_ms: Samples,
    /// Wall seconds of each iteration or pass.
    pub iter_s: Samples,
    /// Peak resident set of the timed loop ([`Budget::peak_rss_mb`]),
    /// before any oracle work.
    pub peak_rss_mb: f64,
    /// Per-layer metrics of the workload's home layers.
    pub layers: Vec<Metric>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOut {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Exchanges per second over all warm iterations together (the
    /// cold one when nothing ran warm): total exchanges over total wall,
    /// steadier than a median of a few iteration rates.
    pub fn warm_rate(&self) -> f64 {
        let (rates, walls) = if self.iter_s.warm.is_empty() {
            (&self.throughput.cold, &self.iter_s.cold)
        } else {
            (&self.throughput.warm, &self.iter_s.warm)
        };
        let exchanges: f64 = rates.iter().zip(walls).map(|(r, w)| r * w).sum();
        exchanges / walls.iter().sum::<f64>()
    }

    /// Folds another run's operations, layers and notes into this one.
    pub fn absorb(&mut self, other: RunOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.layers.extend(other.layers);
        self.notes.extend(other.notes);
    }
}

/// The set-up times of one run. The first set-up builds the workload;
/// the others are spread evenly over the timed loop, between iterations.
/// A set-up lasts tens to hundreds of milliseconds, while contention from
/// the rest of the machine comes and goes over seconds, so back-to-back
/// set-ups would all land in one quiet or one busy spell.
pub struct Setups {
    make: Box<dyn Fn()>,
    reps: usize,
    walls: Vec<f64>,
    rss_before_reps: Option<f64>,
}

impl Setups {
    /// Builds the workload with `make` under span `name`; `reps` set-ups
    /// in all are to be timed.
    pub fn first<T: 'static>(
        reps: usize,
        tracer: &Tracer,
        name: &'static str,
        make: impl Fn() -> T + 'static,
    ) -> (T, Setups) {
        let (v, wall) = tracer.time(name, 0, 0, |_| make());
        let setups = Setups {
            make: Box::new(move || drop(std::hint::black_box(make()))),
            reps: reps.max(1),
            walls: vec![wall.as_secs_f64()],
            rss_before_reps: None,
        };
        (v, setups)
    }

    /// Times one more set-up, and drops it, once `elapsed` seconds of a
    /// `seconds`-long loop have reached its turn.
    fn between(&mut self, elapsed: f64, seconds: f64) {
        let due = self.walls.len() as f64 * seconds / self.reps as f64;
        if self.walls.len() < self.reps && elapsed >= due {
            self.rss_before_reps.get_or_insert_with(peak_rss_mb);
            let t = Instant::now();
            (self.make)();
            self.walls.push(t.elapsed().as_secs_f64());
        }
    }

    /// The median set-up time: `setup_s`.
    pub fn median(&self) -> f64 {
        stats::median(&self.walls).expect("the workload was set up once")
    }

    pub fn describe(&self) -> String {
        format!(
            "median {:.4} s of {} set-ups",
            self.median(),
            self.walls.len()
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
