//! Host-side plumbing: timing, medians, metric and check accumulators, peak
//! memory, and the host fingerprint printed with every result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Instant;

use hoop_bench::json::Json;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now(); // lint:allow(wall-clock)
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-ups per cell: a cell's set-up time is their median. The first one
/// after a cell has freed its memory faults fresh pages in and takes about
/// twice as long as the ones that reuse them.
pub const SETUP_REPS: usize = 3;

/// Runs `build` `reps` times and returns the last result with the median
/// of their times. Each earlier result is dropped before the next build, so
/// peak memory is that of one.
pub fn median_build<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (x, s) = timed(&mut build);
        times.push(s);
        last = Some(x);
    }
    (last.expect("at least one build"), median(&times))
}

/// Low median of `values`: the middle value, or the lower of the two middle
/// values of an even count (0 for an empty slice). Host interference only
/// ever slows a repetition down, so with two repetitions the faster one is
/// the better estimate.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Geometric mean of `values` (0 for an empty iterator).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// 48-bit FNV-1a digest: exact as a JSON number.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h >> 16
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Correctness checks run so far.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Runs `f` as one check that fails if it panics (a trace that runs dry,
    /// a broken invariant), so one bad cell cannot abort the run.
    pub fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(f));
        self.check(out.is_ok(), || format!("{what}: panicked"));
        out.ok()
    }
}

/// One set-associative, least-recently-used level of [`Reference`]'s
/// cache model.
struct Level {
    sets: u64,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
}

/// Tag of an empty way.
const EMPTY: u64 = u64::MAX;

impl Level {
    fn new(sets: u64, ways: usize) -> Level {
        let n = sets as usize * ways;
        Level {
            sets,
            ways,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
        }
    }

    fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
    }

    /// Looks `line` up at time `now`. A hit returns `Ok`; a miss installs
    /// `line` over the least recently used way and returns the line it
    /// evicted, if the way held one.
    fn access(&mut self, line: u64, now: u64) -> Result<(), Option<u64>> {
        let base = ((line ^ (line >> 13)) % self.sets) as usize * self.ways;
        let mut victim = base;
        for w in base..base + self.ways {
            if self.tags[w] == line {
                self.stamps[w] = now;
                return Ok(());
            }
            if self.stamps[w] < self.stamps[victim] {
                victim = w;
            }
        }
        let evicted = std::mem::replace(&mut self.tags[victim], line);
        self.stamps[victim] = now;
        Err((evicted != EMPTY).then_some(evicted))
    }
}

/// Line accesses per reference measurement (55–86 ms on the trajectory
/// host of `README.md`).
const REFERENCE_ACCESSES: u64 = 400_000;

/// Lines the reference stream's random accesses spread over (64 MiB).
const REFERENCE_SPAN: u64 = 1 << 20;

/// Entries of the reference's table of evicted lines (8 MiB).
const REFERENCE_EVICTED: usize = 1 << 20;

/// A fixed stand-in for the simulator's own work, timed just before and
/// just after every cell's timed phases: a three-level set-associative LRU
/// cache model (64 × 8, 1024 × 8 and 16384 × 16 lines) fed a seeded line
/// stream — five accesses in eight continue sequentially, the rest jump
/// anywhere in 64 MiB — that charges a latency per level and files every
/// last-level eviction in a hashed table. Co-tenants on a shared host slow
/// the simulator by tens of percent, at times twofold, for seconds at a
/// time. This kernel tracks that better than a pointer chase, a chase
/// through its own tables or a compute spin do, but the simulator still
/// slows more than it does (see [`Reference::SENSITIVITY`]). The kernel uses
/// nothing from the simulator and never changes with it, so a simulator
/// speed-up still shows in full. Every measurement starts from empty caches
/// and the same seed, so each does the same work.
pub struct Reference {
    levels: [Level; 3],
    evicted: Vec<u64>,
}

impl Reference {
    /// The reference speed times are reported at: a host on which one
    /// measurement takes this long, about the kernel's fastest time on the
    /// trajectory host, so the numbers read as that host's seconds.
    pub const NOMINAL_S: f64 = 0.05;

    /// How much a cell's time moves with the host's load, relative to the
    /// reference's: over many runs the slope of log cell time against log
    /// reference time is 1.2–1.3 on the trajectory host (`README.md`), and
    /// dividing by the reference to this power leaves the smallest spread.
    pub const SENSITIVITY: f64 = 1.3;

    /// `seconds` measured while one reference measurement took `ref_s`,
    /// scaled to the reference speed [`Reference::NOMINAL_S`].
    pub fn at_nominal_speed(seconds: f64, ref_s: f64) -> f64 {
        seconds * (Reference::NOMINAL_S / ref_s).powf(Reference::SENSITIVITY)
    }

    /// Size of the reference's tables in MiB, resident for the whole run.
    pub const MIB: f64 = ((64 * 8 + 1024 * 8 + 16384 * 16) * 2 + REFERENCE_EVICTED) as f64
        * size_of::<u64>() as f64
        / 1048576.0;

    /// Builds the cache model and the eviction table.
    pub fn new() -> Reference {
        Reference {
            levels: [
                Level::new(64, 8),
                Level::new(1024, 8),
                Level::new(16384, 16),
            ],
            evicted: vec![0; REFERENCE_EVICTED],
        }
    }

    /// Seconds of one measurement.
    pub fn time(&mut self) -> f64 {
        for level in &mut self.levels {
            level.clear();
        }
        let [l1, l2, llc] = &mut self.levels;
        let evicted = &mut self.evicted;
        let (latency, s) = timed(|| {
            let (mut x, mut line, mut latency) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
            for now in 1..=REFERENCE_ACCESSES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                line = if x % 8 < 5 {
                    line + 1
                } else {
                    (x >> 20) % REFERENCE_SPAN
                };
                latency += if l1.access(line, now).is_ok() {
                    4
                } else if l2.access(line, now).is_ok() {
                    12
                } else {
                    match llc.access(line, now) {
                        Ok(()) => 40,
                        Err(victim) => {
                            if let Some(v) = victim {
                                let slot = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as usize;
                                evicted[slot] = evicted[slot].wrapping_add(latency);
                            }
                            200
                        }
                    }
                };
            }
            latency
        });
        std::hint::black_box(latency);
        s
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What the numbers were measured on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse --short HEAD` of the working directory's own `.git`
    /// (no search of the directories above it).
    pub git: String,
    /// Seconds of the fixed spin run on one thread.
    pub spin_serial_s: f64,
    /// Seconds of the same spin split over two threads.
    pub spin_parallel_s: f64,
}

/// Iterations of the fingerprint spin (about 0.1 s on one core).
const SPIN_ITERS: u64 = 60_000_000;

fn spin(iters: u64, seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..iters {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

impl Fingerprint {
    /// Probes the host and times the serial and two-thread spins.
    pub fn measure() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map_or_else(
                || "unknown".to_string(),
                |v| v.trim_start_matches([' ', '\t', ':']).to_string(),
            );
        let (_, spin_serial_s) = timed(|| spin(SPIN_ITERS, 1));
        let (_, spin_parallel_s) = timed(|| {
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(SPIN_ITERS / 2, 2));
                let b = s.spawn(|| spin(SPIN_ITERS / 2, 3));
                a.join().expect("spin thread") ^ b.join().expect("spin thread")
            })
        });
        Fingerprint {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            git: command_line(
                "git",
                &["--git-dir", ".git", "rev-parse", "--short", "HEAD"],
            ),
            spin_serial_s,
            spin_parallel_s,
        }
    }

    /// Two-thread speedup over serial, per thread: 1 is perfect scaling,
    /// 0.5 means the second thread bought nothing.
    pub fn parallel_efficiency(&self) -> f64 {
        self.spin_serial_s / (2.0 * self.spin_parallel_s)
    }

    /// The fingerprint as one `host ...` line.
    pub fn line(&self) -> String {
        format!(
            "host available_parallelism={} cpu={:?} rustc={:?} git={} spin_serial_s={:.4} spin_2threads_s={:.4} parallel_efficiency={:.3}",
            self.available_parallelism,
            self.cpu,
            self.rustc,
            self.git,
            self.spin_serial_s,
            self.spin_parallel_s,
            self.parallel_efficiency()
        )
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "available_parallelism",
                Json::UInt(self.available_parallelism as u64),
            ),
            ("cpu", Json::Str(self.cpu.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git", Json::Str(self.git.clone())),
            ("spin_serial_s", Json::Num(self.spin_serial_s)),
            ("spin_2threads_s", Json::Num(self.spin_parallel_s)),
            ("parallel_efficiency", Json::Num(self.parallel_efficiency())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn panics_count_as_failed_checks() {
        let mut checks = Checks::default();
        assert_eq!(checks.guard("ok", || 1), Some(1));
        assert_eq!(checks.guard("boom", || -> u8 { panic!("boom") }), None);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
