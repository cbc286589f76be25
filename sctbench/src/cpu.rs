//! CPU clocks of this process and of the calling thread, the kernel's
//! user/system split of them, and the probe that measures how fast the
//! host runs code right now. Linux only.

use std::collections::BTreeMap;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing but it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time all threads of this process have used.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the process's other threads used between two samples of
/// `(process(), thread())` taken on one thread.
pub fn others(before: (Duration, Duration), after: (Duration, Duration)) -> Duration {
    (after.0.saturating_sub(before.0)).saturating_sub(after.1.saturating_sub(before.1))
}

/// A `(process(), thread())` sample.
pub fn sample() -> (Duration, Duration) {
    (process(), thread())
}

/// User and system CPU ticks in a `/proc/.../stat` file.
fn stat_ticks(path: &str) -> (u64, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the twelfth and stime the thirteenth.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let mut next = || f.next().and_then(|x| x.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// User and system CPU ticks of this process, exited threads included.
pub fn process_ticks() -> (u64, u64) {
    stat_ticks("/proc/self/stat")
}

/// User and system CPU ticks of this process's threads other than the
/// calling one, exited threads included.
pub fn others_ticks() -> (u64, u64) {
    let all = process_ticks();
    let own = stat_ticks("/proc/thread-self/stat");
    (all.0.saturating_sub(own.0), all.1.saturating_sub(own.1))
}

/// User and system ticks between two tick samples.
pub fn ticks_between(before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
    )
}

/// The user share of `(user, system)` ticks; 1 when there are none.
///
/// The kernel samples the split at each scheduler tick, so the share is
/// exact only over many ticks: the benchmark takes it over a whole phase.
pub fn user_share(ticks: (u64, u64)) -> f64 {
    let total = ticks.0 + ticks.1;
    if total == 0 {
        1.0
    } else {
        ticks.0 as f64 / total as f64
    }
}

/// The reference host speed of the bounded CPU metrics: a host on which
/// [`probe`] takes this long.
pub const PROBE_REFERENCE: Duration = Duration::from_millis(10);

/// Thread CPU time of one fixed, benchmark-owned workload — ordered-map
/// inserts and lookups of boxed values, so allocation, comparisons and
/// pointer chasing, the mix the interpreter and the planner do — which
/// measures how fast the host runs this kind of code right now.
pub fn probe() -> Duration {
    let t0 = thread();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % 8192
    };
    let mut map: BTreeMap<u64, Box<u64>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        map.insert(next(), Box::new(i));
        if let Some(v) = map.get(&next()) {
            acc = acc.wrapping_add(**v);
        }
    }
    std::hint::black_box(acc);
    thread().saturating_sub(t0)
}

/// Probe timings taken through a run, at most one per interval.
#[derive(Debug)]
pub struct Probes {
    every: Duration,
    last: Option<std::time::Instant>,
    taken: Vec<Duration>,
}

impl Probes {
    /// Probes at most once per `every`.
    pub fn new(every: Duration) -> Probes {
        Probes {
            every,
            last: None,
            taken: Vec::new(),
        }
    }

    /// Runs [`probe`] when the interval has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= self.every) {
            self.taken.push(probe());
            self.last = Some(std::time::Instant::now());
        }
    }

    /// Median probe time.
    pub fn median(&self) -> Duration {
        let mut t = self.taken.clone();
        t.sort_unstable();
        t.get(t.len() / 2).copied().unwrap_or_default()
    }
}
