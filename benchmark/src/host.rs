//! Host-side counters: allocations, process CPU time, `/proc` readings.
//!
//! All `unsafe` of the benchmark lives here: the counting allocator (a
//! `GlobalAlloc` impl is an `unsafe trait`) and the one libc clock call that
//! safe Rust has no operation for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two counters that only move while
/// [`count_allocations`] is on. Timed repetitions run with counting off, where
/// the only added work per allocation is one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is counted as one allocation of the added bytes.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off; turning it on resets the counters.
pub fn count_allocations(on: bool) {
    if on {
        ALLOC_COUNT.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
    }
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted since counting was last turned on.
pub fn allocations() -> (u64, u64) {
    (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process (all threads, exited ones included)
/// has consumed, at nanosecond resolution. `/proc/self/stat` holds the same
/// total in 10 ms ticks, too coarse for a sub-second repetition.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// System CPU seconds and minor page faults from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Kernel-mode CPU seconds (10 ms resolution).
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Reads [`ProcStat`]; zeros where `/proc` is unavailable.
pub fn proc_stat() -> ProcStat {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return ProcStat::default();
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, minflt field 10, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    ProcStat { sys_s: field(15) as f64 / TICKS_PER_S, minor_faults: field(10) }
}

/// Seconds the hypervisor ran something else while a virtual CPU of this
/// machine had work to do (`steal` in the first line of `/proc/stat`, all
/// CPUs, 10 ms resolution); 0 where it is not reported.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal = stat.lines().next().and_then(|cpu| cpu.split_whitespace().nth(8));
    steal.and_then(|t| t.parse::<f64>().ok()).map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Wall-clock, process CPU and machine-wide steal seconds of one interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Interval {
    /// Runs `f` and measures the interval it took.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Interval) {
        let (steal, cpu, start) = (steal_s(), process_cpu_s(), std::time::Instant::now());
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        (out, Interval { wall_s, cpu_s: process_cpu_s() - cpu, steal_s: steal_s() - steal })
    }

    /// Wall-clock seconds less the time the hypervisor had taken the CPU
    /// away. Steal is counted machine-wide, so no more is taken off than the
    /// process was off the CPU for (`wall − cpu`; nothing when threads overlap
    /// and CPU time exceeds wall-clock).
    pub fn wall_less_steal_s(&self) -> f64 {
        self.wall_s - self.steal_s.min((self.wall_s - self.cpu_s).max(0.0))
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host parallelism (1 when it cannot be determined).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The three load averages of `/proc/loadavg`, as text.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_comes_off_wall_clock_only_as_far_as_the_process_was_off_cpu() {
        let interval = |wall_s, cpu_s, steal_s| Interval { wall_s, cpu_s, steal_s };
        // All of the steal fits in the off-CPU gap.
        assert_eq!(interval(1.0, 0.8, 0.125).wall_less_steal_s(), 0.875);
        // Machine-wide steal larger than the gap: only the gap comes off.
        assert_eq!(interval(1.0, 0.9, 0.5).wall_less_steal_s(), 0.9);
        // Overlapping threads (CPU above wall-clock): nothing comes off.
        assert_eq!(interval(1.0, 1.5, 0.25).wall_less_steal_s(), 1.0);
        assert_eq!(interval(1.0, 0.5, 0.0).wall_less_steal_s(), 1.0);
    }

    #[test]
    fn measure_reports_a_busy_interval() {
        let (sum, took) = Interval::measure(|| (0..2_000_000u64).fold(0, |a, x| a ^ x));
        assert!(std::hint::black_box(sum) < u64::MAX);
        assert!(took.wall_s > 0.0 && took.cpu_s >= 0.0 && took.steal_s >= 0.0);
    }
}
