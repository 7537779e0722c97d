//! Measurement primitives shared by every workload: a monotonic
//! nanosecond clock, spans with self-time accounting, order statistics,
//! and peak-memory readings from `/proc`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Nanoseconds since a fixed epoch. Every timestamp of one process comes
/// from the same epoch, so spans from different threads line up.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Re-executions per attributed call: the fastest counts, so a host
/// hiccup during re-execution is not charged to the layer, and whatever
/// the layer costs in place beyond its undisturbed cost stays in "other".
pub const REEXEC_REPEATS: usize = 3;

/// The shortest of [`REEXEC_REPEATS`] timed runs of `f`.
pub fn best_of(clock: &Clock, mut f: impl FnMut()) -> u64 {
    (0..REEXEC_REPEATS)
        .map(|_| {
            let t = clock.now();
            f();
            clock.now() - t
        })
        .min()
        .expect("at least one run")
}

/// One traced interval. Spans that belong to one message share the
/// message id; `parent` names the enclosing span kind (with the same id),
/// so self time is the span's duration minus what its children cover.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
    pub id: u64,
}

/// Total self time per span name: each span's duration minus the part
/// of it covered by its children (spans naming it as parent, same id).
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<(&'static str, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry((parent, span.id))
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for span in spans {
        let covered = children
            .get(&(span.name, span.id))
            .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
        *totals.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - covered;
    }
    totals
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Append spans as JSON lines, one object per span, tagged with the
/// workload that produced them.
pub fn append_spans(path: &str, workload: &str, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for span in spans {
        let parent = span
            .parent
            .map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            span.name, span.start_ns, span.end_ns, span.id
        )
        .map_err(|e| format!("write {path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("write {path}: {e}"))
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` (NaN for none).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of an ascending slice that still has at least
/// ten samples beyond it: `(percentile, value)`, or `None` below eleven
/// samples.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

extern "C" {
    /// glibc: return free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
    /// glibc: the CPU mask of thread `pid` (0: the caller).
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    /// glibc: restrict thread `pid` (0: the caller) to the CPUs in `mask`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The CPUs this process may run on, ascending; empty if the kernel
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpu`. Best effort: where the kernel
/// refuses, the thread keeps running wherever the scheduler puts it.
pub fn pin_thread(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Where one round's threads run: its busiest thread (the worker, or the
/// only thread) on `lead`, the serving workloads' producer on `other`.
///
/// On the development VM each virtual CPU slows down by up to half, in
/// phases of seconds to minutes, independently of the other CPU (a
/// busy neighbour on the same physical core, by all appearances). Rounds
/// take turns leading on each allowed CPU, so the fastest round of a run
/// is slowed only when every CPU is.
#[derive(Debug, Clone, Copy)]
pub struct Cpus {
    pub lead: usize,
    pub other: usize,
}

impl Cpus {
    /// The placement of the `index`-th round of a kind; `None` when the
    /// allowed CPUs are unknown.
    pub fn for_round(allowed: &[usize], index: usize) -> Option<Cpus> {
        let at = |k: usize| allowed.get(k % allowed.len().max(1)).copied();
        Some(Cpus {
            lead: at(index)?,
            other: at(index + 1)?,
        })
    }
}

/// glibc's `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Keep freed memory in the heap instead of handing it back to the
/// kernel, and serve allocations of up to 32 MiB from the heap, so that a
/// timed round reuses pages earlier rounds touched, as a long-running
/// server does. Otherwise every `bulk-1024` round faulted about 10k pages
/// in afresh, and what a fault costs depends on the host's memory: the
/// development VM hands free pages back to its host.
pub fn keep_heap() {
    // SAFETY: mallopt takes no pointers; it only changes thresholds the
    // allocator consults on later calls.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

/// Reset the process's peak resident set to its current size and return
/// that size in KiB; [`peak_growth_mib`] later reads the growth since.
/// Free heap pages are returned to the kernel first, so a round that
/// reuses memory an earlier round freed still shows its footprint.
pub fn reset_peak_rss() -> Result<u64, String> {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS via /proc/self/clear_refs: {e}"))?;
    status_kb("VmRSS")
}

/// Growth of the peak resident set since `base_kib`, in MiB.
pub fn peak_growth_mib(base_kib: u64) -> Result<f64, String> {
    Ok(status_kb("VmHWM")?.saturating_sub(base_kib) as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            Span {
                name: "msg",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 7,
            },
            Span {
                name: "wait",
                start_ns: 10,
                end_ns: 40,
                parent: Some("msg"),
                id: 7,
            },
            Span {
                name: "wait",
                start_ns: 30,
                end_ns: 50,
                parent: Some("msg"),
                id: 7,
            },
            Span {
                name: "wait",
                start_ns: 0,
                end_ns: 90,
                parent: Some("msg"),
                id: 8,
            },
        ];
        let totals = self_time_ns(&spans);
        assert_eq!(totals["msg"], 60);
        assert_eq!(totals["wait"], 30 + 20 + 90);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let sorted: Vec<u64> = (0..100).collect();
        assert_eq!(supported_tail(&sorted), Some((90.0, 89)));
        assert_eq!(supported_tail(&sorted[..10]), None);
        assert_eq!(percentile(&sorted, 50.0), 49);
        let values: Vec<f64> = (1..=23).rev().map(f64::from).collect();
        assert_eq!(percentile_of(&values, 90.0), 21.0);
        assert_eq!(percentile_of(&[2.5], 90.0), 2.5);
        assert!(percentile_of(&[], 90.0).is_nan());
    }
}
