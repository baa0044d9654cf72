//! Small helpers: order statistics, a stable digest, peak memory and
//! the profiler's record stream.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use rip_telemetry::{PhaseSample, ProfileRecord};

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is not positive (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// FNV-1a over `bytes`, folded into `h`. Stable across platforms and
/// toolchains, unlike `DefaultHasher`, so digests compare across runs
/// and commits.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[repr(C)]
struct RUsage {
    /// `ru_utime` and `ru_stime` (two `timeval`s).
    times: [i64; 4],
    /// `ru_maxrss` first, then the thirteen other `long` counters.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
/// Linux reports `ru_maxrss` in KiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `RUsage` matches the LP64 Linux `struct rusage` layout
    // (four `long`s of `timeval` followed by fourteen `long`s), the
    // pointer is to a live, writable value, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.longs[0] as f64 * 1024.0 / 1e6
}

/// A clonable `Write` over a shared buffer: a profile hub's record
/// stream, read back after the run.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("profile buffer lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .map_err(|_| std::io::Error::other("profile buffer lock poisoned"))?
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Profile records summed over the sources `keep` accepts: the wall
/// time the records' windows cover and per-phase nanoseconds and span
/// counts (as recorded, before any sampling scale-up).
#[derive(Debug, Default)]
pub struct ProfileTotals {
    pub wall_ns: u64,
    pub phases: BTreeMap<String, PhaseSample>,
}

impl ProfileTotals {
    /// Parse a hub's JSONL record stream.
    pub fn parse(jsonl: &[u8], keep: impl Fn(&str) -> bool) -> Self {
        let mut t = ProfileTotals::default();
        let text = String::from_utf8_lossy(jsonl);
        for line in text.lines() {
            let Ok(v) = serde_json::parse(line) else {
                continue;
            };
            let data = v
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "data"))
                .map(|(_, d)| d.clone());
            let Some(Ok(rec)) = data.map(serde_json::from_value::<ProfileRecord>) else {
                continue;
            };
            if !keep(&rec.source) {
                continue;
            }
            t.wall_ns += rec.wall_ns;
            for (name, s) in rec.phases {
                let e = t.phases.entry(name).or_default();
                e.ns += s.ns;
                e.count += s.count;
            }
        }
        t
    }

    pub fn ns(&self, phase: &str) -> u64 {
        self.phases.get(phase).map_or(0, |s| s.ns)
    }

    pub fn count(&self, phase: &str) -> u64 {
        self.phases.get(phase).map_or(0, |s| s.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn profile_totals_sum_kept_sources() {
        let text = "{\"record\":\"profile\",\"data\":{\"source\":\"plane00\",\"epoch\":0,\"wall_ns\":100,\"phases\":{\"kernel_pop\":{\"ns\":5,\"count\":1}}}}\n\
            {\"record\":\"profile\",\"data\":{\"source\":\"w00/plane00\",\"epoch\":0,\"wall_ns\":100,\"phases\":{\"kernel_pop\":{\"ns\":5,\"count\":1}}}}\n\
            {\"record\":\"profile\",\"data\":{\"source\":\"plane01\",\"epoch\":0,\"wall_ns\":50,\"phases\":{\"kernel_pop\":{\"ns\":2,\"count\":3}}}}\n";
        let t = ProfileTotals::parse(text.as_bytes(), |s| s.starts_with("plane"));
        assert_eq!(t.wall_ns, 150);
        assert_eq!((t.ns("kernel_pop"), t.count("kernel_pop")), (7, 4));
    }
}
