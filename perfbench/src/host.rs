//! Host readings: peak resident memory, load average, and a fixed
//! memory-gather calibration kernel. The calibration and load readings are
//! printed as a record of host noise only; no metric is rescaled by them.

use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The first three fields of `/proc/loadavg`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".into())
}

/// Entries of the calibration table: 4 MiB of `u32`.
const PROBE_LEN: usize = 1 << 20;
/// Dependent gathers per timing.
const PROBE_READS: usize = 1 << 18;

/// Median of three timings of a dependent random gather over a fixed
/// 4 MiB table, in milliseconds. The table and the chain are the same on
/// every run, so the reading moves only with the host.
pub fn mem_probe_ms() -> f64 {
    // A single cycle through the table: i → (i·a + c) mod 2^20 with a ≡ 1
    // (mod 4) and odd c is a full-period LCG, so every read depends on the
    // one before and no two reads in a chain of < 2^20 hit the same entry.
    let table: Vec<u32> = (0..PROBE_LEN as u32)
        .map(|i| i.wrapping_mul(0x0019_660D).wrapping_add(0x3C6E_F35F) & (PROBE_LEN as u32 - 1))
        .collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut i = 0u32;
            for _ in 0..PROBE_READS {
                i = table[i as usize];
            }
            std::hint::black_box(i);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// One host reading, taken at the start and at the end of a run.
pub struct HostReading {
    pub loadavg: String,
    pub mem_probe_ms: f64,
}

impl HostReading {
    pub fn take() -> Self {
        HostReading {
            loadavg: loadavg(),
            mem_probe_ms: mem_probe_ms(),
        }
    }
}
