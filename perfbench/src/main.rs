//! `perfbench`: the end-to-end and per-layer benchmark of the τ stack.
//!
//! ```text
//! perfbench --workload <oracle|service|distributed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one process running a closed loop with a single
//! caller that waits for every reply. Inputs come from `--seed` only. The
//! untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) records spans around the calls into each layer and
//! prints the per-layer metrics. Human-readable lines come first; the last
//! line of standard output is one JSON result object. See `DESIGN.md`.

mod distributed;
mod host;
mod oracle;
mod report;
mod rng;
mod service;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use report::Report;

const USAGE: &str =
    "usage: perfbench --workload <oracle|service|distributed> --seed <n> --seconds <s> --trace <0|1>";

/// Width every gated operation runs at (`LMT_THREADS`): see `DESIGN.md`.
const GATED_WIDTH: usize = 1;

/// Share of a traced run spent on traced operations; the rest is the
/// untraced width probe.
const TRACED_SHARE: f64 = 0.6;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must lie in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pin the rayon pool width for the operations that follow. The pool reads
/// `LMT_THREADS` on every call, and this process is single-threaded
/// whenever it changes the variable.
pub fn set_width(width: usize) {
    std::env::set_var("LMT_THREADS", width.to_string());
}

/// Run `f` and return its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// [`timed`], inside a span named `name` when a tracer is given.
pub fn timed_in<R>(
    tracer: Option<&mut trace::Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    match tracer {
        Some(t) => t.span(name, |_| timed(f)),
        None => timed(f),
    }
}

/// The two deadlines of a run: the end of the traced (or whole untraced)
/// loop, and the end of the run.
pub struct Budget {
    pub main_end: Instant,
    pub end: Instant,
}

impl Budget {
    pub fn start(args: &RunArgs) -> Self {
        let now = Instant::now();
        let total = Duration::from_secs_f64(args.seconds);
        let main = if args.trace {
            total.mul_f64(TRACED_SHARE)
        } else {
            total
        };
        Budget {
            main_end: now + main,
            end: now + total,
        }
    }
}

/// Set-up timings: each set-up is timed whole, and its graph generation on
/// its own. A workload sets up a few times before its timed loop and, in an
/// untraced run, many more times spread evenly over the loop, and reports
/// the fastest. One set-up is a single operation of a few hundred
/// milliseconds at most: like the gated p2, only its minimum over set-ups
/// spread through the run escapes the host's slow phases, which last
/// seconds and can cover both ends of a run.
#[derive(Default)]
pub struct SetupClock {
    total_s: Vec<f64>,
    gen_ms: Vec<f64>,
    /// When each set-up still to run inside the loop is due, latest first.
    due: Vec<Instant>,
    /// `VmHWM` just before the first set-up inside the loop.
    peak_rss_mib: Option<f64>,
}

impl SetupClock {
    /// Time one set-up; `build` returns its product and the time its graph
    /// generation took.
    pub fn time<T>(&mut self, build: impl FnOnce() -> (T, Duration)) -> T {
        let ((value, gen), total) = timed(build);
        self.total_s.push(total.as_secs_f64());
        self.gen_ms.push(gen.as_secs_f64() * 1e3);
        value
    }

    /// Schedule `n` set-ups evenly over the timed loop that runs from now
    /// until `end`.
    pub fn spread(&mut self, n: usize, end: Instant) {
        let start = Instant::now();
        let step = end.saturating_duration_since(start) / n.max(1) as u32;
        self.due = (0..n as u32)
            .rev()
            .map(|k| start + step * k + step / 2)
            .collect();
    }

    /// Run the next scheduled set-up if it is due, and drop its product.
    /// The first one reads the peak memory before it runs: from then on a
    /// set-up runs beside the live workload and would add its own state to
    /// the peak.
    pub fn run_due<T>(&mut self, build: impl FnOnce() -> (T, Duration)) {
        if self.due.last().is_some_and(|&t| Instant::now() >= t) {
            self.due.pop();
            self.peak_rss_mib.get_or_insert_with(read_peak_rss_mib);
            drop(self.time(build));
        }
    }

    /// Record `setup_s` and `graph.gen_ms`, the minima, and `peak_rss_mib`;
    /// print the medians beside the minima.
    pub fn report(&self, report: &mut Report) {
        report.set(
            "peak_rss_mib",
            self.peak_rss_mib.unwrap_or_else(read_peak_rss_mib),
        );
        let setup_s = stats::minimum(&self.total_s);
        let gen_ms = stats::minimum(&self.gen_ms);
        report.set("setup_s", setup_s);
        report.set("graph.gen_ms", gen_ms);
        report.note(format!(
            "setup: n={} min {setup_s:.4} s median {:.4} s (graph generation min {gen_ms:.3} ms median {:.3} ms)",
            self.total_s.len(),
            stats::median(&self.total_s),
            stats::median(&self.gen_ms)
        ));
    }
}

fn read_peak_rss_mib() -> f64 {
    host::peak_rss_mib().expect("VmHWM readable from /proc/self/status")
}

/// Alternate untraced operations at width 1 and width 2 until `end`, in
/// ABBA order so drift in host speed falls on both sides; returns the
/// width-1 and width-2 latencies. `op` runs one operation and returns its
/// timed latency and whether it succeeded (checked outside that time).
pub fn width_probe(
    end: Instant,
    report: &mut Report,
    mut op: impl FnMut() -> (Duration, bool),
) -> (stats::Timings, stats::Timings) {
    let (mut w1, mut w2) = (stats::Timings::default(), stats::Timings::default());
    let mut i = 0u64;
    while Instant::now() < end {
        let wide = matches!(i % 4, 1 | 2);
        set_width(if wide { 2 } else { 1 });
        let (d, ok) = op();
        if wide { &mut w2 } else { &mut w1 }.push(d);
        report.tally(1, u64::from(!ok));
        i += 1;
    }
    set_width(GATED_WIDTH);
    report.note(w1.summary("width probe, untraced op at width 1"));
    report.note(w2.summary("width probe, untraced op at width 2"));
    (w1, w2)
}

/// Record `pool.w2_over_w1` and `trace.overhead` from the width probe and
/// the traced operations' latencies.
pub fn probe_ratios(
    report: &mut Report,
    traced_ms: &[f64],
    w1: &stats::Timings,
    w2: &stats::Timings,
) {
    let mut traced = traced_ms.to_vec();
    traced.sort_by(f64::total_cmp);
    let w1_p25 = w1.q(0.25);
    report.set("pool.w2_over_w1", w2.q(0.25) / w1_p25);
    if !traced.is_empty() {
        let overhead = stats::quantile(&traced, 0.25) / w1_p25;
        report.set("trace.overhead", overhead);
        report.note(format!(
            "tracing overhead: traced op p25 / untraced width-1 op p25 = {overhead:.4} (n={} traced)",
            traced.len()
        ));
    }
}

/// Print each span name's median self time per operation.
pub fn note_self_times(report: &mut Report, tracer: &trace::Tracer) {
    for (name, per_op) in tracer.self_ms_per_op() {
        report.note(format!(
            "self time {name}: median {:.3} ms per op over {} ops",
            stats::median(&per_op),
            per_op.len()
        ));
    }
}

/// Write the spans under `bench-out/` in the working directory.
pub fn write_trace(report: &mut Report, tracer: &trace::Tracer, args: &RunArgs) {
    let path = std::path::PathBuf::from(format!(
        "bench-out/trace-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    match tracer.write_tsv(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    set_width(GATED_WIDTH);
    let host_start = host::HostReading::take();
    let report = match args.workload.as_str() {
        "oracle" => oracle::run(&args),
        "service" => service::run(&args),
        "distributed" => distributed::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host_end = host::HostReading::take();
    println!(
        "workload={} seed={} seconds={} trace={} width={GATED_WIDTH} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "host: loadavg start [{}] end [{}]; host.mem_probe_ms start {:.3} end {:.3} (informational, never used to rescale)",
        host_start.loadavg, host_end.loadavg, host_start.mem_probe_ms, host_end.mem_probe_ms
    );
    println!(
        "fail_ratio={} ({} failed of {} attempted)",
        if report.attempted > 0 {
            report.failed as f64 / report.attempted as f64
        } else {
            f64::NAN
        },
        report.failed,
        report.attempted
    );
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<RunArgs, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload oracle --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("oracle", 7, 10.0, true)
        );
    }

    #[test]
    fn set_ups_are_spread_evenly_over_the_loop() {
        let mut clock = SetupClock::default();
        let start = Instant::now();
        let end = start + Duration::from_secs(8);
        clock.spread(4, end);
        // Popped from the back: earliest first.
        let due: Vec<Instant> = clock.due.iter().rev().copied().collect();
        assert_eq!(due.len(), 4);
        let step = due[1] - due[0];
        assert!(step > Duration::from_millis(1990) && step <= Duration::from_secs(2));
        assert!(due.windows(2).all(|w| w[1] - w[0] == step));
        assert!(due[0] - start >= step / 2 && due[3] < end);
        // Nothing is due yet, so nothing runs.
        clock.run_due(|| ((), Duration::ZERO));
        assert!(clock.total_s.is_empty() && clock.peak_rss_mib.is_none());
    }

    #[test]
    fn rejects_bad_or_missing_arguments() {
        assert!(args("--workload oracle --seed 7 --seconds 10").is_err());
        assert!(args("--workload oracle --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload oracle --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload oracle --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload oracle --seed 1 --seconds 5 --trace 0 --extra 1").is_err());
        assert!(args("--workload").is_err());
    }
}
