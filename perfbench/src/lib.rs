//! End-to-end and per-layer benchmark of the Albatross pod simulator.
//!
//! The benchmark drives the simulator only through `SimConfig`,
//! `PodSimulation::new`/`run`, `TrafficSource` and `SimReport`; the traced
//! run's per-layer calls each sit in one adapter in [`replay`]. See
//! `README.md` in this directory for the workloads, the metrics and how to
//! run it.

pub mod checks;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Scenario, Size, Workload};

/// Command-line arguments of both benchmark binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time budget in seconds.
    pub seconds: f64,
    /// Where the traced run writes its span file and summary.
    pub out: Option<PathBuf>,
}

/// Parses `--workload <name> --seed <n> --seconds <s> [--out <dir>]`.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut out) = (None, 1, 10.0, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        out,
    })
}

/// Keeps every page the process has touched resident for the next round.
/// glibc would otherwise serve large arrays with `mmap` and hand them back
/// with `munmap` (or trim the heap) when they are dropped, so every round
/// would fault its pod's memory in afresh; on a VM whose guest reports
/// freed pages to the host, each such fault can also be a host fault, whose
/// cost follows the host's load. With `mmap` and trimming off, freed memory
/// stays in the heap: after the warm-up round, rounds reuse pages the
/// process already holds. Every round repeats the same allocations, so peak
/// RSS barely differs between processes.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_resident() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it takes glibc's
    // own arena lock and is called before any other thread starts.
    unsafe {
        assert_eq!(mallopt(M_MMAP_MAX, 0), 1, "mallopt(M_MMAP_MAX) failed");
        assert_eq!(
            mallopt(M_TRIM_THRESHOLD, -1),
            1,
            "mallopt(M_TRIM_THRESHOLD) failed"
        );
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_resident() {}

/// Shared `main`: runs one workload end to end (`traced = false`) or
/// traced, and prints the JSON result as the last line of stdout.
pub fn main_with(traced: bool) -> ExitCode {
    keep_heap_resident();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let s = Scenario {
        workload: args.workload,
        size: Size::Full,
        seed: args.seed,
    };
    let outcome = if traced {
        run::run_traced(&s, args.seconds, args.out.as_deref())
    } else {
        run::run_e2e(&s, args.seconds)
    };
    match outcome {
        Ok(o) => {
            for m in &o.metrics {
                eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
