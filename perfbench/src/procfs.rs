//! Process counters read from `/proc/<pid>`: how much CPU, kernel time,
//! write syscalls and context switches a process spent, summed over its
//! threads. Read before and after a phase and subtract.

use std::fs;
use std::io;

/// One snapshot of a process's cumulative counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProcSample {
    /// On-CPU time summed over live threads (`task/*/schedstat`), ns.
    pub cpu_ns: u64,
    /// User-mode time (`stat` field 14), clock ticks.
    pub utime: u64,
    /// Kernel-mode time (`stat` field 15), clock ticks.
    pub stime: u64,
    /// Write-family syscalls (`io` `syscw`).
    pub syscw: u64,
    /// Voluntary plus involuntary context switches, summed over threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Counters of `pid` now.
    pub fn read(pid: u32) -> io::Result<Self> {
        let base = format!("/proc/{pid}");
        let (utime, stime) = parse_stat_times(&fs::read_to_string(format!("{base}/stat"))?)?;
        let syscw = field(&fs::read_to_string(format!("{base}/io"))?, "syscw:")?;
        let mut cpu_ns = 0;
        let mut ctx_switches = 0;
        for task in fs::read_dir(format!("{base}/task"))? {
            let dir = task?.path();
            // A thread may exit between listing and reading: skip it.
            let (Ok(sched), Ok(status)) = (
                fs::read_to_string(dir.join("schedstat")),
                fs::read_to_string(dir.join("status")),
            ) else {
                continue;
            };
            cpu_ns += sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| bad("schedstat"))?;
            ctx_switches += field(&status, "voluntary_ctxt_switches:")?
                + field(&status, "nonvoluntary_ctxt_switches:")?;
        }
        Ok(ProcSample {
            cpu_ns,
            utime,
            stime,
            syscw,
            ctx_switches,
        })
    }

    /// Add another stretch's counters.
    pub fn add(&mut self, o: &ProcSample) {
        self.cpu_ns += o.cpu_ns;
        self.utime += o.utime;
        self.stime += o.stime;
        self.syscw += o.syscw;
        self.ctx_switches += o.ctx_switches;
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// CPU time the hypervisor gave to other guests while this VM's CPUs
/// wanted to run (`steal` of `/proc/stat`), clock ticks summed over CPUs.
/// Monotone; 0 when the field is unavailable.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    field(
        &fs::read_to_string(format!("/proc/{pid}/status"))?,
        "VmHWM:",
    )
}

/// The CPU model string of the host.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `utime` and `stime` from a `/proc/<pid>/stat` line. The command name
/// in parentheses may hold spaces, so fields are counted after its `)`.
fn parse_stat_times(stat: &str) -> io::Result<(u64, u64)> {
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad("stat"))?;
    // After ")" come field 3 (state) onward; utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad("stat"))
    };
    Ok((next()?, next()?))
}

/// The first number after `name` on the line starting with it.
fn field(text: &str, name: &str) -> io::Result<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(name))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("cannot parse /proc field {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_skip_a_command_name_with_spaces() {
        let line = "42 (my (odd) proc) S 1 42 42 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 3";
        assert_eq!(parse_stat_times(line).unwrap(), (17, 5));
    }

    #[test]
    fn own_process_counters_are_readable_and_grow() {
        let pid = std::process::id();
        let a = ProcSample::read(pid).unwrap();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = ProcSample::read(pid).unwrap();
        assert!(b.since(&a).cpu_ns > 0, "spinning costs CPU time ({x})");
        assert!(peak_rss_kib(pid).unwrap() > 0);
    }
}
