//! The host's speed during a run, measured beside the workload.
//!
//! On a shared VM the same code runs faster or slower from one minute to
//! the next as the host's other load comes and goes: over ten 30 s runs
//! of `hot-get` in a row, a fixed loopback round-trip loop ran at 120k to
//! 175k round trips per second, and the closed-loop throughput followed
//! it (correlation 0.92 across the runs). The time-based end-to-end
//! metrics are therefore reported on a reference host. The probe runs
//! right before and after every measured segment and every set-up, and
//! each window's rate or latency, and each set-up's time, is scaled by
//! how fast the probe ran around it against [`REFERENCE_ROUND_TRIPS_S`].
//! The host's speed also drifts within a run, by a quarter from one
//! second to the next, so scaling per segment rather than per run takes
//! more of it out: over twelve 30 s `hot-get` runs the spread of the
//! closed-loop rate fell from 0.22 to 0.07 of its median, and that of
//! the open-loop p50 from 0.20 to 0.03. The probe runs no code of the
//! program, so a change to the program moves the scaled figures exactly
//! as it moves the measured ones; only the host's drift is taken out.
//! The measured figures are printed beside the scaled ones.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Round trips per probe sample: about 30 ms on a 2-vCPU VM.
pub const PROBE_ROUND_TRIPS: u32 = 4000;

/// The probe's rate on the reference host, round trips per second (the
/// middle of what it read on a 2-vCPU Xeon VM).
pub const REFERENCE_ROUND_TRIPS_S: f64 = 150_000.0;

/// Bytes each way per round trip: the size of a small get request.
const MESSAGE: usize = 64;

/// One loopback TCP connection driven from a single thread: write on one
/// end, read on the other, and back. It exercises what the server's hot
/// path spends its time in (loopback TCP sends and receives) without any
/// wake-up across threads.
pub struct HostProbe {
    a: TcpStream,
    b: TcpStream,
    rates: Vec<f64>,
}

impl HostProbe {
    /// Connect the probe's two ends.
    pub fn new() -> io::Result<HostProbe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let a = TcpStream::connect(listener.local_addr()?)?;
        let (b, _) = listener.accept()?;
        a.set_nodelay(true)?;
        b.set_nodelay(true)?;
        Ok(HostProbe {
            a,
            b,
            rates: Vec::new(),
        })
    }

    /// Time [`PROBE_ROUND_TRIPS`] round trips; keep and return the host's
    /// speed over them (see [`speed`]).
    pub fn sample(&mut self) -> io::Result<f64> {
        let out = [0x5au8; MESSAGE];
        let mut got = [0u8; MESSAGE];
        let t = Instant::now();
        for _ in 0..PROBE_ROUND_TRIPS {
            self.a.write_all(&out)?;
            self.b.read_exact(&mut got)?;
            self.b.write_all(&got)?;
            self.a.read_exact(&mut got)?;
        }
        let secs = t.elapsed().as_secs_f64();
        if got != out {
            return Err(io::Error::other("host probe: bytes changed in transit"));
        }
        let rate = f64::from(PROBE_ROUND_TRIPS) / secs;
        self.rates.push(rate);
        Ok(speed(rate))
    }

    /// The median rate of the samples taken, round trips per second.
    pub fn rate(&self) -> Option<f64> {
        crate::stats::median(&self.rates)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.rates.len()
    }
}

/// How much faster than the reference host this run's host ran: a rate
/// measured here is divided by it, and a time multiplied by it.
pub fn speed(rate: f64) -> f64 {
    rate / REFERENCE_ROUND_TRIPS_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_the_median_of_its_samples() {
        let mut p = HostProbe::new().expect("loopback");
        assert_eq!(p.rate(), None);
        for _ in 0..3 {
            assert!(p.sample().expect("round trips") > 0.0);
        }
        assert_eq!(p.samples(), 3);
        assert!(p.rate().expect("a rate") > 0.0);
    }

    #[test]
    fn speed_scales_against_the_reference() {
        assert_eq!(speed(REFERENCE_ROUND_TRIPS_S), 1.0);
        // A host twice as fast: measured rates halve, times double.
        assert_eq!(speed(2.0 * REFERENCE_ROUND_TRIPS_S), 2.0);
    }
}
