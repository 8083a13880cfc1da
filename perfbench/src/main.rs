//! `fresca-perfbench`: the repository's benchmark.
//!
//! ```text
//! fresca-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  --serve PATH [--out-dir DIR] [--rustc V] [--source D] [--commit C]
//! ```
//!
//! Each run spawns a fresh `serve` child (the system under test, whose
//! CPU, syscalls and memory are read from `/proc/<pid>`), sets it up
//! several times and keeps the last set-up, then drives the workload
//! from this process over one pipelined connection; a few more set-ups
//! after the measurement join the `setup_s` median. The measured time is
//! split into rounds of a closed-loop segment (fixed pipeline depth) and
//! an open-loop segment (fixed offered rate, each request timed from its
//! due time). The freshness workload also hosts the store side here: an
//! origin listener and a store pusher on one shared backend state, the
//! pusher writing on its own thread and connection.
//!
//! Every reply is checked (payload checksum, version floor, matching
//! request). Any failure, a generator that fell behind its schedule, or
//! a host that stole CPU time in most windows ends the run with a nonzero
//! exit and no result line. Otherwise the last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.
//!
//! Windows in which, or near which, the host stole more CPU time from
//! this VM (`/proc/stat`) than in the run's median window are left out of
//! the throughput and latency figures (see [`stats::clean_windows`]); the
//! share of windows with any steal is reported.
//!
//! A fixed loopback probe, run before and after every segment and after
//! every set-up, measures how fast the host ran around each; the
//! throughput, latency and set-up figures are reported on a reference
//! host, each window and set-up scaled by the host's speed around it (see
//! [`hostspeed`]). The measured figures are printed beside them.
//!
//! `--trace 1` runs every round twice, untraced and then traced (spans
//! around this program's calls into each layer), and replays the traced
//! segments' frames through the codec and their key stream, with the
//! store writes due meanwhile, through slab shards. Self time per layer
//! is taken over every span; the spans of one request in 64, and every
//! span outside requests, are written to `DIR/spans-*.tsv`. Full results
//! with provenance go to `DIR/result-*.json`.

mod drive;
mod hostspeed;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use drive::{ClosedOut, Driver, Failures, OpenOut, WINDOW_OPS};
use fresca_serve::cli::try_arg;
use fresca_serve::origin::{self, OriginHandle, OriginState, DEFAULT_ORIGIN_VALUE_SIZE};
use fresca_serve::{
    CacheClient, PipelinedClient, PushConfig, PushPolicy, ServerProbe, StorePusher,
};
use hostspeed::HostProbe;
use procfs::ProcSample;
use stats::{
    clean_windows, median, per_thousand, percentile, ratio, slowdown, windowed_p99, ReadCounts,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Schedule, Spec};

/// Set-ups per run before the measurement (the last one is measured) and
/// after it, so that `setup_s`, their median, samples the host at both
/// ends of the run.
const SETUPS: usize = 5;
const SETUPS_AFTER: usize = 4;

/// Requests in flight during the warm fill.
const WARM_DEPTH: usize = 64;

/// Share of the measured time spent in closed-loop segments.
const CLOSED_SHARE: f64 = 0.4;

/// Rounds the measured time is split into, at most. Each round runs a
/// closed-loop segment then an open-loop segment (and in a traced run the
/// same pair again with spans on), so every metric samples the whole run
/// rather than one stretch of it. Short runs get fewer rounds, so that a
/// closed-loop segment lasts at least `MIN_CLOSED_SEGMENT`.
const ROUNDS: u32 = 15;

/// The shortest closed-loop segment: four 100 ms windows.
const MIN_CLOSED_SEGMENT: f64 = 0.4;

/// The p99 limit the open-loop rates were chosen under; also the most a
/// send may run late (p99) before the run is declared invalid.
const LATENCY_LIMIT_US: f64 = 1000.0;

/// How far from a window with steal the stall behind that steal may
/// reach: steal is counted in 10 ms ticks of one CPU, so a short stall
/// can show up a window late, and the host's busy spells outlast one
/// window.
const STALL_REACH: Duration = Duration::from_millis(100);

/// The least share of its offered rate an open-loop phase must achieve.
const MIN_ACHIEVED: f64 = 0.97;

/// The spans file keeps the spans of one request in this many.
const SPANS_WRITTEN_ONE_IN: u64 = 64;

/// Layers the traced run records spans in (the prefix of span names).
const SPAN_LAYERS: [&str; 5] = ["request", "client", "push", "codec", "slab"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    out_dir: PathBuf,
    rustc: String,
    source: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let a: Vec<String> = std::env::args().collect();
    let workload: String = try_arg(&a, "--workload", String::new())?;
    let serve: String = try_arg(&a, "--serve", String::new())?;
    if workload.is_empty() || serve.is_empty() {
        return Err("--workload and --serve are required".into());
    }
    let trace: u8 = try_arg(&a, "--trace", 0)?;
    let seconds: f64 = try_arg(&a, "--seconds", 10.0)?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.5..=120"));
    }
    Ok(Args {
        workload,
        seed: try_arg(&a, "--seed", 1)?,
        seconds,
        trace: trace == 1,
        serve: PathBuf::from(serve),
        out_dir: PathBuf::from(try_arg(&a, "--out-dir", ".bench_out".to_string())?),
        rustc: try_arg(&a, "--rustc", "unknown".to_string())?,
        source: try_arg(&a, "--source", "unknown".to_string())?,
        commit: try_arg(&a, "--commit", "unknown".to_string())?,
    })
}

/// CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fresca-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("fresca-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A `serve` child, killed and reaped on drop.
struct Server {
    child: Child,
    /// Held open so the child's later output never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &std::path::Path, spec: &Spec, origin: Option<SocketAddr>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--stats-every", "3600"])
            .args(["--event-loops", &spec.event_loops.to_string()])
            .args(["--capacity-entries", &spec.capacity.to_string()])
            .args(["--shards", &workload::SHARDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(o) = origin {
            cmd.args(["--origin", &o.to_string()]);
        }
        kill_with_parent(&mut cmd);
        let mut child = cmd.spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        // "serving on 127.0.0.1:PORT as ..."
        let addr = line
            .strip_prefix("serving on ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: out,
                addr,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                read?;
                Err(io::Error::other(format!("serve did not start: {line:?}")))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Have the child killed when this process dies (however it dies), so a
/// killed benchmark never leaves a server behind.
fn kill_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before `exec` and only
    // calls `prctl`, a system-call wrapper that is async-signal-safe and
    // touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One set-up: the server, the connections, and the store side.
struct Rig {
    server: Server,
    driver: Driver,
    probe: CacheClient,
    pusher: Option<StorePusher>,
    origin: Option<OriginHandle>,
}

impl Rig {
    /// Stop the server, then the origin it was connected to.
    fn shutdown(self) {
        let Rig {
            server,
            driver,
            probe,
            pusher,
            origin,
        } = self;
        drop((driver, probe, pusher));
        drop(server);
        if let Some(o) = origin {
            o.shutdown();
        }
    }
}

struct Setup {
    rig: Rig,
    schedule: Schedule,
    total_s: f64,
    schedule_s: f64,
}

fn set_up(args: &Args, spec: &Spec, open_secs: f64, epoch: Instant) -> io::Result<Setup> {
    let t0 = Instant::now();
    // Store writes are drawn for twice the measured time: the rounds
    // overrun it by their marks, drains and probe samples, and the writer
    // runs until the last round ends.
    let schedule = Schedule::build(spec, args.seed, open_secs, 2.0 * args.seconds);
    let schedule_s = t0.elapsed().as_secs_f64();
    let origin = if spec.origin {
        let state = OriginState::with_default_estimator(DEFAULT_ORIGIN_VALUE_SIZE).into_shared();
        Some(origin::spawn("127.0.0.1:0", state)?)
    } else {
        None
    };
    let server = Server::spawn(&args.serve, spec, origin.as_ref().map(OriginHandle::addr))?;
    let client = PipelinedClient::connect(server.addr)?;
    let probe = CacheClient::connect(server.addr)?;
    let pusher = match &origin {
        Some(o) => {
            let config = PushConfig {
                policy: PushPolicy::Adaptive,
                ..PushConfig::default()
            };
            let mut p = StorePusher::connect_shared(&[server.addr.to_string()], config, o.state())?;
            // The store holds every key before the cache is filled.
            for key in workload::KEY_BASE..workload::KEY_BASE + spec.keys {
                p.write(key, schedule.value(key).len() as u32);
            }
            p.flush()?;
            Some(p)
        }
        None => None,
    };
    let mut driver = Driver::new(client, Tracer::new(epoch, false, 0), &schedule);
    driver.warm_fill(spec.keys, WARM_DEPTH)?;
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        rig: Rig {
            server,
            driver,
            probe,
            pusher,
            origin,
        },
        schedule,
        total_s,
        schedule_s,
    })
}

/// Counters bracketing a stretch of the run.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    server: ProcSample,
    gen: ProcSample,
    probe: ServerProbe,
    reads: ReadCounts,
    ops: u64,
}

impl Mark {
    fn take(rig: &mut Rig) -> io::Result<Mark> {
        Ok(Mark {
            at: Instant::now(),
            server: ProcSample::read(rig.server.pid())?,
            gen: ProcSample::read(std::process::id())?,
            probe: rig.probe.server_stats()?,
            reads: rig.driver.reads,
            ops: rig.driver.attempted,
        })
    }
}

/// Counter differences between two marks, summable over segments.
#[derive(Default, Clone, Copy)]
struct Delta {
    wall_ns: u64,
    server: ProcSample,
    gen: ProcSample,
    refetches: u64,
    coalesced: u64,
    origin_errors: u64,
    forwards: u64,
    reads: ReadCounts,
    /// Client operations sent.
    ops: u64,
}

impl Delta {
    fn between(a: &Mark, b: &Mark) -> Delta {
        Delta {
            wall_ns: b.at.duration_since(a.at).as_nanos() as u64,
            server: b.server.since(&a.server),
            gen: b.gen.since(&a.gen),
            refetches: b.probe.refetches - a.probe.refetches,
            coalesced: b.probe.refetch_coalesced - a.probe.refetch_coalesced,
            origin_errors: b.probe.origin_errors - a.probe.origin_errors,
            forwards: b.probe.cross_core_forwards - a.probe.cross_core_forwards,
            reads: b.reads.since(&a.reads),
            ops: b.ops - a.ops,
        }
    }

    fn add(&mut self, o: &Delta) {
        self.wall_ns += o.wall_ns;
        self.server.add(&o.server);
        self.gen.add(&o.gen);
        self.refetches += o.refetches;
        self.coalesced += o.coalesced;
        self.origin_errors += o.origin_errors;
        self.forwards += o.forwards;
        self.reads.add(&o.reads);
        self.ops += o.ops;
    }
}

/// What one mode (untraced, or traced) measured, over all its rounds.
///
/// Windows are numbered run-wide: segment `k`'s windows are `k · 100000`
/// onwards, so windows with consecutive numbers are consecutive in time.
#[derive(Default, Clone)]
struct Mode {
    /// Completion rate of every closed-loop window, ops/s.
    closed_rates: Vec<(u32, f64)>,
    /// Host steal during each closed-loop window, ticks.
    closed_steal: BTreeMap<u32, u64>,
    /// Open-loop latency from due time, µs, by window.
    latency: Vec<(u32, f64)>,
    /// How late open-loop sends ran, µs, by window.
    late: Vec<(u32, f64)>,
    /// Host steal during each open-loop window, ticks.
    open_steal: BTreeMap<u32, u64>,
    /// Windows on either side of one the host stole from that are left
    /// out with it (see [`stats::clean_windows`]): closed, open loop.
    reach: (u32, u32),
    /// Achieved send rate of every open-loop segment, ops/s.
    achieved: Vec<f64>,
    /// The host's speed around each closed-loop and open-loop segment
    /// (see [`hostspeed::speed`]).
    closed_speed: Vec<f64>,
    open_speed: Vec<f64>,
    closed: Delta,
    open: Delta,
    /// Epoch-relative bounds of the closed-loop segments, ns.
    closed_spans: Vec<(u64, u64)>,
    /// Epoch-relative bounds of the open-loop segments, ns.
    open_spans: Vec<(u64, u64)>,
}

impl Mode {
    /// A mode whose open-loop windows last `open_window` each.
    fn new(open_window: Duration) -> Mode {
        let reach = |w: Duration| (STALL_REACH.as_secs_f64() / w.as_secs_f64()).ceil() as u32;
        Mode {
            reach: (reach(drive::CLOSED_WINDOW), reach(open_window)),
            ..Mode::default()
        }
    }

    fn add_closed(&mut self, out: ClosedOut, d: Delta, span: (u64, u64), speed: f64) {
        let base = self.closed_spans.len() as u32 * 100_000;
        self.closed_speed.push(speed);
        self.closed_rates.extend((base..).zip(out.window_rates));
        self.closed_steal.extend((base..).zip(out.window_steal));
        self.closed.add(&d);
        self.closed_spans.push(span);
    }

    fn add_open(&mut self, out: OpenOut, d: Delta, span: (u64, u64), speed: f64) {
        // Windows never straddle two segments.
        let base = self.achieved.len() as u32 * 100_000;
        self.open_speed.push(speed);
        let us = |&(w, ns): &(u32, u64)| (base + w, ns as f64 / 1e3);
        self.latency.extend(out.latency.iter().map(us));
        self.late.extend(out.late.iter().map(us));
        self.open_steal.extend((base..).zip(out.window_steal));
        self.achieved.push(out.achieved_rate);
        self.open.add(&d);
        self.open_spans.push(span);
    }

    /// The same figures on the reference host: every closed-loop window
    /// rate divided by, and every open-loop latency multiplied by, the
    /// host's speed around its segment.
    fn on_reference_host(&self) -> Mode {
        let segment = |w: u32| (w / 100_000) as usize;
        let mut m = self.clone();
        for (w, rate) in &mut m.closed_rates {
            *rate /= self.closed_speed[segment(*w)];
        }
        for (w, us) in &mut m.latency {
            *us *= self.open_speed[segment(*w)];
        }
        m
    }

    /// Closed-loop window rates of the clean windows, ascending.
    fn rates(&self) -> Vec<f64> {
        let clean = clean_windows(&self.closed_steal, self.reach.0);
        let mut v: Vec<f64> = self
            .closed_rates
            .iter()
            .filter(|(w, _)| clean.contains(w))
            .map(|&(_, r)| r)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Open-loop samples (`latency` or `late`) of the clean windows.
    fn clean(&self, samples: &[(u32, f64)]) -> Vec<(u32, f64)> {
        let clean = clean_windows(&self.open_steal, self.reach.1);
        samples
            .iter()
            .filter(|(w, _)| clean.contains(w))
            .copied()
            .collect()
    }

    /// The `q` percentile of the clean windows' samples, pooled.
    fn pooled(&self, samples: &[(u32, f64)], q: f64) -> f64 {
        let mut v: Vec<f64> = self.clean(samples).into_iter().map(|(_, us)| us).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, q).unwrap_or(0.0)
    }

    /// Share of windows (closed and open loop) the host stole CPU time in.
    fn stolen_share(&self) -> f64 {
        let stolen = self.closed_steal.values().filter(|&&s| s > 0).count()
            + self.open_steal.values().filter(|&&s| s > 0).count();
        ratio(
            stolen as f64,
            (self.closed_steal.len() + self.open_steal.len()) as f64,
        )
    }

    /// The rate the closed loop sustained: the median of its clean 100 ms
    /// window rates (see [`stats::clean_windows`]).
    fn peak_ops_s(&self) -> f64 {
        percentile(&self.rates(), 0.5).unwrap_or(0.0)
    }

    /// Median open-loop latency over the clean windows' samples.
    fn p50_us(&self) -> f64 {
        self.pooled(&self.latency, 0.5)
    }

    /// The open-loop p99 of the median clean window: a tail that reaches
    /// at least half the windows moves it. The pooled p99 of the same
    /// samples is set by how many millisecond stalls a run meets, stalls
    /// too short for the steal count to flag: on a 2-vCPU VM its spread
    /// over five seeds was 0.5 to 1.5 of its median, against 0.1 to 0.35
    /// for this figure. Both pooled p99s, with and without the left-out
    /// windows, are logged.
    fn p99_us(&self) -> f64 {
        windowed_p99(&self.clean(&self.latency), WINDOW_OPS as usize, 0.5).unwrap_or(0.0)
    }

    /// The p99 over every open-loop sample, stolen windows included
    /// (logged).
    fn p99_all_us(&self) -> f64 {
        let mut v: Vec<f64> = self.latency.iter().map(|&(_, us)| us).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.99).unwrap_or(0.0)
    }

    /// How late sends ran: the p99 of the median clean window, the same
    /// rule as [`Mode::p99_us`].
    fn late_us_p99(&self) -> f64 {
        windowed_p99(&self.clean(&self.late), WINDOW_OPS as usize, 0.5).unwrap_or(0.0)
    }
}

/// Metrics by name: value and unit, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, (name, v, unit)) in self.0.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        Ok(s)
    }
}

/// Run every round: per mode a closed-loop segment, then an open-loop
/// segment over the round's share of the open schedule, with a host probe
/// sample before and after each segment.
#[allow(clippy::too_many_arguments)]
fn measure(
    rig: &mut Rig,
    probe: &mut HostProbe,
    schedule: &Schedule,
    spec: &Spec,
    modes: &mut [Mode],
    rounds: u32,
    closed_dur: Duration,
    open_dur: Duration,
) -> io::Result<()> {
    let mut cursor = 0usize;
    let mut before = probe.sample()?;
    for round in 0..rounds {
        for (k, mode) in modes.iter_mut().enumerate() {
            rig.driver.tr.set_on(k == 1);
            let m0 = Mark::take(rig)?;
            let c0 = rig.driver.tr.now();
            let closed =
                rig.driver
                    .closed(&schedule.closed, &mut cursor, spec.depth, closed_dur)?;
            let c1 = rig.driver.tr.now();
            let m1 = Mark::take(rig)?;
            let between = probe.sample()?;
            let m2 = Mark::take(rig)?;
            let o0 = rig.driver.tr.now();
            let open = rig
                .driver
                .open(&schedule.open, open_dur * round, open_dur)?;
            let o1 = rig.driver.tr.now();
            let m3 = Mark::take(rig)?;
            rig.driver.tr.set_on(false);
            let after = probe.sample()?;
            let closed_speed = (before + between) / 2.0;
            let open_speed = (between + after) / 2.0;
            mode.add_closed(closed, Delta::between(&m0, &m1), (c0, c1), closed_speed);
            mode.add_open(open, Delta::between(&m2, &m3), (o0, o1), open_speed);
            before = after;
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::ALL.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?}; known: {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let epoch = Instant::now();
    let modes_n = if args.trace { 2.0 } else { 1.0 };
    let rounds =
        ((args.seconds * CLOSED_SHARE / modes_n / MIN_CLOSED_SEGMENT) as u32).clamp(1, ROUNDS);
    let segments = f64::from(rounds) * modes_n;
    let closed_dur = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / segments);
    let open_dur = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE) / segments);
    let open_secs = open_dur.as_secs_f64() * f64::from(rounds);

    // Set up several times and keep the last; setup_s is the median, each
    // set-up scaled by the host's speed measured right after it.
    let mut probe = HostProbe::new().map_err(|e| format!("host probe: {e}"))?;
    let sample = |p: &mut HostProbe| p.sample().map_err(|e| format!("host probe: {e}"));
    let mut setup_s = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut schedule_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let s = set_up(args, &spec, open_secs, epoch).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(s.total_s);
        setup_ref_s.push(s.total_s * sample(&mut probe)?);
        schedule_s.push(s.schedule_s);
        if s.rig.driver.fail.count > 0 {
            return Err(failure_report(&s.rig.driver.fail));
        }
        if i + 1 < SETUPS {
            s.rig.shutdown();
        } else {
            kept = Some(s);
        }
    }
    let Setup {
        mut rig, schedule, ..
    } = kept.expect("at least one set-up");

    // Measure. The store writer (freshness workload) runs beside every
    // segment on its own thread and connection, recording spans
    // throughout a traced run.
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let mut pusher = rig.pusher.take();
    let open_window = Duration::from_secs_f64(f64::from(WINDOW_OPS) / spec.open_rate);
    let mut modes: Vec<Mode> = (0..if args.trace { 2 } else { 1 })
        .map(|_| Mode::new(open_window))
        .collect();
    let (res, writer) = std::thread::scope(|s| {
        let writer = pusher.as_mut().map(|p| {
            let writes = &schedule.store_writes;
            let tr = Tracer::new(epoch, args.trace, 1);
            let done = &done;
            s.spawn(move || drive::store_writer(p, writes, start, done, spec.flush_every, tr))
        });
        let res = measure(
            &mut rig, &mut probe, &schedule, &spec, &mut modes, rounds, closed_dur, open_dur,
        );
        done.store(true, Ordering::Relaxed);
        (
            res,
            writer.map(|h| h.join().expect("store writer panicked")),
        )
    });
    let mut fail = std::mem::take(&mut rig.driver.fail);
    if let Err(e) = res {
        fail.add(format!("transport: {e}"));
    }
    let rss_kib = procfs::peak_rss_kib(rig.server.pid()).map_err(|e| e.to_string())?;
    for _ in 0..SETUPS_AFTER {
        let mut s = set_up(args, &spec, open_secs, epoch).map_err(|e| format!("set-up: {e}"))?;
        fail.absorb(std::mem::take(&mut s.rig.driver.fail));
        s.rig.shutdown();
        setup_s.push(s.total_s);
        setup_ref_s.push(s.total_s * sample(&mut probe)?);
        schedule_s.push(s.schedule_s);
    }
    let push_stats = pusher.as_ref().map(StorePusher::stats);
    let mut attempted = rig.driver.attempted;
    let mut flush_ns = Vec::new();
    if let Some(w) = writer {
        fail.absorb(w.fail);
        attempted += w.writes;
        flush_ns = w.flush_ns;
        rig.driver.tr.absorb(w.tr);
    }

    // Validity of the answers, then of the generator.
    if fail.count > 0 {
        return Err(failure_report(&fail));
    }
    let mut invalid = Vec::new();
    for m in &modes {
        let achieved = m.achieved.iter().copied().fold(f64::INFINITY, f64::min);
        if achieved < MIN_ACHIEVED * spec.open_rate {
            invalid.push(format!(
                "open loop achieved {achieved:.0} ops/s of {} offered",
                spec.open_rate
            ));
        }
        if m.late_us_p99() > LATENCY_LIMIT_US {
            invalid.push(format!("sends ran {:.0} us late at p99", m.late_us_p99()));
        }
        if m.rates().is_empty() || m.clean(&m.latency).is_empty() {
            invalid.push("the host stole CPU time around every window".to_string());
        }
    }
    if !invalid.is_empty() {
        return Err(format!("run invalid: {}", invalid.join("; ")));
    }

    // End-to-end metrics, from the untraced mode, on the reference host.
    let base = &modes[0];
    let host = base.on_reference_host();
    let host_rate = probe.rate().ok_or("the host probe took no sample")?;
    let mut reads = ReadCounts::default();
    for m in &modes {
        reads.add(&m.closed.reads);
        reads.add(&m.open.reads);
    }
    let mut e2e = Metrics::default();
    e2e.put("peak_ops_s", host.peak_ops_s(), "1/s");
    e2e.put("p50_us", host.p50_us(), "us");
    e2e.put("p99_us", host.p99_us(), "us");
    e2e.put("read_served_ratio", reads.served_ratio(), "ratio");
    e2e.put("server_rss_mib", rss_kib as f64 / 1024.0, "MiB");
    e2e.put("setup_s", median(&setup_ref_s).unwrap_or(0.0), "s");
    // Printed with the end-to-end metrics but not in the result line:
    // the measured figures behind the scaled ones, and figures that are
    // zero on some workloads, or zero on every run that reports.
    let mut extra = Metrics::default();
    extra.put("host_round_trips_s", host_rate, "1/s");
    extra.put("measured.peak_ops_s", base.peak_ops_s(), "1/s");
    extra.put("measured.p50_us", base.p50_us(), "us");
    extra.put("measured.p99_us", base.p99_us(), "us");
    extra.put("measured.setup_s", median(&setup_s).unwrap_or(0.0), "s");
    let open = &base.open;
    extra.put(
        "backend_fetches_per_kread",
        per_thousand(open.refetches as f64, open.reads.issued as f64),
        "1/kread",
    );
    extra.put(
        "push_bytes_per_write",
        push_stats.map_or(0.0, |p| ratio(p.push_bytes as f64, p.writes as f64)),
        "B/write",
    );
    extra.put(
        "error_ratio",
        ratio(fail.count as f64, attempted as f64),
        "ratio",
    );
    extra.put("p99_all_us", base.p99_all_us(), "us");
    extra.put("gen_late_us_p99", base.late_us_p99(), "us");
    extra.put(
        "p99_clean_pooled_us",
        base.pooled(&base.latency, 0.99),
        "us",
    );

    let mut layer = Metrics::default();
    if args.trace {
        let counts = layer_counts(
            &spec,
            &mut rig,
            &schedule,
            &modes,
            push_stats,
            &flush_ns,
            &schedule_s,
            start,
            host_rate,
        )?;
        layer = layer_metrics(&counts);
    }

    // Provenance, results file, and the result line.
    let nproc = nproc();
    let achieved: Vec<String> = modes
        .iter()
        .flat_map(|m| m.achieved.iter().map(|a| format!("{a:.1}")))
        .collect();
    let mut prov = String::new();
    let _ = write!(
        prov,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu_model\": {:?}, \"generator_shares_cores_with_serve\": true, \"commit\": {:?}, \
         \"source_digest\": {:?}, \"rustc\": {:?}, \"offered_rate_ops_s\": {}, \
         \"achieved_rate_ops_s\": [{}], \"open_loop_samples\": {}, \"setups\": {}, \
         \"rounds\": {rounds}, \"windows_with_host_steal\": {:.4}, \
         \"host_probe_samples\": {}, \"reference_round_trips_s\": {}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::cpu_model(),
        args.commit,
        args.source,
        args.rustc,
        spec.open_rate,
        achieved.join(", "),
        base.latency.len(),
        setup_s.len(),
        base.stolen_share(),
        probe.samples(),
        hostspeed::REFERENCE_ROUND_TRIPS_S,
    );
    for (name, v, unit) in e2e.0.iter().chain(&extra.0).chain(&layer.0) {
        println!("{name:<36} {v:>14.4} {unit}");
    }
    println!("provenance {prov}");
    let shown = if args.trace { &layer } else { &e2e };
    let line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        fail.count,
        shown.json()?
    );
    write_results(args, &spec, &rig, &prov, &e2e, &extra, &layer)?;
    rig.shutdown();
    println!("{line}");
    Ok(())
}

/// Counters the per-layer metrics are ratios of, gathered from one run.
#[derive(Default)]
struct LayerCounts {
    /// Untraced closed-loop segments: reactor and forwarding costs.
    closed: Delta,
    /// Untraced open-loop segments: origin refetches per read.
    open: Delta,
    /// Reads degraded because the origin failed, whole run.
    origin_errors: u64,
    /// Store pusher, whole run.
    push: fresca_serve::PushStats,
    /// Every flush's duration, µs, ascending.
    flush_us: Vec<f64>,
    /// Client operations of the traced closed-loop segments, and the time
    /// spent inside `submit_*` and `complete*` during them, ns.
    traced_closed_ops: u64,
    submit_ns: u64,
    complete_ns: u64,
    codec: replay::CodecReplay,
    slab: replay::SlabReplay,
    schedule_s: f64,
    late_us_p99: f64,
    /// This process's CPU time and the wall time, untraced segments, ns.
    gen_ns: u64,
    wall_ns: u64,
    nproc: usize,
    steal_share: f64,
    /// The host probe's median rate, round trips per second.
    host_rate: f64,
    /// `(untraced, traced)` closed-loop peak and open-loop p50.
    peak: (f64, f64),
    p50: (f64, f64),
    /// Self time per span layer, ns, and the traced client operations.
    self_ns: Vec<(&'static str, u64)>,
    traced_ops: u64,
}

/// Gather the per-layer counters of a traced run, replaying its traffic
/// through the codec and the slab. `start` is when the store writes'
/// due times count from.
#[allow(clippy::too_many_arguments)]
fn layer_counts(
    spec: &Spec,
    rig: &mut Rig,
    schedule: &Schedule,
    modes: &[Mode],
    push: Option<fresca_serve::PushStats>,
    flush_ns: &[u64],
    schedule_s: &[f64],
    start: Instant,
    host_rate: f64,
) -> Result<LayerCounts, String> {
    let (base, traced) = (&modes[0], &modes[1]);
    let tr = &rig.driver.tr;
    let total = |name: &str| -> u64 {
        let spans = traced.closed_spans.iter();
        spans.map(|&(a, b)| tr.total(name, a, b).0).sum()
    };
    let mut rtr = tr.fork(2);
    let codec = replay::codec(&rig.driver.done, schedule, &mut rtr)?;
    // The slab sees the traced segments' client operations and the store
    // writes due during those segments, applied as updates or
    // invalidations in the share the pusher decided.
    let start_ns = tr.at(start);
    let segments: Vec<(u64, u64)> = traced
        .closed_spans
        .iter()
        .chain(&traced.open_spans)
        .copied()
        .collect();
    let writes: Vec<(u64, u64)> = schedule
        .store_writes
        .iter()
        .map(|&(at, key, _)| (key, start_ns + at.as_nanos()))
        .filter(|&(_, t)| segments.iter().any(|&(a, b)| (a..b).contains(&t)))
        .collect();
    let p = push.unwrap_or_default();
    let update_share = ratio(
        p.decided_update as f64,
        (p.decided_update + p.decided_invalidate) as f64,
    );
    let stream = replay::slab_stream(&rig.driver.sent, &writes, update_share);
    let slab = replay::slab(&stream, spec, schedule, &mut rtr);
    let mut c = LayerCounts {
        closed: base.closed,
        open: base.open,
        origin_errors: modes
            .iter()
            .map(|x| x.closed.origin_errors + x.open.origin_errors)
            .sum(),
        push: push.unwrap_or_default(),
        flush_us: flush_ns.iter().map(|&n| n as f64 / 1e3).collect(),
        traced_closed_ops: traced.closed.ops,
        submit_ns: total("client.submit_get") + total("client.submit_put"),
        complete_ns: total("client.complete"),
        codec,
        slab,
        schedule_s: median(schedule_s).unwrap_or(0.0),
        late_us_p99: base.late_us_p99(),
        gen_ns: base.closed.gen.cpu_ns + base.open.gen.cpu_ns,
        wall_ns: base.closed.wall_ns + base.open.wall_ns,
        nproc: nproc(),
        steal_share: base.stolen_share(),
        host_rate,
        peak: (base.peak_ops_s(), traced.peak_ops_s()),
        p50: (base.p50_us(), traced.p50_us()),
        self_ns: Vec::new(),
        traced_ops: traced.closed.ops + traced.open.ops,
    };
    c.flush_us.sort_by(f64::total_cmp);
    rig.driver.tr.absorb(rtr);
    let by_layer = rig.driver.tr.self_time_by_layer();
    c.self_ns = SPAN_LAYERS
        .iter()
        .map(|&l| (l, by_layer.get(l).copied().unwrap_or(0)))
        .collect();
    Ok(c)
}

/// The per-layer metrics: each a ratio of counters over a stated base.
fn layer_metrics(c: &LayerCounts) -> Metrics {
    let mut m = Metrics::default();
    // Reactor, per client operation of the untraced closed loop.
    let ops = c.closed.ops as f64;
    let srv = &c.closed.server;
    m.put(
        "server.cpu_us_per_op",
        ratio(srv.cpu_ns as f64 / 1e3, ops),
        "us/op",
    );
    m.put(
        "server.sys_share",
        ratio(srv.stime as f64, (srv.utime + srv.stime) as f64),
        "ratio",
    );
    m.put(
        "server.write_syscalls_per_op",
        ratio(srv.syscw as f64, ops),
        "1/op",
    );
    m.put(
        "server.ctx_switches_per_op",
        ratio(srv.ctx_switches as f64, ops),
        "1/op",
    );
    m.put(
        "server.busy_ratio",
        ratio(srv.cpu_ns as f64, c.closed.wall_ns as f64),
        "cores",
    );
    m.put(
        "server.forwards_per_op",
        ratio(c.closed.forwards as f64, ops),
        "1/op",
    );
    // Origin, per read of the untraced open loop; coalesced reads over
    // all reads that needed the origin.
    let o = &c.open;
    let needed = (o.refetches + o.coalesced) as f64;
    m.put(
        "origin.refetches_per_kread",
        per_thousand(o.refetches as f64, o.reads.issued as f64),
        "1/kread",
    );
    m.put(
        "origin.coalesced_ratio",
        ratio(o.coalesced as f64, needed),
        "ratio",
    );
    m.put("origin.errors", c.origin_errors as f64, "count");
    // Push path, whole run.
    let p = &c.push;
    let decided = (p.decided_update + p.decided_invalidate) as f64;
    m.put(
        "push.flush_us_p50",
        percentile(&c.flush_us, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "push.flush_us_p99",
        percentile(&c.flush_us, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put(
        "push.keys_per_batch",
        ratio(p.keys_pushed as f64, p.batches as f64),
        "keys/batch",
    );
    m.put(
        "push.update_share",
        ratio(p.decided_update as f64, decided),
        "ratio",
    );
    m.put(
        "push.suppressed_per_write",
        ratio(p.suppressed as f64, p.writes as f64),
        "1/write",
    );
    m.put(
        "push.bytes_per_write",
        ratio(p.push_bytes as f64, p.writes as f64),
        "B/write",
    );
    // Client, per operation of the traced closed loop.
    let traced = c.traced_closed_ops as f64;
    m.put(
        "client.submit_ns_per_op",
        ratio(c.submit_ns as f64, traced),
        "ns/op",
    );
    m.put(
        "client.wait_us_per_op",
        ratio(c.complete_ns as f64 / 1e3, traced),
        "us/op",
    );
    // Codec per frame (a request and its reply are two), wire bytes per
    // request; slab per replayed operation, hits per get.
    let (k, s) = (&c.codec, &c.slab);
    m.put(
        "codec.encode_ns_per_frame",
        ratio(k.encode_ns as f64, k.frames as f64),
        "ns/frame",
    );
    m.put(
        "codec.decode_ns_per_frame",
        ratio(k.decode_ns as f64, k.frames as f64),
        "ns/frame",
    );
    m.put(
        "codec.wire_bytes_per_op",
        ratio(k.wire_bytes as f64, k.ops as f64),
        "B/op",
    );
    m.put("slab.ns_per_op", ratio(s.ns as f64, s.ops as f64), "ns/op");
    m.put(
        "slab.hit_ratio",
        ratio(s.hits as f64, s.gets as f64),
        "ratio",
    );
    m.put(
        "slab.evictions_per_kop",
        per_thousand(s.evictions as f64, s.ops as f64),
        "1/kop",
    );
    m.put("workload.schedule_build_s", c.schedule_s, "s");
    // Generator health: CPU over the host's capacity in the untraced
    // segments, and what tracing cost.
    m.put("bench.gen_late_us_p99", c.late_us_p99, "us");
    let capacity = c.wall_ns as f64 * c.nproc as f64;
    m.put(
        "bench.gen_cpu_share",
        ratio(c.gen_ns as f64, capacity),
        "ratio",
    );
    m.put("bench.host_steal_share", c.steal_share, "ratio");
    m.put("bench.host_round_trips_s", c.host_rate, "1/s");
    m.put(
        "bench.tracing_overhead.peak_ops_s",
        slowdown(c.peak.0, c.peak.1, true),
        "ratio",
    );
    m.put(
        "bench.tracing_overhead.p50_us",
        slowdown(c.p50.0, c.p50.1, false),
        "ratio",
    );
    // Self time per layer, per client operation of the traced segments
    // (requests overlap, so the request layer's in-flight time exceeds
    // the wall time).
    for &(layer, ns) in &c.self_ns {
        let name = format!("trace.self_ns_per_op.{layer}");
        m.put(name, ratio(ns as f64, c.traced_ops as f64), "ns/op");
    }
    m
}

fn failure_report(fail: &Failures) -> String {
    format!(
        "{} operations failed; first: {}",
        fail.count,
        fail.kept.join(" | ")
    )
}

fn write_results(
    args: &Args,
    spec: &Spec,
    rig: &Rig,
    prov: &str,
    e2e: &Metrics,
    extra: &Metrics,
    layer: &Metrics,
) -> Result<(), String> {
    let dir = &args.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let body = format!(
        "{{\"provenance\": {prov}, \"end_to_end\": {}, \"also\": {}, \"per_layer\": {}}}\n",
        e2e.json()?,
        extra.json()?,
        layer.json()?
    );
    let path = dir.join(format!("result-{stem}.json"));
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let path = dir.join(format!("spans-{}.tsv", spec.name));
        rig.driver
            .tr
            .write_tsv(&path, SPANS_WRITTEN_ONE_IN)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(m: &Metrics, name: &str) -> f64 {
        m.0.iter()
            .find(|(n, _, _)| n == name)
            .map(|x| x.1)
            .expect(name)
    }

    #[test]
    fn layer_ratios_use_their_stated_bases() {
        let mut c = LayerCounts::default();
        c.closed.ops = 1000;
        c.closed.wall_ns = 2_000_000;
        c.closed.server = ProcSample {
            cpu_ns: 1_000_000,
            utime: 1,
            stime: 3,
            syscw: 500,
            ctx_switches: 50,
        };
        c.closed.forwards = 700;
        c.open.reads.issued = 2000;
        c.open.refetches = 600;
        c.open.coalesced = 200;
        c.push = fresca_serve::PushStats {
            writes: 100,
            batches: 10,
            keys_pushed: 80,
            suppressed: 20,
            push_bytes: 7300,
            decided_update: 60,
            decided_invalidate: 20,
            ..Default::default()
        };
        c.flush_us = (1..=100).map(f64::from).collect();
        c.traced_closed_ops = 4;
        c.submit_ns = 400;
        c.complete_ns = 8000;
        c.codec = replay::CodecReplay {
            ops: 5,
            frames: 10,
            encode_ns: 100,
            decode_ns: 300,
            wire_bytes: 450,
        };
        c.slab = replay::SlabReplay {
            ops: 2000,
            ns: 1000,
            gets: 1000,
            hits: 750,
            evictions: 10,
        };
        c.gen_ns = 500;
        c.wall_ns = 1000;
        c.nproc = 2;
        c.host_rate = 150_000.0;
        c.peak = (100.0, 95.0);
        c.p50 = (40.0, 42.0);
        c.self_ns = vec![("client", 800)];
        c.traced_ops = 8;
        let m = layer_metrics(&c);
        let expect = [
            ("server.cpu_us_per_op", 1.0),         // 1000 us over 1000 ops
            ("server.sys_share", 0.75),            // stime over utime + stime
            ("server.write_syscalls_per_op", 0.5), // over ops
            ("server.ctx_switches_per_op", 0.05),
            ("server.busy_ratio", 0.5), // cpu over wall: half a core
            ("server.forwards_per_op", 0.7),
            ("origin.refetches_per_kread", 300.0), // over reads, not ops
            ("origin.coalesced_ratio", 0.25),      // over refetches + coalesced
            ("push.flush_us_p50", 50.0),
            ("push.flush_us_p99", 99.0),
            ("push.keys_per_batch", 8.0),
            ("push.update_share", 0.75),        // over decided keys
            ("push.suppressed_per_write", 0.2), // over writes
            ("push.bytes_per_write", 73.0),     // over writes, not batches
            ("client.submit_ns_per_op", 100.0),
            ("client.wait_us_per_op", 2.0),
            ("codec.encode_ns_per_frame", 10.0), // over frames
            ("codec.decode_ns_per_frame", 30.0),
            ("codec.wire_bytes_per_op", 90.0), // over requests
            ("slab.ns_per_op", 0.5),
            ("slab.hit_ratio", 0.75),        // over gets
            ("slab.evictions_per_kop", 5.0), // over all replayed ops
            ("bench.gen_cpu_share", 0.25),   // over wall x CPUs
            ("bench.host_round_trips_s", 150_000.0),
            ("bench.tracing_overhead.peak_ops_s", 0.05),
            ("bench.tracing_overhead.p50_us", 0.05),
            ("trace.self_ns_per_op.client", 100.0),
        ];
        for (name, want) in expect {
            let got = value(&m, name);
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        }
    }

    #[test]
    fn reference_host_scales_each_segment_by_its_own_speed() {
        let closed = |rates: &[f64]| ClosedOut {
            window_rates: rates.to_vec(),
            window_steal: vec![0; rates.len()],
        };
        let mut m = Mode::new(Duration::from_millis(10));
        m.add_closed(closed(&[100.0, 200.0]), Delta::default(), (0, 1), 2.0);
        m.add_closed(closed(&[300.0]), Delta::default(), (1, 2), 0.5);
        let open = OpenOut {
            latency: vec![(0, 10_000)],
            late: vec![(0, 1_000)],
            window_steal: vec![0],
            sent: 1,
            achieved_rate: 1.0,
        };
        m.add_open(open, Delta::default(), (2, 3), 2.0);
        let h = m.on_reference_host();
        // A host twice as fast as the reference: rates halve, times double.
        assert_eq!(
            h.closed_rates,
            vec![(0, 50.0), (1, 100.0), (100_000, 600.0)]
        );
        assert_eq!(h.latency, vec![(0, 20.0)]);
        // How late the generator ran is a property of this host: unscaled.
        assert_eq!(h.late, m.late);
    }

    #[test]
    fn every_declared_per_layer_metric_is_reported() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let c = LayerCounts {
            self_ns: SPAN_LAYERS.iter().map(|&l| (l, 0)).collect(),
            ..LayerCounts::default()
        };
        let m = layer_metrics(&c);
        let names: Vec<&str> = m.0.iter().map(|(n, _, _)| n.as_str()).collect();
        let declared = spec.split("\"per_layer\"").nth(1).expect("per_layer list");
        for n in &names {
            assert!(
                declared.contains(&format!("\"{n}\"")),
                "{n} is reported but not declared"
            );
        }
        assert_eq!(
            declared.matches("\"name\"").count(),
            names.len(),
            "declared but not reported"
        );
    }
}
