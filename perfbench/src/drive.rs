//! The load generator: one pipelined connection driven closed loop or
//! open loop, every reply checked, and the store writer that runs beside
//! it in the freshness workload.

use crate::procfs;
use crate::replay;
use crate::stats::ReadCounts;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Schedule, StoreWrite, KEY_BASE};
use fresca_net::{payload, GetStatus};
use fresca_serve::{PipelinedClient, Response, StorePusher};
use fresca_workload::{TimedOp, WireOp};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a request may go unanswered before the run counts it as
/// failed ("no reply").
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(3);

/// Width of the windows the closed loop counts completions in.
pub const CLOSED_WINDOW: Duration = Duration::from_millis(100);

/// Open-loop operations per window: consecutive sends in due order, so
/// each window's p99 has ten samples beyond it. Short windows keep a
/// host stall of a few milliseconds (a VM losing its core) inside few
/// windows, so leaving out the windows near one the host stole time in
/// costs few samples.
pub const WINDOW_OPS: u32 = 1000;

/// Failure messages kept for the log; the count is always exact.
const KEPT_ERRORS: usize = 8;

/// Requests in flight, indexed by request id modulo a power of two.
const RING: usize = 1 << 16;

/// Counts failures: no reply, transport errors, checksum mismatches and
/// version anomalies. Any failure makes the run exit nonzero.
#[derive(Debug, Default)]
pub struct Failures {
    /// Failed operations.
    pub count: u64,
    /// The first few, for the log.
    pub kept: Vec<String>,
}

impl Failures {
    /// Count one failure.
    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.kept.len() < KEPT_ERRORS {
            self.kept.push(what);
        }
    }

    /// Fold in another thread's failures.
    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for k in other.kept {
            if self.kept.len() < KEPT_ERRORS {
                self.kept.push(k);
            }
        }
    }
}

/// A completed request, kept in the traced run for the codec replay.
#[derive(Debug, Clone)]
pub struct Done {
    /// Request id.
    pub id: u64,
    /// The operation sent.
    pub op: WireOp,
    /// Version in the reply.
    pub version: u64,
    /// Status of a get (unused for puts).
    pub status: GetStatus,
    /// Value length served (0 for puts and unserved gets).
    pub len: u32,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    op: WireOp,
    /// Due time (open loop) or submit time (closed loop): latency base.
    t: Instant,
    /// The key's highest acknowledged put version when the get was sent.
    floor: u64,
    /// Span id of the request (traced run).
    span: u64,
    /// Epoch-relative submit time (traced run).
    start: u64,
    /// Position in the open-loop segment (0 in the closed loop).
    seq: u32,
}

/// Result of a closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedOut {
    /// Completion rate of every full window, ops/s.
    pub window_rates: Vec<f64>,
    /// CPU time the host took from this VM during each window, ticks.
    pub window_steal: Vec<u64>,
}

/// Result of an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenOut {
    /// Per operation: window (see [`WINDOW_OPS`]), latency from due time
    /// in ns.
    pub latency: Vec<(u32, u64)>,
    /// Per operation: window, how late its send ran in ns.
    pub late: Vec<(u32, u64)>,
    /// CPU time the host took from this VM during each window, ticks.
    pub window_steal: Vec<u64>,
    /// Operations sent.
    pub sent: u64,
    /// Sends per second over the phase, as achieved.
    pub achieved_rate: f64,
}

/// One connection's generator: sends, matches replies, checks them.
pub struct Driver {
    /// The connection under load.
    pub client: PipelinedClient,
    /// Spans of this thread.
    pub tr: Tracer,
    /// Failures so far.
    pub fail: Failures,
    /// Gets answered, by status.
    pub reads: ReadCounts,
    /// Client operations sent.
    pub attempted: u64,
    /// The first completed requests of the traced segments (for the
    /// codec replay).
    pub done: Vec<Done>,
    /// Keys sent with epoch-relative send times, kept while tracing (for
    /// the slab replay).
    pub sent: Vec<(u64, u64, bool)>,
    /// Highest acknowledged put version per key.
    acked: Vec<u64>,
    ring: Vec<Option<Pending>>,
    values: Vec<bytes::Bytes>,
}

impl Driver {
    /// A generator on `client` for keys `KEY_BASE..KEY_BASE + keys`.
    pub fn new(client: PipelinedClient, tr: Tracer, schedule: &Schedule) -> Self {
        Driver {
            client,
            tr,
            fail: Failures::default(),
            reads: ReadCounts::default(),
            attempted: 0,
            done: Vec::new(),
            sent: Vec::new(),
            acked: vec![0; schedule.values.len()],
            ring: vec![None; RING],
            values: schedule.values.clone(),
        }
    }

    fn slot(id: u64) -> usize {
        id as usize & (RING - 1)
    }

    /// Send `op`; `t` is its latency base.
    fn submit(&mut self, op: WireOp, t: Instant, seq: u32) -> io::Result<()> {
        let on = self.tr.is_on();
        let start = if on { self.tr.now() } else { 0 };
        let (id, floor, name) = match op {
            WireOp::Get { key, max_staleness } => {
                self.reads.issued += 1;
                let id = self.client.submit_get(key, max_staleness)?;
                (
                    id,
                    self.acked[(key - KEY_BASE) as usize],
                    "client.submit_get",
                )
            }
            WireOp::Put { key, ttl, .. } => {
                let value = self.values[(key - KEY_BASE) as usize].clone();
                (
                    self.client.submit_put(key, value, ttl)?,
                    0,
                    "client.submit_put",
                )
            }
        };
        self.attempted += 1;
        let mut span = 0;
        if on {
            let end = self.tr.now();
            span = self.tr.reserve();
            let sid = self.tr.reserve();
            self.tr.record(sid, span, id.0, name, start, end);
            self.sent.push((op.key(), start, op.is_get()));
        }
        let slot = Self::slot(id.0);
        if self.ring[slot].is_some() {
            return Err(io::Error::other(format!(
                "more than {RING} requests in flight: the server stopped answering"
            )));
        }
        self.ring[slot] = Some(Pending {
            id: id.0,
            op,
            t,
            floor,
            span,
            start,
            seq,
        });
        Ok(())
    }

    /// Collect one reply: without waiting (`None`) or waiting up to
    /// `timeout`. Returns the reply's arrival time, latency base and
    /// open-loop position.
    fn reap(&mut self, timeout: Option<Duration>) -> io::Result<Option<(Instant, Instant, u32)>> {
        let t0 = if self.tr.is_on() { self.tr.now() } else { 0 };
        let got = match timeout {
            None => self.client.try_complete()?,
            Some(t) => self.client.complete_timeout(t)?,
        };
        let Some((id, resp)) = got else {
            return Ok(None);
        };
        let now = Instant::now();
        let Some(p) = self.ring[Self::slot(id.0)].take().filter(|p| p.id == id.0) else {
            self.fail.add(format!("reply to unknown request {}", id.0));
            return Ok(Some((now, now, 0)));
        };
        if self.tr.is_on() && p.span != 0 {
            let t1 = self.tr.at(now);
            let cid = self.tr.reserve();
            self.tr.record(cid, p.span, p.id, "client.complete", t0, t1);
            let name = if p.op.is_get() {
                "request.get"
            } else {
                "request.put"
            };
            self.tr.record(p.span, ROOT, p.id, name, p.start, t1);
        }
        self.check(&p, resp);
        Ok(Some((now, p.t, p.seq)))
    }

    /// Check one reply against the request it answers.
    fn check(&mut self, p: &Pending, resp: Response) {
        let mut done = Done {
            id: p.id,
            op: p.op,
            version: 0,
            status: GetStatus::Miss,
            len: 0,
        };
        match (p.op, resp) {
            (WireOp::Get { key, .. }, Response::Get { key: k, outcome }) if k == key => {
                match outcome.status {
                    GetStatus::Fresh => self.reads.fresh += 1,
                    GetStatus::ServedStale => self.reads.served_stale += 1,
                    GetStatus::RefusedStale => self.reads.refused += 1,
                    GetStatus::Miss => self.reads.misses += 1,
                }
                if outcome.is_served() {
                    // Every writer in a run sends non-empty pattern
                    // values, so an empty served value is corrupt too.
                    if outcome.value.is_empty() || !payload::verify(key, &outcome.value) {
                        self.fail.add(format!(
                            "checksum mismatch: key {key}, {} bytes",
                            outcome.value.len()
                        ));
                    }
                    if outcome.version < p.floor {
                        self.fail.add(format!(
                            "version anomaly: key {key} served v{} after put v{} was acked",
                            outcome.version, p.floor
                        ));
                    }
                }
                done.version = outcome.version;
                done.status = outcome.status;
                done.len = outcome.value.len() as u32;
            }
            (WireOp::Put { key, .. }, Response::Put { key: k, version }) if k == key => {
                let acked = &mut self.acked[(key - KEY_BASE) as usize];
                *acked = (*acked).max(version);
                done.version = version;
            }
            (op, resp) => self
                .fail
                .add(format!("reply {resp:?} does not answer {op:?}")),
        }
        if self.tr.is_on() && self.done.len() < replay::CODEC_OPS {
            self.done.push(done);
        }
    }

    /// Wait for every request in flight; one unanswered for
    /// [`REPLY_TIMEOUT`] fails with all others still outstanding.
    pub fn drain(&mut self) -> io::Result<()> {
        while self.client.in_flight() > 0 {
            if self.reap(Some(REPLY_TIMEOUT))?.is_none() {
                let n = self.client.in_flight();
                for _ in 0..n {
                    self.fail.add("no reply".to_string());
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{n} requests unanswered"),
                ));
            }
        }
        Ok(())
    }

    /// Put every key once, `depth` requests in flight.
    pub fn warm_fill(&mut self, keys: u64, depth: usize) -> io::Result<()> {
        for key in KEY_BASE..KEY_BASE + keys {
            while self.client.in_flight() >= depth {
                self.reap_or_fail()?;
            }
            self.submit(
                WireOp::Put {
                    key,
                    value_size: 0,
                    ttl: None,
                },
                Instant::now(),
                0,
            )?;
        }
        self.drain()
    }

    fn reap_or_fail(&mut self) -> io::Result<(Instant, Instant, u32)> {
        match self.reap(Some(REPLY_TIMEOUT))? {
            Some(t) => Ok(t),
            None => {
                self.fail.add("no reply".to_string());
                Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"))
            }
        }
    }

    /// Closed loop for `dur`: keep `depth` requests in flight, cycling
    /// through `ops` from `*cursor`.
    pub fn closed(
        &mut self,
        ops: &[WireOp],
        cursor: &mut usize,
        depth: usize,
        dur: Duration,
    ) -> io::Result<ClosedOut> {
        let windows = (dur.as_nanos() / CLOSED_WINDOW.as_nanos()) as usize;
        let mut counts = vec![0u64; windows];
        let mut out = ClosedOut::default();
        let mut steal = procfs::steal_ticks();
        let start = Instant::now();
        let end = start + dur;
        let mut edge = start + CLOSED_WINDOW;
        loop {
            while self.client.in_flight() < depth {
                let op = ops[*cursor % ops.len()];
                *cursor += 1;
                self.submit(op, Instant::now(), 0)?;
            }
            let (now, _, _) = self.reap_or_fail()?;
            while now >= edge && out.window_steal.len() < windows {
                let s = procfs::steal_ticks();
                out.window_steal.push(s.saturating_sub(steal));
                steal = s;
                edge += CLOSED_WINDOW;
            }
            if now >= end {
                break;
            }
            let w = (now.duration_since(start).as_nanos() / CLOSED_WINDOW.as_nanos()) as usize;
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
        self.drain()?;
        out.window_rates = counts
            .iter()
            .map(|&c| c as f64 / CLOSED_WINDOW.as_secs_f64())
            .collect();
        Ok(out)
    }

    /// Open loop: send each op due in `[from, from + dur)` of the
    /// schedule at its due time, whatever is in flight, and time it from
    /// the due time, so a stall is charged to every request it delays.
    pub fn open(&mut self, ops: &[TimedOp], from: Duration, dur: Duration) -> io::Result<OpenOut> {
        let first = ops.partition_point(|t| Duration::from_nanos(t.at.as_nanos()) < from);
        let last = ops.partition_point(|t| Duration::from_nanos(t.at.as_nanos()) < from + dur);
        let ops = &ops[first..last];
        let mut out = OpenOut::default();
        out.latency.reserve(ops.len());
        out.late.reserve(ops.len());
        let mut steal = procfs::steal_ticks();
        let start = Instant::now();
        for (seq, op) in (0u32..).zip(ops) {
            if seq > 0 && seq % WINDOW_OPS == 0 {
                let s = procfs::steal_ticks();
                out.window_steal.push(s.saturating_sub(steal));
                steal = s;
            }
            let due = start + (Duration::from_nanos(op.at.as_nanos()) - from);
            loop {
                while let Some(done) = self.reap(None)? {
                    out.record(done);
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let wait = due - now;
                if self.client.in_flight() > 0 {
                    // poll(2) waits whole milliseconds: park only when
                    // the next send is further off than that.
                    if wait > Duration::from_millis(2) {
                        if let Some(done) = self.reap(Some(wait - Duration::from_millis(1)))? {
                            out.record(done);
                        }
                    } else {
                        // Spin, but let a server thread sharing this
                        // core run first.
                        std::thread::yield_now();
                    }
                } else if wait > Duration::from_micros(300) {
                    std::thread::sleep(wait - Duration::from_micros(200));
                } else {
                    std::thread::yield_now();
                }
            }
            let late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            out.late.push((seq / WINDOW_OPS, late));
            self.submit(op.op, due, seq)?;
            out.sent += 1;
        }
        // A generator that fell behind sent its last op after the phase
        // ended, which stretches the span the rate is taken over.
        let sent_for = start.elapsed().max(dur);
        while self.client.in_flight() > 0 {
            let done = self.reap_or_fail()?;
            out.record(done);
        }
        out.window_steal
            .push(procfs::steal_ticks().saturating_sub(steal));
        out.achieved_rate = out.sent as f64 / sent_for.as_secs_f64();
        Ok(out)
    }
}

impl OpenOut {
    fn record(&mut self, (now, due, seq): (Instant, Instant, u32)) {
        self.latency.push((
            seq / WINDOW_OPS,
            now.saturating_duration_since(due).as_nanos() as u64,
        ));
    }
}

/// What the store writer did.
#[derive(Debug)]
pub struct WriterOut {
    /// Duration of every flush, ns.
    pub flush_ns: Vec<u64>,
    /// Store writes applied.
    pub writes: u64,
    /// Flushes that failed.
    pub fail: Failures,
    /// The writer thread's spans.
    pub tr: Tracer,
}

/// Apply `writes` at their due times from `start` until `stop` is set,
/// flushing every `flush_every`.
pub fn store_writer(
    pusher: &mut StorePusher,
    writes: &[StoreWrite],
    start: Instant,
    stop: &AtomicBool,
    flush_every: Duration,
    mut tr: Tracer,
) -> WriterOut {
    let mut flush_ns = Vec::new();
    let mut fail = Failures::default();
    let mut flush = |pusher: &mut StorePusher, tr: &mut Tracer| {
        let t = Instant::now();
        let res = tr.span(ROOT, 0, "push.flush", || pusher.flush());
        flush_ns.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = res {
            fail.add(format!("store flush failed: {e}"));
        }
    };
    let mut next = writes.iter().peekable();
    let mut next_flush = start + flush_every;
    let mut applied = 0;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if now >= next_flush {
            flush(pusher, &mut tr);
            next_flush = (next_flush + flush_every).max(Instant::now());
            continue;
        }
        let due = next
            .peek()
            .map(|w| start + Duration::from_nanos(w.0.as_nanos()));
        if due.is_some_and(|d| d <= now) {
            let &(_, key, size) = next.next().expect("peeked");
            tr.span(ROOT, 0, "push.write", || pusher.write(key, size));
            applied += 1;
            continue;
        }
        let wake = due.map_or(next_flush, |d| d.min(next_flush));
        std::thread::sleep(wake.saturating_duration_since(now));
    }
    flush(pusher, &mut tr);
    WriterOut {
        flush_ns,
        writes: applied,
        fail,
        tr,
    }
}
