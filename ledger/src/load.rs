//! The load generator: two threads, one connection each, driving a spawned
//! server through the wire protocol only.

use crate::conn::Conn;
use crate::host;
use crate::span::Span;
use crate::spec::{Class, Query, Role, Workload, BASE_ITEMS, CLASSES, PROBES_PER_S, UNIVERSE};
use crate::sut::Sut;
use ms_service::{Client, Request, Response};
use ms_workloads::StreamKind;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The base stream; the server only ever sees batches cut from it.
pub struct Stream {
    pub items: Vec<u64>,
    /// The most frequent item (the `Point` probe's argument).
    pub top_item: u64,
}

impl Stream {
    pub fn generate(seed: u64) -> Stream {
        let items = StreamKind::Zipf {
            s: 1.1,
            universe: UNIVERSE,
        }
        .generate(BASE_ITEMS, seed);
        let counts = tally(&items, |_| 1);
        let top_item = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap_or(0) as u64;
        Stream { items, top_item }
    }

    /// Batch `i` of client `client`'s cyclic sequence: the clients take
    /// alternate batches of the base stream.
    fn batch(&self, size: usize, client: usize, i: u64) -> &[u64] {
        let per_client = (self.items.len() / size / 2) as u64;
        let at = ((i % per_client) * 2 + client as u64) as usize * size;
        &self.items[at..at + size]
    }

    /// Exact item counts after client `c` has sent its first `sent[c]`
    /// batches, indexed by item.
    pub fn exact_counts(&self, size: usize, sent: [u64; 2]) -> Vec<u64> {
        let per_client = (self.items.len() / size / 2) as u64;
        tally(&self.items, |at| {
            let (batch, client) = ((at / size / 2) as u64, (at / size) % 2);
            sent[client] / per_client + u64::from(batch < sent[client] % per_client)
        })
    }
}

/// Σ `weight(position)` per item, indexed by item.
fn tally(items: &[u64], weight: impl Fn(usize) -> u64) -> Vec<u64> {
    let mut counts = vec![0u64; UNIVERSE as usize + 1];
    for (at, &item) in items.iter().enumerate() {
        let slot = item as usize;
        if slot >= counts.len() {
            counts.resize(slot + 1, 0);
        }
        counts[slot] += weight(at);
    }
    counts
}

/// How far each client is into its batch sequence, and the items acked so
/// far (both cumulative since the server started).
#[derive(Default)]
pub struct Progress {
    pub sent: [u64; 2],
    pub acked_items: AtomicU64,
}

impl Progress {
    pub fn acked(&self) -> u64 {
        self.acked_items.load(Ordering::Relaxed)
    }
}

/// A started, warmed-up system under test.
pub struct Setup {
    pub sut: Sut,
    pub stream: Stream,
    pub progress: Progress,
    /// Stream generation + spawn → first `Ping` ok + warm-up.
    pub setup_s: f64,
    /// Closed-loop rate of the warm-up: the capacity of this configuration
    /// at the workload's batch size.
    pub warmup_items_per_s: f64,
}

pub fn set_up(bin: &Path, out_dir: &Path, w: &Workload, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let stream = Stream::generate(seed);
    let sut = Sut::start(bin, out_dir, w).map_err(|e| format!("spawn: {e}"))?;
    let mut control = Client::connect(sut.front.as_str()).map_err(|e| format!("connect: {e}"))?;
    match control.call(&Request::Ping) {
        Ok(Response::Ok) => {}
        other => return Err(format!("ping: {other:?}")),
    }
    let mut progress = Progress::default();
    let per_client = (w.warmup_items / w.batch / 2) as u64;
    let warm = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (stream, addr) = (&stream, sut.front.as_str());
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for i in 0..per_client {
                        client
                            .ingest_slice(stream.batch(w.batch, c, i))
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    for r in results {
        r.map_err(|e| format!("warm-up: {e}"))?;
    }
    let warmup_items = per_client * 2 * w.batch as u64;
    let warmup_items_per_s = warmup_items as f64 / warm.elapsed().as_secs_f64();
    progress.sent = [per_client; 2];
    progress.acked_items.store(warmup_items, Ordering::Relaxed);
    // Warm means the compactor has published: queries answer from a snapshot.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = control.metrics().map_err(|e| format!("metrics: {e}"))?;
        if m.snapshot_weight > 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err("no snapshot published within 10 s of warm-up".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Setup {
        sut,
        stream,
        progress,
        setup_s: started.elapsed().as_secs_f64(),
        warmup_items_per_s,
    })
}

/// What the generator threads count while a window runs.
pub struct Tally {
    /// Latency samples in ns, per class.
    pub lat_ns: Vec<Vec<u64>>,
    /// Open-loop generator lateness (send − due), ns.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Range answers seen, how many of them merged no segment, the largest
    /// `covered_weight` among them (correctness), and Σ `segments_merged`
    /// with its count per class (the coverage actually achieved).
    pub range_answers: u64,
    pub empty_ranges: u64,
    pub max_covered: u64,
    pub covered: [(u64, u64); CLASSES],
    /// 1 Hz samples (only with `sample`): acked − `snapshot_weight`, and
    /// the deepest shard queue.
    pub lag_items: Vec<f64>,
    pub queue_depth_max: i64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            lat_ns: vec![Vec::new(); CLASSES],
            late_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            range_answers: 0,
            empty_ranges: 0,
            max_covered: 0,
            covered: [(0, 0); CLASSES],
            lag_items: Vec::new(),
            queue_depth_max: 0,
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.range_answers += other.range_answers;
        self.empty_ranges += other.empty_ranges;
        self.max_covered = self.max_covered.max(other.max_covered);
        for (mine, theirs) in self.covered.iter_mut().zip(other.covered) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.lag_items.extend(other.lag_items);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }
}

/// What one timed window measured.
pub struct WindowOut {
    /// Acked items ÷ window length.
    pub items_per_s: f64,
    /// Σ server-side `utime + stime` over the window ÷ million acked items.
    pub cpu_s_per_mitem: f64,
    pub peak_rss_mib: f64,
    /// Both threads' counts.
    pub tally: Tally,
    /// Client-side spans per thread (only from a `SpanConn`).
    pub spans: Vec<Vec<Span>>,
}

/// Server clock anchor and recent segment boundaries, for sizing range
/// windows.
struct CubeClock {
    at: Instant,
    server_micros: u64,
    /// `start_micros` of the most recent sealed segments, oldest first.
    sealed_starts: Vec<u64>,
}

struct Worker<'a, C: Conn> {
    conn: Option<C>,
    addr: &'a str,
    thread: usize,
    w: &'a Workload,
    stream: &'a Stream,
    acked: &'a AtomicU64,
    t0: Instant,
    next_batch: u64,
    next_probe: usize,
    /// This thread issues the workload's probes (and anchors their clock).
    probing: bool,
    clock: Option<CubeClock>,
    next_refresh: Instant,
    next_sample: Option<Instant>,
    /// Batches acked by this thread during the window.
    sent: u64,
    spans: Vec<Span>,
    out: Tally,
}

impl<C: Conn> Worker<'_, C> {
    /// One round trip; on failure count it and reconnect.
    fn request<T>(&mut self, f: impl FnOnce(&mut C) -> Result<T, String>) -> Option<T> {
        self.out.attempted += 1;
        let result = match self.conn.as_mut() {
            Some(conn) => f(conn),
            None => Err("not connected".to_string()),
        };
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                if self.out.failed == 0 {
                    eprintln!("ledger: {} client {}: {e}", self.w.name, self.thread);
                }
                self.out.failed += 1;
                let spans = self.conn.take().map(Conn::into_spans).unwrap_or_default();
                self.spans.extend(spans);
                self.conn = C::connect(self.addr, self.thread as u64, self.t0).ok();
                None
            }
        }
    }

    /// Send the next batch; latency runs from `due` (open loop) or from the
    /// send (closed loop).
    fn ingest(&mut self, due: Option<Instant>) {
        let stream = self.stream;
        let batch = stream.batch(self.w.batch, self.thread, self.next_batch);
        let sent_at = Instant::now();
        if self
            .request(|c| c.ingest(batch).map_err(|e| e.to_string()))
            .is_none()
        {
            return;
        }
        let done = Instant::now();
        self.next_batch += 1;
        self.sent += 1;
        self.acked.fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.record(Class::Ack, due, sent_at, done);
    }

    fn record(&mut self, class: Class, due: Option<Instant>, sent_at: Instant, done: Instant) {
        if let Some(due) = due {
            self.out
                .late_ns
                .push(sent_at.saturating_duration_since(due).as_nanos() as u64);
        }
        let from = due.unwrap_or(sent_at);
        self.out.lat_ns[class as usize]
            .push(done.saturating_duration_since(from).as_nanos() as u64);
    }

    /// One tick of the probe schedule: house-keeping when it is due
    /// (instead of a query, so no query is delayed by it), else the next
    /// query of the rotation.
    fn probe_tick(&mut self, due: Option<Instant>) {
        let now = Instant::now();
        if self.w.segment_batches.is_some() && now >= self.next_refresh {
            self.refresh_clock();
            self.next_refresh = now + Duration::from_millis(200);
            return;
        }
        if self.next_sample.is_some_and(|at| now >= at) {
            self.sample();
            self.next_sample = Some(now + Duration::from_secs(1));
            return;
        }
        let query = self.w.probes[self.next_probe % self.w.probes.len()];
        self.next_probe += 1;
        self.query(query, due);
    }

    fn refresh_clock(&mut self) {
        let Some(report) = self.request(|c| match c.call(&Request::SegmentInfo) {
            Ok(Response::Segments(report)) => Ok(report),
            other => Err(format!("SegmentInfo: {other:?}")),
        }) else {
            return;
        };
        let mut sealed_starts: Vec<u64> = report
            .segments
            .iter()
            .filter(|s| s.sealed)
            .map(|s| s.start_micros)
            .collect();
        sealed_starts.drain(..sealed_starts.len().saturating_sub(65));
        self.clock = Some(CubeClock {
            at: Instant::now(),
            server_micros: report.now_micros,
            sealed_starts,
        });
    }

    /// `[start, end]` server micros ending now and reaching back over about
    /// `segments` sealed segments: that many segment spacings (measured on
    /// the five newest), but never past the start of the `segments`-th
    /// newest sealed one — warm-up seals far faster than an open-loop
    /// window does, so time alone would over-cover.
    fn range_window(&self, segments: u32) -> (u64, u64) {
        let clock = self.clock.as_ref().expect("cube workloads anchor first");
        let end = clock.server_micros + clock.at.elapsed().as_micros() as u64;
        let starts = &clock.sealed_starts;
        let recent = &starts[starts.len().saturating_sub(5)..];
        let spacing = match recent {
            [first, .., last] => (last - first) as f64 / (recent.len() - 1) as f64,
            _ => 0.0,
        };
        let by_time = end.saturating_sub(((f64::from(segments) - 0.5) * spacing) as u64);
        let by_count = starts
            .len()
            .checked_sub(segments as usize)
            .map_or(0, |at| starts[at]);
        (by_time.max(by_count), end)
    }

    fn query(&mut self, query: Query, due: Option<Instant>) {
        let phi = self.w.epsilon;
        let request = match query {
            Query::Point => Request::Point(self.stream.top_item),
            Query::HeavyHitters => Request::HeavyHitters(phi),
            Query::Summary => Request::Summary,
            Query::RangeQuantile(k) => {
                let (start_micros, end_micros) = self.range_window(k);
                Request::RangeQuantile {
                    start_micros,
                    end_micros,
                    phi: 0.5,
                }
            }
            Query::RangeHeavyHitters(k) => {
                let (start_micros, end_micros) = self.range_window(k);
                Request::RangeHeavyHitters {
                    start_micros,
                    end_micros,
                    phi,
                }
            }
        };
        let sent_at = Instant::now();
        let Some(response) = self.request(|c| match c.call(&request) {
            Ok(Response::Error(e)) => Err(format!("{request:?}: {e}")),
            Ok(Response::Overloaded { .. }) => Err(format!("{request:?}: shed")),
            Ok(response) => Ok(response),
            Err(e) => Err(format!("{request:?}: {e}")),
        }) else {
            return;
        };
        let done = Instant::now();
        let class = query.class();
        self.record(class, due, sent_at, done);
        if let Response::Range(answer) = response {
            self.out.range_answers += 1;
            self.out.empty_ranges += u64::from(answer.meta.segments_merged == 0);
            self.out.max_covered = self.out.max_covered.max(answer.meta.covered_weight);
            let covered = &mut self.out.covered[class as usize];
            covered.0 += u64::from(answer.meta.segments_merged);
            covered.1 += 1;
        }
    }

    /// 1 Hz counters of the traced run: snapshot lag and shard queue depth.
    fn sample(&mut self) {
        let acked = self.acked.load(Ordering::Relaxed);
        if let Some(m) = self.request(|c| match c.call(&Request::Metrics) {
            Ok(Response::Metrics(m)) => Ok(m),
            other => Err(format!("Metrics: {other:?}")),
        }) {
            self.out
                .lag_items
                .push(acked.saturating_sub(m.snapshot_weight) as f64);
        }
        if let Some(t) = self.request(|c| match c.call(&Request::Telemetry) {
            Ok(Response::Telemetry(t)) => Ok(t),
            other => Err(format!("Telemetry: {other:?}")),
        }) {
            let deepest = t
                .gauges
                .iter()
                .filter(|(name, _)| name.starts_with("queue_depth"))
                .map(|&(_, v)| v)
                .max()
                .unwrap_or(0);
            self.out.queue_depth_max = self.out.queue_depth_max.max(deepest);
        }
    }

    fn run(&mut self, role: Role, end: Instant) {
        if self.w.segment_batches.is_some() && self.probing {
            self.refresh_clock();
        }
        sleep_until(self.t0);
        match role {
            Role::ClosedIngest { probes } => {
                let period = Duration::from_secs(1) / PROBES_PER_S;
                let mut next_probe = self.t0 + period;
                while Instant::now() < end {
                    self.ingest(None);
                    let now = Instant::now();
                    if probes && now >= next_probe {
                        self.probe_tick(None);
                        // Never burst to catch up after a stall.
                        next_probe = (next_probe + period).max(now);
                    }
                }
            }
            Role::OpenIngest { batches_per_s } => {
                self.open_loop(batches_per_s, end, |me, due| me.ingest(Some(due)))
            }
            Role::OpenReader { per_s } => {
                self.open_loop(per_s, end, |me, due| me.probe_tick(Some(due)))
            }
        }
    }

    fn open_loop(&mut self, per_s: u32, end: Instant, mut tick: impl FnMut(&mut Self, Instant)) {
        let period = Duration::from_secs(1) / per_s;
        let mut due = self.t0;
        while due < end {
            sleep_until(due);
            tick(self, due);
            due += period;
        }
    }
}

fn sleep_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

/// Run one timed window of `seconds` with connection type `C`. `sample`
/// adds the 1 Hz counter reads of the traced run.
pub fn window<C: Conn>(setup: &mut Setup, w: &Workload, seconds: f64, sample: bool) -> WindowOut {
    let t0 = Instant::now() + Duration::from_millis(50);
    let end = t0 + Duration::from_secs_f64(seconds);
    let (stream, sut, progress) = (&setup.stream, &setup.sut, &setup.progress);
    let acked = &progress.acked_items;

    let (outs, marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|thread| {
                let role = w.roles[thread];
                let probing = !matches!(
                    role,
                    Role::ClosedIngest { probes: false } | Role::OpenIngest { .. }
                );
                let start_batch = progress.sent[thread];
                scope.spawn(move || {
                    host::exact_sleeps();
                    let mut worker = Worker::<C> {
                        conn: C::connect(sut.front.as_str(), thread as u64, t0).ok(),
                        addr: sut.front.as_str(),
                        thread,
                        w,
                        stream,
                        acked,
                        t0,
                        next_batch: start_batch,
                        next_probe: 0,
                        probing,
                        clock: None,
                        next_refresh: t0 + Duration::from_millis(200),
                        next_sample: (sample && probing).then_some(t0 + Duration::from_secs(1)),
                        sent: 0,
                        spans: Vec::new(),
                        out: Tally::new(),
                    };
                    worker.run(role, end);
                    let spans = worker.conn.take().map(Conn::into_spans).unwrap_or_default();
                    worker.spans.extend(spans);
                    (worker.sent, worker.spans, worker.out)
                })
            })
            .collect();
        // This thread reads acked items and server CPU together at both
        // ends of the window.
        let mark = || {
            (
                Instant::now(),
                acked.load(Ordering::Relaxed),
                sut.cpu_seconds(),
            )
        };
        sleep_until(t0);
        let start = mark();
        sleep_until(end);
        let marks = (start, mark());
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (outs, marks)
    });

    let ((t_a, items_a, cpu_a), (t_b, items_b, cpu_b)) = marks;
    let items = (items_b - items_a) as f64;
    let mut out = WindowOut {
        items_per_s: items / (t_b - t_a).as_secs_f64(),
        cpu_s_per_mitem: (cpu_b - cpu_a) / (items / 1e6),
        peak_rss_mib: setup.sut.peak_rss_mib(),
        tally: Tally::new(),
        spans: Vec::new(),
    };
    for (thread, (sent, spans, tally)) in outs.into_iter().enumerate() {
        setup.progress.sent[thread] += sent;
        out.tally.absorb(tally);
        out.spans.push(spans);
    }
    out
}
