//! Span/event tracing into fixed-size per-thread ring buffers — a "flight
//! recorder".
//!
//! The recorder is always on and always cheap: each thread owns a ring of
//! the last `capacity` [`TraceEvent`]s, recording into it touches only
//! that thread's (uncontended) lock, and old events are overwritten — no
//! allocation growth, no global contention, no I/O. Nothing is written
//! anywhere until something goes wrong; then [`FlightRecorder::dump_json`]
//! serializes every ring, stamped with the reproduction seed, so a
//! failure report carries the trace of the epochs leading up to it.
//!
//! Spans are opened with [`TraceHandle::span`] (or the [`crate::span!`]
//! macro, which also attaches named `u64` fields) and record their
//! duration when the guard drops.
//!
//! A ring outlives its [`TraceHandle`], so a dump still shows what a
//! finished thread or connection recorded — but only the newest
//! `ENDED_RINGS` ended rings are kept, so a server that accepts a
//! connection at a time, for ever, keeps a bounded recorder.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ms_core::{lock, Json, ToJson};

/// Ended rings a recorder keeps, newest by registration first: a ring
/// ends when its [`TraceHandle`] drops. Every ring whose handle is alive
/// is kept besides.
const ENDED_RINGS: usize = 64;

/// One recorded span or instantaneous event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static so recording never allocates for it).
    pub name: &'static str,
    /// Start offset from the recorder's creation, in microseconds.
    pub start_micros: u64,
    /// Span duration in microseconds (0 for instantaneous events).
    pub duration_micros: u64,
    /// Named `u64` payload fields (epoch, shard, batch size, …).
    pub fields: Vec<(&'static str, u64)>,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("start_micros".to_string(), Json::U64(self.start_micros)),
            (
                "duration_micros".to_string(),
                Json::U64(self.duration_micros),
            ),
        ];
        for (k, v) in &self.fields {
            fields.push((k.to_string(), Json::U64(*v)));
        }
        Json::Obj(fields)
    }
}

/// Fixed-capacity overwrite-oldest buffer.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to overwrite once `buf` is full.
    next: usize,
    /// Events evicted by the ring (so a dump states what it lost).
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Events in recording order (oldest surviving first).
    fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

#[derive(Debug)]
struct ThreadRing {
    label: String,
    ring: Mutex<Ring>,
}

/// One ring's surviving events plus how much history the ring lost, as
/// returned by [`FlightRecorder::export`]. This is the structured twin of
/// the JSON dump: the `TraceDump` wire opcode ships these across the
/// cluster so a coordinator-side CLI can stitch rings from every node.
#[derive(Debug, Clone)]
pub struct ThreadExport {
    /// Ring label (`worker-0`, `compactor`, `conn`, …).
    pub label: String,
    /// Events this ring overwrote — the dump's blind spot.
    pub evicted: u64,
    /// Surviving events in recording order (oldest first).
    pub events: Vec<TraceEvent>,
}

/// The flight recorder: a registry of per-thread rings plus the shared
/// clock origin. Cheap to share as `Arc<FlightRecorder>`.
#[derive(Debug)]
pub struct FlightRecorder {
    origin: Instant,
    capacity: usize,
    enabled: AtomicBool,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl FlightRecorder {
    /// A recorder whose threads each keep their last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            origin: Instant::now(),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(true),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Disable (or re-enable) recording. Disabled spans cost one relaxed
    /// load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is recording currently enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Register a ring for the calling thread (label it with the thread's
    /// role: `worker-0`, `compactor`, `conn`). Each registration gets its
    /// own ring; a respawned worker registers again and both incarnations
    /// appear in the dump while the old one is among the newest
    /// `ENDED_RINGS` ended rings.
    pub fn register(self: &Arc<Self>, label: &str) -> TraceHandle {
        let ring = Arc::new(ThreadRing {
            label: label.to_string(),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                capacity: self.capacity,
                next: 0,
                overwritten: 0,
            }),
        });
        self.rings().push(Arc::clone(&ring));
        TraceHandle {
            recorder: Arc::clone(self),
            ring,
        }
    }

    /// The rings, less every ended one but the newest `ENDED_RINGS`. A
    /// ring has ended when the recorder holds its only reference: its
    /// handle is gone, and no new one is ever made for it.
    fn rings(&self) -> MutexGuard<'_, Vec<Arc<ThreadRing>>> {
        let mut rings = lock(&self.rings);
        let ended = |ring: &Arc<ThreadRing>| Arc::strong_count(ring) == 1;
        let mut surplus = rings
            .iter()
            .filter(|r| ended(r))
            .count()
            .saturating_sub(ENDED_RINGS);
        rings.retain(|ring| {
            let gone = surplus > 0 && ended(ring);
            surplus -= usize::from(gone);
            !gone
        });
        rings
    }

    /// Total events currently held across all rings (for tests).
    pub fn event_count(&self) -> usize {
        self.rings().iter().map(|t| lock(&t.ring).buf.len()).sum()
    }

    /// Snapshot every ring into owned [`ThreadExport`]s (label, evicted
    /// count, surviving events oldest-first). The wire-facing counterpart
    /// of [`FlightRecorder::dump_json`].
    pub fn export(&self) -> Vec<ThreadExport> {
        self.rings()
            .iter()
            .map(|t| {
                let ring = lock(&t.ring);
                ThreadExport {
                    label: t.label.clone(),
                    evicted: ring.overwritten,
                    events: ring.ordered(),
                }
            })
            .collect()
    }

    /// Per-thread ring capacity this recorder was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Microseconds captured since the recorder was created (its clock
    /// origin; every event's `start_micros` is an offset from it).
    pub fn captured_micros(&self) -> u64 {
        self.now_micros()
    }

    /// Serialize every ring, stamped with the reproduction `seed`. The
    /// header carries `evicted_total` — the events lost across all rings —
    /// and each ring its own `evicted` count, so a dump states exactly
    /// how much history it is missing.
    pub fn dump_json(&self, seed: u64) -> Json {
        let threads = self.export();
        let evicted_total = threads.iter().map(|t| t.evicted).sum();
        let threads = threads.into_iter().map(|t| {
            Json::obj([
                ("thread", Json::Str(t.label)),
                ("evicted", Json::U64(t.evicted)),
                (
                    "events",
                    Json::Arr(t.events.iter().map(ToJson::to_json).collect()),
                ),
            ])
        });
        Json::obj([
            ("seed", Json::Str(format!("{seed:#x}"))),
            ("ring_capacity", Json::U64(self.capacity as u64)),
            ("evicted_total", Json::U64(evicted_total)),
            (
                "captured_micros",
                Json::U64(self.origin.elapsed().as_micros() as u64),
            ),
            ("threads", Json::Arr(threads.collect())),
        ])
    }

    /// Write [`FlightRecorder::dump_json`] to `dir/name`, creating `dir`.
    /// Returns the path written.
    pub fn dump_to_file(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
        seed: u64,
    ) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        std::fs::write(&path, self.dump_json(seed).to_string_pretty())?;
        Ok(path)
    }

    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A per-thread recording handle (one ring). Not `Sync`: each thread gets
/// its own via [`FlightRecorder::register`].
#[derive(Debug)]
pub struct TraceHandle {
    recorder: Arc<FlightRecorder>,
    ring: Arc<ThreadRing>,
}

impl TraceHandle {
    /// Open a span; its duration is recorded when the guard drops. When
    /// the recorder is disabled this is one relaxed load and nothing else.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.recorder.enabled().then(Instant::now);
        SpanGuard {
            handle: self,
            name,
            start,
            fields: Vec::new(),
        }
    }

    /// Record an instantaneous event.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if !self.recorder.enabled() {
            return;
        }
        lock(&self.ring.ring).push(TraceEvent {
            name,
            start_micros: self.recorder.now_micros(),
            duration_micros: 0,
            fields: fields.to_vec(),
        });
    }
}

/// Open span: records `name`, fields, and elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    handle: &'a TraceHandle,
    name: &'static str,
    /// `None` when the recorder was disabled at open.
    start: Option<Instant>,
    fields: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// Attach a named `u64` field to the span.
    pub fn field(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.fields.push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let recorder = &self.handle.recorder;
        let start_micros = start.duration_since(recorder.origin).as_micros() as u64;
        lock(&self.handle.ring.ring).push(TraceEvent {
            name: self.name,
            start_micros,
            duration_micros: start.elapsed().as_micros() as u64,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_duration_and_fields() {
        let rec = Arc::new(FlightRecorder::new(8));
        let h = rec.register("worker-0");
        {
            let _span = crate::span!(h, "absorb", shard = 0u64, items = 128u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let json = rec.dump_json(0xBEEF).to_string();
        assert!(json.contains("\"absorb\""), "{json}");
        assert!(json.contains("\"shard\":0"), "{json}");
        assert!(json.contains("\"items\":128"), "{json}");
        assert!(json.contains("\"seed\":\"0xbeef\""), "{json}");
        assert_eq!(rec.event_count(), 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_evictions() {
        let rec = Arc::new(FlightRecorder::new(4));
        let h = rec.register("t");
        for i in 0..10u64 {
            h.event("e", &[("i", i)]);
        }
        assert_eq!(rec.event_count(), 4);
        let ring = lock(&h.ring.ring);
        assert_eq!(ring.overwritten, 6);
        let order: Vec<u64> = ring.ordered().iter().map(|e| e.fields[0].1).collect();
        assert_eq!(order, vec![6, 7, 8, 9]);
    }

    #[test]
    fn dump_header_pins_evicted_counts() {
        // 10 events into a capacity-4 ring: exactly 6 evictions, stated
        // per ring and summed in the header so a dump declares its blind
        // spot. A second, underfull ring must report 0.
        let rec = Arc::new(FlightRecorder::new(4));
        let busy = rec.register("busy");
        for i in 0..10u64 {
            busy.event("e", &[("i", i)]);
        }
        let quiet = rec.register("quiet");
        quiet.event("q", &[]);
        let json = rec.dump_json(0x5EED).to_string();
        assert!(json.contains("\"evicted_total\":6"), "{json}");
        assert!(json.contains("\"evicted\":6"), "{json}");
        assert!(json.contains("\"evicted\":0"), "{json}");

        let export = rec.export();
        assert_eq!(export.len(), 2);
        assert_eq!(export[0].label, "busy");
        assert_eq!(export[0].evicted, 6);
        assert_eq!(export[0].events.len(), 4);
        // Recording order survives the export: oldest surviving first.
        let order: Vec<u64> = export[0].events.iter().map(|e| e.fields[0].1).collect();
        assert_eq!(order, vec![6, 7, 8, 9]);
        assert_eq!(export[1].evicted, 0);
        assert_eq!(export[1].events.len(), 1);
    }

    #[test]
    fn ended_rings_are_pruned_to_the_newest() {
        let rec = Arc::new(FlightRecorder::new(8));
        let live = rec.register("live");
        live.event("up", &[]);
        for i in 0..1_000u64 {
            let h = rec.register("conn");
            drop(crate::span!(h, "request", i = i));
        }
        let export = rec.export();
        assert!(export.len() <= ENDED_RINGS + 1, "{} rings", export.len());
        assert_eq!(export[0].label, "live", "a live ring is never pruned");
        let last = export.last().expect("the newest ring is kept");
        assert_eq!(last.events[0].fields, vec![("i", 999)]);
        assert_eq!(rec.event_count(), export.len());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Arc::new(FlightRecorder::new(8));
        rec.set_enabled(false);
        let h = rec.register("t");
        {
            let mut s = h.span("quiet");
            s.field("k", 1);
        }
        h.event("quiet2", &[]);
        assert_eq!(rec.event_count(), 0);
        rec.set_enabled(true);
        h.event("loud", &[]);
        assert_eq!(rec.event_count(), 1);
    }

    #[test]
    fn dump_to_file_is_seed_stamped() {
        let rec = Arc::new(FlightRecorder::new(8));
        let h = rec.register("compactor");
        {
            let _s = crate::span!(h, "compact", epoch = 7u64);
        }
        let dir = std::env::temp_dir().join("ms-obs-trace-test");
        let path = rec
            .dump_to_file(&dir, "flight_test.json", 0xF417_5EED)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"seed\": \"0xf4175eed\""), "{text}");
        assert!(text.contains("\"compact\""), "{text}");
        assert!(text.contains("\"epoch\""), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rings_from_many_threads_all_dump() {
        let rec = Arc::new(FlightRecorder::new(16));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let h = rec.register(&format!("worker-{t}"));
                    for i in 0..8u64 {
                        h.event("tick", &[("i", i)]);
                    }
                });
            }
        });
        assert_eq!(rec.event_count(), 32);
        let json = rec.dump_json(1).to_string();
        for t in 0..4 {
            assert!(json.contains(&format!("worker-{t}")), "{json}");
        }
    }
}
