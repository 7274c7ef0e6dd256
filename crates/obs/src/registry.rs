//! A registry of named atomic instruments and its mergeable snapshot.
//!
//! Instruments are created once (registration takes a short lock) and
//! handed out as `Arc`s; after that every `add`/`set`/`record` is one
//! atomic operation with no lock anywhere near a hot path.
//! [`MetricsRegistry::snapshot`] walks the registry and copies each
//! instrument into a [`RegistrySnapshot`] — plain data that merges,
//! encodes on the wire, and renders as JSON or Prometheus text.
//!
//! Naming convention: metric names may carry Prometheus-style labels
//! inline (`queue_depth{shard="0"}`); [`crate::render_prometheus`] groups
//! metrics of the same family (name up to the `{`) under one `# TYPE`
//! header.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ms_core::{lock, Json, ToJson, Wire, WireError, WireReader};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotone counter. An `add` is a `Release` and a `get` an `Acquire`,
/// so a reader that sees a count also sees what happened before it was
/// added (on x86 both compile to the same instructions as `Relaxed`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A gauge: a value that goes up and down (queue depth, live shards).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (negative to subtract).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named instruments. Registration is idempotent: asking for an existing
/// name returns the same instrument, so call sites need no coordination.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut list = lock(list);
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    list.push((name.to_string(), Arc::clone(&v)));
    v
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Copy every instrument into plain data, sorted by name so snapshots
    /// compare and merge deterministically.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> = lock(&self.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = lock(&self.gauges)
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = lock(&self.histograms)
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: plain data, name-sorted,
/// mergeable, wire-encodable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn merge_by_name<V: Clone>(
    left: &[(String, V)],
    right: &[(String, V)],
    combine: impl Fn(&V, &V) -> V,
) -> Vec<(String, V)> {
    let mut out: Vec<(String, V)> = left.to_vec();
    for (name, value) in right {
        match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = combine(existing, value),
            None => out.push((name.clone(), value.clone())),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

impl RegistrySnapshot {
    /// Merge two snapshots by name: counters and gauges add, histograms
    /// merge bucket-wise — the same semantics the paper gives summary
    /// merges, so snapshots from many shards (or many scrape intervals of
    /// disjoint processes) compose into one valid snapshot.
    pub fn merge(&self, other: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: merge_by_name(&self.counters, &other.counters, |a, b| a + b),
            gauges: merge_by_name(&self.gauges, &other.gauges, |a, b| a + b),
            histograms: merge_by_name(&self.histograms, &other.histograms, |a, b| a.merge(b)),
        }
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

impl Wire for RegistrySnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.counters.encode_into(out);
        self.gauges.encode_into(out);
        self.histograms.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RegistrySnapshot {
            counters: Vec::decode_from(r)?,
            gauges: Vec::decode_from(r)?,
            histograms: Vec::decode_from(r)?,
        })
    }
}

impl ToJson for RegistrySnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::I64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("x").get(), 7);
        assert!(Arc::ptr_eq(&a, &b));
        // Distinct kinds may share a name without clashing.
        r.gauge("x").set(-2);
        assert_eq!(r.gauge("x").get(), -2);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = MetricsRegistry::new();
        r.counter("zz").add(1);
        r.counter("aa").add(2);
        r.gauge("depth{shard=\"1\"}").set(5);
        r.histogram("lat").record(100);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "aa");
        assert_eq!(s.counter("zz"), Some(1));
        assert_eq!(s.gauge("depth{shard=\"1\"}"), Some(5));
        assert_eq!(s.histogram("lat").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn snapshots_merge_by_name() {
        let r1 = MetricsRegistry::new();
        r1.counter("c").add(10);
        r1.gauge("g").set(3);
        r1.histogram("h").record(8);
        let r2 = MetricsRegistry::new();
        r2.counter("c").add(5);
        r2.counter("only2").add(1);
        r2.gauge("g").set(-1);
        r2.histogram("h").record(200);
        let merged = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(merged.counter("c"), Some(15));
        assert_eq!(merged.counter("only2"), Some(1));
        assert_eq!(merged.gauge("g"), Some(2));
        let h = merged.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 200);
        // Commutative.
        assert_eq!(merged, r2.snapshot().merge(&r1.snapshot()));
    }

    #[test]
    fn wire_roundtrip() {
        let r = MetricsRegistry::new();
        r.counter("updates").add(u64::MAX);
        r.gauge("depth").set(i64::MIN);
        r.gauge("depth2").set(i64::MAX);
        let h = r.histogram("lat");
        h.record(0);
        h.record(u64::MAX);
        let s = r.snapshot();
        assert_eq!(RegistrySnapshot::decode(&s.encode()).unwrap(), s);
        let empty = RegistrySnapshot::default();
        assert_eq!(RegistrySnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn json_rendering_contains_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in 1..100u64 {
            h.record(v);
        }
        let j = r.snapshot().to_json().to_string();
        assert!(j.contains("\"p50\""), "{j}");
        assert!(j.contains("\"lat\""), "{j}");
    }
}
