//! Request tracing and the process-wide metrics registry.
//!
//! Two observability subsystems share this module:
//!
//! - [`MetricsRegistry`] is **always on**: every simulation aggregates, per
//!   deployment layer (a [`crate::NodeSpec::with_layer`] tag), where time
//!   goes — network transit per directed AZ pair, CPU-lane queueing vs.
//!   service, lock waits, retry/backoff — into named [`Histogram`]s and
//!   counters. The kernel's per-event recording (every delivery and every
//!   CPU work item) indexes dense tables, cheap enough to leave enabled in
//!   benchmarks.
//! - [`Tracer`] is **opt-in** ([`crate::Simulation::enable_tracing`]): it
//!   assembles per-request [`Span`]s into a tree. Span ids ride along with
//!   every message and timer delivery, so a client operation's span follows
//!   the request across namenodes, transaction coordinators and datanodes
//!   without any per-protocol plumbing; protocol layers may additionally
//!   store span ids in their request payloads and restore them with
//!   [`crate::Ctx::set_span`] when they resume work from their own state.
//!   Spans export in Chrome `trace_event` format ([`chrome_trace_json`]) and
//!   open directly in Perfetto or `chrome://tracing`.
//!
//! Neither subsystem draws from the simulation RNG or schedules events, so
//! enabling tracing never perturbs the event schedule: a seeded run replays
//! bit-identically with tracing on or off.

use crate::hash::FastMap;
use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};
use crate::topology::AzId;
use std::collections::BTreeMap;

/// Identifier of one [`Span`]. `NONE` (id 0) means "no tracing context".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: work not attributed to any traced request.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One recorded interval of a traced request.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span ([`SpanId::NONE`] for request roots).
    pub parent: SpanId,
    /// Static label, e.g. the op kind (`"createFile"`) or lane (`"LDM"`).
    pub name: &'static str,
    /// Category: `"op"`, `"net"`, `"cpu"`, `"lock"`, `"retry"`, ...
    pub cat: &'static str,
    /// Node the span is attributed to.
    pub node: u32,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval (equals `start` while the span is open).
    pub end: SimTime,
    /// Optional free-form detail (allocated only while tracing is enabled).
    pub arg: Option<String>,
}

impl Span {
    /// The span's duration (zero while still open).
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Span recorder. Disabled by default; every method is a no-op (returning
/// [`SpanId::NONE`]) until enabled, so instrumented protocol code costs
/// nothing in ordinary runs.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// Turns span recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting at `now`; returns its id ([`SpanId::NONE`] when
    /// disabled).
    pub fn start(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        node: u32,
        now: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span { id, parent, name, cat, node, start: now, end: now, arg: None });
        id
    }

    /// Closes an open span at `now`. No-op for [`SpanId::NONE`].
    pub fn end(&mut self, id: SpanId, now: SimTime) {
        if let Some(s) = self.get_mut(id) {
            s.end = now;
        }
    }

    /// Records an already-closed span covering `[start, end]`.
    pub fn complete(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        node: u32,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = self.start(name, cat, parent, node, start);
        self.end(id, end);
        id
    }

    /// Attaches a free-form detail string to a span.
    pub fn set_arg(&mut self, id: SpanId, arg: String) {
        if let Some(s) = self.get_mut(id) {
            s.arg = Some(arg);
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        if id.is_some() {
            self.spans.get_mut(id.0 as usize - 1)
        } else {
            None
        }
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Queueing-vs-service time breakdown of one (layer, lane class) pair.
#[derive(Debug, Clone, Default)]
pub struct CpuMetric {
    /// Time work items waited for a free lane before starting (ns).
    pub queue: Histogram,
    /// Time work items occupied the lane (ns).
    pub service: Histogram,
}

/// Transit time and delivered bytes of one directed AZ pair.
#[derive(Debug, Clone, Default)]
struct NetPair {
    transit: Histogram,
    bytes: u64,
}

/// Process-wide aggregation of named histograms and counters, keyed by the
/// deployment layer of the recording node.
///
/// Global dispatch order `(time, phase, key)` of a metrics write; the kernel
/// sets it before each dispatch so per-shard gauge merges have a
/// shard-invariant "last writer".
pub(crate) type DispatchStamp = (u64, u8, u128);

/// Every iterator yields in key order, so iteration (and anything derived
/// from it, like exported JSON) is deterministic. The registry never draws
/// randomness or schedules events.
///
/// The two per-event recording paths avoid string-keyed lookups: network
/// stats live in a dense table indexed by the directed AZ pair, and CPU
/// stats in dense slots, one per `(layer, lane class)` pair interned by
/// content ([`cpu_slot`](MetricsRegistry::cpu_slot)), which the kernel
/// resolves once per node when the node is added.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Per directed AZ pair, row-major `[src * net_dim + dst]`: transit
    /// time (send → delivery, ns) and delivered payload bytes. The bytes
    /// mirror the simulation's `az_traffic` ledger exactly (recorded at
    /// delivery). A pair with no transit sample counts as absent.
    net: Vec<NetPair>,
    /// Side of the square `net` table: one more than the largest AZ id seen.
    net_dim: usize,
    /// `(layer, lane class)` → index into `cpu`, interned by content, so
    /// equal names from different allocations share one slot.
    cpu_slots: FastMap<(&'static str, &'static str), u32>,
    /// Per CPU slot: queue/service breakdown. A slot with no sample counts
    /// as absent.
    cpu: Vec<CpuMetric>,
    /// Per (layer, name): protocol wait histograms (lock waits, backoff, …).
    hists: BTreeMap<(&'static str, &'static str), Histogram>,
    /// Per (layer, name): event counters (retries, timeouts, …).
    counters: BTreeMap<(&'static str, &'static str), u64>,
    /// Per (layer, name): last-written gauges (queue depths, windows, …):
    /// `(current, high_water, write_stamp)`. The stamp is the global dispatch
    /// order `(time, phase, key)` of the write (set by the kernel before each
    /// dispatch), which makes "last-written" well-defined when per-shard
    /// registries are merged: the entry with the largest stamp wins,
    /// independent of shard count. High-water marks are since the last
    /// [`clear`].
    ///
    /// [`clear`]: MetricsRegistry::clear
    gauges: BTreeMap<(&'static str, &'static str), (u64, u64, DispatchStamp)>,
    /// Dispatch stamp applied to gauge writes (see `gauges`). The kernel
    /// updates it before every actor/control dispatch; recording methods
    /// never change it.
    cur_stamp: DispatchStamp,
}

impl MetricsRegistry {
    /// Records one delivered inter-node message.
    pub fn record_net(&mut self, src: AzId, dst: AzId, bytes: u64, transit: SimDuration) {
        let p = self.net_pair(src, dst);
        p.transit.record(transit.as_nanos());
        p.bytes += bytes;
    }

    /// The stats cell of one directed AZ pair, growing the table on the
    /// first sight of a new AZ id.
    fn net_pair(&mut self, src: AzId, dst: AzId) -> &mut NetPair {
        let need = usize::from(src.0.max(dst.0)) + 1;
        if need > self.net_dim {
            let mut grown: Vec<NetPair> = (0..need * need).map(|_| NetPair::default()).collect();
            for (i, p) in std::mem::take(&mut self.net).into_iter().enumerate() {
                grown[i / self.net_dim * need + i % self.net_dim] = p;
            }
            self.net = grown;
            self.net_dim = need;
        }
        &mut self.net[usize::from(src.0) * self.net_dim + usize::from(dst.0)]
    }

    /// The recorded stats of one directed AZ pair, if it has any.
    fn net_get(&self, src: AzId, dst: AzId) -> Option<&NetPair> {
        let (s, d) = (usize::from(src.0), usize::from(dst.0));
        if s >= self.net_dim || d >= self.net_dim {
            return None;
        }
        Some(&self.net[s * self.net_dim + d]).filter(|p| p.transit.count() > 0)
    }

    /// The CPU slot of a `(layer, lane class)` pair, interning it on first
    /// use. Slots are dense and stable for the registry's lifetime (neither
    /// [`clear`](MetricsRegistry::clear) nor a merge drops them).
    pub(crate) fn cpu_slot(&mut self, layer: &'static str, lane: &'static str) -> u32 {
        let next = self.cpu.len() as u32;
        let slot = *self.cpu_slots.entry((layer, lane)).or_insert(next);
        if slot == next {
            self.cpu.push(CpuMetric::default());
        }
        slot
    }

    /// Records one CPU work item's queueing and service time into a slot
    /// from [`cpu_slot`](MetricsRegistry::cpu_slot).
    pub(crate) fn record_cpu_slot(&mut self, slot: u32, queue: SimDuration, service: SimDuration) {
        let m = &mut self.cpu[slot as usize];
        m.queue.record(queue.as_nanos());
        m.service.record(service.as_nanos());
    }

    /// Records one CPU work item's queueing and service time.
    pub fn record_cpu(
        &mut self,
        layer: &'static str,
        lane: &'static str,
        queue: SimDuration,
        service: SimDuration,
    ) {
        let slot = self.cpu_slot(layer, lane);
        self.record_cpu_slot(slot, queue, service);
    }

    /// Records a sample into the named histogram of a layer.
    pub fn record_hist(&mut self, layer: &'static str, name: &'static str, value: u64) {
        self.hists.entry((layer, name)).or_default().record(value);
    }

    /// Adds `n` to the named counter of a layer.
    pub fn inc(&mut self, layer: &'static str, name: &'static str, n: u64) {
        *self.counters.entry((layer, name)).or_insert(0) += n;
    }

    /// Sets the named gauge of a layer to its current value, tracking the
    /// high-water mark as well (overload diagnosis cares about the peak
    /// queue depth, not just where it happened to sit at the last sample).
    pub fn set_gauge(&mut self, layer: &'static str, name: &'static str, value: u64) {
        let stamp = self.cur_stamp;
        let g = self.gauges.entry((layer, name)).or_insert((0, 0, stamp));
        g.0 = value;
        g.1 = g.1.max(value);
        g.2 = stamp;
    }

    /// The named gauge's `(current, high_water)` pair (zeros if never set).
    pub fn gauge(&self, layer: &str, name: &str) -> (u64, u64) {
        self.gauges.get(&(layer, name)).map(|&(cur, hi, _)| (cur, hi)).unwrap_or((0, 0))
    }

    /// Iterates `(layer, name, current, high_water)` for gauges, in key
    /// order.
    pub fn iter_gauges(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, u64, u64)> + '_ {
        self.gauges.iter().map(|(&(layer, name), &(cur, hi, _))| (layer, name, cur, hi))
    }

    /// Stamps subsequent gauge writes with the global dispatch order of the
    /// event about to run. Called by the kernel before every dispatch.
    pub(crate) fn set_stamp(&mut self, stamp: DispatchStamp) {
        self.cur_stamp = stamp;
    }

    /// Drains every sample from `other` into `self`, leaving `other` empty.
    ///
    /// Histograms, counters, and byte ledgers merge by integer addition, so
    /// the result is independent of merge order — which is what lets the
    /// sharded kernel keep one registry per shard and fold them together at
    /// coordinator points without perturbing artifacts. Gauges are
    /// last-write-wins by dispatch stamp (largest stamp's current value
    /// survives; high-water marks take the max), which is likewise
    /// independent of how nodes were partitioned onto shards.
    pub(crate) fn merge_from(&mut self, other: &mut MetricsRegistry) {
        let dim = other.net_dim;
        for (i, p) in other.net.iter_mut().enumerate() {
            if p.transit.count() > 0 {
                let into = self.net_pair(AzId((i / dim) as u8), AzId((i % dim) as u8));
                into.transit.merge(&p.transit);
                into.bytes += p.bytes;
                p.transit.clear();
                p.bytes = 0;
            }
        }
        for (&(layer, lane), &slot) in &other.cpu_slots {
            let m = &mut other.cpu[slot as usize];
            if m.queue.count() > 0 {
                let into = self.cpu_slot(layer, lane) as usize;
                self.cpu[into].queue.merge(&m.queue);
                self.cpu[into].service.merge(&m.service);
                m.queue.clear();
                m.service.clear();
            }
        }
        for (key, h) in std::mem::take(&mut other.hists) {
            self.hists.entry(key).or_default().merge(&h);
        }
        for (key, c) in std::mem::take(&mut other.counters) {
            *self.counters.entry(key).or_insert(0) += c;
        }
        for (key, (cur, hi, stamp)) in std::mem::take(&mut other.gauges) {
            let g = self.gauges.entry(key).or_insert((cur, 0, stamp));
            if stamp >= g.2 {
                g.0 = cur;
                g.2 = stamp;
            }
            g.1 = g.1.max(hi);
        }
    }

    /// Transit-time histogram of one directed AZ pair, if any was recorded.
    pub fn net_transit(&self, src: AzId, dst: AzId) -> Option<&Histogram> {
        self.net_get(src, dst).map(|p| &p.transit)
    }

    /// Delivered bytes of one directed AZ pair.
    pub fn net_bytes(&self, src: AzId, dst: AzId) -> u64 {
        self.net_get(src, dst).map_or(0, |p| p.bytes)
    }

    /// The named histogram of a layer, if any sample was recorded.
    pub fn hist(&self, layer: &str, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|((l, n), _)| *l == layer && *n == name).map(|(_, h)| h)
    }

    /// The named counter of a layer (0 if never incremented).
    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.counters.get(&(layer, name)).copied().unwrap_or(0)
    }

    /// Iterates `(src, dst, transit histogram, delivered bytes)` per
    /// directed AZ pair, in key order.
    pub fn iter_net(&self) -> impl Iterator<Item = (AzId, AzId, &Histogram, u64)> + '_ {
        let dim = self.net_dim;
        self.net
            .iter()
            .enumerate()
            .filter(|(_, p)| p.transit.count() > 0)
            .map(move |(i, p)| (AzId((i / dim) as u8), AzId((i % dim) as u8), &p.transit, p.bytes))
    }

    /// Iterates `(layer, lane, breakdown)` per CPU lane class, in key order.
    pub fn iter_cpu(&self) -> impl Iterator<Item = (&'static str, &'static str, &CpuMetric)> + '_ {
        let mut keys: Vec<_> = self
            .cpu_slots
            .iter()
            .filter(|&(_, &slot)| self.cpu[slot as usize].queue.count() > 0)
            .map(|(&key, &slot)| (key, slot))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|((layer, lane), slot)| (layer, lane, &self.cpu[slot as usize]))
    }

    /// Iterates `(layer, name, histogram)` for protocol wait histograms.
    pub fn iter_hists(&self) -> impl Iterator<Item = (&'static str, &'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&(layer, name), h)| (layer, name, h))
    }

    /// Iterates `(layer, name, count)` for counters.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(layer, name), &c)| (layer, name, c))
    }

    /// Drops every recorded sample and counter (e.g. at the start of a
    /// measurement window).
    pub fn clear(&mut self) {
        for p in self.net.iter_mut().filter(|p| p.transit.count() > 0) {
            p.transit.clear();
            p.bytes = 0;
        }
        for m in self.cpu.iter_mut().filter(|m| m.queue.count() > 0) {
            m.queue.clear();
            m.service.clear();
        }
        self.hists.clear();
        self.counters.clear();
        self.gauges.clear();
    }
}

/// Serializes spans as a Chrome `trace_event` JSON document (complete `"X"`
/// events, microsecond timestamps, `tid` = node id). Load the result in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.start.as_nanos() as f64 / 1e3;
        let dur = s.duration().as_nanos() as f64 / 1e3;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}",
            escape(s.name),
            escape(s.cat),
            s.node,
            s.id.0,
            s.parent.0,
        ));
        if let Some(arg) = &s.arg {
            out.push_str(&format!(",\"detail\":\"{}\"", escape(arg)));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_free_and_returns_none() {
        let mut t = Tracer::default();
        let id = t.start("op", "op", SpanId::NONE, 0, SimTime::ZERO);
        assert_eq!(id, SpanId::NONE);
        t.end(id, SimTime::from_millis(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_record_parentage_and_duration() {
        let mut t = Tracer::default();
        t.enable();
        let root = t.start("op", "op", SpanId::NONE, 1, SimTime::ZERO);
        let child = t.complete("hop", "net", root, 2, SimTime::ZERO, SimTime::from_nanos(200_000));
        t.end(root, SimTime::from_millis(1));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration(), SimDuration::from_millis(1));
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].id, child);
    }

    #[test]
    fn registry_aggregates_per_key() {
        let mut m = MetricsRegistry::default();
        m.record_net(AzId(0), AzId(1), 256, SimDuration::from_micros(180));
        m.record_net(AzId(0), AzId(1), 128, SimDuration::from_micros(190));
        m.record_cpu("nn", "worker", SimDuration::ZERO, SimDuration::from_micros(50));
        m.record_hist("ndb", "lock_wait_ns", 1_000);
        m.inc("client", "retries", 2);
        assert_eq!(m.net_bytes(AzId(0), AzId(1)), 384);
        assert_eq!(m.net_transit(AzId(0), AzId(1)).unwrap().count(), 2);
        assert_eq!(m.counter("client", "retries"), 2);
        assert_eq!(m.hist("ndb", "lock_wait_ns").unwrap().count(), 1);
        assert_eq!(m.iter_cpu().count(), 1);
        m.clear();
        assert_eq!(m.iter_net().count(), 0);
        assert_eq!(m.counter("client", "retries"), 0);
    }

    #[test]
    fn gauges_track_current_and_high_water() {
        let mut m = MetricsRegistry::default();
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (0, 0));
        m.set_gauge("namenode", "worker_queue_ns", 500);
        m.set_gauge("namenode", "worker_queue_ns", 120);
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (120, 500));
        let all: Vec<_> = m.iter_gauges().collect();
        assert_eq!(all, vec![("namenode", "worker_queue_ns", 120, 500)]);
        m.clear();
        assert_eq!(m.gauge("namenode", "worker_queue_ns"), (0, 0));
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let mut t = Tracer::default();
        t.enable();
        let root = t.start("create\"File", "op", SpanId::NONE, 3, SimTime::from_nanos(1_000));
        t.set_arg(root, "az0->az1".to_string());
        t.end(root, SimTime::from_nanos(5_000));
        let json = chrome_trace_json(t.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("create\\\"File"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"dur\":4.000"));
    }
}
