//! Span assembly and metrics-attribution invariants of `simnet::trace`.

use simnet::{
    Actor, AzId, Ctx, LaneClassSpec, Location, MetricsRegistry, NodeId, NodeSpec, Payload,
    SimDuration, SimTime, Simulation, SpanId,
};
use std::any::Any;

#[derive(Debug, Clone)]
struct Req;
#[derive(Debug, Clone)]
struct Resp;

/// Executes CPU work per request and replies when the lane finishes.
struct Server;
impl Actor for Server {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        if msg.is::<Req>() {
            let done = ctx.execute("srv", SimDuration::from_micros(500));
            ctx.send_sized_from(done, from, 256, Resp);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Opens a root span per request and closes it on the response.
struct Client {
    server: NodeId,
    root: SpanId,
    done_at: SimTime,
    responses: u32,
}
impl Actor for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.root = ctx.span_start("op", "op");
        ctx.send_sized(self.server, 256, Req);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        if msg.is::<Resp>() {
            ctx.span_end(self.root);
            self.done_at = ctx.now();
            self.responses += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn request_reply_sim(tracing: bool) -> (Simulation, NodeId) {
    let mut sim = Simulation::new(11);
    sim.set_jitter(0.0);
    if tracing {
        sim.enable_tracing();
    }
    let srv = sim.add_node(
        NodeSpec::new("srv", Location::new(1, 0))
            .with_lanes(vec![LaneClassSpec::new("srv", 1)])
            .with_layer("server"),
        Box::new(Server),
    );
    let cli = sim.add_node(
        NodeSpec::new("cli", Location::new(0, 1)).with_layer("client"),
        Box::new(Client { server: srv, root: SpanId::NONE, done_at: SimTime::ZERO, responses: 0 }),
    );
    sim.run_until(SimTime::from_millis(50));
    (sim, cli)
}

#[test]
fn nested_spans_tile_and_sum_to_parent_duration() {
    let (sim, cli) = request_reply_sim(true);
    assert_eq!(sim.actor::<Client>(cli).responses, 1);
    let spans = sim.spans();
    let root = spans.iter().find(|s| s.cat == "op").expect("root span");
    assert_eq!(root.parent, SpanId::NONE);
    assert_eq!(root.end, sim.actor::<Client>(cli).done_at);
    let children: Vec<_> = spans.iter().filter(|s| s.parent == root.id).collect();
    // request hop, server CPU, response hop — contiguous, so their durations
    // sum exactly to the root op's duration.
    assert_eq!(children.len(), 3, "{children:?}");
    assert_eq!(children.iter().filter(|s| s.cat == "net").count(), 2);
    assert_eq!(children.iter().filter(|s| s.cat == "cpu" && s.name == "srv").count(), 1);
    let sum: SimDuration = children.iter().map(|s| s.duration()).sum();
    assert_eq!(sum, root.duration());
}

#[test]
fn hop_attribution_matches_az_traffic_ledger() {
    let (sim, _) = request_reply_sim(true);
    let m = sim.metrics();
    // Every directed AZ pair the registry knows about must agree byte-for-
    // byte with the simulation's delivery-side az_traffic ledger.
    let mut pairs = 0;
    for (src, dst, transit, bytes) in m.iter_net() {
        assert_eq!(bytes, sim.az_traffic(src, dst), "pair az{}->az{}", src.0, dst.0);
        assert!(transit.count() > 0);
        pairs += 1;
    }
    assert_eq!(pairs, 2, "one request pair and one response pair");
    assert_eq!(m.net_bytes(simnet::AzId(0), simnet::AzId(1)), 256);
    assert_eq!(m.net_bytes(simnet::AzId(1), simnet::AzId(0)), 256);
    // The traced hop spans cover the same bytes (from their args).
    let hops = sim.spans().iter().filter(|s| s.cat == "net").count();
    assert_eq!(hops, 2);
    // CPU attribution landed under the server's layer tag.
    assert_eq!(m.iter_cpu().count(), 1);
    let (layer, lane, cpu) = m.iter_cpu().next().unwrap();
    assert_eq!((layer, lane), ("server", "srv"));
    assert_eq!(cpu.service.count(), 1);
    assert_eq!(cpu.service.max(), SimDuration::from_micros(500).as_nanos());
}

#[test]
fn tracing_does_not_perturb_the_event_schedule() {
    let (plain, cli_a) = request_reply_sim(false);
    let (traced, cli_b) = request_reply_sim(true);
    assert_eq!(plain.events_processed(), traced.events_processed());
    assert_eq!(plain.actor::<Client>(cli_a).done_at, traced.actor::<Client>(cli_b).done_at);
    // Metrics are always on; spans only exist when tracing was enabled.
    assert!(plain.spans().is_empty());
    assert!(!traced.spans().is_empty());
    assert_eq!(plain.metrics().net_bytes(simnet::AzId(0), simnet::AzId(1)), 256);
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let (sim, _) = request_reply_sim(true);
    let json = sim.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"name\":\"op\""));
    assert!(json.contains("\"name\":\"hop\""));
    assert!(json.contains("\"cat\":\"cpu\""));
    assert!(json.contains("az1->az0 256B"));
    // Balanced braces — cheap structural sanity without a JSON parser.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// One sample as the by-name recording API takes it.
#[derive(Debug, Clone, Copy)]
enum Sample {
    Cpu(&'static str, &'static str, SimDuration, SimDuration),
    Net(AzId, AzId, u64, SimDuration),
}

#[derive(Debug, Clone)]
struct Token {
    depart: SimTime,
    bytes: u64,
}

/// Passes tokens around a ring, burning CPU on alternating lane classes at
/// each hop, and logs every sample the kernel should record for it.
struct RingNode {
    next: NodeId,
    layer: &'static str,
    lanes: [&'static str; 2],
    hops: u64,
    log: Vec<Sample>,
}

impl Actor for RingNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_sized(self.next, 64, Token { depart: ctx.now(), bytes: 64 });
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let Some(t) = msg.get::<Token>() else { return };
        let now = ctx.now();
        let (src, dst) = (ctx.az_of(from), ctx.az_of(ctx.me()));
        self.log.push(Sample::Net(src, dst, t.bytes, now.saturating_since(t.depart)));
        self.hops += 1;
        let lane = self.lanes[(self.hops % 2) as usize];
        let cost = SimDuration::from_micros(30 + 20 * (self.hops % 3));
        let done = ctx.execute(lane, cost);
        let queue = done.saturating_since(now).saturating_sub(cost);
        self.log.push(Sample::Cpu(self.layer, lane, queue, cost));
        let bytes = 64 + self.hops % 7 * 100;
        ctx.send_sized_from(done, self.next, bytes, Token { depart: done, bytes });
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A name in an allocation of its own, so keys can only fold by content.
fn leak(name: &str) -> &'static str {
    String::from(name).leak()
}

/// Six ring nodes on six hosts across three AZs, in two layers whose names
/// (and lane class names) are separate allocations per node.
fn ring() -> (Simulation, Vec<NodeId>) {
    let mut sim = Simulation::new(5);
    let ids: Vec<NodeId> = (0..6u32)
        .map(|i| {
            let layer = leak(if i % 2 == 0 { "front" } else { "back" });
            let lanes = [leak("rx"), leak("tx")];
            let spec = NodeSpec::new(format!("n{i}"), Location::new((i % 3) as u8, i))
                .with_lanes(lanes.iter().map(|&l| LaneClassSpec::new(l, 1)).collect())
                .with_layer(layer);
            let next = NodeId((i + 1) % 6);
            sim.add_node(spec, Box::new(RingNode { next, layer, lanes, hops: 0, log: Vec::new() }))
        })
        .collect();
    (sim, ids)
}

/// Replays logged samples through the by-name API with freshly allocated
/// names.
fn record_by_name<'a>(m: &mut MetricsRegistry, samples: impl Iterator<Item = &'a Sample>) {
    for s in samples {
        match *s {
            Sample::Cpu(layer, lane, q, svc) => m.record_cpu(leak(layer), leak(lane), q, svc),
            Sample::Net(src, dst, bytes, transit) => m.record_net(src, dst, bytes, transit),
        }
    }
}

/// Everything `iter_cpu`, `iter_net` and `net_bytes` expose, full histogram
/// state included.
fn snapshot(m: &MetricsRegistry) -> Vec<String> {
    let cpu = m.iter_cpu().map(|(l, n, c)| format!("cpu {l}/{n} {:?} {:?}", c.queue, c.service));
    let net = m.iter_net().map(|(s, d, h, b)| format!("net {}->{} {b} {h:?}", s.0, d.0));
    let bytes = (0..4u8)
        .flat_map(|s| (0..4u8).map(move |d| (s, d)))
        .map(|(s, d)| format!("bytes {s}->{d} {}", m.net_bytes(AzId(s), AzId(d))));
    cpu.chain(net).chain(bytes).collect()
}

#[test]
fn slot_recording_matches_by_name_recording_across_clear() {
    let (mut sim, ids) = ring();
    sim.run_until(SimTime::from_millis(20));
    let logs = |sim: &Simulation| -> Vec<Vec<Sample>> {
        ids.iter().map(|&id| sim.actor::<RingNode>(id).log.clone()).collect()
    };
    let before = logs(&sim);
    let mut reference = MetricsRegistry::default();
    record_by_name(&mut reference, before.iter().flatten());
    assert_eq!(snapshot(sim.metrics()), snapshot(&reference));
    assert!(sim.metrics().iter_net().count() >= 3, "the ring crosses AZs");

    // A measurement window: both registries hold only what follows.
    sim.metrics_mut().clear();
    reference.clear();
    let empty = snapshot(&MetricsRegistry::default());
    assert_eq!(snapshot(sim.metrics()), empty);
    assert_eq!(snapshot(&reference), empty);
    sim.run_until(SimTime::from_millis(40));
    let after = logs(&sim);
    for (old, new) in before.iter().zip(&after) {
        record_by_name(&mut reference, new[old.len()..].iter());
    }
    assert_eq!(snapshot(sim.metrics()), snapshot(&reference));

    // Six nodes' separately allocated names fold into four keys.
    let keys: Vec<_> = sim.metrics().iter_cpu().map(|(l, n, _)| (l, n)).collect();
    assert_eq!(keys, [("back", "rx"), ("back", "tx"), ("front", "rx"), ("front", "tx")]);
}
