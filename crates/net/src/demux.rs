//! Per-flow demultiplexer.

use crate::packet::{FlowId, FlowTable, NetEvent};
use ebrc_sim::{Component, ComponentId, Context};

/// Routes each packet to the endpoint registered for its flow id —
/// the "last hop" fan-out of a dumbbell topology.
#[derive(Debug, Default)]
pub struct Demux {
    routes: FlowTable<Option<ComponentId>>,
    default_route: Option<ComponentId>,
    forwarded: u64,
}

impl Demux {
    /// An empty demux; register endpoints with [`Demux::route`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the endpoint for a flow.
    pub fn route(&mut self, flow: FlowId, target: ComponentId) {
        *self.routes.get_mut(flow) = Some(target);
    }

    /// Registers a fallback endpoint for flows with no per-flow route.
    ///
    /// Batch components (e.g. a many-flow `FlowClass` bank) own
    /// thousands of flows behind one `ComponentId`; a default route
    /// forwards all of them in O(1) without one table entry per flow.
    pub fn default_route(&mut self, target: ComponentId) {
        self.default_route = Some(target);
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Component<NetEvent> for Demux {
    fn handle(&mut self, _now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        if let NetEvent::Packet(pkt) = event {
            let target = self
                .routes
                .get(pkt.flow)
                .or(self.default_route)
                .unwrap_or_else(|| panic!("no route for flow {:?}", pkt.flow));
            self.forwarded += 1;
            ctx.send(0.0, target, NetEvent::Packet(pkt));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::sink::Sink;
    use ebrc_sim::Engine;

    #[test]
    fn routes_by_flow() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        let a = eng.add(Box::new(Sink::counting_only()));
        let b = eng.add(Box::new(Sink::counting_only()));
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.route(FlowId(1), a);
            demux.route(FlowId(2), b);
        }
        for i in 0..10u64 {
            let flow = if i % 3 == 0 { FlowId(1) } else { FlowId(2) };
            eng.schedule(0.0, d, NetEvent::Packet(Packet::data(flow, i, 100, 0.0)));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<Sink>(a).count(), 4);
        assert_eq!(eng.get::<Sink>(b).count(), 6);
        assert_eq!(eng.get::<Demux>(d).forwarded(), 10);
    }

    #[test]
    fn default_route_catches_unregistered_flows() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        let a = eng.add(Box::new(Sink::counting_only()));
        let bank = eng.add(Box::new(Sink::counting_only()));
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.route(FlowId(1), a);
            demux.default_route(bank);
        }
        for i in 0..10u64 {
            let flow = if i % 5 == 0 {
                FlowId(1)
            } else {
                FlowId(100 + i as u32)
            };
            eng.schedule(0.0, d, NetEvent::Packet(Packet::data(flow, i, 100, 0.0)));
        }
        eng.run_until(1.0);
        assert_eq!(eng.get::<Sink>(a).count(), 2);
        assert_eq!(eng.get::<Sink>(bank).count(), 8);
    }

    /// Flow ids of a 10⁴-flow bank (dense from 0), the first ids past
    /// the dense table, and the out-of-band background flow.
    pub(crate) fn wide_flow_ids() -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = (0..11_000).step_by(7).map(FlowId).collect();
        ids.extend([131_071, 131_072, 131_073, 1 << 20, u32::MAX].map(FlowId));
        ids
    }

    #[test]
    fn routes_agree_with_a_hash_map_reference_over_wide_flow_ids() {
        use std::collections::HashMap;
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        let sinks: Vec<ComponentId> = (0..4).map(|_| eng.add(Box::new(Sink::new()))).collect();
        let ids = wide_flow_ids();
        let mut reference = HashMap::new();
        {
            let demux = eng.get_mut::<Demux>(d);
            demux.default_route(sinks[3]);
            // Route every third id, then re-route every ninth: the
            // rest ride the default route like a bank's flows.
            for (i, &flow) in ids.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
                demux.route(flow, sinks[i % 2]);
                reference.insert(flow, sinks[i % 2]);
            }
            for &flow in ids.iter().step_by(9) {
                demux.route(flow, sinks[2]);
                reference.insert(flow, sinks[2]);
            }
        }
        for (i, &flow) in ids.iter().enumerate() {
            eng.schedule(
                0.0,
                d,
                NetEvent::Packet(Packet::data(flow, i as u64, 100, 0.0)),
            );
        }
        eng.run_until(1.0);
        let mut delivered = 0;
        for &sink in &sinks {
            for (_, pkt) in &eng.get::<Sink>(sink).arrivals {
                let expected = reference.get(&pkt.flow).copied().unwrap_or(sinks[3]);
                assert_eq!(sink, expected, "flow {:?} misrouted", pkt.flow);
                delivered += 1;
            }
        }
        assert_eq!(delivered, ids.len());
        assert!(eng.get::<Sink>(sinks[2]).count() > 0 && eng.get::<Sink>(sinks[3]).count() > 0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unknown_flow_panics() {
        let mut eng: Engine<NetEvent> = Engine::new();
        let d = eng.add(Box::new(Demux::new()));
        eng.schedule(
            0.0,
            d,
            NetEvent::Packet(Packet::data(FlowId(9), 0, 100, 0.0)),
        );
        eng.run_until(1.0);
    }
}
