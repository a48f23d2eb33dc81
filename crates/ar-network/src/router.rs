//! Packet-level model of the memory network.
//!
//! Every directed link of the dragonfly (including the host-port links) is a
//! bandwidth-limited, in-order channel; routers forward packets hop by hop
//! under minimal routing. Congestion therefore appears as queueing delay on
//! the oversubscribed links — exactly the effect that makes the static ART
//! scheme lose to the forest schemes in the paper (Section 5.2.2).

use crate::dragonfly::DragonflyTopology;
use ar_sim::{BandwidthLink, Component, NextWake, SchedCtx};
use ar_types::ids::{CubeId, NetNode, PortId};
use ar_types::json::{Json, JsonError};
use ar_types::packet::{ActiveKind, Packet, PacketKind};
use ar_types::pool::{PacketPool, PacketRef};
use ar_types::Cycle;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Route-table entry of a `(node, destination)` pair with no outgoing link.
const NO_LINK: u32 = u32::MAX;

/// Aggregate traffic statistics of the memory network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets injected into the network.
    pub packets_injected: u64,
    /// Packets delivered to their destination.
    pub packets_delivered: u64,
    /// Total bytes injected (per packet, counted once).
    pub bytes_injected: u64,
    /// Sum over traversed links of packet bits (for the 5 pJ/bit/hop model).
    pub bit_hops: u64,
    /// Bytes of normal (non-active) request packets injected.
    pub norm_req_bytes: u64,
    /// Bytes of normal (non-active) response packets injected.
    pub norm_resp_bytes: u64,
    /// Bytes of active request packets (Update, operand request, gather
    /// request) injected.
    pub active_req_bytes: u64,
    /// Bytes of active response packets (operand response, gather response)
    /// injected.
    pub active_resp_bytes: u64,
    /// Sum of end-to-end packet latencies in network cycles.
    pub total_latency: u64,
}

impl NetworkStats {
    /// Serializes the statistics for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("packets_injected", Json::from(self.packets_injected)),
            ("packets_delivered", Json::from(self.packets_delivered)),
            ("bytes_injected", Json::from(self.bytes_injected)),
            ("bit_hops", Json::from(self.bit_hops)),
            ("norm_req_bytes", Json::from(self.norm_req_bytes)),
            ("norm_resp_bytes", Json::from(self.norm_resp_bytes)),
            ("active_req_bytes", Json::from(self.active_req_bytes)),
            ("active_resp_bytes", Json::from(self.active_resp_bytes)),
            ("total_latency", Json::from(self.total_latency)),
        ])
    }

    /// Decodes statistics produced by [`NetworkStats::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<NetworkStats, JsonError> {
        Ok(NetworkStats {
            packets_injected: doc.req_u64("packets_injected")?,
            packets_delivered: doc.req_u64("packets_delivered")?,
            bytes_injected: doc.req_u64("bytes_injected")?,
            bit_hops: doc.req_u64("bit_hops")?,
            norm_req_bytes: doc.req_u64("norm_req_bytes")?,
            norm_resp_bytes: doc.req_u64("norm_resp_bytes")?,
            active_req_bytes: doc.req_u64("active_req_bytes")?,
            active_resp_bytes: doc.req_u64("active_resp_bytes")?,
            total_latency: doc.req_u64("total_latency")?,
        })
    }

    /// Total bytes of off-chip data movement (normal + active).
    pub fn total_bytes(&self) -> u64 {
        self.norm_req_bytes + self.norm_resp_bytes + self.active_req_bytes + self.active_resp_bytes
    }

    /// Mean end-to-end packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets_delivered as f64
        }
    }
}

/// The memory network: dragonfly topology + per-link channels + per-node
/// delivery queues.
///
/// The network is event-driven. Links live in a `Vec` in sorted
/// `(from, to)` order, and a dense route table built once from
/// [`DragonflyTopology::next_hop`] maps every `(node, destination)` pair to
/// the index of the link the packet leaves on, so a hop does no lookup and
/// no recursive routing. Every item on a link carries its global send
/// sequence number. A link is FIFO and serializes, so its arrival cycles
/// strictly increase; the arrival calendar therefore holds one
/// `(head arrival cycle, head sequence number, link)` entry per non-empty
/// link, and popping the smallest head yields packets in global
/// `(arrival cycle, send order)` order, same-cycle ties across links
/// included. The calendar is bounded by the link count, not by the packets
/// in flight. [`MemoryNetwork::tick`] only touches links with arrivals due,
/// and [`MemoryNetwork::next_wake`] reports the next arrival so the system
/// driver can sleep until then.
///
/// In-flight packets live in a [`PacketPool`]: a packet's bytes move into
/// the pool once at [`MemoryNetwork::inject`] and out once when popped at
/// its destination; in between, the link buffers and delivery queues only
/// move 8-byte [`PacketRef`] handles, and per-hop bandwidth charging reads
/// the pool's cached wire size. Pooling is placement-only — routing order,
/// stats and delivery order are identical to moving packets by value.
#[derive(Debug)]
pub struct MemoryNetwork {
    topology: DragonflyTopology,
    /// Storage for every in-flight packet; the queues below hold handles.
    pool: PacketPool,
    /// Endpoints of every directed link, sorted; the index space of `links`.
    link_ends: Vec<(NetNode, NetNode)>,
    /// Every directed link's channel, in `link_ends` order. Each item is a
    /// packet with its global send sequence number.
    links: Vec<BandwidthLink<(u64, PacketRef)>>,
    /// Dense route table: entry `from * nodes + dst` (dense node indices,
    /// see [`MemoryNetwork::node_index`]) is the index of the link a packet
    /// at `from` bound for `dst` leaves on, or [`NO_LINK`].
    routes: Vec<u32>,
    /// Arrival calendar: one `(arrival cycle, sequence number, link)` entry
    /// per non-empty link, for the packet at the head of that link.
    heads: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Sequence number of the next packet sent on any link.
    next_seq: u64,
    /// Arrival cycle of the most recently popped link head, carried by the
    /// checkpoint document as `arrivals_last_popped`.
    last_arrival: Cycle,
    /// Packets on links, i.e. sent and not yet arrived.
    on_links: usize,
    delivered_cube: Vec<VecDeque<PacketRef>>,
    delivered_host: Vec<VecDeque<PacketRef>>,
    /// Cubes whose delivery queue went non-empty since the last
    /// [`MemoryNetwork::drain_arrived_cubes`], in delivery order.
    arrived_cubes: Vec<CubeId>,
    /// Packets sitting in a delivery queue, awaiting `pop_at_*`.
    delivered: usize,
    stats: NetworkStats,
    hop_latency: Cycle,
    link_bytes_per_cycle: u32,
}

impl MemoryNetwork {
    /// Builds the network for a topology with the given per-hop latency
    /// (router pipeline + wire) and per-link bandwidth.
    pub fn new(topology: DragonflyTopology, hop_latency: Cycle, link_bytes_per_cycle: u32) -> Self {
        let mut link_ends = topology.directed_links();
        link_ends.sort_unstable();
        link_ends.dedup();
        let links = link_ends
            .iter()
            .map(|_| BandwidthLink::new(hop_latency, link_bytes_per_cycle))
            .collect();
        let delivered_cube = (0..topology.cubes()).map(|_| VecDeque::new()).collect();
        let delivered_host = (0..topology.host_ports()).map(|_| VecDeque::new()).collect();
        let mut net = MemoryNetwork {
            topology,
            pool: PacketPool::new(),
            link_ends,
            links,
            routes: Vec::new(),
            heads: BinaryHeap::new(),
            next_seq: 0,
            last_arrival: 0,
            on_links: 0,
            delivered_cube,
            delivered_host,
            arrived_cubes: Vec::new(),
            delivered: 0,
            stats: NetworkStats::default(),
            hop_latency,
            link_bytes_per_cycle,
        };
        // Nodes in dense-index order, so row `i` of the table is node `i`.
        let nodes: Vec<NetNode> = (0..net.topology.cubes())
            .map(|c| NetNode::Cube(CubeId::new(c)))
            .chain((0..net.topology.host_ports()).map(|p| NetNode::Host(PortId::new(p))))
            .collect();
        net.routes = nodes
            .iter()
            .flat_map(|&from| nodes.iter().map(move |&dst| (from, dst)))
            .map(|(from, dst)| {
                if from == dst {
                    return NO_LINK;
                }
                let next = net.topology.next_hop(from, dst);
                net.link_index(from, next).map_or(NO_LINK, |link| link as u32)
            })
            .collect();
        net
    }

    /// Number of nodes (cubes plus host ports).
    fn nodes(&self) -> usize {
        self.topology.cubes() + self.topology.host_ports()
    }

    /// Dense index of a node: cubes first, then host ports — the same order
    /// as [`NetNode`]'s `Ord`.
    fn node_index(&self, node: NetNode) -> usize {
        match node {
            NetNode::Cube(c) => c.index(),
            NetNode::Host(p) => self.topology.cubes() + p.index(),
        }
    }

    /// Returns true if `node` belongs to this network's topology.
    fn has_node(&self, node: NetNode) -> bool {
        match node {
            NetNode::Cube(c) => c.index() < self.topology.cubes(),
            NetNode::Host(p) => p.index() < self.topology.host_ports(),
        }
    }

    /// Index of the directed link `a -> b`, if the topology has one.
    fn link_index(&self, a: NetNode, b: NetNode) -> Option<usize> {
        self.link_ends.binary_search(&(a, b)).ok()
    }

    /// The topology the network is built on.
    pub fn topology(&self) -> &DragonflyTopology {
        &self.topology
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn classify(&mut self, packet: &Packet, bytes: u64) {
        match &packet.kind {
            PacketKind::ReadReq { .. } | PacketKind::WriteReq { .. } => {
                self.stats.norm_req_bytes += bytes;
            }
            PacketKind::ReadResp { .. } | PacketKind::WriteAck { .. } => {
                self.stats.norm_resp_bytes += bytes;
            }
            PacketKind::Active(a) => match a {
                ActiveKind::Update { .. }
                | ActiveKind::OperandReq { .. }
                | ActiveKind::GatherReq { .. } => self.stats.active_req_bytes += bytes,
                ActiveKind::OperandResp { .. } | ActiveKind::GatherResp { .. } => {
                    self.stats.active_resp_bytes += bytes;
                }
            },
        }
    }

    /// Injects a packet at its source node. The packet moves into the pool
    /// here and starts routing immediately (or is delivered directly if
    /// source equals destination).
    pub fn inject(&mut self, now: Cycle, packet: Packet) {
        let bytes = packet.size_bytes();
        self.stats.packets_injected += 1;
        self.stats.bytes_injected += u64::from(bytes);
        self.classify(&packet, u64::from(bytes));
        let src = packet.src;
        let r = self.pool.alloc(packet);
        self.process_at(now, src, r);
    }

    fn deliver(&mut self, now: Cycle, r: PacketRef) {
        let packet = self.pool.get(r);
        let (dst, injected_at) = (packet.dst, packet.injected_at);
        self.stats.packets_delivered += 1;
        self.stats.total_latency += now.saturating_sub(injected_at);
        self.delivered += 1;
        match dst {
            NetNode::Cube(c) => {
                let queue = &mut self.delivered_cube[c.index()];
                if queue.is_empty() {
                    self.arrived_cubes.push(c);
                }
                queue.push_back(r);
            }
            NetNode::Host(p) => self.delivered_host[p.index()].push_back(r),
        }
    }

    fn process_at(&mut self, now: Cycle, node: NetNode, r: PacketRef) {
        let dst = self.pool.get(r).dst;
        if node == dst {
            self.deliver(now, r);
            return;
        }
        let link = self.routes[self.node_index(node) * self.nodes() + self.node_index(dst)];
        if link == NO_LINK {
            panic!("no link {node} -> {}", self.topology.next_hop(node, dst));
        }
        let bytes = self.pool.size_bytes(r);
        self.pool.get_mut(r).hops += 1;
        self.stats.bit_hops += u64::from(bytes) * 8;
        let seq = self.next_seq;
        self.next_seq += 1;
        let channel = &mut self.links[link as usize];
        let was_idle = channel.is_idle();
        let arrives_at = channel.send(now, bytes, (seq, r));
        self.on_links += 1;
        if was_idle {
            self.heads.push(Reverse((arrives_at, seq, link)));
        }
    }

    /// Advances the network to `now`: packets whose arrival is due are
    /// forwarded to the next hop or delivered. Only links with due arrivals
    /// are visited, in `(arrival cycle, send order)` order.
    pub fn tick(&mut self, now: Cycle) {
        loop {
            let (link, r) = {
                let Some(mut head) = self.heads.peek_mut() else { break };
                let Reverse((at, _, link)) = *head;
                if at > now {
                    break;
                }
                self.last_arrival = at;
                let channel = &mut self.links[link as usize];
                let (_, r) = channel.pop_arrived(now).expect("the calendar holds each link's head");
                // Re-key the entry to the link's next packet in place, or
                // retire it once the link is empty.
                match channel.next_arrival() {
                    Some((next_at, &(next_seq, _))) => *head = Reverse((next_at, next_seq, link)),
                    None => {
                        PeekMut::pop(head);
                    }
                }
                (link as usize, r)
            };
            self.on_links -= 1;
            self.process_at(now, self.link_ends[link].1, r);
        }
    }

    /// Removes and yields the cubes whose delivery queue went non-empty since
    /// the last call, in delivery order. A cube appears once per transition
    /// from empty, so a queue drained and refilled between calls is listed
    /// twice; a caller that drains every listed queue sees each cube with a
    /// pending delivery exactly once.
    pub fn drain_arrived_cubes(&mut self) -> std::vec::Drain<'_, CubeId> {
        self.arrived_cubes.drain(..)
    }

    /// Returns true if a packet is waiting in the given host port's delivery
    /// queue.
    pub fn has_delivery_at_host(&self, port: PortId) -> bool {
        !self.delivered_host[port.index()].is_empty()
    }

    /// Removes the next packet delivered at a cube, if any. The packet moves
    /// out of the pool and its slot is recycled.
    pub fn pop_at_cube(&mut self, cube: CubeId) -> Option<Packet> {
        let r = self.delivered_cube[cube.index()].pop_front()?;
        self.delivered -= 1;
        Some(self.pool.free(r))
    }

    /// Removes the next packet delivered at a host port, if any. The packet
    /// moves out of the pool and its slot is recycled.
    pub fn pop_at_host(&mut self, port: PortId) -> Option<Packet> {
        let r = self.delivered_host[port.index()].pop_front()?;
        self.delivered -= 1;
        Some(self.pool.free(r))
    }

    /// Number of packets currently buffered or in flight anywhere in the
    /// network (used to detect quiescence). The counts are tracked
    /// incrementally, so this is O(1).
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.pool.live(),
            self.on_links + self.delivered,
            "every pooled packet is on a link or in a delivery queue"
        );
        self.on_links + self.delivered
    }

    /// Peak number of simultaneously in-flight packets over the run — the
    /// pool's high-water mark, i.e. the in-flight packet footprint.
    pub fn peak_in_flight(&self) -> usize {
        self.pool.high_water()
    }

    /// Slots the in-flight packet pool has grown to (live + free).
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Returns true if nothing is queued or in flight.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
    }

    /// Total queueing cycles accumulated on the link out of a host port
    /// (useful to observe the ART single-port hotspot).
    pub fn host_port_queueing(&self, port: PortId) -> u64 {
        let node = NetNode::Host(port);
        let cube = NetNode::Cube(self.topology.host_cube(port));
        self.link_index(node, cube).map(|link| self.links[link].queueing_cycles()).unwrap_or(0)
    }

    /// Per-hop latency the network was configured with.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// Per-link bandwidth (bytes per cycle) the network was configured with.
    pub fn link_bandwidth(&self) -> u32 {
        self.link_bytes_per_cycle
    }

    /// Serializes the network's dynamic state: per-link channel state with
    /// in-flight packets resolved to full packet bodies, the delivery queues,
    /// the arrival calendar (in deterministic pop order), and the traffic
    /// statistics. Idle links with zeroed counters are omitted — a freshly
    /// constructed network already has them.
    pub fn state_to_json(&self) -> Json {
        let links = self
            .link_ends
            .iter()
            .zip(&self.links)
            .filter(|(_, link)| {
                link.free_at() > 0
                    || link.in_flight() > 0
                    || link.bytes_transferred() > 0
                    || link.queueing_cycles() > 0
            })
            .map(|(&(a, b), link)| {
                let in_flight = link
                    .in_flight_entries()
                    .map(|(at, &(_, r))| {
                        Json::obj([
                            ("at", Json::from(at)),
                            ("packet", self.pool.get(r).state_to_json()),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("a", a.state_to_json()),
                    ("b", b.state_to_json()),
                    ("free_at", Json::from(link.free_at())),
                    ("bytes_transferred", Json::from(link.bytes_transferred())),
                    ("packets_transferred", Json::from(link.packets_transferred())),
                    ("queueing_cycles", Json::from(link.queueing_cycles())),
                    ("in_flight", Json::Arr(in_flight)),
                ])
            })
            .collect();
        let deliveries = |queues: &[VecDeque<PacketRef>]| {
            Json::Arr(
                queues
                    .iter()
                    .map(|q| {
                        Json::Arr(q.iter().map(|&r| self.pool.get(r).state_to_json()).collect())
                    })
                    .collect(),
            )
        };
        let mut pending: Vec<(Cycle, u64, usize)> = self
            .links
            .iter()
            .enumerate()
            .flat_map(|(link, channel)| {
                channel.in_flight_entries().map(move |(at, &(seq, _))| (at, seq, link))
            })
            .collect();
        pending.sort_unstable();
        let arrivals = pending
            .into_iter()
            .map(|(at, _, link)| {
                let (a, b) = self.link_ends[link];
                Json::obj([
                    ("at", Json::from(at)),
                    ("a", a.state_to_json()),
                    ("b", b.state_to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("links", Json::Arr(links)),
            ("delivered_cube", deliveries(&self.delivered_cube)),
            ("delivered_host", deliveries(&self.delivered_host)),
            ("arrivals", Json::Arr(arrivals)),
            ("arrivals_last_popped", Json::from(self.last_arrival)),
            ("stats", self.stats.state_to_json()),
        ])
    }

    /// Restores dynamic state onto a freshly constructed network, allocating
    /// every serialized packet into a fresh pool in deterministic order.
    ///
    /// The `arrivals` list is the arrival calendar in pop order. Each entry
    /// is matched to the next restored in-flight packet on the same link and
    /// must name that packet's arrival cycle; sequence numbers are assigned
    /// in list order, which reproduces the snapshot's same-cycle delivery
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, references a
    /// link or node that does not exist in this network's topology, or is
    /// inconsistent: an arrival out of pop order, an arrival that does not
    /// match its link's next in-flight packet, or an in-flight packet
    /// without an arrival.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        fn link_key(doc: &Json) -> Result<(NetNode, NetNode), JsonError> {
            Ok((NetNode::state_from_json(doc.req("a")?)?, NetNode::state_from_json(doc.req("b")?)?))
        }
        let find_link = |net: &MemoryNetwork, (a, b): (NetNode, NetNode)| {
            net.link_index(a, b)
                .ok_or_else(|| JsonError::state(format!("no link {a} -> {b} in this topology")))
        };
        let restore_packet = |net: &mut MemoryNetwork, doc: &Json| {
            let packet = Packet::state_from_json(doc)?;
            if !net.has_node(packet.dst) {
                return Err(JsonError::state(format!(
                    "packet {} is bound for {}, which is not in this topology",
                    packet.id, packet.dst
                )));
            }
            Ok(net.pool.alloc(packet))
        };
        self.stats = NetworkStats::state_from_json(doc.req("stats")?)?;
        // In-flight packets wait here, per link, until their arrival entry
        // assigns them a sequence number.
        let mut unmatched: Vec<VecDeque<(Cycle, PacketRef)>> =
            vec![VecDeque::new(); self.links.len()];
        for entry in doc.req_array("links")? {
            let link = find_link(self, link_key(entry)?)?;
            self.links[link].restore_state(
                entry.req_u64("free_at")?,
                entry.req_u64("bytes_transferred")?,
                entry.req_u64("packets_transferred")?,
                entry.req_u64("queueing_cycles")?,
            );
            for flight in entry.req_array("in_flight")? {
                let at = flight.req_u64("at")?;
                unmatched[link].push_back((at, restore_packet(self, flight.req("packet")?)?));
            }
        }
        let restore_queues = |net: &mut MemoryNetwork, key: &str, expected: usize| {
            let docs = doc.req_array(key)?;
            if docs.len() != expected {
                return Err(JsonError::state(format!(
                    "{key} has {} queues but the topology provides {expected}",
                    docs.len()
                )));
            }
            let mut queues = Vec::with_capacity(expected);
            for entries in docs {
                let entries = entries
                    .as_array()
                    .ok_or_else(|| JsonError::state(format!("{key} queue is not an array")))?;
                let mut queue = VecDeque::with_capacity(entries.len());
                for packet in entries {
                    queue.push_back(restore_packet(net, packet)?);
                }
                queues.push(queue);
            }
            Ok(queues)
        };
        self.delivered_cube = restore_queues(self, "delivered_cube", self.delivered_cube.len())?;
        self.delivered_host = restore_queues(self, "delivered_host", self.delivered_host.len())?;
        self.delivered =
            self.delivered_cube.iter().chain(&self.delivered_host).map(VecDeque::len).sum();
        self.arrived_cubes.clear();
        for (c, queue) in self.delivered_cube.iter().enumerate() {
            if !queue.is_empty() {
                self.arrived_cubes.push(CubeId::new(c));
            }
        }
        self.heads.clear();
        self.next_seq = 0;
        self.on_links = 0;
        self.last_arrival = doc.req_u64("arrivals_last_popped")?;
        let mut previous_at = 0;
        for entry in doc.req_array("arrivals")? {
            let at = entry.req_u64("at")?;
            let (a, b) = link_key(entry)?;
            let link = find_link(self, (a, b))?;
            if at < previous_at {
                return Err(JsonError::state(format!(
                    "arrival at cycle {at} on link {a} -> {b} is out of pop order"
                )));
            }
            previous_at = at;
            match unmatched[link].pop_front() {
                Some((flight_at, r)) if flight_at == at => {
                    self.links[link].restore_in_flight(at, (self.next_seq, r));
                    self.next_seq += 1;
                    self.on_links += 1;
                }
                Some((flight_at, _)) => {
                    return Err(JsonError::state(format!(
                        "arrival at cycle {at} on link {a} -> {b} does not match the link's next \
                         in-flight packet, which arrives at cycle {flight_at}"
                    )));
                }
                None => {
                    return Err(JsonError::state(format!(
                        "arrival at cycle {at} on link {a} -> {b} has no in-flight packet"
                    )));
                }
            }
        }
        if let Some(link) = unmatched.iter().position(|queue| !queue.is_empty()) {
            let (a, b) = self.link_ends[link];
            return Err(JsonError::state(format!(
                "link {a} -> {b} holds {} in-flight packets without an arrival",
                unmatched[link].len()
            )));
        }
        for (link, channel) in self.links.iter().enumerate() {
            if let Some((at, &(seq, _))) = channel.next_arrival() {
                self.heads.push(Reverse((at, seq, link as u32)));
            }
        }
        Ok(())
    }
}

impl Component for MemoryNetwork {
    fn next_wake(&self, now: Cycle) -> NextWake {
        // Undrained delivery queues must be looked at on the very next cycle;
        // otherwise the next link arrival is the next observable change.
        if self.delivered > 0 {
            NextWake::At(now + 1)
        } else {
            NextWake::from_next(self.heads.peek().map(|&Reverse((at, ..))| at))
        }
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        self.tick(now);
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::Addr;

    fn read_req(id: u64, from_port: usize, to_cube: usize, now: Cycle) -> Packet {
        Packet::from_host(
            id,
            PortId::new(from_port),
            CubeId::new(to_cube),
            PacketKind::ReadReq { req_id: id, addr: Addr::new(0x40) },
            now,
        )
    }

    fn drain(net: &mut MemoryNetwork, cube: usize, until: Cycle) -> Vec<Packet> {
        let mut out = Vec::new();
        for t in 0..until {
            net.tick(t);
            while let Some(p) = net.pop_at_cube(CubeId::new(cube)) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn packet_reaches_destination_cube() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        net.inject(0, read_req(1, 0, 9, 0));
        let got = drain(&mut net, 9, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1);
        assert!(got[0].hops >= 2, "port 0 to cube 9 requires several hops");
        assert_eq!(net.stats().packets_delivered, 1);
        assert!(net.is_quiescent());
    }

    #[test]
    fn local_cube_delivery_is_direct() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        // cube 0 sends to itself: delivered without traversing links.
        let p = Packet::new(
            7,
            NetNode::Cube(CubeId::new(0)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::WriteAck { req_id: 7, addr: Addr::new(0) },
            5,
        );
        net.inject(5, p);
        assert_eq!(net.pop_at_cube(CubeId::new(0)).unwrap().hops, 0);
    }

    #[test]
    fn response_returns_to_host_port() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 2, 16);
        let p = Packet::new(
            3,
            NetNode::Cube(CubeId::new(6)),
            NetNode::Host(PortId::new(1)),
            PacketKind::ReadResp { req_id: 3, addr: Addr::new(0x80) },
            0,
        );
        net.inject(0, p);
        let mut got = None;
        for t in 0..300 {
            net.tick(t);
            if let Some(p) = net.pop_at_host(PortId::new(1)) {
                got = Some(p);
                break;
            }
        }
        let got = got.expect("response must arrive");
        assert_eq!(got.id, 3);
        assert!(net.stats().norm_resp_bytes > 0);
    }

    #[test]
    fn nearer_destinations_arrive_sooner() {
        let mut near_net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        let mut far_net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        near_net.inject(0, read_req(1, 0, 1, 0));
        far_net.inject(0, read_req(2, 0, 10, 0));
        let mut near_t = None;
        let mut far_t = None;
        for t in 0..500 {
            near_net.tick(t);
            far_net.tick(t);
            if near_t.is_none() && near_net.pop_at_cube(CubeId::new(1)).is_some() {
                near_t = Some(t);
            }
            if far_t.is_none() && far_net.pop_at_cube(CubeId::new(10)).is_some() {
                far_t = Some(t);
            }
        }
        assert!(near_t.unwrap() < far_t.unwrap());
    }

    #[test]
    fn port_congestion_accumulates_queueing() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        // Blast many packets through port 0 in the same cycle: the single
        // host link must serialize them.
        for i in 0..64 {
            net.inject(0, read_req(i, 0, (i % 15 + 1) as usize, 0));
        }
        for t in 0..2000 {
            net.tick(t);
            for c in 0..16 {
                while net.pop_at_cube(CubeId::new(c)).is_some() {}
            }
        }
        assert!(net.host_port_queueing(PortId::new(0)) > 0);
        assert_eq!(net.stats().packets_delivered, 64);
    }

    #[test]
    fn pop_at_cube_drains_the_delivery_queue_in_order() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        for id in 0..4 {
            // Zero-hop self-delivery lands in the queue immediately.
            let p = Packet::new(
                id,
                NetNode::Cube(CubeId::new(2)),
                NetNode::Cube(CubeId::new(2)),
                PacketKind::WriteAck { req_id: id, addr: Addr::new(0) },
                0,
            );
            net.inject(0, p);
        }
        // The queue went non-empty once, so the cube is listed once.
        assert_eq!(net.drain_arrived_cubes().collect::<Vec<_>>(), vec![CubeId::new(2)]);
        let inbox: Vec<u64> =
            std::iter::from_fn(|| net.pop_at_cube(CubeId::new(2))).map(|p| p.id).collect();
        assert_eq!(inbox, vec![0, 1, 2, 3]);
        assert!(net.is_quiescent(), "popping the queue must keep the in-flight count exact");
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        // Congest the network, snapshot with packets on links, in delivery
        // queues and mid-serialization, then check the restored network
        // delivers the identical packet trace with identical stats.
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let ports = net.topology().host_ports();
        for i in 0..48u64 {
            net.inject(0, read_req(i, i as usize % ports, (i % 15 + 1) as usize, 0));
        }
        let snap_at = 7;
        for t in 0..=snap_at {
            net.tick(t);
        }
        assert!(!net.is_quiescent(), "snapshot must capture in-flight packets");
        let doc = Json::parse(&net.state_to_json().render()).unwrap();
        let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        restored.load_state(&doc).unwrap();
        assert_eq!(net.in_flight(), restored.in_flight());
        assert_eq!(net.next_wake(snap_at), restored.next_wake(snap_at));
        for t in snap_at + 1..3_000 {
            net.tick(t);
            restored.tick(t);
            for c in 0..16 {
                loop {
                    match (net.pop_at_cube(CubeId::new(c)), restored.pop_at_cube(CubeId::new(c))) {
                        (None, None) => break,
                        (a, b) => assert_eq!(a, b, "cube {c} divergence at cycle {t}"),
                    }
                }
            }
            if net.is_quiescent() && restored.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent() && restored.is_quiescent(), "both networks must drain");
        assert_eq!(net.stats(), restored.stats());
        assert_eq!(
            net.host_port_queueing(PortId::new(0)),
            restored.host_port_queueing(PortId::new(0))
        );
    }

    #[test]
    fn load_state_rejects_unknown_link() {
        let net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let mut doc = net.state_to_json();
        // Forge a link between two hosts — no such link exists.
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "links" {
                    *value = Json::Arr(vec![Json::obj([
                        ("a", NetNode::Host(PortId::new(0)).state_to_json()),
                        ("b", NetNode::Host(PortId::new(1)).state_to_json()),
                        ("free_at", Json::from(9u64)),
                        ("bytes_transferred", Json::from(0u64)),
                        ("packets_transferred", Json::from(0u64)),
                        ("queueing_cycles", Json::from(0u64)),
                        ("in_flight", Json::Arr(Vec::new())),
                    ])]);
                }
            }
        }
        let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let err = restored.load_state(&doc).unwrap_err();
        assert!(err.to_string().contains("no link"), "unexpected error: {err}");
    }

    #[test]
    fn load_state_rejects_an_arrival_on_the_wrong_link() {
        // Snapshot a congested network, then overwrite the first calendar
        // entry with the second: the totals still agree, but the entries no
        // longer match the packets on their links.
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        for i in 0..48u64 {
            net.inject(0, read_req(i, i as usize % 4, (i % 15 + 1) as usize, 0));
        }
        for t in 0..=7 {
            net.tick(t);
        }
        let mut doc = net.state_to_json();
        let Json::Obj(fields) = &mut doc else { panic!("network state is an object") };
        let (_, arrivals) = fields.iter_mut().find(|(key, _)| key == "arrivals").unwrap();
        let Json::Arr(entries) = arrivals else { panic!("arrivals is an array") };
        assert!(entries.len() >= 2, "the snapshot must hold several arrivals");
        assert_ne!(entries[0], entries[1]);
        entries[0] = entries[1].clone();
        let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let err = restored.load_state(&doc).unwrap_err();
        assert!(err.to_string().contains("arrival"), "unexpected error: {err}");
    }

    #[test]
    fn same_cycle_arrivals_on_different_links_deliver_in_send_order() {
        // Cubes 0 and 2 each send one hop to cube 1 in the same cycle, so
        // both packets arrive in the same cycle on different links. Delivery
        // follows send order whichever link sorts first.
        for sources in [[2, 0], [0, 2]] {
            let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
            for (id, src) in sources.into_iter().enumerate() {
                let p = Packet::new(
                    id as u64,
                    NetNode::Cube(CubeId::new(src)),
                    NetNode::Cube(CubeId::new(1)),
                    PacketKind::WriteAck { req_id: id as u64, addr: Addr::new(0) },
                    0,
                );
                net.inject(0, p);
            }
            let arrival = net.next_wake(0).cycle().expect("packets are on links");
            net.tick(arrival);
            let inbox: Vec<(u64, NetNode)> = std::iter::from_fn(|| net.pop_at_cube(CubeId::new(1)))
                .map(|p| (p.id, p.src))
                .collect();
            let expected: Vec<(u64, NetNode)> = sources
                .into_iter()
                .enumerate()
                .map(|(id, src)| (id as u64, NetNode::Cube(CubeId::new(src))))
                .collect();
            assert_eq!(inbox, expected, "both packets arrive at cycle {arrival}, in send order");
            assert!(net.is_quiescent());
        }
    }

    #[test]
    fn traffic_classification_splits_active_and_normal() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        net.inject(0, read_req(1, 0, 2, 0));
        let gather = Packet::from_host(
            2,
            PortId::new(0),
            CubeId::new(0),
            PacketKind::Active(ActiveKind::GatherReq {
                flow: ar_types::FlowId::new(0x100, PortId::new(0)),
                op: ar_types::ReduceOp::Sum,
                expected_at_root: 1,
                thread: ar_types::ThreadId::new(0),
            }),
            0,
        );
        net.inject(0, gather);
        let s = net.stats();
        assert!(s.norm_req_bytes > 0);
        assert!(s.active_req_bytes > 0);
        assert_eq!(s.norm_resp_bytes, 0);
        assert_eq!(s.total_bytes(), s.norm_req_bytes + s.active_req_bytes);
    }

    #[test]
    fn bit_hops_grow_with_distance() {
        let mut a = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        let mut b = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        a.inject(0, read_req(1, 0, 1, 0));
        b.inject(0, read_req(1, 0, 9, 0));
        for t in 0..200 {
            a.tick(t);
            b.tick(t);
        }
        assert!(b.stats().bit_hops > a.stats().bit_hops);
    }
}
