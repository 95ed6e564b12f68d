/**
 * @file
 * Machine interconnect model (Garnet-inspired): a forest of WxH
 * meshes — one per device — joined by inter-device gateway links.
 *
 * Within a device: dimension-ordered (XY) routing over its grid.
 * Across devices: XY to the source device's gateway node, one
 * inter-device link (fully connected device pairs, each with its own
 * latency and flit-serialization class), then XY from the destination
 * gateway. Each unidirectional link carries one flit per
 * `cyclesPerFlit` cycles (mesh links: 1); a message serializes onto
 * every link it crosses and inherits queueing delay when links are
 * busy, which captures the bursty-writethrough contention that the
 * paper's GPU-coherence discussion hinges on. Flit crossings
 * (flits x links) are accounted per traffic class. A one-device
 * machine takes exactly the classic single-mesh paths, cycle for
 * cycle.
 *
 * Delivery is closure-based: the sender provides the action to run at
 * the destination when the message arrives, keeping the network
 * independent of protocol message formats. That seam also hosts the
 * optional DeliveryPolicy (FaultInjector chaos perturbation or the
 * model checker's ExploringPolicy) and an in-flight message registry
 * consumed by hang diagnostics.
 */

#ifndef NOC_MESH_HH
#define NOC_MESH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "noc/delivery_policy.hh"
#include "noc/fault_injector.hh"
#include "noc/topology.hh"
#include "noc/traffic.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"
#include "sim/sim_object.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nosync
{

namespace trace
{
class TraceSink;
}

/**
 * Delivery action run at a message's destination. Sized so every
 * protocol closure in the tree — including the line-data-carrying
 * replies (a 64-byte LineData plus a reply functor) — stays in the
 * inline buffer and never touches the heap.
 */
using DeliverFn = SmallFn<void(), 112>;

/** A message injected but not yet delivered (diagnostics). */
struct InFlightMsg
{
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    TrafficClass cls = TrafficClass::Read;
    unsigned flits = 0;
    Tick sent = 0;
    Tick arrives = 0;
    bool duplicate = false;
};

/** Device forest with XY routing and per-link serialization. */
class Mesh : public SimObject
{
  public:
    Mesh(EventQueue &eq, stats::StatSet &stats,
         const MachineTopology &topo = MachineTopology{},
         trace::TraceSink *trace = nullptr);

    unsigned numNodes() const { return _topo.numNodes(); }

    /** The topology this fabric was built from. */
    const MachineTopology &topology() const { return _topo; }

    /** Links crossed between two nodes (inter-device link = 1). */
    unsigned hops(NodeId src, NodeId dst) const;

    /**
     * Send a message of @p flits flits from @p src to @p dst; @p
     * deliver runs at the destination's arrival tick. A sender marks
     * the message @p idempotent when delivering it twice is
     * harmless (pure requests whose responses are deduplicated by
     * the receiver); only such messages may be duplicated by an
     * attached fault injector (duplication copies the closure, so
     * idempotent closures must be copyable).
     */
    void send(NodeId src, NodeId dst, unsigned flits, TrafficClass cls,
              DeliverFn deliver, bool idempotent = false);

    /**
     * Best-case (uncontended) one-way latency between two nodes for a
     * message of @p flits flits. Used by tests and latency tables.
     */
    Cycles uncontendedLatency(NodeId src, NodeId dst,
                              unsigned flits) const;

    /** Total flit crossings in @p cls so far. */
    double flitCrossings(TrafficClass cls) const;

    /** Total flit crossings across all classes. */
    double totalFlitCrossings() const;

    // Delivery policy -------------------------------------------------
    /**
     * Attach (or detach, with nullptr) a delivery policy: the
     * chaos-testing FaultInjector or the model checker's
     * ExploringPolicy. At most one policy is active per mesh.
     */
    void setDeliveryPolicy(DeliveryPolicy *policy)
    {
        _delivery = policy;
    }
    DeliveryPolicy *deliveryPolicy() { return _delivery; }

    /** Convenience spelling for the chaos-testing policy. */
    void setFaultInjector(FaultInjector *inj) { _delivery = inj; }

    // PDES engine mode ------------------------------------------------
    /**
     * Switch the mesh into sharded-engine mode. Per-node ports take
     * over the in-flight slab and traffic counters so each domain
     * touches only its own cache lines during the parallel phase;
     * cross-domain sends are deposited with the engine and arbitrated
     * against the shared link state at window barriers via
     * drainEngineSends().
     */
    void setEngine(PdesEngine *engine);
    PdesEngine *engine() { return _engine; }

    /**
     * Barrier-phase arbitration of one window's cross-domain sends,
     * pre-sorted by (send tick, source node, deposit sequence). Walks
     * each route against the shared link-reservation table exactly as
     * the serial path would, applies the delivery policy with the
     * main RNG, and schedules every delivery into the destination
     * shard — all arrivals land at or after @p window_end by the
     * lookahead bound.
     */
    void drainEngineSends(std::vector<PdesEngine::MeshSend> &sends,
                          Tick window_end);

    /**
     * Fold the per-node traffic counters into the stats Vectors in
     * node order (then zero them). Called once before metrics are
     * read so reported stats are independent of domain packing.
     */
    void foldEngineStats();

    // Diagnostics -----------------------------------------------------
    /** Messages injected but not yet delivered, in injection order
     *  (engine mode: in (send tick, destination, sequence) order). */
    std::vector<InFlightMsg> inFlightSnapshot() const;

    /** Number of messages injected but not yet delivered. */
    std::size_t inFlightCount() const;

  private:
    /** Index of the unidirectional link from @p from to @p to. */
    std::size_t linkIndex(NodeId from, NodeId to) const;

    /** Next node on the XY route from @p at toward @p dst (same
     *  device; cross-device routes are stitched via gateways). */
    NodeId nextHop(NodeId at, NodeId dst) const;

    /** Append the intra-device XY route @p from -> @p to. */
    void appendLocalRoute(NodeId from, NodeId to, unsigned &num_hops);

    /** Track the message and schedule its delivery at @p arrives. */
    void scheduleDelivery(Tick arrives, NodeId src, NodeId dst,
                          TrafficClass cls, unsigned flits,
                          DeliverFn deliver, bool duplicate);

    /** Fill the per-pair route/hop tables (ctor helper). */
    void buildRouteTable();

    MachineTopology _topo;
    /** Earliest tick each unidirectional link is free. */
    std::vector<Tick> _linkFree;
    /** Per-link traversal latency: hopLatency on mesh links, the
     *  link class latency on inter-device links. */
    std::vector<Cycles> _linkLatency;
    /** Per-link flit serialization: 1 cycle/flit on mesh links, the
     *  link class cyclesPerFlit on inter-device links. */
    std::vector<Cycles> _linkFlitCycles;
    DeliveryPolicy *_delivery = nullptr;

    /**
     * Precomputed XY routes: for each (src, dst) pair, the link
     * indices the message crosses, flattened into one array with a
     * per-pair offset. hops(src, dst) is the segment length.
     */
    std::vector<std::uint16_t> _routeLinks;
    std::vector<std::uint32_t> _routeOffset; ///< src * numNodes + dst
    std::vector<std::uint8_t> _hopTable;

    /**
     * In-flight registry: slab-recycled records so steady-state
     * message traffic performs no allocation. Each record owns its
     * delivery closure; the scheduled event only carries {this,
     * slot}. Records keep their monotonic id for injection-order
     * diagnostics.
     */
    struct InFlightRecord
    {
        std::uint64_t id = 0;
        InFlightMsg msg;
        DeliverFn deliver;
        bool live = false;
    };
    /** Deliver and free the record in @p slot. */
    void deliverSlot(std::uint32_t slot);

    std::vector<InFlightRecord> _records;
    std::vector<std::uint32_t> _freeRecords;
    std::size_t _liveMsgs = 0;
    std::uint64_t _nextMsgId = 0;

    /**
     * Engine-mode per-node port: in-flight slab and traffic counters
     * owned by one domain during the parallel phase (local sends and
     * deliveries at that node) and by the barrier thread in between.
     * Cache-line aligned so neighbouring domains never false-share.
     */
    struct alignas(64) EnginePort
    {
        std::vector<InFlightRecord> records;
        std::vector<std::uint32_t> freeRecords;
        std::size_t liveMsgs = 0;
        std::uint64_t nextSeq = 0;
        std::array<double, kNumTrafficClasses> messages{};
        std::array<double, kNumTrafficClasses> crossings{};
    };

    /** Engine-mode send dispatch (domain-local vs deposited). */
    void engineSend(NodeId src, NodeId dst, unsigned flits,
                    TrafficClass cls, DeliverFn deliver,
                    bool idempotent);

    /** Engine-mode delivery scheduling into @p dst's shard/port. */
    void scheduleDeliveryEngine(Tick arrives, Tick sent, NodeId src,
                                NodeId dst, TrafficClass cls,
                                unsigned flits, DeliverFn deliver,
                                bool duplicate);

    /** Deliver and free engine record @p slot of @p dst's port. */
    void deliverSlotEngine(NodeId dst, std::uint32_t slot);

    PdesEngine *_engine = nullptr;
    std::vector<EnginePort> _ports;

    stats::Handle<stats::Vector> _flitCrossings;
    stats::Handle<stats::Vector> _messages;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
};

} // namespace nosync

#endif // NOC_MESH_HH
