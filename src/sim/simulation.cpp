#include "sim/simulation.hpp"
#include <cstdlib>
#include <cstdio>

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "protocol/verifier.hpp"
#include "sim/machine.hpp"
#include "sim/nic.hpp"

namespace copbft::sim {

const char* arch_name(SimArch arch) {
  switch (arch) {
    case SimArch::kCop:
      return "COP";
    case SimArch::kTop:
      return "TOP";
    case SimArch::kSmart:
      return "BFT-SMaRt";
    case SimArch::kSmartStar:
      return "BFT-SMaRt*";
  }
  return "?";
}

namespace {

using namespace copbft::protocol;

constexpr std::size_t kAuthEntryBytes = 20;  // recipient id + 128-bit MAC

/// A message in flight; shared between the recipients of a broadcast.
struct Packet {
  Message msg;
  std::size_t bytes = 0;
  bool pre_verified = false;
};
using PacketPtr = std::shared_ptr<const Packet>;

struct World;
struct ReplicaSim;
struct ClientFleet;

struct World {
  explicit World(const SimConfig& config) : cfg(config), costs(config.costs) {
    net_down.assign(cfg.protocol.num_replicas, 0);
    if (cfg.wan.enabled) {
      links = std::make_unique<LinkModel>(cfg.wan.default_latency_ns,
                                          cfg.wan.jitter_ns, cfg.seed ^ 0x11a);
      for (const LinkSpec& l : cfg.wan.links) {
        links->set_link(l.src, l.dst, l.latency_ns);
        links->set_link(l.dst, l.src, l.latency_ns);
      }
      // Clients sit on one sentinel node; their latency towards every
      // replica is uniform so WAN effects isolate to the replica mesh.
      for (std::uint32_t r = 0; r < cfg.protocol.num_replicas; ++r) {
        links->set_link(client_node(), r, cfg.wan.client_latency_ns);
        links->set_link(r, client_node(), cfg.wan.client_latency_ns);
      }
      for (const PartitionSpec& p : cfg.wan.partitions) links->add_partition(p);
    }
  }

  const SimConfig& cfg;
  const CostModel& costs;
  EventQueue events;
  std::vector<std::unique_ptr<ReplicaSim>> replicas;
  std::unique_ptr<ClientFleet> fleet;

  bool measuring = false;
  std::uint64_t completed_ops = 0;
  std::uint64_t state_transfers = 0;
  Histogram latency_us;

  /// Per-replica network state driven by the fault schedule: while down a
  /// replica neither sends nor receives.
  std::vector<char> net_down;
  /// WAN topology; null = uniform LAN from the cost model.
  std::unique_ptr<LinkModel> links;

  /// Cross-replica execution fork oracle: content hash of every executed
  /// sequence number, checked across correct replicas.
  // COPLINT(allow:det-unordered-member: oracle checked by seq lookup at each execution; never iterated)
  std::unordered_map<std::uint64_t, std::uint64_t> executed_hash;
  std::uint64_t fork_detections = 0;

  /// Completed client operations per 10 ms bucket, warmup included.
  std::vector<std::uint64_t> ops_timeline;

  std::uint64_t now_virtual_us() const { return events.now() / 1000; }

  /// Sentinel link-model node for the client machines.
  std::uint32_t client_node() const { return cfg.protocol.num_replicas; }

  /// Fault injection: the replica's network is cut both ways while down.
  bool paused(ReplicaId r) const { return net_down[r] != 0; }

  void note_executed(ReplicaId executor, SeqNum seq, std::uint64_t hash) {
    if (executor == cfg.protocol.adversary.replica) return;
    auto [it, inserted] = executed_hash.emplace(seq, hash);
    if (!inserted && it->second != hash) ++fork_detections;
  }

  void record_completion() {
    std::size_t bucket = events.now() / SimResult::kTimelineBucketNs;
    if (ops_timeline.size() <= bucket) ops_timeline.resize(bucket + 1, 0);
    ++ops_timeline[bucket];
  }

  /// Point-to-point transfer between link-model nodes `src_node` and
  /// `dst_node` (replica ids, or client_node()). Partitioned traffic is
  /// dropped; otherwise propagation comes from the link model (or the
  /// cost model's LAN constant when WAN is disabled).
  void transfer(std::uint32_t src_node, std::uint32_t dst_node, Adapter& src,
                Adapter& dst, std::size_t bytes,
                std::function<void()> deliver) {
    SimTime propagation = costs.propagation_ns;
    if (links) {
      if (links->blocked(src_node, dst_node, events.now())) return;
      propagation = links->latency(src_node, dst_node);
    }
    network_transfer(events, propagation, src, dst, bytes, std::move(deliver));
  }
};

// ---------------------------------------------------------------------------
// A protocol-logic unit: COP pillar or the TOP/SMaRt logic thread. Wraps a
// *real* PbftCore; CPU cost is derived from what the core actually did —
// the statistics deltas expose exactly how many MACs the in-order policy
// verified, so the efficiency argument of paper §3.2 is reproduced rather
// than assumed.

struct LogicUnit {
  World& world;
  ReplicaSim& replica;
  std::uint32_t index;
  SimThread& thread;
  AcceptAllVerifier verifier;
  std::unique_ptr<crypto::CryptoProvider> crypto;
  // Construction parameters kept so a crash/recover fault can re-create
  // the core in place (the LogicUnit itself stays alive: queued SimThread
  // tasks hold LogicUnit pointers).
  const ProtocolConfig pcfg;
  const ReplicaId self;
  const SeqSlice slice;
  std::optional<PbftCore> core;

  LogicUnit(World& w, ReplicaSim& r, std::uint32_t idx, SimThread& t,
            const ProtocolConfig& config, ReplicaId self_id, SeqSlice s)
      : world(w),
        replica(r),
        index(idx),
        thread(t),
        pcfg(config),
        self(self_id),
        slice(s) {
    crypto = crypto::make_null_crypto();
    core.emplace(pcfg, self, slice, verifier, *crypto);
  }

  /// Crash recovery: fresh protocol state, as if the process restarted.
  void reset_core() { core.emplace(pcfg, self, slice, verifier, *crypto); }

  static crypto::Digest digest_for(SeqNum seq) {
    crypto::Digest d;
    for (int i = 0; i < 8; ++i)
      d.bytes[static_cast<std::size_t>(i)] =
          static_cast<Byte>(seq >> (8 * i));
    return d;
  }

  /// Frontier snapshot of this unit's previous gap poll (pre-execution
  /// offload: each pillar times its own stall, §4.3.1).
  SeqNum last_gap_frontier = 0;

  double feed_request(const Request& req, std::size_t frame_bytes,
                      bool pre_verified);
  double feed_message(const Packet& packet);
  double note_stable(SeqNum seq);
  double start_checkpoint(SeqNum seq);
  double fetch_missing(SeqNum upto);
  double tick();
  double gap_check();
  double drain_effects();
};

// ---------------------------------------------------------------------------
// Execution stage

struct PendingReply {
  ClientId client = 0;
  RequestId rid = 0;
  std::size_t payload = 0;
};

struct ExecSim {
  World& world;
  ReplicaSim& replica;
  SimThread& thread;

  SeqNum next_seq = 1;
  /// Written directly by the delivering logic unit (pre-execution
  /// offload, §4.3.1): admission costs are charged to the pillar, and the
  /// stage is only woken when the execution frontier was published. At
  /// most one drain task is pending (the edge-triggered wake).
  std::map<SeqNum, Deliver> reorder;
  bool drain_scheduled = false;
  std::size_t reorder_peak = 0;
  std::uint64_t executed_requests = 0;
  std::uint64_t executed_instances = 0;

  ExecSim(World& w, ReplicaSim& r, SimThread& t)
      : world(w), replica(r), thread(t) {}

  double drain();
  double apply_ready(std::map<std::uint32_t, std::vector<PendingReply>>& out);
  double flush_replies(std::map<std::uint32_t, std::vector<PendingReply>>& out);
};

// ---------------------------------------------------------------------------
// Replica: architecture-specific thread wiring

struct ReplicaSim {
  World& world;
  const SimConfig& cfg;
  const CostModel& costs;
  ReplicaId id;
  Machine machine;
  NicSet nics;
  std::vector<std::unique_ptr<LogicUnit>> logic;
  std::vector<SimThread*> pool;   // TOP: auth out; SMaRt: verify + auth
  std::vector<SimThread*> client_mgrs;  // SMaRt-original client managers
  SimThread* ingress = nullptr;   // TOP client stage
  SimThread* batcher = nullptr;   // TOP batch-compilation stage
  std::unique_ptr<ExecSim> exec;
  std::uint32_t rr_pool = 0;
  std::uint32_t rr_cmgr = 0;
  std::uint32_t rr_lane = 0;

  ReplicaSim(World& w, ReplicaId replica_id)
      : world(w),
        cfg(w.cfg),
        costs(w.costs),
        id(replica_id),
        machine(w.events, costs, cfg.cores,
                "replica-" + std::to_string(replica_id)),
        nics(w.events, costs, cfg.adapters) {
    std::uint32_t np = cfg.pillars();
    for (std::uint32_t p = 0; p < np; ++p) {
      SimThread& t = machine.add_thread("logic-" + std::to_string(p));
      SeqSlice slice =
          (cfg.arch == SimArch::kCop) ? SeqSlice{p, np} : SeqSlice{0, 1};
      logic.push_back(std::make_unique<LogicUnit>(w, *this, p, t,
                                                  cfg.protocol, id, slice));
    }
    if (cfg.arch != SimArch::kCop) {
      for (std::uint32_t i = 0; i < cfg.pool(); ++i)
        pool.push_back(&machine.add_thread("pool-" + std::to_string(i)));
    }
    if (cfg.arch == SimArch::kTop) {
      ingress = &machine.add_thread("ingress");
      batcher = &machine.add_thread("batcher");
    }
    if (cfg.arch == SimArch::kSmart) {
      // The original's client-handling path: replies funnel through
      // dedicated client managers whose per-request inefficiency the
      // paper removed for BFT-SMaRt* (§5 "The Subjects").
      for (std::uint32_t i = 0; i < 5; ++i)
        client_mgrs.push_back(&machine.add_thread("cmgr-" + std::to_string(i)));
    }
    exec = std::make_unique<ExecSim>(w, *this, machine.add_thread("exec"));
  }

  std::uint32_t lanes() const {
    switch (cfg.arch) {
      case SimArch::kCop:
        return cfg.pillars();
      case SimArch::kSmartStar:
        return cfg.adapters;
      default:
        return 1;
    }
  }

  std::uint32_t client_lane(ClientId client) const { return client % lanes(); }

  /// Outgoing lane: BFT-SMaRt* alternates its per-adapter connections.
  std::uint32_t out_lane(std::uint32_t lane) {
    if (cfg.arch == SimArch::kSmartStar) return rr_lane++ % cfg.adapters;
    return lane;
  }

  SimThread& next_pool_thread() { return *pool[rr_pool++ % pool.size()]; }

  void deliver(std::uint32_t lane, PacketPtr packet);
  void deliver_to_logic(std::uint32_t unit, PacketPtr packet);

  double send_protocol(Message&& msg, std::uint32_t lane,
                       std::vector<ReplicaId> recipients);
  void transmit_to_peer(ReplicaId to, std::uint32_t lane, PacketPtr packet);
  double send_replies(const std::vector<PendingReply>& replies,
                      std::uint32_t lane);

  /// Checkpoint-based state transfer, modeled: fetch the newest stable
  /// checkpoint from a live peer after a network round-trip, install it
  /// into the execution stage, and slide every logic unit's window to it.
  bool transfer_inflight = false;
  void request_state_transfer(SeqNum observed);
  void complete_state_transfer(SeqNum observed);

  /// kRecover after kCrash: lose all volatile state — fresh protocol cores,
  /// empty execution frontier. First peer contact shows this replica is far
  /// behind (out-of-window evidence) and triggers a state transfer.
  void crash_reset();
};

// ---------------------------------------------------------------------------
// Client fleet: closed-loop clients on dedicated machines (paper: five
// comparably equipped client machines)

struct ClientFleet {
  struct Op {
    std::size_t reply_bytes = 0;
    SimTime issued_at = 0;
    std::uint32_t replies_seen = 0;
    bool done = false;
  };

  struct SimClient {
    ClientId id = 0;
    std::uint32_t machine = 0;
    std::uint32_t thread = 0;
    RequestId next_id = 1;
    // COPLINT(allow:det-unordered-member: replies resolve by keyed erase; completion order is reply arrival, not map order)
    std::unordered_map<RequestId, Op> outstanding;
  };

  World& world;
  const SimConfig& cfg;
  const CostModel& costs;
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<NicSet>> nics;
  std::vector<std::vector<SimThread*>> threads;
  std::vector<SimClient> clients;
  Rng rng;
  std::uint64_t stray_replies = 0;  ///< replies for unknown request ids

  static constexpr std::uint32_t kThreadsPerMachine = 8;

  explicit ClientFleet(World& w)
      : world(w), cfg(w.cfg), costs(w.costs), rng(w.cfg.seed) {
    for (std::uint32_t m = 0; m < cfg.client_machines; ++m) {
      machines.push_back(std::make_unique<Machine>(
          w.events, costs, cfg.client_cores, "clients-" + std::to_string(m)));
      nics.push_back(std::make_unique<NicSet>(w.events, costs, cfg.adapters));
      threads.emplace_back();
      for (std::uint32_t t = 0; t < kThreadsPerMachine; ++t)
        threads.back().push_back(
            &machines.back()->add_thread("cl-" + std::to_string(t)));
    }
    clients.resize(cfg.clients);
    for (std::uint32_t i = 0; i < cfg.clients; ++i) {
      clients[i].id = kClientIdBase + i;
      clients[i].machine = i % cfg.client_machines;
      clients[i].thread = (i / cfg.client_machines) % kThreadsPerMachine;
    }
  }

  std::uint32_t expected_replies() const {
    return cfg.reply_mode == core::ReplyMode::kOmitOne
               ? cfg.protocol.num_replicas - 1
               : cfg.protocol.num_replicas;
  }

  /// Reply payload is a deterministic function of the request flags so
  /// simulated replicas need no extra metadata.
  std::size_t reply_bytes_for_flags(std::uint8_t flags) const {
    switch (cfg.service) {
      case SimService::kNull:
        return cfg.reply_payload;
      case SimService::kCoordination:
        return (flags & kFlagReadOnly) ? cfg.coord_data_size + 8 : 8;
    }
    return 0;
  }

  void start() {
    for (auto& client : clients) {
      for (std::uint32_t k = 0; k < cfg.client_window; ++k) {
        SimTime jitter = rng.below(5'000'000);  // spread over 5 ms
        SimClient* c = &client;
        world.events.schedule_in(jitter, [this, c] {
          threads[c->machine][c->thread]->post(
              [this, c]() -> double { return issue(*c); });
        });
      }
    }
  }

  double issue(SimClient& client);
  void receive_reply(ClientId client_id, RequestId rid, std::size_t bytes);
  double on_reply(SimClient& client, RequestId rid, std::size_t bytes);
};

// ---------------------------------------------------------------------------
// LogicUnit implementation

double LogicUnit::feed_request(const Request& req, std::size_t frame_bytes,
                               bool pre_verified) {
  const CostModel& costs = world.costs;
  CoreStats before = core->stats();
  core->on_request(req, world.now_virtual_us(), pre_verified);
  const CoreStats& after = core->stats();
  double cost = static_cast<double>(after.request_macs_verified -
                                    before.request_macs_verified) *
                costs.mac_ns(frame_bytes);
  return cost + drain_effects();
}

double LogicUnit::feed_message(const Packet& packet) {
  const CostModel& costs = world.costs;
  CoreStats before = core->stats();
  IncomingMessage im;
  im.msg = packet.msg;  // copy; the packet is shared between recipients
  im.pre_verified = packet.pre_verified;
  core->on_message(std::move(im), world.now_virtual_us());
  const CoreStats& after = core->stats();

  double cost = costs.logic_per_message_ns;
  std::uint64_t verified = after.macs_verified - before.macs_verified;
  cost += static_cast<double>(verified) * costs.mac_ns(packet.bytes);
  // Client MACs checked inside an accepted proposal: charge per carried
  // request (skipped ones were verified on direct receipt, §3.2).
  std::uint64_t nested =
      after.request_macs_verified - before.request_macs_verified;
  if (nested > 0) {
    const auto* pp = std::get_if<PrePrepare>(&packet.msg);
    std::size_t per_req =
        (pp && !pp->requests.empty()) ? packet.bytes / pp->requests.size() : 96;
    cost += static_cast<double>(nested) * costs.mac_ns(per_req);
  }
  // Batch-digest check on an accepted proposal.
  if (verified > 0 && std::holds_alternative<PrePrepare>(packet.msg))
    cost += costs.digest_ns(packet.bytes);
  return cost + drain_effects();
}

double LogicUnit::note_stable(SeqNum seq) {
  core->note_checkpoint_stable(seq, digest_for(seq));
  return world.costs.dequeue_ns + world.costs.logic_per_message_ns +
         drain_effects();
}

double LogicUnit::start_checkpoint(SeqNum seq) {
  core->start_checkpoint(seq, digest_for(seq), world.now_virtual_us());
  return world.costs.dequeue_ns + world.costs.logic_per_message_ns +
         drain_effects();
}

double LogicUnit::fetch_missing(SeqNum upto) {
  core->fetch_missing_upto(upto, world.now_virtual_us());
  return world.costs.dequeue_ns + world.costs.logic_per_message_ns +
         drain_effects();
}

double LogicUnit::tick() {
  core->tick(world.now_virtual_us());
  return world.costs.logic_per_message_ns + drain_effects();
}

double LogicUnit::drain_effects() {
  const CostModel& costs = world.costs;
  double cost = 0;
  for (Effect& effect : core->take_effects()) {
    if (auto* bc = std::get_if<Broadcast>(&effect)) {
      // Proposals pay the batch digest when formed.
      if (std::holds_alternative<PrePrepare>(bc->msg))
        cost += costs.digest_ns(encoded_size(bc->msg));
      std::vector<ReplicaId> recipients;
      for (ReplicaId r = 0; r < core->config().num_replicas; ++r)
        if (r != replica.id) recipients.push_back(r);
      cost += replica.send_protocol(std::move(bc->msg), index,
                                    std::move(recipients));
    } else if (auto* st = std::get_if<SendTo>(&effect)) {
      cost += replica.send_protocol(std::move(st->msg), index, {st->to});
    } else if (auto* del = std::get_if<Deliver>(&effect)) {
      // Pre-execution offload (§4.3.1): this pillar publishes the commit
      // straight into its slice of the reorder ring — admission is paid
      // here, on the pillar. The exec stage is only woken (one hand-off)
      // when the published instance is the execution frontier.
      cost += costs.pillar_admit_ns;
      ExecSim* exec = replica.exec.get();
      const SeqNum seq = del->seq;
      if (seq >= exec->next_seq && !exec->reorder.contains(seq))
        exec->reorder.emplace(seq, std::move(*del));
      exec->reorder_peak = std::max(exec->reorder_peak, exec->reorder.size());
      if (seq == exec->next_seq && !exec->drain_scheduled) {
        exec->drain_scheduled = true;
        cost += costs.handoff_ns;
        exec->thread.post([exec]() -> double { return exec->drain(); });
      }
    } else if (auto* cs = std::get_if<CheckpointStable>(&effect)) {
      SeqNum seq = cs->seq;
      for (auto& sibling : replica.logic) {
        if (sibling.get() == this) continue;
        cost += costs.handoff_ns;
        LogicUnit* unit = sibling.get();
        unit->thread.post(
            [unit, seq]() -> double { return unit->note_stable(seq); });
      }
    } else if (auto* st = std::get_if<StateTransferNeeded>(&effect)) {
      // Stranded past peers' log truncation: model the checkpoint-based
      // state transfer (the threaded runtime's StateTransferManager).
      cost += costs.handoff_ns;
      replica.request_state_transfer(st->observed_seq);
    }
    // ViewChanged: not exercised in fault-free performance runs.
  }
  return cost;
}

// ---------------------------------------------------------------------------
// ReplicaSim implementation

void ReplicaSim::deliver(std::uint32_t lane, PacketPtr packet) {
  if (world.paused(id)) return;  // fault injection: ingress cut
  switch (cfg.arch) {
    case SimArch::kCop:
      // Private lane straight into the owning pillar (§4.2.3).
      deliver_to_logic(lane % logic.size(), std::move(packet));
      return;
    case SimArch::kTop: {
      // Client-management stage: parse and route. Client MACs are checked
      // by the additional authentication threads; requests then pass the
      // batch-compilation stage — each a per-request queue crossing
      // (§3.1). Protocol messages go to the logic, which verifies them in
      // order (§3.2).
      ReplicaSim* self = this;
      ingress->post([self, packet = std::move(packet)]() -> double {
        const CostModel& c = self->costs;
        double cost = c.parse_ns(packet->bytes) + c.handoff_ns;
        if (std::holds_alternative<Request>(packet->msg)) {
          self->next_pool_thread().post([self, packet]() -> double {
            const CostModel& pc = self->costs;
            auto verified = std::make_shared<Packet>(*packet);
            verified->pre_verified = true;
            self->batcher->post(
                [self, p = PacketPtr(std::move(verified))]() -> double {
                  self->deliver_to_logic(0, p);
                  // Batches are handed over wholesale; the per-batch
                  // enqueue amortizes to ~nothing per request.
                  return self->costs.dequeue_ns + 200.0;
                });
            return pc.dequeue_ns + pc.mac_ns(packet->bytes) + pc.handoff_ns;
          });
        } else {
          self->deliver_to_logic(0, packet);
        }
        return cost;
      });
      return;
    }
    case SimArch::kSmart:
    case SimArch::kSmartStar: {
      // Out-of-order verification: the worker pool authenticates every
      // message, needed or not (§3.2).
      ReplicaSim* self = this;
      next_pool_thread().post([self, packet = std::move(packet)]() -> double {
        const CostModel& c = self->costs;
        double cost =
            c.parse_ns(packet->bytes) + c.mac_ns(packet->bytes) + c.handoff_ns;
        if (const auto* pp = std::get_if<PrePrepare>(&packet->msg)) {
          std::size_t per_req =
              pp->requests.empty() ? 0 : packet->bytes / pp->requests.size();
          cost += static_cast<double>(pp->requests.size()) * c.mac_ns(per_req);
          cost += c.digest_ns(packet->bytes);
        }
        auto verified = std::make_shared<Packet>(*packet);
        verified->pre_verified = true;
        self->deliver_to_logic(0, std::move(verified));
        return cost;
      });
      return;
    }
  }
}

void ReplicaSim::deliver_to_logic(std::uint32_t unit, PacketPtr packet) {
  LogicUnit* target = logic[unit].get();
  // COP pillars receive straight from the network (parse in place); the
  // pipelined architectures received via an upstream stage (pay dequeue —
  // amortized for protocol messages, which stream in bursts).
  bool from_network = (cfg.arch == SimArch::kCop);
  target->thread.post([target, packet = std::move(packet),
                       from_network]() -> double {
    const CostModel& c = target->world.costs;
    double dequeue = std::holds_alternative<Request>(packet->msg)
                         ? c.dequeue_ns
                         : 0.5 * c.dequeue_ns;
    double cost = from_network ? c.parse_ns(packet->bytes) : dequeue;
    if (const auto* req = std::get_if<Request>(&packet->msg)) {
      cost += target->feed_request(*req, packet->bytes, packet->pre_verified);
    } else {
      cost += target->feed_message(*packet);
    }
    return cost;
  });
}

double ReplicaSim::send_protocol(Message&& msg, std::uint32_t lane,
                                 std::vector<ReplicaId> recipients) {
  auto packet = std::make_shared<Packet>();
  packet->bytes = encoded_size(msg) + recipients.size() * kAuthEntryBytes;
  packet->msg = std::move(msg);

  ReplicaSim* self = this;
  auto seal_and_send = [self, packet, lane,
                        recipients = std::move(recipients)]() -> double {
    const CostModel& c = self->costs;
    double cost = c.serialize_ns(packet->bytes);
    for (ReplicaId to : recipients) {
      cost += c.mac_ns(packet->bytes) + c.send_ns(packet->bytes);
      self->transmit_to_peer(to, self->out_lane(lane), packet);
    }
    return cost;
  };

  if (cfg.arch == SimArch::kCop) {
    // In-place cryptography inside the pillar (§4.1).
    return seal_and_send();
  }
  // Task-oriented: hand over to the authentication pool.
  double dequeue = costs.dequeue_ns;
  next_pool_thread().post(
      [dequeue, seal_and_send = std::move(seal_and_send)]() -> double {
        return dequeue + seal_and_send();
      });
  return costs.handoff_ns;
}

void ReplicaSim::transmit_to_peer(ReplicaId to, std::uint32_t lane,
                                  PacketPtr packet) {
  if (world.paused(id)) return;  // fault injection: egress cut
  // Lane stall: a slow/throttled pillar connection delays every frame it
  // carries before the NIC even sees it.
  SimTime stall = 0;
  for (const SimConfig::LaneStall& s : cfg.lane_stalls) {
    if (s.replica != id || s.lane != lane) continue;
    SimTime now = world.events.now();
    if (now < s.from || (s.until != 0 && now >= s.until)) continue;
    stall += s.delay_ns;
  }
  ReplicaSim& peer = *world.replicas[to];
  std::uint32_t peer_lane = lane % peer.lanes();
  ReplicaSim* self = this;
  auto put_on_wire = [self, &peer, to, lane, peer_lane, packet]() mutable {
    self->world.transfer(self->id, to, self->nics.adapter_for_lane(lane),
                         peer.nics.adapter_for_lane(peer_lane), packet->bytes,
                         [&peer, peer_lane, packet]() mutable {
                           peer.deliver(peer_lane, std::move(packet));
                         });
  };
  if (stall == 0) {
    put_on_wire();
  } else {
    world.events.schedule_in(stall, std::move(put_on_wire));
  }
}

double ReplicaSim::send_replies(const std::vector<PendingReply>& replies,
                                std::uint32_t lane) {
  double cost = 0;
  for (const PendingReply& reply : replies) {
    // Reply frame: tag + header + payload + single-entry authenticator.
    std::size_t bytes = 1 + 24 + 4 + reply.payload + 2 + kAuthEntryBytes;
    cost += costs.reply_build_ns + costs.mac_ns(bytes) + costs.send_ns(bytes);

    ClientFleet& fleet = *world.fleet;
    std::uint32_t idx = reply.client - kClientIdBase;
    auto& client = fleet.clients[idx];
    Adapter& dst = fleet.nics[client.machine]->adapter_for_lane(reply.client);
    ClientId cid = reply.client;
    RequestId rid = reply.rid;
    world.transfer(id, world.client_node(), nics.adapter_for_lane(out_lane(lane)),
                   dst, bytes, [&fleet, cid, rid, bytes] {
                     fleet.receive_reply(cid, rid, bytes);
                   });
  }
  return cost;
}

void ReplicaSim::request_state_transfer(SeqNum observed) {
  if (transfer_inflight || world.paused(id)) return;
  transfer_inflight = true;
  // Model the StateRequest round-trip plus the chunked snapshot delivery
  // as a fixed virtual-time delay; the threaded runtime's fault-injection
  // tests exercise the real wire path.
  ReplicaSim* self = this;
  world.events.schedule_in(3'000'000 /*3 ms*/, [self, observed] {
    self->exec->thread.post([self, observed]() -> double {
      self->complete_state_transfer(observed);
      return self->costs.dequeue_ns + 10'000.0;  // decode + install
    });
  });
}

void ReplicaSim::complete_state_transfer(SeqNum observed) {
  transfer_inflight = false;
  if (world.paused(id)) return;
  // Donor: the newest stable checkpoint held by any live peer.
  SeqNum stable = 0;
  for (auto& peer : world.replicas) {
    if (peer->id == id || world.paused(peer->id)) continue;
    for (auto& unit : peer->logic)
      stable = std::max(stable, unit->core->stable_seq());
  }
  if (stable < exec->next_seq) return;  // caught up by retransmission
  ++world.state_transfers;
  exec->reorder.erase(exec->reorder.begin(),
                      exec->reorder.upper_bound(stable));
  exec->next_seq = stable + 1;
  // The new frontier may already sit in the ring with no future publish
  // edge to wake the stage: kick a drain explicitly.
  if (!exec->drain_scheduled && exec->reorder.contains(exec->next_seq)) {
    ExecSim* e = exec.get();
    e->drain_scheduled = true;
    e->thread.post([e]() -> double { return e->drain(); });
  }
  // Slide every logic unit's window to the installed checkpoint, then
  // re-fetch the instances between it and the observed frontier.
  SeqNum upto = std::max(observed, stable);
  for (auto& unit_ptr : logic) {
    LogicUnit* unit = unit_ptr.get();
    unit->thread.post([unit, stable, upto]() -> double {
      return unit->note_stable(stable) + unit->fetch_missing(upto);
    });
  }
}

void ReplicaSim::crash_reset() {
  for (auto& unit : logic) {
    unit->reset_core();
    unit->last_gap_frontier = 0;
  }
  exec->next_seq = 1;
  exec->reorder.clear();
  transfer_inflight = false;
}

// ---------------------------------------------------------------------------
// ExecSim implementation

double ExecSim::drain() {
  drain_scheduled = false;
  // Pre-execution offload (§4.3.1): admission already happened on the
  // pillar. One wakeup per frontier edge — the stage pays the dequeue,
  // then executes the ready streak straight from the ring.
  double cost = world.costs.dequeue_ns;
  std::map<std::uint32_t, std::vector<PendingReply>> replies;
  cost += apply_ready(replies);
  return cost + flush_replies(replies);
}

double ExecSim::apply_ready(
    std::map<std::uint32_t, std::vector<PendingReply>>& replies) {
  const SimConfig& cfg = world.cfg;
  const CostModel& costs = world.costs;
  double cost = 0;

  while (true) {
    auto it = reorder.find(next_seq);
    if (it == reorder.end()) break;
    const Deliver& d = it->second;
    ++executed_instances;
    cost += costs.exec_order_ns;
    // Fork oracle (pure observer, no CPU charged): record what this
    // replica executed at next_seq and compare against its peers. The
    // fold over (client, id) keys is order-sensitive, so any divergence
    // in agreed batch contents shows up.
    std::uint64_t content_hash = 1469598103934665603ULL;
    if (d.requests) {
      for (const Request& req : *d.requests) {
        content_hash ^= req.key();
        content_hash *= 1099511628211ULL;
      }
    }
    world.note_executed(replica.id, next_seq, content_hash);
    if (d.requests) {
      for (const Request& req : *d.requests) {
        ++executed_requests;
        cost += (cfg.service == SimService::kCoordination)
                    ? costs.coord_op_ns
                    : costs.exec_base_ns;
        bool omit = cfg.reply_mode == core::ReplyMode::kOmitOne &&
                    req.key() % cfg.protocol.num_replicas == replica.id;
        if (!omit) {
          // Offloaded post-execution (§4.3.2), as the paper runs it (the
          // threaded runtime seals on its stage; EXPERIMENTS.md deviation
          // 7): the reply goes back to the *originating* pillar — the one
          // that ran instance seq — so post-processing and sealing
          // parallelize across pillars. The stage itself only pays for
          // building/routing the hand-off.
          std::uint32_t unit =
              (cfg.arch == SimArch::kCop)
                  ? static_cast<std::uint32_t>(d.seq % replica.logic.size())
                  : 0;
          cost += costs.reply_task_ns;
          replies[unit].push_back(
              {req.client, req.id,
               world.fleet->reply_bytes_for_flags(req.flags)});
        }
      }
    }
    SeqNum seq = next_seq;
    reorder.erase(it);
    ++next_seq;

    if (seq % cfg.protocol.checkpoint_interval == 0) {
      // The stage pays the digest; the StartCheckpoint signal is mailed
      // to the owning pillar, whose poll picks it up (the dequeue_ns in
      // start_checkpoint) — no exec-side hand-off anymore (§4.3.1).
      cost += costs.digest_base_ns;
      std::uint32_t owner = static_cast<std::uint32_t>(
          (seq / cfg.protocol.checkpoint_interval) % replica.logic.size());
      LogicUnit* unit = replica.logic[owner].get();
      unit->thread.post(
          [unit, seq]() -> double { return unit->start_checkpoint(seq); });
    }
  }
  return cost;
}

double ExecSim::flush_replies(
    std::map<std::uint32_t, std::vector<PendingReply>>& replies) {
  const SimConfig& cfg = world.cfg;
  const CostModel& costs = world.costs;
  double cost = 0;
  ReplicaSim* rep = &replica;
  if (cfg.arch == SimArch::kCop) {
    // The originating pillar seals and sends the replies; one hand-off
    // per pillar per drained burst, not per request (§4.3.2).
    for (auto& [unit_index, batch] : replies) {
      cost += costs.handoff_ns;
      std::uint32_t lane = unit_index;
      replica.logic[unit_index]->thread.post(
          [rep, lane, batch = std::move(batch)]() -> double {
            return rep->costs.dequeue_ns + rep->send_replies(batch, lane);
          });
    }
  } else {
    // Pipelines push every reply through another stage — one more
    // per-request queue crossing (§3.1). The original BFT-SMaRt's client
    // managers additionally pay its legacy client-handling cost.
    for (auto& [unit_index, batch] : replies) {
      for (const PendingReply& reply : batch) {
        cost += costs.handoff_ns;
        bool legacy = (cfg.arch == SimArch::kSmart);
        SimThread* target =
            legacy ? replica.client_mgrs[replica.rr_cmgr++ %
                                         replica.client_mgrs.size()]
                   : &replica.next_pool_thread();
        target->post([rep, reply, legacy]() -> double {
          double c = rep->costs.dequeue_ns +
                     rep->send_replies({reply}, /*lane=*/0);
          if (legacy) c += rep->costs.legacy_client_ns;
          return c;
        });
      }
    }
  }
  return cost;
}

double LogicUnit::gap_check() {
  // Pre-execution offload (§4.3.1): each pillar polls the shared frontier
  // and times its own stall; a stalled frontier makes it fill its *own*
  // slice up to the highest admitted instance (§4.2.1). Self-detected on
  // this thread — no exec-side hand-off.
  ExecSim* exec = replica.exec.get();
  if (exec->reorder.empty() || exec->next_seq != last_gap_frontier) {
    last_gap_frontier = exec->next_seq;
    return 50.0;
  }
  const SeqNum target = exec->reorder.rbegin()->first;
  const SeqNum frontier = exec->next_seq;
  core->fill_gap_upto(target, world.now_virtual_us(), frontier);
  return 100.0 + world.costs.logic_per_message_ns + drain_effects();
}

// ---------------------------------------------------------------------------
// ClientFleet implementation

double ClientFleet::issue(SimClient& client) {
  bool read = cfg.read_ratio > 0.0 && rng.chance(cfg.read_ratio);
  std::uint8_t flags = read ? kFlagReadOnly : 0;
  std::size_t payload = 0;
  switch (cfg.service) {
    case SimService::kNull:
      payload = cfg.request_payload;
      break;
    case SimService::kCoordination:
      payload = read ? cfg.coord_path_size
                     : cfg.coord_path_size + cfg.coord_data_size;
      break;
  }

  RequestId rid = client.next_id++;
  Request req;
  req.client = client.id;
  req.id = rid;
  req.flags = flags;
  req.payload = Bytes(payload, Byte{0x5a});
  // Carry the client's per-replica authenticator so proposals that embed
  // the request have the true wire size (MAC values are irrelevant: the
  // simulator accounts verification cost, not cryptography).
  req.auth.entries.resize(cfg.protocol.num_replicas);
  for (ReplicaId r = 0; r < cfg.protocol.num_replicas; ++r)
    req.auth.entries[r].recipient = replica_node(r);

  auto packet = std::make_shared<Packet>();
  packet->bytes = encoded_size(Message{req});
  packet->msg = std::move(req);

  Op& op = client.outstanding[rid];
  op.reply_bytes = reply_bytes_for_flags(flags);
  op.issued_at = world.events.now();

  double cost = costs.client_issue_ns;
  Adapter& src = nics[client.machine]->adapter_for_lane(client.id);
  for (ReplicaId r = 0; r < cfg.protocol.num_replicas; ++r) {
    cost += costs.mac_ns(packet->bytes) + costs.send_ns(packet->bytes);
    ReplicaSim& replica = *world.replicas[r];
    std::uint32_t lane = replica.client_lane(client.id);
    world.transfer(world.client_node(), r, src,
                   replica.nics.adapter_for_lane(lane), packet->bytes,
                   [&replica, lane, packet]() mutable {
                     replica.deliver(lane, std::move(packet));
                   });
  }
  return cost;
}

void ClientFleet::receive_reply(ClientId client_id, RequestId rid,
                                std::size_t bytes) {
  SimClient* client = &clients[client_id - kClientIdBase];
  threads[client->machine][client->thread]->post(
      [this, client, rid, bytes]() -> double {
        return on_reply(*client, rid, bytes);
      });
}

double ClientFleet::on_reply(SimClient& client, RequestId rid,
                             std::size_t bytes) {
  double cost =
      costs.parse_ns(bytes) + costs.mac_ns(bytes) + costs.client_reply_ns;
  auto it = client.outstanding.find(rid);
  if (it == client.outstanding.end()) {
    ++stray_replies;
    return cost;
  }
  Op& op = it->second;
  ++op.replies_seen;
  if (!op.done && op.replies_seen >= cfg.protocol.max_faulty + 1) {
    op.done = true;
    world.record_completion();
    if (world.measuring) {
      ++world.completed_ops;
      world.latency_us.record((world.events.now() - op.issued_at) / 1000);
    }
    cost += issue(client);  // closed loop
  }
  if (op.replies_seen >= expected_replies()) client.outstanding.erase(it);
  return cost;
}

// ---------------------------------------------------------------------------
// Recurring virtual-time timers

void arm_gap_checks(World& world, ReplicaSim* replica, SimTime period,
                    SimTime until) {
  world.events.schedule_in(period, [&world, replica, period, until] {
    // Pillar-side gap polls (§4.3.1): every logic unit checks its own
    // stall timer against the shared execution frontier.
    for (auto& unit_ptr : replica->logic) {
      LogicUnit* unit = unit_ptr.get();
      unit->thread.post([unit]() -> double { return unit->gap_check(); });
    }
    if (world.events.now() < until)
      arm_gap_checks(world, replica, period, until);
  });
}

/// Periodic core ticks: drive the retransmission timers that recover
/// proposals a momentarily-lagging replica dropped as outside its
/// watermark window (same mechanism the threaded runtime runs).
void arm_ticks(World& world, ReplicaSim* replica, SimTime period,
               SimTime until) {
  world.events.schedule_in(period, [&world, replica, period, until] {
    for (auto& unit_ptr : replica->logic) {
      LogicUnit* unit = unit_ptr.get();
      unit->thread.post([unit]() -> double { return unit->tick(); });
    }
    if (world.events.now() < until)
      arm_ticks(world, replica, period, until);
  });
}

}  // namespace

// ---------------------------------------------------------------------------

SimResult run_simulation(const SimConfig& config) {
  World world(config);
  for (ReplicaId r = 0; r < config.protocol.num_replicas; ++r)
    world.replicas.push_back(std::make_unique<ReplicaSim>(world, r));
  world.fleet = std::make_unique<ClientFleet>(world);

  SimTime end = config.warmup + config.measure;
  for (auto& replica : world.replicas) {
    // Pillar-side stall polls every 100 us: the threaded runtime's
    // pillars check the frontier each loop iteration (microseconds), so
    // the poll period models reaction latency, not work — each no-stall
    // poll costs ~50 ns of pillar time.
    arm_gap_checks(world, replica.get(), 100'000 /*100 us*/, end);
    if (config.protocol.retransmit_interval_us != 0)
      arm_ticks(world, replica.get(),
                config.protocol.retransmit_interval_us * 500 /*half, in ns*/,
                end);
  }

  // Fault timeline.
  for (const SimConfig::FaultEvent& ev : config.faults) {
    World* w = &world;
    std::uint32_t r = ev.replica;
    auto kind = ev.kind;
    world.events.schedule(ev.at, [w, r, kind] {
      using Kind = SimConfig::FaultEvent::Kind;
      switch (kind) {
        case Kind::kPause:
        case Kind::kCrash:
          w->net_down[r] = 1;
          break;
        case Kind::kResume:
          w->net_down[r] = 0;
          break;
        case Kind::kRecover:
          w->net_down[r] = 0;
          w->replicas[r]->crash_reset();
          break;
      }
    });
  }

  world.fleet->start();

  world.events.run_until(config.warmup);
  world.measuring = true;
  world.completed_ops = 0;
  world.latency_us.reset();
  world.replicas[0]->nics.tx_bytes_window();  // reset the window marker

  world.events.run_until(end);
  world.measuring = false;

  SimResult result;
  result.completed_ops = world.completed_ops;
  double seconds = static_cast<double>(config.measure) / 1e9;
  result.throughput_ops = static_cast<double>(world.completed_ops) / seconds;
  result.latency_mean_us = world.latency_us.mean();
  result.latency_p50_us = world.latency_us.percentile(0.5);
  result.latency_p99_us = world.latency_us.percentile(0.99);
  result.leader_tx_mbps =
      static_cast<double>(world.replicas[0]->nics.tx_bytes_window()) /
      (seconds * 1e6);
  for (auto& unit : world.replicas[0]->logic) {
    result.leader_core += unit->core->stats();
    result.instances += unit->core->stats().instances_delivered;
  }
  result.leader_cpu_utilization = world.replicas[0]->machine.utilization(end);
  result.follower_cpu_utilization =
      world.replicas[1]->machine.utilization(end);
  result.state_transfers = world.state_transfers;
  for (auto& replica : world.replicas) {
    result.replica_next_seq.push_back(replica->exec->next_seq);
    for (auto& unit : replica->logic) {
      result.adversary_equivocations +=
          unit->core->stats().adversary_equivocations;
      result.adversary_omissions += unit->core->stats().adversary_omissions;
    }
  }
  result.fork_detections = world.fork_detections;
  result.ops_timeline = std::move(world.ops_timeline);
  // Fixed timeline length for a given run length: pad trailing idle
  // buckets so bit-identical artifacts don't depend on when the last
  // operation completed.
  result.ops_timeline.resize(end / SimResult::kTimelineBucketNs, 0);
  const double elapsed_ns = static_cast<double>(end);
  for (const auto& t : world.replicas[0]->machine.threads())
    result.leader_stages.push_back(SimResult::StageLoad{
        t->name(), t->busy_ns() / elapsed_ns,
        static_cast<std::uint64_t>(t->backlog())});
  result.leader_reorder_peak = world.replicas[0]->exec->reorder_peak;

  if (std::getenv("COPBFT_SIM_DEBUG")) {
    double elapsed = static_cast<double>(end);
    for (ReplicaId r = 0; r < 2; ++r) {
      std::fprintf(stderr, "[sim] replica %u threads:", r);
      for (const auto& t : world.replicas[r]->machine.threads())
        std::fprintf(stderr, " %s=%.2f", t->name().c_str(),
                     t->busy_ns() / elapsed);
      std::fprintf(stderr, "\n");
      ExecSim& exec = *world.replicas[r]->exec;
      std::size_t pending = 0, open = 0;
      for (auto& unit : world.replicas[r]->logic) {
        pending += unit->core->pending_requests();
        open += unit->core->open_instances();
      }
      std::fprintf(
          stderr,
          "[sim] replica %u exec: executed=%llu next_seq=%llu reorder=%zu | "
          "cores: pending=%zu open=%zu\n",
          r, static_cast<unsigned long long>(exec.executed_requests),
          static_cast<unsigned long long>(exec.next_seq),
          exec.reorder.size(), pending, open);
      if (r == 0) {
        for (std::size_t u = 0; u < world.replicas[r]->logic.size(); ++u) {
          const auto& cs = world.replicas[r]->logic[u]->core->stats();
          std::fprintf(stderr,
                       "[sim]   unit %zu: prop=%llu del=%llu macs=%llu "
                       "reqmacs=%llu skip=%llu open=%zu pend=%zu backlog=%zu\n",
                       u, (unsigned long long)cs.proposals,
                       (unsigned long long)cs.instances_delivered,
                       (unsigned long long)cs.macs_verified,
                       (unsigned long long)cs.request_macs_verified,
                       (unsigned long long)cs.verifications_skipped,
                       world.replicas[r]->logic[u]->core->open_instances(),
                       world.replicas[r]->logic[u]->core->pending_requests(),
                       world.replicas[r]->logic[u]->thread.backlog());
        }
      }
    }
    std::uint64_t outstanding = 0;
    for (const auto& client : world.fleet->clients)
      outstanding += client.outstanding.size();
    std::fprintf(stderr,
                 "[sim] fleet: completed=%llu stray_replies=%llu "
                 "outstanding=%llu\n",
                 static_cast<unsigned long long>(world.completed_ops),
                 static_cast<unsigned long long>(world.fleet->stray_replies),
                 static_cast<unsigned long long>(outstanding));
  }
  return result;
}

}  // namespace copbft::sim
