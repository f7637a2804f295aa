#include "core/pillar.hpp"

#include "common/invariant.hpp"
#include "common/hot.hpp"
#include "common/logging.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"

namespace copbft::core {
namespace {

protocol::SeqSlice slice_for(std::uint32_t index,
                             const ReplicaRuntimeConfig& config) {
  return protocol::SeqSlice{index, config.num_pillars};
}

std::string metric_prefix(ReplicaId self, std::uint32_t index) {
  return "replica" + std::to_string(self) + ".pillar" + std::to_string(index) +
         ".";
}

// The heartbeat: the longest wait for an event, and the period of the
// core's tick and of the stats snapshot.
constexpr std::uint64_t kHeartbeatUs = 1000;

}  // namespace

metrics::Counter& pillar_counter(ReplicaId self, std::uint32_t index,
                                 const std::string& name) {
  return metrics::MetricsRegistry::global().counter(
      metric_prefix(self, index) + name);
}

Pillar::Pillar(ReplicaId self, std::uint32_t index,
               const ReplicaRuntimeConfig& config,
               const crypto::CryptoProvider& crypto, ExecutionStage& exec,
               OutboundSink& outbound, app::Service* service,
               StableFn on_stable)
    : self_(self),
      index_(index),
      config_(config),
      exec_(exec),
      service_(service),
      on_stable_(std::move(on_stable)),
      m_frames_in_(pillar_counter(self, index, "frames_in")),
      m_requests_in_(pillar_counter(self, index, "requests_in")),
      m_instances_delivered_(
          pillar_counter(self, index, "instances_delivered")),
      m_votes_sent_(pillar_counter(self, index, "votes_sent")),
      m_bundles_sent_(pillar_counter(self, index, "bundles_sent")),
      m_votes_bundled_(pillar_counter(self, index, "votes_bundled")),
      m_bundles_checked_(pillar_counter(self, index, "bundles_checked")),
      m_stable_seq_(metrics::MetricsRegistry::global().gauge(
          metric_prefix(self, index) + "stable_seq")),
      queue_(config.queue_capacity),
      verifier_(crypto, protocol::replica_node(self), &m_bundles_checked_),
      core_(config.protocol, self, slice_for(index, config), verifier_, crypto),
      round_(outbound, index, m_votes_sent_, m_bundles_sent_,
             m_votes_bundled_) {
  queue_.instrument(metrics::MetricsRegistry::global().gauge(
                        metric_prefix(self, index) + "queue_depth"),
                    metrics::MetricsRegistry::global().counter(
                        metric_prefix(self, index) + "queue_blocked_pushes"));
}

void Pillar::drive(std::shared_ptr<transport::EventLoop> loop) {
  loop_ = std::move(loop);
  driven_.store(loop_.get(), std::memory_order_release);
}

void Pillar::start() {
  thread_ = named_thread("pillar-" + std::to_string(index_),
                         [this] { run(); });
}

void Pillar::stop() {
  queue_.close();
  commands_.close();
  wake_loop();
  if (thread_.joinable()) thread_.join();
  // Back to a lane thread, which keeps serving the lane's other sinks and
  // lets the transport's shutdown close the connections.
  if (loop_) loop_->release();
}

void Pillar::run() {
  // Arms the core's view-change progress timer while it is still idle. A
  // core that has never ticked measures a stall from time zero, so a
  // proposal dequeued before the first tick would start a spurious view
  // change at once.
  std::uint64_t last_tick_us = now_us();
  core_.tick(last_tick_us);
  if (loop_) drive_loop(last_tick_us);
  while (true) {
    // A wait that times out has lasted a full heartbeat, so it always
    // ticks. The wait takes the round's first event; the round handles it
    // after the commands, like the ones queued behind it.
    auto event = queue_.pop_for(std::chrono::microseconds(kHeartbeatUs));
    if (!event && queue_.closed()) {
      publish_stats();
      return;
    }
    run_round(event ? &*event : nullptr, last_tick_us);
  }
}

void Pillar::run_round(PillarEvent* first, std::uint64_t& last_tick_us) {
  // Commands are few but urgent (checkpoint stability slides the window);
  // drain them first.
  while (auto command = commands_.try_pop()) handle_command(*command);
  if (first) {
    handle_event(*first);
    drain_effects();
  }
  // What was queued when the round began: producers keep pushing, and the
  // round must end for its votes to leave.
  for (std::size_t n = queue_.size(); n > 0; --n) {
    auto event = queue_.try_pop();
    if (!event) break;
    handle_event(*event);
    drain_effects();
  }
  heartbeat(last_tick_us);
  drain_effects();
  round_.flush();
}

void Pillar::drive_loop(std::uint64_t& last_tick_us) {
  // One round reads every ready connection of the lane into queue_, runs
  // the core over everything queued, and flushes what that sent once
  // before the next wait. It waits only while nothing is queued, and no
  // longer than the heartbeat has left.
  const std::function<void()> work = [this, &last_tick_us] {
    run_round(nullptr, last_tick_us);
  };
  while (!queue_.closed()) {
    const bool idle = queue_.empty() && commands_.empty() &&
                      now_us() < last_tick_us + kHeartbeatUs;
    // False once the transport shut the loop down: the queue wait takes
    // over until stop().
    if (!loop_->round(idle ? 1 : 0, work)) return;
  }
}

void Pillar::heartbeat(std::uint64_t& last_tick_us) {
  const std::uint64_t now = now_us();
  if (now < last_tick_us + kHeartbeatUs) return;
  last_tick_us = now;
  core_.tick(now);
  publish_stats();
}

void Pillar::publish_stats() {
  m_stable_seq_.set(static_cast<std::int64_t>(core_.stable_seq()));
  MutexLock lock(stats_mutex_);
  stats_snapshot_ = core_.stats();
}

COP_HOT void Pillar::handle_event(PillarEvent& event) {
  if (auto* frame = std::get_if<transport::ReceivedFrame>(&event)) {
    handle_frame(*frame);
  } else {
    handle_prepared(std::get<PreparedInput>(event));
  }
}

COP_HOT void Pillar::handle_frame(transport::ReceivedFrame& frame) {
  m_frames_in_.add();
  if (protocol::is_vote_bundle(frame.bytes)) {
    auto votes = protocol::parse_vote_bundle(
        std::move(frame.bytes), self_, config_.protocol.num_replicas);
    if (!votes) {
      COP_LOG_WARN("replica %u pillar %u: malformed bundle from node %u",
                   self_, index_, frame.from);
      return;
    }
    // Each vote carries the bundle; the verifier checks its authenticator
    // when the core first needs one of them.
    const std::uint64_t now = now_us();
    for (protocol::IncomingMessage& im : *votes)
      core_.on_message(std::move(im), now);
    return;
  }
  auto decoded = protocol::decode_message(frame.bytes);
  if (!decoded) {
    COP_LOG_WARN("replica %u pillar %u: malformed frame from node %u", self_,
                 index_, frame.from);
    return;
  }
  if (auto* req = std::get_if<protocol::Request>(&decoded->msg)) {
    feed_request(std::move(*req), /*verified=*/false);
    return;
  }
  protocol::IncomingMessage im;
  im.msg = std::move(decoded->msg);
  im.raw = std::move(frame.bytes);
  im.body_size = decoded->body_size;
  core_.on_message(std::move(im), now_us());
}

COP_HOT void Pillar::handle_prepared(PreparedInput& input) {
  if (auto* req = std::get_if<protocol::Request>(&input.im.msg)) {
    feed_request(std::move(*req), input.im.pre_verified);
    return;
  }
  core_.on_message(std::move(input.im), now_us());
}

COP_HOT void Pillar::feed_request(protocol::Request req, bool verified) {
  // Offloaded pre-execution (paper §4.3.1): reject malformed operations
  // before they consume an ordering slot.
  if (service_ && !service_->pre_validate(req)) return;
  m_requests_in_.add();
  trace::point(trace::Point::kPillarIngress, self_, index_, /*seq=*/0,
               /*view=*/0, req.client, req.id);
  core_.on_request(std::move(req), now_us(), verified);
}

void Pillar::handle_command(PillarCommand& command) {
  if (const auto* cp = std::get_if<StartCheckpoint>(&command)) {
    // Checkpoint agreements are distributed round-robin over the pillars
    // (paper §4.2.2); running one on the wrong pillar would agree the
    // checkpoint on the wrong lane and desynchronize log truncation.
    COP_INVARIANT(
        (cp->seq / config_.protocol.checkpoint_interval) %
                config_.num_pillars ==
            index_,
        "checkpoint at seq %llu routed to pillar %u, owner is %llu",
        static_cast<unsigned long long>(cp->seq), index_,
        static_cast<unsigned long long>(
            (cp->seq / config_.protocol.checkpoint_interval) %
            config_.num_pillars));
    core_.start_checkpoint(cp->seq, cp->digest, now_us());
  } else if (const auto* stable = std::get_if<NoteStable>(&command)) {
    core_.note_checkpoint_stable(stable->seq, stable->digest);
  } else if (const auto* gap = std::get_if<FillGap>(&command)) {
    core_.fill_gap_upto(gap->seq, now_us(), gap->frontier);
  } else if (const auto* fetch = std::get_if<FetchMissing>(&command)) {
    core_.fetch_missing_upto(fetch->upto, now_us());
  }
}

COP_HOT void Pillar::drain_effects() {
  core_.take_effects(effects_);
  for (protocol::Effect& effect : effects_) {
    if (auto* bc = std::get_if<protocol::Broadcast>(&effect)) {
      round_.broadcast(std::move(bc->msg));
    } else if (auto* send = std::get_if<protocol::SendTo>(&effect)) {
      round_.send_to(send->to, std::move(send->msg));
    } else if (auto* deliver = std::get_if<protocol::Deliver>(&effect)) {
      m_instances_delivered_.add();
      exec_.admit(CommittedBatch{deliver->seq, deliver->view,
                                 std::move(deliver->requests), index_,
                                 core_.stable_seq()});
    } else if (auto* stable = std::get_if<protocol::CheckpointStable>(&effect)) {
      if (on_stable_)
        on_stable_(stable->seq, stable->digest, stable->voters, index_);
    } else if (auto* vc = std::get_if<protocol::ViewChanged>(&effect)) {
      COP_LOG_INFO("replica %u pillar %u: now in view %llu", self_, index_,
                   static_cast<unsigned long long>(vc->view));
    } else if (auto* st = std::get_if<protocol::StateTransferNeeded>(&effect)) {
      if (on_catch_up_) on_catch_up_(st->observed_seq);
    }
  }
  effects_.clear();
}

}  // namespace copbft::core
