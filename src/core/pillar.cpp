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

}  // namespace

Pillar::Pillar(ReplicaId self, std::uint32_t index,
               const ReplicaRuntimeConfig& config,
               const crypto::CryptoProvider& crypto, ExecutionStage& exec,
               OutboundSink& outbound, app::Service* service,
               StableFn on_stable)
    : self_(self),
      index_(index),
      config_(config),
      exec_(exec),
      outbound_(outbound),
      service_(service),
      on_stable_(std::move(on_stable)),
      queue_(config.queue_capacity),
      verifier_(crypto, protocol::replica_node(self)),
      core_(config.protocol, self, slice_for(index, config), verifier_, crypto),
      m_frames_in_(metrics::MetricsRegistry::global().counter(
          metric_prefix(self, index) + "frames_in")),
      m_requests_in_(metrics::MetricsRegistry::global().counter(
          metric_prefix(self, index) + "requests_in")),
      m_instances_delivered_(metrics::MetricsRegistry::global().counter(
          metric_prefix(self, index) + "instances_delivered")),
      m_stable_seq_(metrics::MetricsRegistry::global().gauge(
          metric_prefix(self, index) + "stable_seq")) {
  queue_.instrument(metrics::MetricsRegistry::global().gauge(
                        metric_prefix(self, index) + "queue_depth"),
                    metrics::MetricsRegistry::global().counter(
                        metric_prefix(self, index) + "queue_blocked_pushes"));
}

void Pillar::start() {
  thread_ = named_thread("pillar-" + std::to_string(index_),
                         [this] { run(); });
}

void Pillar::stop() {
  queue_.close();
  commands_.close();
  if (thread_.joinable()) thread_.join();
}

void Pillar::run() {
  const auto poll = std::chrono::microseconds(1000);
  // Arms the core's view-change progress timer while it is still idle. A
  // core that has never ticked measures a stall from time zero, so a
  // proposal dequeued before the first tick would start a spurious view
  // change at once.
  core_.tick(now_us());
  while (true) {
    auto event = queue_.pop_for(poll);
    if (!event && queue_.closed()) {
      publish_stats();
      return;
    }
    // Commands are few but urgent (checkpoint stability slides the
    // window); drain them first.
    while (auto command = commands_.try_pop()) handle_command(*command);
    // Pre-execution offload (paper §4.3.1): pick up this pillar's share
    // of the bookkeeping the exec stage no longer does — checkpoint
    // rounds it owns and gap fills for its slice.
    poll_out_.clear();
    exec_.poll_pillar(index_, now_us(), poll_out_);
    for (PillarCommand& command : poll_out_) handle_command(command);
    if (event) {
      if (auto* frame = std::get_if<transport::ReceivedFrame>(&*event)) {
        handle_frame(*frame);
      } else {
        handle_prepared(std::get<PreparedInput>(*event));
      }
    }
    core_.tick(now_us());
    drain_effects();
    publish_stats();
  }
}

void Pillar::publish_stats() {
  m_stable_seq_.set(static_cast<std::int64_t>(core_.stable_seq()));
  MutexLock lock(stats_mutex_);
  stats_snapshot_ = core_.stats();
}

COP_HOT void Pillar::handle_frame(transport::ReceivedFrame& frame) {
  m_frames_in_.add();
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
  for (protocol::Effect& effect : core_.take_effects()) {
    if (auto* bc = std::get_if<protocol::Broadcast>(&effect)) {
      outbound_.broadcast(std::move(bc->msg), index_);
    } else if (auto* send = std::get_if<protocol::SendTo>(&effect)) {
      outbound_.send_to(send->to, std::move(send->msg), index_);
    } else if (auto* deliver = std::get_if<protocol::Deliver>(&effect)) {
      m_instances_delivered_.add();
      // Pre-execution offload (paper §4.3.1): admission runs right here
      // on the pillar thread — the batch goes straight into this slice's
      // reorder-ring slot; the exec stage is only woken at the frontier.
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
}

}  // namespace copbft::core
