// Epoll event-loop engine for the TCP transport (production ingress).
//
// One EventLoop is one lane: a level-triggered epoll multiplexing every
// connection assigned to it — tens of thousands of client sockets map onto
// NP lanes instead of one thread each. A lane runs on its own lane thread
// until a claimant takes it over (claim()) and drives its rounds from its
// own thread, as a COP pillar does with its private connections. Reads are
// batched (one wakeup drains a socket and decodes every complete frame in
// the buffer), writes go through per-connection outbound queues flushed
// with writev so back-to-back replies coalesce into one syscall, and
// ingress runs under explicit admission control: a frame the sink cannot
// take right now is queued with a deadline inside a bounded per-lane
// budget, or shed — the loop never blocks on a sink, so a saturated
// pillar can slow its own lane but cannot wedge the transport.
//
// Two connection classes, decided by the owning transport:
//   * sheddable (client-facing): shed-or-queue-with-deadline admission;
//     clients retransmit, so dropping under overload is the correct
//     backpressure signal (ingress_shed / ingress_deadline_drops).
//   * lossless (replica-to-replica): on kBusy the loop parks the decoded
//     frames and disarms EPOLLIN — TCP flow control pushes back on the
//     peer; nothing is dropped and nothing blocks.
#pragma once

#include <sys/epoll.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/hot.hpp"
#include "common/metrics.hpp"
#include "common/threading.hpp"
#include "transport/transport.hpp"

namespace copbft::transport {

class EventLoop;
class TcpTransport;

/// Incremental length-prefixed frame decoder (u32 host-order length, then
/// payload — the same wire format the blocking transport used). Feed it
/// arbitrary byte chunks; it surfaces every completed frame. The length
/// header is validated against `max_frame` BEFORE the payload buffer is
/// allocated: a Byzantine peer sending one hostile 4-byte header must not
/// be able to trigger a huge allocation.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame) : max_frame_(max_frame) {}

  /// Adjusts the bound for frames whose header has not been read yet
  /// (connections are re-bounded once the hello identifies the peer class).
  void set_max_frame(std::uint32_t max_frame) { max_frame_ = max_frame; }

  /// Consumes `len` bytes, appending completed frames to `out`. Returns
  /// false on a length-header violation (frame larger than max_frame):
  /// the connection is lying or corrupt and must be closed.
  COP_HOT bool feed(const Byte* data, std::size_t len, std::vector<Bytes>& out);

 private:
  std::uint32_t max_frame_;
  Byte header_[4] = {};
  std::uint32_t header_have_ = 0;
  bool in_frame_ = false;
  Bytes frame_;
  std::size_t frame_have_ = 0;
};

/// One queued outbound frame: the u32 wire header lives in the entry so
/// the flush path can point an iovec straight at it (deque growth never
/// moves existing elements).
struct OutFrame {
  std::uint32_t len = 0;  ///< wire header (host order, like the codec)
  Bytes payload;
};

/// Builds up to `max_iov` iovecs over the queued frames, resuming a
/// partially written front frame at byte `front_offset` (offset counts
/// header + payload). Returns the number of iovecs produced. Pure —
/// exercised directly by the torn-boundary tests.
std::size_t build_flush_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t front_offset, struct iovec* iov,
                               std::size_t max_iov);

/// Advances the flush cursor by `written` bytes: pops fully sent frames,
/// returns the new front_offset. `frames_done`/`bytes_released` report
/// completed frames and their total wire bytes (for budgets + metrics).
std::size_t consume_flushed(std::deque<OutFrame>& queue,
                            std::size_t front_offset, std::size_t written,
                            std::size_t& frames_done,
                            std::size_t& bytes_released);

/// Traffic and admission counters of one (node, lane). The transport builds
/// the record the first time the lane is used; every connection on the
/// lane points at it, so per-frame accounting looks nothing up.
struct LaneCounters {
  metrics::Counter& rx_frames;
  metrics::Counter& rx_bytes;
  metrics::Counter& tx_frames;
  metrics::Counter& tx_bytes;
  metrics::Counter& ingress_accepted;
  metrics::Counter& ingress_shed;
  metrics::Counter& ingress_deadline_drops;
  metrics::Counter& egress_dropped;
  metrics::Counter& connects;
  metrics::Counter& dead_peer_drops;
  /// Replies held for a client that had not said hello yet, and those of
  /// them dropped because it did not say hello in time.
  metrics::Counter& replies_held;
  metrics::Counter& held_replies_expired;
};

/// One connection, owned by exactly one EventLoop at a time. Senders (any
/// thread) enqueue frames under out_mutex_ and poke the owning loop; all
/// socket I/O happens on loop threads. The fd is RAII-owned: whatever
/// error path abandons the connection, the destructor closes it.
class Conn {
 public:
  enum class Kind : std::uint8_t { kAccepted, kDialed };

  /// Outcome of queueing one outbound frame.
  enum class Offer : std::uint8_t {
    kQueued,           ///< queued; a flush is already scheduled
    kQueuedNeedFlush,  ///< queued; caller must schedule a flush
    kOverflow,         ///< outbound budget exceeded; frame dropped
    kClosed,           ///< connection is gone
  };

  Conn(int fd, Kind kind, crypto::KeyNodeId peer, LaneId lane,
       std::uint32_t max_frame, std::size_t max_out_frames,
       std::size_t max_out_bytes);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  Kind kind() const { return kind_; }
  crypto::KeyNodeId peer() const { return peer_; }
  LaneId lane() const { return lane_; }
  FrameDecoder& decoder() { return decoder_; }

  /// Local identity a dialed conn spoke in its hello (the transport's own
  /// node, or a multiplexed client endpoint's).
  crypto::KeyNodeId local_from() const { return local_from_; }
  void set_local_from(crypto::KeyNodeId from) { local_from_ = from; }

  /// Loop that currently owns the connection's I/O (nullptr before
  /// adoption). Set via set_owner before the conn is published to senders.
  EventLoop* owner() const { return owner_.load(std::memory_order_acquire); }
  void set_owner(EventLoop* loop) {
    owner_.store(loop, std::memory_order_release);
  }

  /// Binds the inbound destination and the lane's counters. The transport
  /// calls it once, before the conn is published to any other thread:
  /// dial() for a dialed conn, on_hello() for an accepted one.
  void bind(std::shared_ptr<FrameSink> sink, LaneCounters& counters) {
    sink_ = std::move(sink);
    counters_ = &counters;
  }
  /// Null when nobody had registered a sink for the lane at bind time.
  const std::shared_ptr<FrameSink>& sink() const { return sink_; }
  LaneCounters& counters() const { return *counters_; }

  /// Sheddable = client-facing admission (shed-or-queue-with-deadline);
  /// lossless = replica traffic (park + TCP backpressure).
  bool sheddable() const { return sheddable_; }
  void set_sheddable(bool sheddable) { sheddable_ = sheddable; }

  /// Identity learned from the hello preamble (accepted conns).
  void set_identity(crypto::KeyNodeId peer, LaneId lane) {
    peer_ = peer;
    lane_ = lane;
    hello_done_ = true;
  }

  /// Sender-side enqueue (any thread, non-blocking).
  Offer offer(Bytes frame);

  /// Flush protocol (loop thread): begin_flush snapshots iovecs for the
  /// queued frames (returns 0 when drained, clearing the flush-scheduled
  /// latch so the next sender re-schedules); end_flush retires `written`
  /// bytes and returns the number of frames completed.
  std::size_t begin_flush(struct iovec* iov, std::size_t max_iov);
  std::size_t end_flush(std::size_t written, std::size_t& bytes_released);

  /// Marks the conn dead and closes the fd; idempotent. Pending outbound
  /// frames are discarded.
  void mark_closed();

 private:
  friend class EventLoop;

  int fd_;  ///< closed by mark_closed() or the destructor (RAII)
  const Kind kind_;
  crypto::KeyNodeId peer_;
  crypto::KeyNodeId local_from_ = 0;
  LaneId lane_;
  bool sheddable_ = false;
  bool hello_done_ = false;

  // ---- read side: loop-thread-only ----
  FrameDecoder decoder_;
  Byte hello_buf_[8] = {};
  std::uint32_t hello_have_ = 0;
  bool paused_ = false;     ///< EPOLLIN disarmed (lossless backpressure)
  bool registered_ = false; ///< currently in the owner's epoll set
  bool want_write_ = false; ///< EPOLLOUT armed (partial flush pending)
  EventLoop* migrate_target_ = nullptr;
  std::deque<ReceivedFrame> parked_;  ///< decoded but not yet admitted

  // ---- write side: shared with sender threads ----
  const std::size_t max_out_frames_;
  const std::size_t max_out_bytes_;
  mutable Mutex out_mutex_;
  std::deque<OutFrame> out_ COP_GUARDED_BY(out_mutex_);
  std::size_t out_bytes_ COP_GUARDED_BY(out_mutex_) = 0;
  std::size_t front_offset_ COP_GUARDED_BY(out_mutex_) = 0;
  bool flush_scheduled_ COP_GUARDED_BY(out_mutex_) = false;
  bool closed_ COP_GUARDED_BY(out_mutex_) = false;

  std::atomic<EventLoop*> owner_{nullptr};

  // Write-once: bind() sets both before the conn is published, and nothing
  // writes them again, so any thread that reached the conn reads them
  // without a lock.
  std::shared_ptr<FrameSink> sink_;
  LaneCounters* counters_ = nullptr;
};

struct EventLoopOptions {
  /// Admission: max frames queued per lane awaiting a busy sink.
  std::size_t ingress_retry_budget = 1024;
  /// Admission: how long a queued frame may wait before it is dropped.
  std::uint64_t ingress_retry_deadline_us = 20'000;
};

/// One epoll lane. See file comment for the model.
class EventLoop {
 public:
  EventLoop(std::string name, std::string metric_prefix, EventLoopOptions opts,
            TcpTransport& transport);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Transfers ownership of a listening socket (non-blocking) to the
  /// loop. Call before start(); the loop closes it on exit.
  void set_listener(int fd) { listen_fd_ = fd; }

  /// Registers the listener and starts the lane thread. False if the
  /// constructor could not open the epoll set or the eventfd.
  bool start();
  void request_stop();
  /// Returns once the loop has flushed and closed its connections after
  /// request_stop(): joins the lane thread, or waits for the claimant's
  /// next round to close them.
  void join();

  /// Takes a running loop over from its lane thread, which exits without
  /// closing anything. The caller then drives the loop with round() from
  /// one thread until release(). False when the loop is stopping, was
  /// never started, or another claimant already holds it.
  bool claim();
  /// Hands a claimed loop back after the claimant's last round(): a new
  /// lane thread drives it, and closes its connections if the loop is
  /// stopping. A no-op once a round has closed the loop.
  void release();

  /// One round on the claimant's (or the lane) thread: applies adoptions,
  /// closes and flush requests from other threads, waits up to
  /// `timeout_ms` for I/O, reads every ready connection into its sink,
  /// runs `work`, retries frames their sink refused, then flushes every
  /// connection written to from this thread during the round. Returns
  /// false once the loop has stopped and closed its connections (or,
  /// on the lane thread, was claimed); the caller stops driving it.
  bool round(int timeout_ms, const std::function<void()>& work);

  /// Hands a connection to this loop (thread-safe). The caller must have
  /// set_owner(this) before publishing the conn to any sender.
  void adopt(std::shared_ptr<Conn> conn);

  /// Asks the loop to flush `conn`'s outbound queue soon (thread-safe).
  /// From inside one of the loop's own rounds it only notes the conn: the
  /// round flushes it before it waits again, so no eventfd is written.
  void schedule_flush(std::shared_ptr<Conn> conn);

  /// Asks the loop to close `conn` (thread-safe; the close itself runs on
  /// the loop thread so epoll bookkeeping stays single-threaded).
  void request_close(std::shared_ptr<Conn> conn);

  /// Ends the loop's current wait. Writes the eventfd unless called from
  /// inside one of the loop's own rounds, which looks at its control
  /// requests and its claimant's work before it waits again.
  void wake();

 private:
  struct PendingFrame;
  enum class Control : std::uint8_t { kRun, kStop, kHandOff };

  void run();
  Control drain_control();
  void close_all();
  COP_HOT void flush_round();
  void dispatch(const struct epoll_event& ev, std::uint64_t now);
  void accept_batch();
  COP_HOT void handle_readable(const std::shared_ptr<Conn>& conn,
                               std::uint64_t now);
  bool consume_hello(const std::shared_ptr<Conn>& conn, const Byte*& data,
                     std::size_t& len);
  COP_HOT void route_frame(const std::shared_ptr<Conn>& conn, Bytes frame,
                           std::uint64_t now);
  void enqueue_retry(const std::shared_ptr<Conn>& conn, ReceivedFrame frame,
                     std::uint64_t now);
  std::deque<PendingFrame>& lane_retry(LaneId lane);
  COP_HOT void flush_conn(const std::shared_ptr<Conn>& conn);
  void pump_retries(std::uint64_t now);
  void pump_paused();
  void pause_reads(const std::shared_ptr<Conn>& conn);
  void update_epoll_interest(const std::shared_ptr<Conn>& conn);
  void set_want_write(const std::shared_ptr<Conn>& conn, bool want);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void migrate(const std::shared_ptr<Conn>& conn, EventLoop* target);
  void register_conn(const std::shared_ptr<Conn>& conn);
  bool want_fast_poll() const;
  std::shared_ptr<Conn> lookup(int fd);

  const std::string name_;
  const EventLoopOptions opts_;
  /// Told of accepts, hellos and closes, on the loop thread. It may take
  /// its own locks there: it never calls into the loop while holding them.
  TcpTransport& transport_;

  const int epoll_fd_;
  const int wake_fd_;
  int listen_fd_ = -1;
  std::uint64_t listener_paused_until_us_ = 0;  ///< EMFILE backoff

  Mutex mutex_;
  Cv driven_cv_;  ///< signalled when driven_ falls
  bool stopping_ COP_GUARDED_BY(mutex_) = false;
  bool driven_ COP_GUARDED_BY(mutex_) = false;   ///< a claimant holds it
  bool hand_off_ COP_GUARDED_BY(mutex_) = false; ///< lane thread must exit
  std::vector<std::shared_ptr<Conn>> inbox_ COP_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<Conn>> dirty_ COP_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<Conn>> closing_ COP_GUARDED_BY(mutex_);

  // ---- loop-thread-only state (whichever thread runs the rounds) ----
  std::vector<struct epoll_event> events_;
  /// Conns scheduled for flushing from inside the current round.
  std::vector<std::shared_ptr<Conn>> round_dirty_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  struct PendingFrame {
    std::shared_ptr<Conn> conn;
    ReceivedFrame frame;
    std::uint64_t deadline_us = 0;
  };
  /// Admission retry queues, indexed by lane (grown on demand).
  std::vector<std::deque<PendingFrame>> retry_;
  std::vector<std::shared_ptr<Conn>> paused_;
  std::vector<Byte> scratch_;        ///< recv buffer
  std::vector<Bytes> frames_;        ///< decode output scratch
  std::size_t retry_depth_ = 0;      ///< total frames across retry_

  // Observability: epoll wakeups, recv and writev syscalls, eventfd
  // writes, frames decoded per readable event, and decode-protocol
  // violations, per loop.
  metrics::Counter& m_wakeups_;
  metrics::Counter& m_recv_calls_;
  metrics::Counter& m_writev_calls_;
  metrics::Counter& m_wake_writes_;
  metrics::Counter& m_protocol_errors_;
  metrics::HistogramMetric& m_rx_batch_frames_;

  /// Serializes starting and joining the lane thread (claim, release and
  /// join may run on different threads).
  Mutex thread_mutex_;
  std::jthread thread_ COP_GUARDED_BY(thread_mutex_);
};

/// Queues `frame` on `conn` and wakes the owning loop. Returns false when
/// the frame was dropped (budget overflow or closed connection) — the
/// transport's non-blocking send guarantee: a slow peer sheds egress
/// instead of wedging the sending thread.
bool submit_frame(const std::shared_ptr<Conn>& conn, Bytes frame);

}  // namespace copbft::transport
