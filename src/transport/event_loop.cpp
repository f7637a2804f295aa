#include "transport/event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"
#include "common/time.hpp"
#include "transport/tcp.hpp"

namespace copbft::transport {
namespace {

constexpr std::size_t kMaxIov = 64;
constexpr int kAcceptBatch = 256;
constexpr std::uint64_t kListenerBackoffUs = 100'000;  // EMFILE cool-down
// Read buffer per recv() call (one buffer per loop, reused).
constexpr std::size_t kReadChunk = 64 * 1024;
// Fairness: max bytes drained from one connection per wakeup.
constexpr std::size_t kMaxReadPerWake = 256 * 1024;
// Idle epoll timeout of the lane thread (every round polls at 1 ms while
// retries/parked frames are pending).
constexpr int kEpollWaitMs = 100;
constexpr int kMaxEvents = 256;

// The loop whose round the current thread is running, if any.
thread_local EventLoop* t_round_loop = nullptr;

class RoundScope {
 public:
  explicit RoundScope(EventLoop* loop) : saved_(t_round_loop) {
    t_round_loop = loop;
  }
  ~RoundScope() { t_round_loop = saved_; }
  RoundScope(const RoundScope&) = delete;
  RoundScope& operator=(const RoundScope&) = delete;

 private:
  EventLoop* const saved_;
};

}  // namespace

// ---------------------------------------------------------------------------
// FrameDecoder

COP_HOT bool FrameDecoder::feed(const Byte* data, std::size_t len,
                                std::vector<Bytes>& out) {
  while (len > 0) {
    if (!in_frame_) {
      while (header_have_ < sizeof(header_) && len > 0) {
        header_[header_have_++] = *data++;
        --len;
      }
      if (header_have_ < sizeof(header_)) return true;
      std::uint32_t frame_len = 0;
      std::memcpy(&frame_len, header_, sizeof frame_len);
      // Bound check BEFORE the payload allocation: one hostile 4-byte
      // header must not reserve gigabytes.
      if (frame_len > max_frame_) return false;
      header_have_ = 0;
      if (frame_len == 0) {
        out.emplace_back();
        continue;
      }
      in_frame_ = true;
      frame_.resize(frame_len);
      frame_have_ = 0;
    }
    const std::size_t take = std::min(len, frame_.size() - frame_have_);
    std::memcpy(frame_.data() + frame_have_, data, take);
    frame_have_ += take;
    data += take;
    len -= take;
    if (frame_have_ == frame_.size()) {
      out.push_back(std::move(frame_));
      frame_ = Bytes{};
      frame_have_ = 0;
      in_frame_ = false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Flush-cursor helpers (pure; unit-tested against torn boundaries)

std::size_t build_flush_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t front_offset, struct iovec* iov,
                               std::size_t max_iov) {
  std::size_t count = 0;
  for (const OutFrame& frame : queue) {
    if (count >= max_iov) break;
    // The header and the payload are separate segments; a partially sent
    // front frame resumes mid-header or mid-payload.
    const auto* header = reinterpret_cast<const Byte*>(&frame.len);
    std::size_t skip = front_offset;
    front_offset = 0;  // only the first frame can be partially written
    if (skip < sizeof frame.len) {
      iov[count].iov_base = const_cast<Byte*>(header + skip);
      iov[count].iov_len = sizeof frame.len - skip;
      ++count;
      skip = 0;
    } else {
      skip -= sizeof frame.len;
    }
    if (count >= max_iov) break;
    if (frame.payload.size() > skip) {
      iov[count].iov_base = const_cast<Byte*>(frame.payload.data() + skip);
      iov[count].iov_len = frame.payload.size() - skip;
      ++count;
    }
  }
  return count;
}

std::size_t consume_flushed(std::deque<OutFrame>& queue,
                            std::size_t front_offset, std::size_t written,
                            std::size_t& frames_done,
                            std::size_t& bytes_released) {
  frames_done = 0;
  bytes_released = 0;
  while (written > 0 && !queue.empty()) {
    const std::size_t total = sizeof(OutFrame{}.len) + queue.front().payload.size();
    const std::size_t remaining = total - front_offset;
    if (written >= remaining) {
      written -= remaining;
      front_offset = 0;
      bytes_released += total;
      ++frames_done;
      queue.pop_front();
    } else {
      front_offset += written;
      written = 0;
    }
  }
  return front_offset;
}

// ---------------------------------------------------------------------------
// Conn

Conn::Conn(int fd, Kind kind, crypto::KeyNodeId peer, LaneId lane,
           std::uint32_t max_frame, std::size_t max_out_frames,
           std::size_t max_out_bytes)
    : fd_(fd),
      kind_(kind),
      peer_(peer),
      lane_(lane),
      hello_done_(kind == Kind::kDialed),
      decoder_(max_frame),
      max_out_frames_(max_out_frames),
      max_out_bytes_(max_out_bytes) {}

Conn::~Conn() {
  // RAII backstop: every error path that abandons the connection — a
  // failed hello write, a lost publication race, shutdown — still closes
  // the socket when the last reference drops.
  if (fd_ >= 0) ::close(fd_);
}

Conn::Offer Conn::offer(Bytes frame) {
  MutexLock lock(out_mutex_);
  if (closed_) return Offer::kClosed;
  const std::size_t wire = frame.size() + sizeof(OutFrame{}.len);
  if (out_.size() >= max_out_frames_ || out_bytes_ + wire > max_out_bytes_)
    return Offer::kOverflow;
  out_bytes_ += wire;
  out_.push_back(OutFrame{static_cast<std::uint32_t>(frame.size()),
                          std::move(frame)});
  if (flush_scheduled_) return Offer::kQueued;
  flush_scheduled_ = true;
  return Offer::kQueuedNeedFlush;
}

std::size_t Conn::begin_flush(struct iovec* iov, std::size_t max_iov) {
  MutexLock lock(out_mutex_);
  if (closed_ || out_.empty()) {
    // Clearing the latch under the same mutex offer() takes means a
    // sender racing this drain re-schedules: no frame is ever stranded.
    flush_scheduled_ = false;
    return 0;
  }
  return build_flush_iovecs(out_, front_offset_, iov, max_iov);
}

std::size_t Conn::end_flush(std::size_t written, std::size_t& bytes_released) {
  MutexLock lock(out_mutex_);
  std::size_t frames_done = 0;
  front_offset_ =
      consume_flushed(out_, front_offset_, written, frames_done, bytes_released);
  out_bytes_ -= std::min(out_bytes_, bytes_released);
  return frames_done;
}

void Conn::mark_closed() {
  MutexLock lock(out_mutex_);
  closed_ = true;
  out_.clear();
  out_bytes_ = 0;
  front_offset_ = 0;
  flush_scheduled_ = false;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(std::string name, std::string metric_prefix,
                     EventLoopOptions opts, TcpTransport& transport)
    : name_(std::move(name)),
      opts_(opts),
      transport_(transport),
      // Opened here, before any loop of the transport runs: another loop's
      // thread may hand this one a connection (and wake it) before this
      // loop's start().
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      events_(kMaxEvents),
      scratch_(kReadChunk),
      m_wakeups_(metrics::MetricsRegistry::global().counter(metric_prefix +
                                                            "wakeups")),
      m_recv_calls_(metrics::MetricsRegistry::global().counter(
          metric_prefix + "recv_calls")),
      m_writev_calls_(metrics::MetricsRegistry::global().counter(
          metric_prefix + "writev_calls")),
      m_wake_writes_(metrics::MetricsRegistry::global().counter(
          metric_prefix + "wake_writes")),
      m_protocol_errors_(metrics::MetricsRegistry::global().counter(
          metric_prefix + "protocol_errors")),
      m_rx_batch_frames_(metrics::MetricsRegistry::global().histogram(
          metric_prefix + "rx_batch_frames")) {
  if (epoll_fd_ < 0 || wake_fd_ < 0) return;  // start() reports it
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  request_stop();
  join();
  if (listen_fd_ >= 0) ::close(listen_fd_);  // start() never ran
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::start() {
  if (epoll_fd_ < 0 || wake_fd_ < 0) return false;
  if (listen_fd_ >= 0) {
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  MutexLock thread_lock(thread_mutex_);
  thread_ = named_thread(name_, [this] { run(); });
  return true;
}

void EventLoop::request_stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake();
}

void EventLoop::join() {
  {
    // A claimant's next round sees stopping_, closes every connection and
    // stops driving; a released loop is back on a lane thread.
    CvLock lock(mutex_);
    while (driven_) driven_cv_.wait(lock);
  }
  MutexLock thread_lock(thread_mutex_);
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::claim() {
  MutexLock thread_lock(thread_mutex_);
  {
    MutexLock lock(mutex_);
    if (stopping_ || driven_ || !thread_.joinable()) return false;
    driven_ = true;
    hand_off_ = true;
  }
  wake();
  // The lane thread's next round sees hand_off_ and returns without
  // closing anything (or, if a stop raced the claim, after closing
  // everything; the claimant's first round then reports the loop closed).
  thread_.join();
  MutexLock lock(mutex_);
  hand_off_ = false;
  return true;
}

void EventLoop::release() {
  MutexLock thread_lock(thread_mutex_);
  {
    MutexLock lock(mutex_);
    if (!driven_) return;
  }
  // Back on a lane thread: it keeps serving the connections, or, when the
  // loop is stopping, flushes and closes them in its first round.
  thread_ = named_thread(name_, [this] { run(); });
  {
    MutexLock lock(mutex_);
    driven_ = false;
  }
  driven_cv_.notify_all();
}

void EventLoop::wake() {
  if (wake_fd_ < 0 || t_round_loop == this) return;
  m_wake_writes_.add();
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::adopt(std::shared_ptr<Conn> conn) {
  {
    MutexLock lock(mutex_);
    if (!stopping_) {
      inbox_.push_back(std::move(conn));
      conn = nullptr;
    }
  }
  if (conn) {
    // Raced shutdown: the loop will never pick it up, close it here.
    conn->mark_closed();
    transport_.on_conn_closed(conn);
    return;
  }
  wake();
}

void EventLoop::schedule_flush(std::shared_ptr<Conn> conn) {
  if (t_round_loop == this) {
    // Sent from inside this loop's round (its claimant's work, or a sink
    // answering on the lane thread): the round flushes before it waits.
    round_dirty_.push_back(std::move(conn));
    return;
  }
  bool was_empty;
  {
    MutexLock lock(mutex_);
    if (stopping_) return;  // frames die with the connections at shutdown
    was_empty = dirty_.empty();
    dirty_.push_back(std::move(conn));
  }
  // A non-empty list already has a wake on its way: whoever pushed onto
  // the empty list writes the eventfd after its push, and the loop drains
  // the whole list after it reads that write.
  if (was_empty) wake();
}

void EventLoop::request_close(std::shared_ptr<Conn> conn) {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;  // the shutdown path closes every conn anyway
    closing_.push_back(std::move(conn));
  }
  wake();
}

void EventLoop::run() {
  while (round(kEpollWaitMs, nullptr)) {
  }
}

bool EventLoop::round(int timeout_ms, const std::function<void()>& work) {
  RoundScope scope(this);
  switch (drain_control()) {
    case Control::kRun:
      break;
    case Control::kStop:
      close_all();
      return false;
    case Control::kHandOff:
      return false;
  }
  if (want_fast_poll()) timeout_ms = std::min(timeout_ms, 1);
  const int n = ::epoll_wait(epoll_fd_, events_.data(),
                             static_cast<int>(events_.size()), timeout_ms);
  if (n < 0 && errno != EINTR) {
    COP_LOG_WARN("%s: epoll_wait failed: %s", name_.c_str(),
                 std::strerror(errno));
    close_all();
    return false;
  }
  m_wakeups_.add();
  const std::uint64_t now = now_us();
  for (int i = 0; i < n; ++i) dispatch(events_[i], now);
  if (work) work();
  // The claimant has drained what this round delivered; frames its sinks
  // refused get their next try now rather than after another wait.
  pump_retries(now_us());
  pump_paused();
  if (listener_paused_until_us_ != 0 && now >= listener_paused_until_us_ &&
      listen_fd_ >= 0) {
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
    listener_paused_until_us_ = 0;
  }
  flush_round();
  return true;
}

COP_HOT void EventLoop::flush_round() {
  // Indexed: a flush that closes its conn may not append, but stay safe.
  for (std::size_t i = 0; i < round_dirty_.size(); ++i) {
    std::shared_ptr<Conn> conn = std::move(round_dirty_[i]);
    EventLoop* owner = conn->owner();
    if (owner != this) {
      if (owner) owner->schedule_flush(std::move(conn));
      continue;
    }
    if (conn->fd() >= 0) flush_conn(conn);
  }
  round_dirty_.clear();
}

void EventLoop::close_all() {
  // Adopt any last-moment connections so their fds are closed, give every
  // queue one best-effort non-blocking flush (quick send-then-stop callers
  // lose nothing the kernel would take), close all.
  {
    MutexLock lock(mutex_);
    for (auto& conn : inbox_) conns_.emplace(conn->fd(), conn);
    inbox_.clear();
    dirty_.clear();
    closing_.clear();
  }
  round_dirty_.clear();
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) all.push_back(conn);
  for (auto& conn : all) {
    if (conn->fd() >= 0) flush_conn(conn);
    close_conn(conn);
  }
  retry_.clear();
  retry_depth_ = 0;
  paused_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    MutexLock lock(mutex_);
    driven_ = false;  // a claimant stops driving a closed loop
  }
  driven_cv_.notify_all();
}

EventLoop::Control EventLoop::drain_control() {
  std::vector<std::shared_ptr<Conn>> adopted;
  std::vector<std::shared_ptr<Conn>> dirty;
  std::vector<std::shared_ptr<Conn>> closing;
  {
    MutexLock lock(mutex_);
    // Checked first: a stop that races a claim closes the connections.
    if (stopping_) return Control::kStop;
    if (hand_off_) return Control::kHandOff;
    adopted.swap(inbox_);
    dirty.swap(dirty_);
    closing.swap(closing_);
  }
  for (auto& conn : adopted) register_conn(conn);
  for (auto& conn : closing) {
    EventLoop* owner = conn->owner();
    if (owner != this) {
      if (owner) owner->request_close(std::move(conn));
      continue;
    }
    if (conn->fd() >= 0) close_conn(conn);
  }
  for (auto& conn : dirty) {
    EventLoop* owner = conn->owner();
    if (owner != this) {
      // The conn migrated between enqueue and drain; forward the flush.
      if (owner) owner->schedule_flush(std::move(conn));
      continue;
    }
    if (conn->fd() >= 0) flush_conn(conn);
  }
  return Control::kRun;
}

void EventLoop::register_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd() < 0) return;
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd(), &ev) < 0) {
    conn->mark_closed();
    transport_.on_conn_closed(conn);
    return;
  }
  conn->registered_ = true;
  conn->want_write_ = false;
  conns_[conn->fd()] = conn;
  // A migrated conn may carry queued output from its previous loop.
  flush_conn(conn);
}

std::shared_ptr<Conn> EventLoop::lookup(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second;
}

void EventLoop::dispatch(const struct epoll_event& ev, std::uint64_t now) {
  const int fd = ev.data.fd;
  if (fd == wake_fd_) {
    std::uint64_t drained = 0;
    [[maybe_unused]] ssize_t n = ::read(wake_fd_, &drained, sizeof drained);
    return;
  }
  if (fd == listen_fd_) {
    accept_batch();
    return;
  }
  auto conn = lookup(fd);
  if (!conn) return;
  if (ev.events & EPOLLIN) handle_readable(conn, now);
  if (conn->fd() < 0) return;
  if (ev.events & EPOLLOUT) flush_conn(conn);
  if (conn->fd() < 0) return;
  if (ev.events & (EPOLLERR | EPOLLHUP)) close_conn(conn);
}

void EventLoop::accept_batch() {
  for (int i = 0; i < kAcceptBatch; ++i) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: a level-triggered listener would spin at 100% CPU.
        // Disarm it and retry after a cool-down.
        struct epoll_event ev {};
        ev.data.fd = listen_fd_;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
        listener_paused_until_us_ = now_us() + kListenerBackoffUs;
      }
      return;  // EAGAIN: backlog drained
    }
    int yes = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    auto conn = transport_.on_accept(fd);
    if (!conn) {
      ::close(fd);
      continue;
    }
    conn->set_owner(this);
    register_conn(conn);
  }
}

COP_HOT void EventLoop::handle_readable(const std::shared_ptr<Conn>& conn,
                                        std::uint64_t now) {
  std::size_t budget = kMaxReadPerWake;
  std::size_t batch_frames = 0;
  bool dead = false;
  while (budget > 0 && conn->fd_ >= 0 && !conn->paused_ &&
         conn->migrate_target_ == nullptr) {
    const std::size_t want = std::min(scratch_.size(), budget);
    const ssize_t n = ::recv(conn->fd_, scratch_.data(), want, 0);
    m_recv_calls_.add();
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      dead = true;
      break;
    }
    budget -= static_cast<std::size_t>(n);
    const Byte* data = scratch_.data();
    std::size_t len = static_cast<std::size_t>(n);
    if (!conn->hello_done_) {
      if (!consume_hello(conn, data, len)) {
        dead = true;
        break;
      }
      if (!conn->hello_done_) continue;  // partial hello, need more bytes
    }
    frames_.clear();
    if (!conn->decoder_.feed(data, len, frames_)) {
      // Oversized length header: Byzantine or corrupt peer.
      m_protocol_errors_.add();
      dead = true;
      break;
    }
    batch_frames += frames_.size();
    conn->counters().rx_frames.add(frames_.size());
    conn->counters().rx_bytes.add(static_cast<std::uint64_t>(n));
    for (Bytes& frame : frames_) {
      if (conn->fd_ < 0) break;
      if (conn->paused_) {
        // A lossless sink went busy mid-batch: park the rest in order.
        conn->parked_.push_back(
            ReceivedFrame{conn->peer_, conn->lane_, std::move(frame)});
        continue;
      }
      route_frame(conn, std::move(frame), now);
    }
    if (static_cast<std::size_t>(n) < want) break;  // socket drained
  }
  if (batch_frames > 0) m_rx_batch_frames_.record(batch_frames);
  if (dead) {
    close_conn(conn);
    return;
  }
  if (conn->fd_ >= 0 && conn->migrate_target_ != nullptr) {
    EventLoop* target = conn->migrate_target_;
    conn->migrate_target_ = nullptr;
    migrate(conn, target);
  }
}

bool EventLoop::consume_hello(const std::shared_ptr<Conn>& conn,
                              const Byte*& data, std::size_t& len) {
  while (conn->hello_have_ < sizeof(conn->hello_buf_) && len > 0) {
    conn->hello_buf_[conn->hello_have_++] = *data++;
    --len;
  }
  if (conn->hello_have_ < sizeof(conn->hello_buf_)) return true;
  std::uint32_t from = 0;
  std::uint32_t lane = 0;
  std::memcpy(&from, conn->hello_buf_, sizeof from);
  std::memcpy(&lane, conn->hello_buf_ + sizeof from, sizeof lane);
  conn->set_identity(from, lane);
  EventLoop* target = transport_.on_hello(conn);
  if (target == nullptr) return false;  // rejected (no sink for the lane)
  conn->migrate_target_ = (target == this) ? nullptr : target;
  return true;
}

COP_HOT void EventLoop::route_frame(const std::shared_ptr<Conn>& conn,
                                    Bytes frame, std::uint64_t now) {
  ReceivedFrame rf{conn->peer_, conn->lane_, std::move(frame)};
  if (conn->sheddable_) {
    // Admission control: order within the lane is preserved, so while a
    // retry queue exists new frames append behind it.
    auto& queue = lane_retry(conn->lane_);
    if (!queue.empty()) {
      enqueue_retry(conn, std::move(rf), now);
      return;
    }
  }
  const std::shared_ptr<FrameSink>& sink = conn->sink();
  if (!sink) {
    m_protocol_errors_.add();
    return;
  }
  switch (sink->try_deliver(rf)) {
    case Admit::kAdmitted:
      conn->counters().ingress_accepted.add();
      return;
    case Admit::kBusy:
      if (conn->sheddable_) {
        enqueue_retry(conn, std::move(rf), now);
      } else {
        // Lossless backpressure: park the frame and stop reading; the
        // kernel's receive window pushes back on the peer.
        conn->parked_.push_back(std::move(rf));
        pause_reads(conn);
      }
      return;
    case Admit::kClosed:
      close_conn(conn);
      return;
  }
}

void EventLoop::enqueue_retry(const std::shared_ptr<Conn>& conn,
                              ReceivedFrame frame, std::uint64_t now) {
  auto& queue = lane_retry(frame.lane);
  if (queue.size() >= opts_.ingress_retry_budget) {
    conn->counters().ingress_shed.add();
    return;  // shed: the client's retransmission is the retry
  }
  queue.push_back(PendingFrame{conn, std::move(frame),
                               now + opts_.ingress_retry_deadline_us});
  ++retry_depth_;
}

std::deque<EventLoop::PendingFrame>& EventLoop::lane_retry(LaneId lane) {
  if (lane >= retry_.size()) retry_.resize(lane + 1);
  return retry_[lane];
}

void EventLoop::pump_retries(std::uint64_t now) {
  if (retry_depth_ == 0) return;
  for (auto& queue : retry_) {
    while (!queue.empty()) {
      PendingFrame& entry = queue.front();
      if (now >= entry.deadline_us) {
        // The request sat at ingress longer than it would stay fresh;
        // drop it — the client retransmits against live state instead of
        // the replica chewing through a stale backlog.
        entry.conn->counters().ingress_deadline_drops.add();
        queue.pop_front();
        --retry_depth_;
        continue;
      }
      // Only client conns queue here, and on_hello() gave each a sink.
      const Admit admit = entry.conn->sink()->try_deliver(entry.frame);
      if (admit == Admit::kBusy) break;  // keep order; retry next tick
      if (admit == Admit::kAdmitted)
        entry.conn->counters().ingress_accepted.add();
      if (admit == Admit::kClosed && entry.conn->fd() >= 0)
        close_conn(entry.conn);
      queue.pop_front();
      --retry_depth_;
    }
  }
}

void EventLoop::pump_paused() {
  for (auto it = paused_.begin(); it != paused_.end();) {
    const std::shared_ptr<Conn>& conn = *it;
    if (conn->fd() < 0) {
      it = paused_.erase(it);
      continue;
    }
    bool closed = false;
    while (!conn->parked_.empty()) {
      // A conn pauses only after its sink answered kBusy.
      const Admit admit = conn->sink()->try_deliver(conn->parked_.front());
      if (admit == Admit::kBusy) break;
      if (admit == Admit::kClosed) {
        closed = true;
        break;
      }
      conn->counters().ingress_accepted.add();
      conn->parked_.pop_front();
    }
    if (closed) {
      auto dead = conn;
      it = paused_.erase(it);
      close_conn(dead);
      continue;
    }
    if (conn->parked_.empty()) {
      conn->paused_ = false;
      update_epoll_interest(conn);
      it = paused_.erase(it);
      continue;
    }
    ++it;
  }
}

void EventLoop::pause_reads(const std::shared_ptr<Conn>& conn) {
  if (conn->paused_) return;
  conn->paused_ = true;
  update_epoll_interest(conn);
  paused_.push_back(conn);
}

void EventLoop::update_epoll_interest(const std::shared_ptr<Conn>& conn) {
  if (!conn->registered_ || conn->fd() < 0) return;
  struct epoll_event ev {};
  ev.events = (conn->paused_ ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn->want_write_ ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

void EventLoop::set_want_write(const std::shared_ptr<Conn>& conn, bool want) {
  if (conn->want_write_ == want) return;
  conn->want_write_ = want;
  update_epoll_interest(conn);
}

COP_HOT void EventLoop::flush_conn(const std::shared_ptr<Conn>& conn) {
  struct iovec iov[kMaxIov];
  for (;;) {
    const std::size_t count = conn->begin_flush(iov, kMaxIov);
    if (count == 0) {
      if (conn->want_write_) set_want_write(conn, false);
      return;
    }
    struct msghdr mh {};
    mh.msg_iov = iov;
    mh.msg_iovlen = count;
    const ssize_t n = ::sendmsg(conn->fd_, &mh, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write_) set_want_write(conn, true);
      return;  // resume on EPOLLOUT
    }
    if (n <= 0) {
      close_conn(conn);
      return;
    }
    m_writev_calls_.add();
    std::size_t released = 0;
    const std::size_t done =
        conn->end_flush(static_cast<std::size_t>(n), released);
    conn->counters().tx_frames.add(done);
    conn->counters().tx_bytes.add(released);
  }
}

void EventLoop::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd() < 0) return;
  if (conn->registered_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
    conn->registered_ = false;
  }
  conns_.erase(conn->fd());
  std::erase(paused_, conn);
  conn->mark_closed();
  transport_.on_conn_closed(conn);
}

void EventLoop::migrate(const std::shared_ptr<Conn>& conn, EventLoop* target) {
  if (conn->registered_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
    conn->registered_ = false;
  }
  conn->want_write_ = false;
  conns_.erase(conn->fd());
  conn->set_owner(target);
  target->adopt(conn);
}

bool EventLoop::want_fast_poll() const {
  return retry_depth_ > 0 || !paused_.empty() ||
         listener_paused_until_us_ != 0;
}

// ---------------------------------------------------------------------------

bool submit_frame(const std::shared_ptr<Conn>& conn, Bytes frame) {
  switch (conn->offer(std::move(frame))) {
    case Conn::Offer::kQueued:
      return true;
    case Conn::Offer::kQueuedNeedFlush:
      if (EventLoop* owner = conn->owner()) owner->schedule_flush(conn);
      return true;
    case Conn::Offer::kOverflow:
      // Egress admission: dropping beats blocking the sending (pillar)
      // thread on a slow peer; the protocol absorbs loss by design.
      conn->counters().egress_dropped.add();
      return false;
    case Conn::Offer::kClosed:
      return false;
  }
  return false;
}

}  // namespace copbft::transport
