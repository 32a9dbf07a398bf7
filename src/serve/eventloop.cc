#include "src/serve/eventloop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/util/fault.h"

namespace clara {
namespace serve {

namespace {

void BumpCounter(const char* name) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter(name).Add(1);
  }
}

void MoveGauge(const char* name, double delta) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetGauge(name).Add(delta);
  }
}

}  // namespace

EventLoop::EventLoop(ServeEngine& engine, EventLoopOptions opts)
    : engine_(engine), opts_(std::move(opts)) {}

EventLoop::~EventLoop() {
  if (listener_ >= 0) {
    ::close(listener_);
    ::unlink(opts_.socket_path.c_str());
  }
  if (epoll_ >= 0) {
    ::close(epoll_);
  }
  if (wake_ >= 0) {
    ::close(wake_);
  }
}

bool EventLoop::Init(std::string* error) {
  listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + opts_.socket_path;
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(opts_.socket_path.c_str());  // stale socket (pidfile held by caller)
  if (::bind(listener_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener_, opts_.listen_backlog) < 0) {
    *error = "bind/listen " + opts_.socket_path + ": " + std::strerror(errno);
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_ < 0 || wake_ < 0) {
    *error = std::string("epoll/eventfd: ") + std::strerror(errno);
    return false;
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listener_;
  if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, listener_, &ev) < 0) {
    *error = std::string("epoll_ctl(listener): ") + std::strerror(errno);
    return false;
  }
  ev.data.fd = wake_;
  if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, wake_, &ev) < 0) {
    *error = std::string("epoll_ctl(eventfd): ") + std::strerror(errno);
    return false;
  }
  return true;
}

void EventLoop::NotifyLoop(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    completions_.push_back(conn);
  }
  // The loop drains the queue after every epoll batch, so only a completion
  // on another thread has to wake it.
  if (std::this_thread::get_id() != loop_thread_) {
    uint64_t one = 1;
    // The eventfd counter saturates rather than blocks; a failed write only
    // delays the flush to the next epoll timeout tick.
    (void)!::write(wake_, &one, sizeof(one));
  }
}

bool EventLoop::SubmitFrame(const std::shared_ptr<Conn>& conn, std::string_view frame) {
  uint64_t seq;
  {
    // Nobody will read the answers of a closed connection: stop feeding its
    // frames to the engine, where they would only take queue slots from
    // live clients.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed || conn->overflow) {
      return false;
    }
    seq = conn->first_slot + conn->slots.size();
    conn->slots.emplace_back();
  }
  InsightRequest req;
  std::string err;
  if (!ParseRequest(frame, &req, &err)) {
    std::string out;
    AppendFrame(&out, ServeEngine::EncodeTransportError(ErrorCode::kBadRequest, err));
    FillSlot(conn, seq, std::move(out));
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(callbacks_mu_);
    ++callbacks_;
  }
  engine_.Submit(std::move(req), static_cast<uint32_t>(frame.size()),
                 [this, conn, seq](InsightResponse resp) {
                   std::string out;
                   AppendFrame(&out, EncodeResponse(resp));
                   FillSlot(conn, seq, std::move(out));
                   // Also on the loop thread: a request displaced by a
                   // newcomer is answered there, on another connection.
                   NotifyLoop(conn);
                   CallbackDone();
                 });
  return true;
}

void EventLoop::FillSlot(const std::shared_ptr<Conn>& conn, uint64_t seq,
                         std::string frame) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) {
    return;  // CloseConn dropped the slots with the buffer
  }
  conn->slot_bytes += frame.size();
  conn->slots[seq - conn->first_slot] = std::move(frame);
  while (!conn->slots.empty() && !conn->slots.front().empty()) {
    conn->slot_bytes -= conn->slots.front().size();
    conn->outbound += conn->slots.front();
    conn->slots.pop_front();
    ++conn->first_slot;
  }
  // Answers parked behind an unanswered slot count against the cap too, or
  // a client could pile cached bodies up behind one slow miss.
  if (conn->outbound.size() + conn->slot_bytes > opts_.max_outbound_bytes) {
    conn->overflow = true;
  }
}

void EventLoop::CallbackDone() {
  // Notified under the lock: once Run() sees zero it may destroy the loop,
  // so nothing here may touch it after the unlock.
  std::lock_guard<std::mutex> lock(callbacks_mu_);
  if (--callbacks_ == 0) {
    callbacks_cv_.notify_all();
  }
}

void EventLoop::AppendOutbound(const std::shared_ptr<Conn>& conn,
                               std::string_view bytes) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) {
    return;
  }
  conn->outbound.append(bytes.data(), bytes.size());
  if (conn->outbound.size() + conn->slot_bytes > opts_.max_outbound_bytes) {
    conn->overflow = true;
  }
}

void EventLoop::UpdateEpollInterest(const std::shared_ptr<Conn>& conn) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = 0;
  if (!conn->read_closed) {
    ev.events |= EPOLLIN;
  }
  if (conn->want_write) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void EventLoop::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool io_error = false;
  bool interest_changed = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      return;
    }
    while (!conn->outbound.empty()) {
      if (fault::Armed() && fault::ShouldFail(fault::Site::kSockWrite)) {
        io_error = true;
        break;
      }
      ssize_t n = ::send(conn->fd, conn->outbound.data(), conn->outbound.size(),
                         MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbound.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          interest_changed = true;
        }
        break;
      }
      io_error = true;  // EPIPE/ECONNRESET/...: the client is gone
      break;
    }
    if (conn->outbound.empty() && conn->want_write) {
      conn->want_write = false;
      interest_changed = true;
    }
  }
  if (io_error) {
    CloseConn(conn, /*error=*/true, /*slow=*/false);
    return;
  }
  if (interest_changed) {
    UpdateEpollInterest(conn);
  }
}

void EventLoop::CloseConn(const std::shared_ptr<Conn>& conn, bool error, bool slow) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    conn->outbound.clear();
    conn->slots.clear();
    conn->slot_bytes = 0;
  }
  ::epoll_ctl(epoll_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  active_.fetch_sub(1, std::memory_order_relaxed);
  MoveGauge("serve.conn.active", -1);
  BumpCounter("serve.conn.closed");
  if (slow) {
    slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
    BumpCounter("serve.conn.slow_disconnect");
  } else if (error) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    BumpCounter("serve.conn.dropped");
  }
}

void EventLoop::MaybeFinishConn(const std::shared_ptr<Conn>& conn) {
  bool done;
  bool slow;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      return;
    }
    slow = conn->overflow;
    done = conn->read_closed && conn->slots.empty() && conn->outbound.empty();
  }
  if (slow) {
    CloseConn(conn, /*error=*/false, /*slow=*/true);
  } else if (done) {
    CloseConn(conn, /*error=*/false, /*slow=*/false);
  }
}

void EventLoop::HandleListener() {
  for (;;) {
    int fd = ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      // EMFILE/ENFILE/ECONNABORTED: transient; keep serving existing fds.
      return;
    }
    // Fault site sock.accept: the connection is dropped before a byte is
    // exchanged — the client sees a reset, the daemon serves the next one.
    if (fault::Armed() && fault::ShouldFail(fault::Site::kSockAccept)) {
      ::close(fd);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      BumpCounter("serve.conn.dropped");
      continue;
    }
    if (conns_.size() >= opts_.max_connections) {
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      BumpCounter("serve.conn.rejected");
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_[fd] = conn;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    uint64_t act = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = peak_active_.load(std::memory_order_relaxed);
    while (act > peak &&
           !peak_active_.compare_exchange_weak(peak, act, std::memory_order_relaxed)) {
    }
    MoveGauge("serve.conn.active", 1);
    BumpCounter("serve.conn.accepted");
  }
}

void EventLoop::HandleConnReadable(const std::shared_ptr<Conn>& conn) {
  char buf[1 << 16];
  size_t drained = 0;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (fault::Armed() && fault::ShouldFail(fault::Site::kSockRead)) {
        CloseConn(conn, /*error=*/true, /*slow=*/false);
        return;
      }
      conn->reader.Feed(buf, static_cast<size_t>(n));
      drained += static_cast<size_t>(n);
      // Fairness bound: with level-triggered epoll a still-readable fd shows
      // up again next iteration, so other connections get a turn.
      if (drained >= (1u << 18)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->read_closed = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConn(conn, /*error=*/true, /*slow=*/false);
    return;
  }
  if (conn->read_closed) {
    UpdateEpollInterest(conn);
  }

  std::string frame;
  while (conn->reader.Next(&frame)) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    // Control-plane frames are answered inline on the loop thread, ahead of
    // anything queued: stats/health stay responsive under a saturated queue.
    if (PeekType(frame) == MsgType::kControlRequest) {
      std::string out;
      AppendFrame(&out, engine_.HandleControl(frame));
      AppendOutbound(conn, out);
      continue;
    }
    if (!SubmitFrame(conn, frame)) {
      break;  // closed or over its cap: the connection is going away
    }
  }
  for (size_t i = conn->reader.TakeOversized(); i > 0; --i) {
    oversized_.fetch_add(1, std::memory_order_relaxed);
    std::string out;
    AppendFrame(&out, ServeEngine::EncodeTransportError(ErrorCode::kOversized,
                                                        "frame exceeds the 1 MiB limit"));
    AppendOutbound(conn, out);
  }
  FlushConn(conn);
  MaybeFinishConn(conn);
}

void EventLoop::HandleConnWritable(const std::shared_ptr<Conn>& conn) {
  FlushConn(conn);
  MaybeFinishConn(conn);
}

void EventLoop::DrainCompletions() {
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    draining_.swap(completions_);
  }
  for (const auto& conn : draining_) {
    FlushConn(conn);
    MaybeFinishConn(conn);
  }
  draining_.clear();  // keeps its capacity for the next swap
}

int EventLoop::Run(const std::atomic<int>* stop, const std::function<void()>& tick) {
  loop_thread_ = std::this_thread::get_id();

  struct epoll_event events[64];
  while (stop->load(std::memory_order_acquire) == 0) {
    if (tick) {
      tick();
    }
    int n = ::epoll_wait(epoll_, events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // signal: re-check stop and run the tick
      }
      std::fprintf(stderr, "clara_serve: epoll_wait: %s\n", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == listener_) {
        HandleListener();
        continue;
      }
      if (fd == wake_) {
        uint64_t junk;
        while (::read(wake_, &junk, sizeof(junk)) > 0) {
        }
        continue;  // its completions are drained after the batch
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // closed earlier in this batch
      }
      std::shared_ptr<Conn> conn = it->second;
      if ((ev & EPOLLERR) != 0) {
        CloseConn(conn, /*error=*/true, /*slow=*/false);
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLHUP)) != 0) {
        HandleConnReadable(conn);
        if (conns_.find(fd) == conns_.end()) {
          continue;
        }
      }
      if ((ev & EPOLLOUT) != 0) {
        HandleConnWritable(conn);
      }
    }
    DrainCompletions();
  }

  // Wait for the engine to answer everything already submitted (the
  // callbacks capture this loop), give each connection one best-effort
  // flush, then tear down.
  {
    std::unique_lock<std::mutex> lock(callbacks_mu_);
    callbacks_cv_.wait(lock, [this] { return callbacks_ == 0; });
  }
  DrainCompletions();
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) {
    remaining.push_back(conn);
  }
  for (const auto& conn : remaining) {
    FlushConn(conn);
  }
  for (const auto& conn : remaining) {
    CloseConn(conn, /*error=*/false, /*slow=*/false);
  }
  ::close(listener_);
  listener_ = -1;
  ::unlink(opts_.socket_path.c_str());
  return 0;
}

std::string EventLoop::StatsJson() const {
  std::string j = "{";
  j += "\"mode\":\"epoll\",";
  j += "\"conn_active\":" + std::to_string(active()) + ",";
  j += "\"conn_peak\":" +
       std::to_string(peak_active_.load(std::memory_order_relaxed)) + ",";
  j += "\"conn_accepted\":" + std::to_string(accepted()) + ",";
  j += "\"conn_closed\":" + std::to_string(closed()) + ",";
  j += "\"conn_rejected\":" + std::to_string(rejected()) + ",";
  j += "\"conn_dropped\":" + std::to_string(dropped()) + ",";
  j += "\"slow_disconnects\":" + std::to_string(slow_disconnects()) + ",";
  j += "\"frames_in\":" + std::to_string(frames_in_.load(std::memory_order_relaxed)) +
       ",";
  j += "\"oversized\":" + std::to_string(oversized_.load(std::memory_order_relaxed));
  j += "}";
  return j;
}

}  // namespace serve
}  // namespace clara
