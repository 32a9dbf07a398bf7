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

size_t AutoShards() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 2;
  }
  return std::max<size_t>(1, std::min<size_t>(4, hw / 2));
}

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
    : engine_(engine), opts_(std::move(opts)) {
  nshards_ = opts_.shards == 0 ? AutoShards() : opts_.shards;
}

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
  shard_q_.clear();
  for (size_t i = 0; i < nshards_; ++i) {
    shard_q_.push_back(std::make_unique<Shard>());
  }
  return true;
}

void EventLoop::NotifyLoop(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    completions_.push_back(conn);
  }
  uint64_t one = 1;
  // The eventfd counter saturates rather than blocks; a failed write only
  // delays the flush to the next epoll timeout tick.
  (void)!::write(wake_, &one, sizeof(one));
}

void EventLoop::WorkerLoop(size_t shard) {
  Shard& q = *shard_q_[shard];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(q.mu);
      q.cv.wait(lock, [&] {
        return !q.tasks.empty() || workers_stop_.load(std::memory_order_acquire);
      });
      if (q.tasks.empty()) {
        return;  // stop requested and the queue is drained
      }
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    ProcessTask(std::move(task));
  }
}

void EventLoop::ProcessTask(Task task) {
  // One read batch of one connection: parse failures answer immediately,
  // everything else is Submit()ed together so the engine's dispatcher can
  // drain it as one batch, and responses land in frame order.
  const std::shared_ptr<Conn>& conn = task.conn;
  std::string out;
  std::vector<std::future<InsightResponse>> futures;
  for (const std::string& frame : task.frames) {
    {
      // Nobody will read the answers of a closed connection: stop feeding
      // its frames to the engine, where they would only take queue slots
      // from live clients.
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->closed) {
        break;
      }
    }
    InsightRequest req;
    std::string err;
    if (!ParseRequest(frame, &req, &err)) {
      AppendFrame(&out,
                  ServeEngine::EncodeTransportError(ErrorCode::kBadRequest, err));
      continue;
    }
    futures.push_back(
        engine_.Submit(std::move(req), static_cast<uint32_t>(frame.size())));
  }
  for (auto& f : futures) {
    AppendFrame(&out, EncodeResponse(f.get()));
  }

  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    --conn->in_flight;
    if (!conn->closed) {
      conn->outbound += out;
      if (conn->outbound.size() > opts_.max_outbound_bytes) {
        conn->overflow = true;
      }
    }
  }
  NotifyLoop(conn);
}

bool EventLoop::AppendOutbound(const std::shared_ptr<Conn>& conn,
                               std::string_view bytes) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) {
    return false;
  }
  conn->outbound.append(bytes.data(), bytes.size());
  if (conn->outbound.size() > opts_.max_outbound_bytes) {
    conn->overflow = true;
    return false;
  }
  return true;
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
    done = conn->read_closed && conn->in_flight == 0 && conn->outbound.empty();
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
    conn->id = next_conn_id_++;
    conn->shard = conn->id % nshards_;
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

  Task task;
  task.conn = conn;
  std::string inline_out;
  std::string frame;
  while (conn->reader.Next(&frame)) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    // Control-plane frames are answered inline on the loop thread, ahead of
    // anything queued: stats/health stay responsive under a saturated queue.
    if (PeekType(frame) == MsgType::kControlRequest) {
      AppendFrame(&inline_out, engine_.HandleControl(frame));
      continue;
    }
    task.frames.push_back(std::move(frame));
  }
  for (size_t i = conn->reader.TakeOversized(); i > 0; --i) {
    oversized_.fetch_add(1, std::memory_order_relaxed);
    AppendFrame(&inline_out,
                ServeEngine::EncodeTransportError(ErrorCode::kOversized,
                                                  "frame exceeds the 1 MiB limit"));
  }
  if (!inline_out.empty()) {
    AppendOutbound(conn, inline_out);
    FlushConn(conn);
  }
  if (!task.frames.empty()) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->closed) {
        return;
      }
      ++conn->in_flight;
    }
    Shard& q = *shard_q_[conn->shard];
    {
      std::lock_guard<std::mutex> lock(q.mu);
      q.tasks.push_back(std::move(task));
    }
    q.cv.notify_one();
  }
  MaybeFinishConn(conn);
}

void EventLoop::HandleConnWritable(const std::shared_ptr<Conn>& conn) {
  FlushConn(conn);
  MaybeFinishConn(conn);
}

void EventLoop::DrainCompletions() {
  uint64_t junk;
  while (::read(wake_, &junk, sizeof(junk)) > 0) {
  }
  std::vector<std::shared_ptr<Conn>> ready;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    ready.swap(completions_);
  }
  for (const auto& conn : ready) {
    FlushConn(conn);
    MaybeFinishConn(conn);
  }
}

int EventLoop::Run(const std::atomic<int>* stop, const std::function<void()>& tick) {
  workers_stop_.store(false, std::memory_order_release);
  workers_.clear();
  for (size_t i = 0; i < nshards_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }

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
        DrainCompletions();
        continue;
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
  }

  // Drain the shard queues (workers finish everything already handed to
  // them), give each connection one best-effort flush, then tear down.
  workers_stop_.store(true, std::memory_order_release);
  for (auto& s : shard_q_) {
    s->cv.notify_all();
  }
  for (auto& w : workers_) {
    w.join();
  }
  workers_.clear();
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
  j += "\"shards\":" + std::to_string(nshards_) + ",";
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
