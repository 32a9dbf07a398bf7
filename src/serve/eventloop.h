// Multi-client epoll transport for the Clara insight-serving daemon: the
// daemon's one socket transport. One event loop serves an arbitrary number
// of clients concurrently over one Unix domain socket:
//
//   * A non-blocking listener plus one epoll instance (level-triggered) own
//     every fd. Each accepted connection carries its own FrameReader, so
//     partial frames interleaved across connections reassemble independently
//     — a client dribbling one byte at a time never stalls anyone else.
//   * A sharded worker pool bridges the loop to the ServeEngine admission
//     queue: complete insight frames are handed to the connection's shard
//     (shard = connection id % shards), which parses, Submit()s, waits on
//     the futures, and appends the encoded responses to the connection's
//     outbound buffer. Pinning a connection to one shard preserves
//     per-connection response ordering while separate shards proceed in
//     parallel. A shard finishes one task before it takes the next, so
//     connections that share a shard wait on each other's analyses; the
//     engine's dispatcher drains requests from every shard as one batch,
//     because Submit() is the shared funnel.
//   * Control frames (stats/health/dump/reload) are answered inline on the
//     loop thread, ahead of everything queued — the control plane stays
//     responsive when the request queue is saturated.
//   * Writes are buffered per connection and flushed with non-blocking
//     send(): EAGAIN arms EPOLLOUT and the flush resumes when the socket
//     drains. A client that stops reading while responses pile up past
//     max_outbound_bytes is disconnected (slow-client backpressure) rather
//     than allowed to grow the buffer without bound.
//   * Connection-count and fd-churn gauges (serve.conn.active/accepted/
//     closed/...) feed the obs registry, and StatsJson() renders the same
//     numbers as the "transport" object of the stats envelope.
//
// The loop thread owns fds and the epoll set exclusively; workers only touch
// a connection's outbound buffer (under its mutex) and wake the loop through
// an eventfd. An injected fault at the sock.accept/sock.read/sock.write sites
// costs the connection it hits, never the daemon.
#ifndef SRC_SERVE_EVENTLOOP_H_
#define SRC_SERVE_EVENTLOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/proto.h"
#include "src/serve/server.h"

namespace clara {
namespace serve {

struct EventLoopOptions {
  std::string socket_path;
  // Worker threads bridging frames to ServeEngine::Submit(). 0 = auto
  // (min(4, hardware_concurrency/2), at least 1).
  size_t shards = 0;
  // Per-connection outbound buffer cap; exceeding it disconnects the client
  // (slow-reader backpressure).
  size_t max_outbound_bytes = 4u << 20;
  // Connections beyond this are accepted and immediately closed.
  size_t max_connections = 1024;
  int listen_backlog = 128;
};

class EventLoop {
 public:
  // The engine must outlive the loop. Init() must succeed before Run().
  EventLoop(ServeEngine& engine, EventLoopOptions opts);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds + listens on opts.socket_path and creates the epoll/eventfd set.
  // The caller is responsible for socket-path ownership (pidfile) before
  // calling this: Init() unlinks a pre-existing socket file.
  bool Init(std::string* error);

  // Serves until *stop becomes nonzero (or a fatal listener error). The flag
  // is an atomic<int> so both a signal handler (lock-free stores are
  // async-signal-safe) and a test thread can set it. `tick` runs on the loop
  // thread at least every ~100 ms and after every signal interruption — the
  // daemon polls its signal flags there. Returns 0 on a clean stop. Joins
  // the shard workers and closes every fd before returning; the listener
  // socket file is unlinked.
  int Run(const std::atomic<int>* stop, const std::function<void()>& tick = {});

  // Transport stats as one JSON object (the stats envelope's "transport").
  std::string StatsJson() const;

  size_t shards() const { return nshards_; }
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t closed() const { return closed_.load(std::memory_order_relaxed); }
  uint64_t active() const { return active_.load(std::memory_order_relaxed); }
  uint64_t slow_disconnects() const {
    return slow_disconnects_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }

 private:
  // Per-connection state. The loop thread owns fd/reader/epoll membership;
  // `out_mu` guards everything a shard worker may touch.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    size_t shard = 0;

    FrameReader reader;  // loop thread only

    std::mutex out_mu;
    std::string outbound;     // encoded response frames awaiting flush
    size_t in_flight = 0;     // shard tasks not yet appended
    bool closed = false;      // loop closed the fd; workers skip its
                              // remaining frames and drop output
    bool overflow = false;    // outbound cap blown; loop disconnects
    bool read_closed = false; // peer half-closed; close once drained
    bool want_write = false;  // EPOLLOUT armed
  };

  // One batch of complete frames read from a connection in a single drain,
  // processed in order by the connection's shard.
  struct Task {
    std::shared_ptr<Conn> conn;
    std::vector<std::string> frames;
  };

  void WorkerLoop(size_t shard);
  void ProcessTask(Task task);

  void HandleListener();
  void HandleConnReadable(const std::shared_ptr<Conn>& conn);
  void HandleConnWritable(const std::shared_ptr<Conn>& conn);
  void DrainCompletions();

  // Appends bytes to conn->outbound (any thread); returns false when the
  // connection is closed or the append blew the outbound cap.
  bool AppendOutbound(const std::shared_ptr<Conn>& conn, std::string_view bytes);
  // Non-blocking flush; arms/disarms EPOLLOUT as needed. Loop thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  // Closes the fd and forgets the connection. Loop thread only.
  void CloseConn(const std::shared_ptr<Conn>& conn, bool error, bool slow);
  // Closes once the peer hung up, nothing is in flight and the buffer
  // drained. Loop thread only.
  void MaybeFinishConn(const std::shared_ptr<Conn>& conn);
  void NotifyLoop(const std::shared_ptr<Conn>& conn);
  void UpdateEpollInterest(const std::shared_ptr<Conn>& conn);

  ServeEngine& engine_;
  EventLoopOptions opts_;
  size_t nshards_ = 1;

  int listener_ = -1;
  int epoll_ = -1;
  int wake_ = -1;  // eventfd: shard workers -> loop
  uint64_t next_conn_id_ = 0;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // loop thread only

  // Shard queues. One mutex per shard keeps connections on different shards
  // fully independent.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> tasks;
  };
  std::vector<std::unique_ptr<Shard>> shard_q_;
  std::vector<std::thread> workers_;
  std::atomic<bool> workers_stop_{false};

  // Completion queue: connections whose outbound changed (or whose in-flight
  // count dropped) since the loop last looked.
  std::mutex comp_mu_;
  std::vector<std::shared_ptr<Conn>> completions_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> peak_active_{0};
  std::atomic<uint64_t> slow_disconnects_{0};
  std::atomic<uint64_t> dropped_{0};   // closed on error / injected fault
  std::atomic<uint64_t> rejected_{0};  // over max_connections
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> oversized_{0};
};

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_EVENTLOOP_H_
