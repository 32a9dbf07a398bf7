// Multi-client epoll transport for the Clara insight-serving daemon: the
// daemon's one socket transport. One event loop serves an arbitrary number
// of clients concurrently over one Unix domain socket:
//
//   * A non-blocking listener plus one epoll instance (level-triggered) own
//     every fd. Each accepted connection carries its own FrameReader, so
//     partial frames interleaved across connections reassemble independently
//     — a client dribbling one byte at a time never stalls anyone else.
//   * The loop thread parses each complete insight frame and hands it to
//     ServeEngine::Submit() with a completion callback, so the engine's queue
//     is the only queue. A by-name cache hit is answered inside Submit(), on
//     the loop thread, with no thread handoff; every other request is
//     answered by the engine's dispatcher.
//   * Per-connection response order: each insight frame takes a slot in a
//     FIFO kept per connection. A completion fills its slot, then moves the
//     run of filled slots at the head into the outbound buffer, so a hit
//     sent right behind a miss is still written after that miss.
//   * Control frames (stats/health/dump/reload) and oversized-frame errors
//     are answered inline on the loop thread, ahead of queued work — the
//     control plane stays responsive when the request queue is saturated.
//   * Writes are buffered per connection and flushed with non-blocking
//     send(): EAGAIN arms EPOLLOUT and the flush resumes when the socket
//     drains. A client whose answers pile up past max_outbound_bytes, in
//     the outbound buffer and in filled slots waiting behind an unanswered
//     one, is disconnected (slow-client backpressure) rather than allowed
//     to grow the daemon's memory without bound.
//   * Connection-count and fd-churn gauges (serve.conn.active/accepted/
//     closed/...) feed the obs registry, and StatsJson() renders the same
//     numbers as the "transport" object of the stats envelope.
//
// The loop thread owns fds and the epoll set exclusively. Every completion
// touches only its connection's slots and outbound buffer (under its mutex)
// and queues the connection for a flush; the loop flushes the queue after
// each epoll batch, and a completion on another thread (the dispatcher's)
// also wakes it through an eventfd. A completion can land on a connection
// other than the one being read: a brownout displacement answers the
// displaced request inside the newcomer's Submit(). An injected fault at the
// sock.accept/sock.read/sock.write sites costs the connection it hits, never
// the daemon.
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
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/proto.h"
#include "src/serve/server.h"

namespace clara {
namespace serve {

struct EventLoopOptions {
  std::string socket_path;
  // Per-connection cap on answered bytes not yet sent (the outbound buffer
  // plus filled slots behind an unanswered one); exceeding it disconnects
  // the client (slow-reader backpressure).
  size_t max_outbound_bytes = 4u << 20;
  // Connections beyond this are accepted and immediately closed.
  size_t max_connections = 1024;
  int listen_backlog = 128;
};

class EventLoop {
 public:
  // The engine must outlive the loop, and be running while Run() drains its
  // requests at shutdown. Init() must succeed before Run().
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
  // daemon polls its signal flags there. Returns 0 on a clean stop, once
  // every submitted request's callback has run (the callbacks capture the
  // loop), each connection has had a last flush and every fd is closed; the
  // listener socket file is unlinked.
  int Run(const std::atomic<int>* stop, const std::function<void()>& tick = {});

  // Transport stats as one JSON object (the stats envelope's "transport").
  std::string StatsJson() const;

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
  // `out_mu` guards everything a completion may touch.
  struct Conn {
    int fd = -1;

    FrameReader reader;  // loop thread only

    std::mutex out_mu;
    std::string outbound;  // encoded response frames awaiting flush
    // One slot per submitted insight frame, oldest first: its encoded
    // response frame once answered, empty while in flight.
    std::deque<std::string> slots;
    size_t slot_bytes = 0;     // bytes in filled slots, counted against the cap
    uint64_t first_slot = 0;   // sequence number of slots.front()
    bool closed = false;       // loop closed the fd; no more frames are
                               // submitted and completions drop their bytes
    bool overflow = false;     // outbound cap blown; loop disconnects
    bool read_closed = false;  // peer half-closed; close once drained
    bool want_write = false;   // EPOLLOUT armed
  };

  // Takes the frame's response slot and submits it to the engine; false
  // (nothing taken) once the connection is closed or over its outbound cap.
  bool SubmitFrame(const std::shared_ptr<Conn>& conn, std::string_view frame);
  // Fills slot `seq` with an encoded response frame, moving the filled run at
  // the head of the FIFO to outbound, and flags the connection for a
  // disconnect once its answered bytes pass the cap. Any thread.
  void FillSlot(const std::shared_ptr<Conn>& conn, uint64_t seq, std::string frame);
  // The end of every engine callback: lets Run() return once none is left.
  void CallbackDone();

  void HandleListener();
  void HandleConnReadable(const std::shared_ptr<Conn>& conn);
  void HandleConnWritable(const std::shared_ptr<Conn>& conn);
  // Flushes every connection a completion queued. Loop thread only.
  void DrainCompletions();

  // Appends bytes to conn->outbound (loop thread); a no-op once the
  // connection is closed.
  void AppendOutbound(const std::shared_ptr<Conn>& conn, std::string_view bytes);
  // Non-blocking flush; arms/disarms EPOLLOUT as needed. Loop thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  // Closes the fd and forgets the connection. Loop thread only.
  void CloseConn(const std::shared_ptr<Conn>& conn, bool error, bool slow);
  // Closes once the peer hung up, no slot is left and the buffer drained.
  // Loop thread only.
  void MaybeFinishConn(const std::shared_ptr<Conn>& conn);
  // Queues the connection for DrainCompletions(), waking the loop when
  // called off the loop thread. Any thread.
  void NotifyLoop(const std::shared_ptr<Conn>& conn);
  void UpdateEpollInterest(const std::shared_ptr<Conn>& conn);

  ServeEngine& engine_;
  EventLoopOptions opts_;

  int listener_ = -1;
  int epoll_ = -1;
  int wake_ = -1;  // eventfd: dispatcher-thread completions -> loop
  std::thread::id loop_thread_;  // set by Run() before the first Submit()
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // loop thread only

  // Engine callbacks not yet finished; Run() waits for zero.
  std::mutex callbacks_mu_;
  std::condition_variable callbacks_cv_;
  size_t callbacks_ = 0;

  // Completion queue: connections whose outbound changed since the loop
  // last looked.
  std::mutex comp_mu_;
  std::vector<std::shared_ptr<Conn>> completions_;
  std::vector<std::shared_ptr<Conn>> draining_;  // loop thread only

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
