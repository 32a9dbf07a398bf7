// Traffic workload generator (the paper's trafgen-analogue).
//
// A WorkloadSpec captures the knobs the paper sweeps: number of concurrent
// flows, flow-popularity skew (Zipf), packet sizes, protocol mix, and the
// fraction of flow-starting (SYN) packets. GenerateTrace materializes a
// deterministic packet trace for interpreter profiling and simulator input;
// TraceGenerator produces the same packets piece by piece, so a consumer can
// start on the first packets while later ones are still being generated.
#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nf/packet.h"
#include "src/util/rng.h"

namespace clara {

struct WorkloadSpec {
  std::string name = "default";
  uint32_t num_flows = 1024;
  double zipf_s = 1.0;       // 0 = uniform flow popularity
  uint16_t pkt_size = 128;   // wire bytes (>= 64)
  double syn_ratio = 0.05;   // fraction of packets carrying SYN (flow setup)
  double udp_fraction = 0.0; // fraction of UDP packets
  uint64_t seed = 42;

  // Large flows = few concurrent flows, each with many packets (cache
  // friendly); small flows = many concurrent flows (cache hostile). These
  // match the workload classes of Figure 11.
  static WorkloadSpec LargeFlows(uint16_t pkt_size = 256);
  static WorkloadSpec SmallFlows(uint16_t pkt_size = 128);
};

struct Trace {
  WorkloadSpec spec;
  std::vector<Packet> packets;
};

// One deterministic packet stream for `spec`. Successive Fill calls continue
// the stream, so filling n packets in pieces of any sizes writes the packets
// GenerateTrace(spec, n) returns, byte for byte.
class TraceGenerator {
 public:
  explicit TraceGenerator(const WorkloadSpec& spec);

  // Writes the stream's next `n` packets to out[0, n).
  void Fill(Packet* out, size_t n);

 private:
  WorkloadSpec spec_;
  Rng rng_;
  std::shared_ptr<const ZipfSampler> zipf_;  // null: uniform flow popularity
  uint64_t ts_ns_ = 0;
};

// Deterministically expands `spec` into `n_packets` packets. Flow tuples are
// derived from the flow id; payload bytes are pseudo-random.
Trace GenerateTrace(const WorkloadSpec& spec, size_t n_packets);

// Builds the 5-tuple packet for flow `flow_id` (without popularity sampling);
// used by tests that need specific flows.
Packet MakeFlowPacket(const WorkloadSpec& spec, uint32_t flow_id, Rng& rng);

// Estimated probability that a flow-state access hits a cache of
// `cache_entries` entries under the spec's flow count and Zipf skew. Used by
// the NIC memory model for the EMEM SRAM cache.
double EstimateCacheHitRate(const WorkloadSpec& spec, uint64_t cache_entries);

}  // namespace clara

#endif  // SRC_WORKLOAD_WORKLOAD_H_
