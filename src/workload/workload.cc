#include "src/workload/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>

namespace clara {
namespace {

// The Zipf tables of the last few (num_flows, s) pairs, shared by every
// GenerateTrace call in the process. Building a table sums num_flows pow()
// terms (65,536 for SmallFlows), yet it depends only on those two numbers.
// Callers hold their table by shared_ptr, so evicting an entry never frees a
// table that is still sampling.
std::shared_ptr<const ZipfSampler> SharedZipfSampler(uint32_t n, double s) {
  struct Entry {
    uint32_t n;
    uint64_t s_bits;  // bit pattern: a NaN exponent still finds its entry
    std::shared_ptr<const ZipfSampler> sampler;
  };
  struct Table {
    std::mutex mu;
    std::vector<Entry> entries;  // least recently used first
  };
  static constexpr size_t kEntries = 4;
  static Table* table = new Table();  // never destroyed: threads may outlive main
  const uint64_t s_bits = std::bit_cast<uint64_t>(s);
  auto find = [&]() -> std::shared_ptr<const ZipfSampler> {
    auto& entries = table->entries;
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->n == n && it->s_bits == s_bits) {
        std::rotate(it, it + 1, entries.end());
        return entries.back().sampler;
      }
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(table->mu);
    if (auto hit = find()) {
      return hit;
    }
  }
  // Built outside the lock, so a miss does not stall other generators. Two
  // threads that miss on the same key both build it; the first one kept wins.
  auto built = std::make_shared<const ZipfSampler>(n, s);
  std::lock_guard<std::mutex> lock(table->mu);
  if (auto hit = find()) {
    return hit;
  }
  if (table->entries.size() == kEntries) {
    table->entries.erase(table->entries.begin());
  }
  table->entries.push_back(Entry{n, s_bits, built});
  return built;
}

}  // namespace

WorkloadSpec WorkloadSpec::LargeFlows(uint16_t pkt_size) {
  WorkloadSpec s;
  s.name = "large-flows";
  s.num_flows = 64;
  s.zipf_s = 1.1;
  s.pkt_size = pkt_size;
  s.syn_ratio = 0.002;
  return s;
}

WorkloadSpec WorkloadSpec::SmallFlows(uint16_t pkt_size) {
  WorkloadSpec s;
  s.name = "small-flows";
  s.num_flows = 65536;
  s.zipf_s = 0.4;
  s.pkt_size = pkt_size;
  s.syn_ratio = 0.15;
  return s;
}

Packet MakeFlowPacket(const WorkloadSpec& spec, uint32_t flow_id, Rng& rng) {
  Packet p;
  // Derive a stable 5-tuple from the flow id. Keep addresses non-zero (the
  // baremetal maps use key==0 as the empty-slot sentinel).
  uint64_t h = flow_id * 0x9e3779b97f4a7c15ULL + 0x1234567ULL;
  h ^= h >> 29;
  p.src_ip = 0x0a000000u | (static_cast<uint32_t>(h) & 0x00ffffffu) | 0x0101u;
  p.dst_ip = 0xc0a80000u | ((static_cast<uint32_t>(h >> 24) & 0xffffu) | 1u);
  p.sport = static_cast<uint16_t>(1024 + (h >> 40) % 60000);
  p.dport = (flow_id % 7 == 0) ? 53 : ((flow_id % 3 == 0) ? 80 : 443);
  p.ip_proto = rng.NextBool(spec.udp_fraction) ? kProtoUdp : kProtoTcp;
  p.wire_len = std::max<uint16_t>(spec.pkt_size, 64);
  p.ip_len = static_cast<uint16_t>(p.wire_len - 14);
  p.payload_len = p.wire_len > 54 ? static_cast<uint16_t>(p.wire_len - 54) : 0;
  int prefix = p.PayloadPrefixLen();
  for (int i = 0; i < prefix; ++i) {
    p.payload[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.NextU64());
  }
  p.tcp_flags = kTcpAck;
  p.tcp_seq = static_cast<uint32_t>(rng.NextU64());
  return p;
}

TraceGenerator::TraceGenerator(const WorkloadSpec& spec)
    : spec_(spec),
      rng_(spec.seed),
      zipf_(spec.zipf_s <= 0.0
                ? nullptr
                : SharedZipfSampler(spec.num_flows, std::max(spec.zipf_s, 1e-6))) {}

void TraceGenerator::Fill(Packet* out, size_t n) {
  // Draw from a local copy: its state never escapes this loop, so the
  // compiler keeps it in registers across the ~69 draws of each packet.
  Rng rng = rng_;
  uint64_t ts = ts_ns_;
  for (size_t i = 0; i < n; ++i) {
    uint32_t flow = zipf_ == nullptr ? static_cast<uint32_t>(rng.NextBounded(spec_.num_flows))
                                     : static_cast<uint32_t>(zipf_->Sample(rng));
    Packet p = MakeFlowPacket(spec_, flow, rng);
    if (p.ip_proto == kProtoTcp && rng.NextBool(spec_.syn_ratio)) {
      p.tcp_flags = kTcpSyn;
    }
    ts += 300 + rng.NextBounded(200);  // ~3 Mpps offered inter-arrival, ns
    p.ts_ns = ts;
    out[i] = p;
  }
  rng_ = rng;
  ts_ns_ = ts;
}

Trace GenerateTrace(const WorkloadSpec& spec, size_t n_packets) {
  Trace t;
  t.spec = spec;
  t.packets.resize(n_packets);
  TraceGenerator(spec).Fill(t.packets.data(), n_packets);
  return t;
}

double EstimateCacheHitRate(const WorkloadSpec& spec, uint64_t cache_entries) {
  if (cache_entries == 0) {
    return 0.0;
  }
  if (cache_entries >= spec.num_flows) {
    return 1.0;
  }
  if (spec.zipf_s <= 0.0) {
    return static_cast<double>(cache_entries) / spec.num_flows;
  }
  // Mass of the `cache_entries` most popular ranks under Zipf(s): approximate
  // generalized harmonic sums with integrals for large n.
  auto harmonic = [&](double n) {
    double s = spec.zipf_s;
    if (std::abs(s - 1.0) < 1e-9) {
      return std::log(n) + 0.5772156649;
    }
    return (std::pow(n, 1.0 - s) - 1.0) / (1.0 - s) + 1.0;
  };
  double top = harmonic(static_cast<double>(cache_entries));
  double all = harmonic(static_cast<double>(spec.num_flows));
  return std::clamp(top / all, 0.0, 1.0);
}

}  // namespace clara
