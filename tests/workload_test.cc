#include "src/workload/workload.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <string>

namespace clara {
namespace {

// FNV-1a over every field of every packet, each folded as its 8
// little-endian bytes.
uint64_t TraceDigest(const std::vector<Packet>& packets) {
  uint64_t h = 14695981039346656037ULL;
  auto add = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  add(packets.size());
  for (const Packet& p : packets) {
    for (uint64_t v : {uint64_t{p.eth_type}, uint64_t{p.ip_ihl}, uint64_t{p.ip_tos},
                       uint64_t{p.ip_len}, uint64_t{p.ip_ttl}, uint64_t{p.ip_proto},
                       uint64_t{p.ip_checksum}, uint64_t{p.src_ip}, uint64_t{p.dst_ip},
                       uint64_t{p.sport}, uint64_t{p.dport}, uint64_t{p.tcp_seq},
                       uint64_t{p.tcp_ack}, uint64_t{p.tcp_off}, uint64_t{p.tcp_flags},
                       uint64_t{p.l4_checksum}, uint64_t{p.payload_len}, p.ts_ns,
                       uint64_t{p.in_port}, uint64_t{p.wire_len},
                       static_cast<uint64_t>(p.verdict), uint64_t{p.out_port}}) {
      add(v);
    }
    for (uint8_t b : p.payload) {
      add(b);
    }
  }
  return h;
}

// The four specs the golden digests cover: both presets, uniform flow
// popularity, and a UDP mix.
std::array<WorkloadSpec, 4> GoldenSpecs() {
  WorkloadSpec uniform;
  uniform.name = "uniform";
  uniform.zipf_s = 0.0;
  WorkloadSpec udp_mix;
  udp_mix.name = "udp-mix";
  udp_mix.num_flows = 4096;
  udp_mix.zipf_s = 0.9;
  udp_mix.udp_fraction = 0.3;
  udp_mix.pkt_size = 96;
  return {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows(), uniform, udp_mix};
}

constexpr uint64_t kGoldenSeeds[] = {42, 7, 20260423};

// Digests of 2000-packet traces, recorded before GenerateTrace kept its
// generator in registers and narrowed the Zipf search with a guide table:
// [spec][seed], specs in GoldenSpecs() order, seeds in kGoldenSeeds order.
constexpr uint64_t kGoldenTraceDigests[4][3] = {
    {0x6668799f4e64acc9, 0x5d7bcc904f01b55c, 0x645932f0c4e02d67},
    {0x4ac3564d6a0f4676, 0x5df761f7fa134671, 0x5424854c4366ebf4},
    {0xa29bf33acec626e1, 0xf3b0b605d11f8a4f, 0x6e7dc7f43f8ab35f},
    {0x8fdd841f24aac3c2, 0xc0e214b9a99e66ef, 0x31626565a8dfbe16},
};

TEST(Workload, TracesMatchGoldenDigests) {
  std::array<WorkloadSpec, 4> specs = GoldenSpecs();
  std::string table;
  bool all_match = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    table += "    {";
    for (size_t j = 0; j < 3; ++j) {
      WorkloadSpec spec = specs[i];
      spec.seed = kGoldenSeeds[j];
      uint64_t got = TraceDigest(GenerateTrace(spec, 2000).packets);
      all_match &= got == kGoldenTraceDigests[i][j];
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(got));
      table += std::string(j > 0 ? ", " : "") + hex;
    }
    table += "},\n";
  }
  EXPECT_TRUE(all_match) << "computed:\n" << table;
}

// A TraceGenerator continues one stream across Fill calls, so pieces of any
// size concatenate to the single GenerateTrace.
TEST(Workload, FillInPiecesEqualsOneTrace) {
  constexpr size_t kPackets = 2000;
  for (WorkloadSpec spec : GoldenSpecs()) {
    for (uint64_t seed : kGoldenSeeds) {
      spec.seed = seed;
      std::vector<Packet> pieces(kPackets);
      TraceGenerator generator(spec);
      size_t filled = 0;
      for (size_t piece : {size_t{1}, size_t{127}, size_t{1000}, kPackets - 1128}) {
        generator.Fill(pieces.data() + filled, piece);
        filled += piece;
      }
      ASSERT_EQ(filled, kPackets);
      EXPECT_EQ(TraceDigest(pieces), TraceDigest(GenerateTrace(spec, kPackets).packets))
          << spec.name << ", seed " << seed;
    }
  }
}

TEST(Workload, DeterministicForSameSeed) {
  WorkloadSpec spec;
  spec.seed = 5;
  Trace a = GenerateTrace(spec, 200);
  Trace b = GenerateTrace(spec, 200);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].src_ip, b.packets[i].src_ip);
    EXPECT_EQ(a.packets[i].ts_ns, b.packets[i].ts_ns);
  }
}

TEST(Workload, FlowCountBounded) {
  WorkloadSpec spec;
  spec.num_flows = 16;
  spec.zipf_s = 0.0;
  Trace t = GenerateTrace(spec, 2000);
  std::set<std::pair<uint32_t, uint32_t>> flows;
  for (const auto& p : t.packets) {
    flows.insert({p.src_ip, p.dst_ip});
  }
  EXPECT_LE(flows.size(), 16u);
  EXPECT_GE(flows.size(), 12u);  // nearly all flows appear
}

TEST(Workload, ZipfSkewConcentratesTraffic) {
  WorkloadSpec skewed;
  skewed.num_flows = 1000;
  skewed.zipf_s = 1.2;
  Trace t = GenerateTrace(skewed, 5000);
  std::map<uint32_t, int> counts;
  for (const auto& p : t.packets) {
    ++counts[p.src_ip];
  }
  int max_count = 0;
  for (const auto& [ip, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_GT(max_count, 5000 / 50);  // top flow >> fair share
}

TEST(Workload, PacketFieldsSane) {
  WorkloadSpec spec;
  spec.pkt_size = 256;
  spec.syn_ratio = 0.5;
  Trace t = GenerateTrace(spec, 500);
  int syns = 0;
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.wire_len, 256);
    EXPECT_EQ(p.ip_len, 242);
    EXPECT_EQ(p.payload_len, 202);
    EXPECT_NE(p.src_ip & 0xff, 0u);  // keys never zero (map sentinel)
    if (p.tcp_flags & kTcpSyn) {
      ++syns;
    }
  }
  EXPECT_GT(syns, 150);
  EXPECT_LT(syns, 350);
}

TEST(Workload, TimestampsMonotone) {
  Trace t = GenerateTrace(WorkloadSpec{}, 100);
  for (size_t i = 1; i < t.packets.size(); ++i) {
    EXPECT_GT(t.packets[i].ts_ns, t.packets[i - 1].ts_ns);
  }
}

TEST(Workload, UdpFraction) {
  WorkloadSpec spec;
  spec.udp_fraction = 1.0;
  Trace t = GenerateTrace(spec, 100);
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.ip_proto, kProtoUdp);
  }
}

TEST(CacheHitRate, FitsEntirelyIsOne) {
  WorkloadSpec spec;
  spec.num_flows = 100;
  EXPECT_DOUBLE_EQ(EstimateCacheHitRate(spec, 100), 1.0);
  EXPECT_DOUBLE_EQ(EstimateCacheHitRate(spec, 1000), 1.0);
}

TEST(CacheHitRate, ZeroCacheIsZero) {
  WorkloadSpec spec;
  EXPECT_DOUBLE_EQ(EstimateCacheHitRate(spec, 0), 0.0);
}

TEST(CacheHitRate, MonotoneInCacheSize) {
  WorkloadSpec spec;
  spec.num_flows = 100000;
  spec.zipf_s = 1.0;
  double prev = 0;
  for (uint64_t entries : {100, 1000, 10000, 50000}) {
    double h = EstimateCacheHitRate(spec, entries);
    EXPECT_GE(h, prev);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
}

TEST(CacheHitRate, SkewHelps) {
  WorkloadSpec flat;
  flat.num_flows = 100000;
  flat.zipf_s = 0.0;
  WorkloadSpec skewed = flat;
  skewed.zipf_s = 1.2;
  EXPECT_GT(EstimateCacheHitRate(skewed, 5000), EstimateCacheHitRate(flat, 5000));
}

TEST(CacheHitRate, LargeVsSmallFlowClasses) {
  // The Figure 11 workload classes: large flows must be far more cache
  // friendly than small flows for a few-thousand-entry cache.
  uint64_t entries = 4096;
  double large = EstimateCacheHitRate(WorkloadSpec::LargeFlows(), entries);
  double small = EstimateCacheHitRate(WorkloadSpec::SmallFlows(), entries);
  EXPECT_GT(large, 0.95);
  EXPECT_LT(small, 0.6);
}

}  // namespace
}  // namespace clara
