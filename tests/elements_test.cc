// The NF element suite: every element lowers, executes realistic traffic,
// and exhibits its advertised behaviour.
#include "src/elements/elements.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>

#include "src/ir/classify.h"
#include "src/lang/interp.h"
#include "src/lang/printer.h"
#include "src/nf/lpm.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

class ElementSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ElementSuiteTest, ProcessesTrafficWithoutStalling) {
  Program p = MakeElementByName(GetParam());
  NfInstance nf(std::move(p));
  ASSERT_TRUE(nf.ok()) << nf.error();
  if (GetParam() == "iplookup") {
    // not required, but exercise the accel hook path too
  }
  Trace t = GenerateTrace(WorkloadSpec::SmallFlows(), 400);
  for (auto& pkt : t.packets) {
    pkt.in_port = pkt.src_ip & 1;
    nf.Process(pkt);
    ASSERT_NE(pkt.verdict, Packet::Verdict::kPending);
  }
  EXPECT_EQ(nf.profile().packets, 400u);
  EXPECT_EQ(nf.profile().sends + nf.profile().drops, 400u);
}

// FNV-1a over a stream of integers, each folded as its 8 little-endian bytes.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) {
      h_ = (h_ ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  void Add(const std::vector<uint64_t>& v) {
    Add(v.size());
    for (uint64_t x : v) {
      Add(x);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

uint64_t ProfileDigest(const NfProfile& p) {
  Digest d;
  d.Add(p.packets);
  d.Add(p.sends);
  d.Add(p.drops);
  d.Add(p.block_exec);
  d.Add(p.state_reads);
  d.Add(p.state_writes);
  d.Add(p.block_var_access.size());
  for (const auto& row : p.block_var_access) {
    d.Add(row);
  }
  d.Add(p.api_calls.size());
  for (const auto& [api, count] : p.api_calls) {
    d.Add(api);
    d.Add(count);
  }
  return d.value();
}

void AddPacket(Digest& d, const Packet& p) {
  for (uint64_t v : {uint64_t{p.eth_type}, uint64_t{p.ip_ihl}, uint64_t{p.ip_tos},
                     uint64_t{p.ip_len}, uint64_t{p.ip_ttl}, uint64_t{p.ip_proto},
                     uint64_t{p.ip_checksum}, uint64_t{p.src_ip}, uint64_t{p.dst_ip},
                     uint64_t{p.sport}, uint64_t{p.dport}, uint64_t{p.tcp_seq},
                     uint64_t{p.tcp_ack}, uint64_t{p.tcp_off}, uint64_t{p.tcp_flags},
                     uint64_t{p.l4_checksum}, uint64_t{p.payload_len}, p.ts_ns,
                     uint64_t{p.in_port}, uint64_t{p.wire_len},
                     static_cast<uint64_t>(p.verdict), uint64_t{p.out_port}}) {
    d.Add(v);
  }
  for (uint8_t b : p.payload) {
    d.Add(b);
  }
}

// Digests of 2000 packets per preset, recorded from the name-resolving
// interpreter that preceded index resolution: {small-flows profile,
// small-flows output packets, large-flows profile, large-flows output
// packets}. Any change to what the interpreter computes shows up here.
const std::map<std::string, std::array<uint64_t, 4>>& GoldenDigests() {
  static const std::map<std::string, std::array<uint64_t, 4>> kGolden = {
      {"aggcounter",
       {0x9484bf8e7afbfd46, 0x6e4a1654ba40a5e8, 0x9484bf8e7afbfd46, 0xa71f03a61c591717}},
      {"anonipaddr",
       {0xa9c7f6119b09ba1e, 0xc8d2a08afbdc4798, 0xa9c7f6119b09ba1e, 0x6c4e29a9acb2516a}},
      {"cmsketch",
       {0xb478ebdd5e5ab113, 0x6e4a1654ba40a5e8, 0xddddb828fcff4477, 0xa71f03a61c591717}},
      {"dnsproxy",
       {0xd76e9cf855477491, 0x6e4a1654ba40a5e8, 0xd76e9cf855477491, 0xa71f03a61c591717}},
      {"dpi",
       {0xd04c18689a0a90f2, 0x6e4a1654ba40a5e8, 0xd04c18689a0a90f2, 0xa71f03a61c591717}},
      {"firewall",
       {0x738d01efe2ef645a, 0x7cceae8f3bc18660, 0x738d01efe2ef645a, 0x81f6749ad948d2df}},
      {"forcetcp",
       {0x76a4113ec11e45d2, 0x763a5c6481cf46d6, 0x76a4113ec11e45d2, 0x67d4fecf2ee17a81}},
      {"heavyhitter",
       {0x914cb56a147218ba, 0x6e4a1654ba40a5e8, 0xbad15ce8b48e2656, 0x3d407db2d9be72bb}},
      {"ipclassifier",
       {0xb344d50467f40aeb, 0x19a32ee0393d7dcf, 0xcf3d5e4d3bb5138a, 0x67f12bfdb7f77806}},
      {"iplookup",
       {0xd93abd1dc8727633, 0x225ab6c212c1e688, 0xd93abd1dc8727633, 0x3e37794d9fd7d3ff}},
      {"iprewriter",
       {0x91295478302b751d, 0x7cceae8f3bc18660, 0x91295478302b751d, 0x81f6749ad948d2df}},
      {"mazunat",
       {0x277d285eafd149e3, 0x7cceae8f3bc18660, 0x277d285eafd149e3, 0x81f6749ad948d2df}},
      {"synflood",
       {0xb9a4c750d553fde9, 0x6e4a1654ba40a5e8, 0x20383d81a24197bf, 0xa71f03a61c591717}},
      {"tcpack",
       {0x51a12218a6d35bdc, 0x8e8cda41e69bc50e, 0x2a4073dce435094e, 0xaf531443a9985ed9}},
      {"tcpgen",
       {0x7c0b601f522d74ef, 0x8d2e2c3217bc5b7e, 0xdd1d83c8a2fef3e7, 0xfadc5038cc94440d}},
      {"tcpresp",
       {0x76a4113ec11e45d2, 0xa6848ccadd0814b7, 0x76a4113ec11e45d2, 0x59f63eb324a1380c}},
      {"timefilter",
       {0x923d37e033995963, 0x6e4a1654ba40a5e8, 0x923d37e033995963, 0xa71f03a61c591717}},
      {"tokenbucket",
       {0x2fdbc5d70905f64c, 0x7cceae8f3bc18660, 0x2fdbc5d70905f64c, 0x81f6749ad948d2df}},
      {"udpcount",
       {0x8cda67ae96994406, 0x6e4a1654ba40a5e8, 0x8cda67ae96994406, 0xa71f03a61c591717}},
      {"udpipencap",
       {0xa9c7f6119b09ba1e, 0x69eab6e238704146, 0xa9c7f6119b09ba1e, 0x0315798a5895d957}},
      {"webgen",
       {0x82a04f84f9eeb015, 0xb4f9f0332b70b44d, 0x22ba93634242f7e7, 0x8eaf3443b7d13a86}},
      {"webtcp",
       {0x330cb12ba9e7c52c, 0x2eb6138b1849670e, 0x978c29e7f7cb8591, 0x53ee5f50239d8f27}},
      {"wepdecap",
       {0x1183ab12f12c8369, 0xbeed0c3414b79413, 0x1be0cb1c09cffa24, 0x535b3568c7642fa0}},
  };
  return kGolden;
}

TEST_P(ElementSuiteTest, ProfileAndPacketsMatchGoldenDigests) {
  auto golden = GoldenDigests().find(GetParam());
  const WorkloadSpec specs[] = {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()};
  std::array<uint64_t, 4> got{};
  for (int i = 0; i < 2; ++i) {
    NfInstance nf(MakeElementByName(GetParam()));
    ASSERT_TRUE(nf.ok()) << nf.error();
    Trace t = GenerateTrace(specs[i], 2000);
    Digest packets;
    for (auto& pkt : t.packets) {
      pkt.in_port = pkt.src_ip & 1;
      nf.Process(pkt);
      AddPacket(packets, pkt);
    }
    got[2 * i] = ProfileDigest(nf.profile());
    got[2 * i + 1] = packets.value();
  }
  char row[160];
  std::snprintf(row, sizeof(row), "{\"%s\", {0x%016llx, 0x%016llx, 0x%016llx, 0x%016llx}}",
                GetParam().c_str(), static_cast<unsigned long long>(got[0]),
                static_cast<unsigned long long>(got[1]), static_cast<unsigned long long>(got[2]),
                static_cast<unsigned long long>(got[3]));
  ASSERT_NE(golden, GoldenDigests().end()) << "no golden digests; computed " << row;
  EXPECT_EQ(got, golden->second) << "computed " << row;
}

TEST_P(ElementSuiteTest, SourceRendersAndHasReasonableSize) {
  Program p = MakeElementByName(GetParam());
  int loc = SourceLineCount(p);
  EXPECT_GT(loc, 5) << GetParam();
  EXPECT_LT(loc, 400) << GetParam();
}

std::vector<std::string> AllElementNames() {
  std::vector<std::string> names;
  for (const auto& info : ElementRegistry()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, ElementSuiteTest, ::testing::ValuesIn(AllElementNames()),
                         [](const auto& info) { return info.param; });

TEST(Elements, RegistryComplete) {
  EXPECT_GE(ElementRegistry().size(), 20u);
  int stateful = 0;
  for (const auto& info : ElementRegistry()) {
    stateful += info.stateful ? 1 : 0;
    EXPECT_FALSE(info.insights.empty()) << info.name;
  }
  EXPECT_GE(stateful, 14);
}

TEST(Elements, StatefulFlagMatchesPrograms) {
  for (const auto& info : ElementRegistry()) {
    Program p = info.make();
    EXPECT_EQ(info.stateful, !p.state.empty()) << info.name;
  }
}

TEST(Elements, AnonIpAddrChangesAddressesDeterministically) {
  NfInstance nf(MakeAnonIpAddr());
  ASSERT_TRUE(nf.ok());
  Packet a;
  a.src_ip = 0x0a000001;
  a.dst_ip = 0xc0a80101;
  Packet b = a;
  nf.Process(a);
  nf.Process(b);
  EXPECT_NE(a.src_ip, 0x0a000001u);
  EXPECT_EQ(a.src_ip, b.src_ip);                      // deterministic
  EXPECT_EQ(a.src_ip >> 24, 0x0au);                   // class byte preserved
}

TEST(Elements, FirewallLearnsFromSyn) {
  NfInstance nf(MakeFirewall());
  ASSERT_TRUE(nf.ok());
  Packet outside;
  outside.src_ip = 5;
  outside.dst_ip = 6;
  outside.in_port = 1;
  outside.tcp_flags = kTcpAck;
  nf.Process(outside);
  EXPECT_EQ(outside.verdict, Packet::Verdict::kDropped);

  Packet syn;
  syn.src_ip = 5;
  syn.dst_ip = 6;
  syn.in_port = 0;
  syn.tcp_flags = kTcpSyn;
  nf.Process(syn);
  EXPECT_EQ(syn.verdict, Packet::Verdict::kSent);

  Packet later;
  later.src_ip = 5;
  later.dst_ip = 6;
  later.in_port = 1;
  later.tcp_flags = kTcpAck;
  nf.Process(later);
  EXPECT_EQ(later.verdict, Packet::Verdict::kSent);
}

TEST(Elements, HeavyHitterFlagsHotFlow) {
  NfInstance nf(MakeHeavyHitter(/*threshold=*/16));
  ASSERT_TRUE(nf.ok());
  for (int i = 0; i < 40; ++i) {
    Packet p;
    p.src_ip = 0x01010101;
    p.dst_ip = 0x02020202;
    nf.Process(p);
  }
  EXPECT_GT(nf.ReadScalar("hh_count"), 10u);
  Packet cold;
  cold.src_ip = 0x09090909;
  cold.dst_ip = 0x0a0a0a0a;
  nf.Process(cold);
  EXPECT_EQ(cold.ip_tos, 0);
}

TEST(Elements, CmSketchVariantsCountSameUpdates) {
  NfInstance sw(MakeCmSketch(false));
  NfInstance hw(MakeCmSketch(true));
  ASSERT_TRUE(sw.ok());
  ASSERT_TRUE(hw.ok());
  Trace t = GenerateTrace(WorkloadSpec::SmallFlows(), 100);
  for (auto& pkt : t.packets) {
    Packet copy = pkt;
    sw.Process(pkt);
    hw.Process(copy);
  }
  EXPECT_EQ(sw.ReadScalar("updates"), 100u);
  EXPECT_EQ(hw.ReadScalar("updates"), 100u);
  // The accelerated variant compiles to far fewer core compute instructions
  // in the hash blocks (this is the Figure 10b effect at the source level).
  BlockCounts csw = CountFunction(sw.module().functions[0]);
  BlockCounts chw = CountFunction(hw.module().functions[0]);
  EXPECT_LT(chw.compute, csw.compute);
}

TEST(Elements, IpLookupAccelMatchesSoftwareVerdicts) {
  LpmTable table;
  Rng trng(99);
  table.Insert(0, 0, 15);  // the element seeds a default route first
  for (int r = 0; r < 128; ++r) {
    int plen = static_cast<int>(trng.NextInt(8, 24));
    uint32_t prefix = static_cast<uint32_t>(trng.NextU64()) & ~((1u << (32 - plen)) - 1);
    table.Insert(prefix, plen, static_cast<uint32_t>(trng.NextBounded(16)));
  }
  NfInstance sw(MakeIpLookup(128, false, false, 99));
  NfInstance hw(MakeIpLookup(128, true, false, 99));
  ASSERT_TRUE(sw.ok());
  ASSERT_TRUE(hw.ok());
  hw.SetLpmAccelTable(&table);
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    Packet a;
    a.dst_ip = static_cast<uint32_t>(rng.NextU64());
    Packet b = a;
    sw.Process(a);
    hw.Process(b);
    ASSERT_EQ(a.verdict, b.verdict) << IpToString(a.dst_ip);
    if (a.verdict == Packet::Verdict::kSent) {
      ASSERT_EQ(a.out_port, b.out_port);
    }
  }
}

TEST(Elements, UdpCountTracksFlows) {
  NfInstance nf(MakeUdpCount());
  ASSERT_TRUE(nf.ok());
  Packet udp;
  udp.src_ip = 3;
  udp.dst_ip = 4;
  udp.ip_proto = kProtoUdp;
  udp.dport = 53;
  udp.wire_len = 100;
  nf.Process(udp);
  nf.Process(udp);
  Packet tcp;
  tcp.src_ip = 3;
  tcp.dst_ip = 4;
  tcp.ip_proto = kProtoTcp;
  nf.Process(tcp);
  EXPECT_EQ(nf.ReadScalar("udp_pkts"), 2u);
  EXPECT_EQ(nf.ReadScalar("other_pkts"), 1u);
  EXPECT_EQ(nf.ReadScalar("udp_bytes"), 200u);
}

TEST(Elements, DnsProxyCachesAnswers) {
  NfInstance nf(MakeDnsProxy());
  ASSERT_TRUE(nf.ok());
  Packet q;
  q.ip_proto = kProtoUdp;
  q.dport = 53;
  q.src_ip = 10;
  q.dst_ip = 20;
  q.payload_len = 40;
  for (int i = 0; i < 8; ++i) {
    q.payload[12 + i] = static_cast<uint8_t>('a' + i);
  }
  Packet q1 = q;
  nf.Process(q1);
  EXPECT_EQ(nf.ReadScalar("cache_misses"), 1u);
  Packet q2 = q;
  nf.Process(q2);
  EXPECT_EQ(nf.ReadScalar("cache_hits"), 1u);
  // Cached answer is served back toward the client (addresses swapped).
  EXPECT_EQ(q2.dst_ip, 10u);
}

TEST(Elements, WebGenEmitsRequests) {
  NfInstance nf(MakeWebGen());
  ASSERT_TRUE(nf.ok());
  Packet p;
  p.dst_ip = 50;
  p.dport = 80;
  nf.Process(p);  // opens the connection
  Packet p2;
  p2.dst_ip = 50;
  p2.dport = 80;
  nf.Process(p2);  // writes the request
  EXPECT_EQ(nf.ReadScalar("req_counter"), 1u);
  EXPECT_EQ(p2.payload[0], 'G');
  EXPECT_EQ(p2.payload[3], ' ');
}

TEST(Elements, TcpGenCountsGoodAndBadAcks) {
  NfInstance nf(MakeTcpGen());
  ASSERT_TRUE(nf.ok());
  Packet good;
  good.tcp_flags = kTcpAck;
  good.tcp_ack = 0;  // matches initial send_next
  good.payload_len = 10;
  nf.Process(good);
  EXPECT_EQ(nf.ReadScalar("good_pkt"), 1u);
  Packet bad;
  bad.tcp_flags = kTcpAck;
  bad.tcp_ack = 999;
  nf.Process(bad);
  EXPECT_EQ(nf.ReadScalar("bad_pkt"), 1u);
}

TEST(Elements, IpClassifierClassifies) {
  NfInstance nf(MakeIpClassifier());
  ASSERT_TRUE(nf.ok());
  Trace t = GenerateTrace(WorkloadSpec::SmallFlows(), 200);
  uint64_t before = 0;
  for (auto& pkt : t.packets) {
    nf.Process(pkt);
  }
  uint64_t classified = 0;
  for (int a = 0; a < 4; ++a) {
    classified += nf.ReadArray("class_counts", a);
  }
  EXPECT_EQ(classified + nf.ReadScalar("fallthrough"), 200u);
  EXPECT_GT(classified, before);
}

TEST(Elements, MazuNatAccelVariantSameBehaviour) {
  NfInstance plain(MakeMazuNat(false));
  NfInstance accel(MakeMazuNat(true));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(accel.ok());
  Trace t = GenerateTrace(WorkloadSpec::SmallFlows(), 150);
  for (auto& pkt : t.packets) {
    Packet copy = pkt;
    pkt.in_port = 0;
    copy.in_port = 0;
    plain.Process(pkt);
    accel.Process(copy);
    ASSERT_EQ(pkt.verdict, copy.verdict);
    ASSERT_EQ(pkt.src_ip, copy.src_ip);
  }
  EXPECT_EQ(plain.ReadScalar("translated"), accel.ReadScalar("translated"));
}

}  // namespace
}  // namespace clara

namespace clara {
namespace {

TEST(Elements, TokenBucketPolices) {
  NfInstance nf(MakeTokenBucket(/*rate_per_ms=*/1, /*burst=*/4));
  ASSERT_TRUE(nf.ok()) << nf.error();
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.src_ip = 1;
    p.dst_ip = 2;
    p.ts_ns = 10'000'000;  // burst within one millisecond
    nf.Process(p);
  }
  uint64_t conformed_before = nf.ReadScalar("conformed");
  EXPECT_GT(nf.ReadScalar("policed"), 0u);
  EXPECT_LE(conformed_before, 10u);
  // After time passes, tokens refill and packets conform again.
  Packet later;
  later.src_ip = 1;
  later.dst_ip = 2;
  later.ts_ns = 200'000'000;
  nf.Process(later);
  EXPECT_EQ(later.verdict, Packet::Verdict::kSent);
  EXPECT_GT(nf.ReadScalar("conformed"), conformed_before);
}

TEST(Elements, SynFloodRaisesAlerts) {
  NfInstance nf(MakeSynFlood(/*threshold=*/8));
  ASSERT_TRUE(nf.ok()) << nf.error();
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.src_ip = 100 + i;  // many sources, one victim
    p.dst_ip = 0x0a0a0a0a;
    p.tcp_flags = kTcpSyn;
    nf.Process(p);
  }
  EXPECT_EQ(nf.ReadScalar("total_syns"), 20u);
  EXPECT_GT(nf.ReadScalar("alerts"), 0u);
  EXPECT_GT(nf.FindMap("watchlist")->entries(), 0u);
  // FINs drain the counter back below the threshold.
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.src_ip = 100 + i;
    p.dst_ip = 0x0a0a0a0a;
    p.tcp_flags = kTcpFin;
    nf.Process(p);
  }
  Packet benign;
  benign.src_ip = 1;
  benign.dst_ip = 0x0a0a0a0a;
  benign.tcp_flags = kTcpSyn;
  nf.Process(benign);
  EXPECT_EQ(benign.ip_tos, 0);
}

}  // namespace
}  // namespace clara
