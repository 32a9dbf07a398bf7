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

// Runs 2000 packets of each preset through a fresh instance of `make()` and
// checks the four digests against `golden` (nullptr: none recorded).
void ExpectGoldenDigests(const std::string& name, Program (*make)(const std::string&),
                         const std::array<uint64_t, 4>* golden) {
  const WorkloadSpec specs[] = {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()};
  std::array<uint64_t, 4> got{};
  for (int i = 0; i < 2; ++i) {
    NfInstance nf(make(name));
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
                name.c_str(), static_cast<unsigned long long>(got[0]),
                static_cast<unsigned long long>(got[1]), static_cast<unsigned long long>(got[2]),
                static_cast<unsigned long long>(got[3]));
  ASSERT_NE(golden, nullptr) << "no golden digests; computed " << row;
  EXPECT_EQ(got, *golden) << "computed " << row;
}

TEST_P(ElementSuiteTest, ProfileAndPacketsMatchGoldenDigests) {
  auto golden = GoldenDigests().find(GetParam());
  ExpectGoldenDigests(GetParam(), &MakeElementByName,
                      golden == GoldenDigests().end() ? nullptr : &golden->second);
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

// ---- language constructs no registry element runs ----

template <typename... S>
std::vector<StmtPtr> Stmts(S... stmts) {
  std::vector<StmtPtr> body;
  (body.push_back(std::move(stmts)), ...);
  return body;
}

template <typename... E>
std::vector<ExprPtr> Exprs(E... exprs) {
  std::vector<ExprPtr> args;
  (args.push_back(std::move(exprs)), ...);
  return args;
}

StateDecl Scalar(const std::string& name, Type t) {
  StateDecl d;
  d.name = name;
  d.elem_type = t;
  return d;
}

StateDecl Array(const std::string& name, Type t, uint32_t length) {
  StateDecl d = Scalar(name, t);
  d.kind = StateKind::kArray;
  d.length = length;
  return d;
}

// Signed and unsigned division and shifts: AShr at three widths (sign bit
// set), UDiv and URem by a divisor that is zero for an eighth of the flows,
// shift amounts at and beyond the type width, and icmp.ule as a branch and
// as a value.
Program ArithConstructs() {
  Program p;
  p.name = "k_arith";
  p.state.push_back(Scalar("acc", Type::kI64));
  p.state.push_back(Scalar("ule_hits", Type::kI32));
  p.state.push_back(Array("hist", Type::kI16, 10));
  p.body = Stmts(
      Decl("a", Type::kI32, PktField("ip.src")),
      Decl("b", Type::kI8, Bin(Opcode::kAnd, PktField("tcp.sport"), Lit(7))),
      Decl("q", Type::kI32, Bin(Opcode::kUDiv, Local("a"), Local("b"))),
      Decl("r", Type::kI32, Bin(Opcode::kURem, Local("a"), Local("b"))),
      Decl("s32", Type::kI32,
           Bin(Opcode::kAShr, Bin(Opcode::kOr, Local("a"), Lit(0x80000000ULL)), Local("b"))),
      Decl("s8", Type::kI8,
           Bin(Opcode::kAShr, CastTo(Type::kI8, PktField("ip.src")), Lit(3, Type::kI8))),
      Decl("s64", Type::kI64,
           Bin(Opcode::kAShr,
               Bin(Opcode::kOr, CastTo(Type::kI64, Local("a")),
                   Lit(0x8000000000000000ULL, Type::kI64)),
               Bin(Opcode::kAdd, CastTo(Type::kI64, Local("b")), Lit(1, Type::kI64)))),
      Decl("wide", Type::kI32,
           Bin(Opcode::kXor, Bin(Opcode::kShl, Local("a"), Lit(35)),
               Bin(Opcode::kAShr, Local("s32"), Lit(32)))),
      Decl("narrow", Type::kI16,
           Bin(Opcode::kOr, Bin(Opcode::kLShr, CastTo(Type::kI8, Local("a")), Lit(9, Type::kI8)),
               Bin(Opcode::kShl, CastTo(Type::kI16, Local("a")), Lit(16, Type::kI16)))),
      Decl("le", Type::kI8, Cmp(Opcode::kIcmpUle, Local("q"), Local("r"))),
      If(Cmp(Opcode::kIcmpUle, Local("b"), Lit(3)),
         Stmts(AssignState("ule_hits", Bin(Opcode::kAdd, StateRef("ule_hits"), Lit(1))))),
      AssignStateAt("hist", Bin(Opcode::kURem, Local("a"), Lit(10)),
                    Bin(Opcode::kAdd, StateAt("hist", Bin(Opcode::kURem, Local("a"), Lit(10))),
                        Local("s8"))),
      AssignState("acc",
                  Bin(Opcode::kXor,
                      Bin(Opcode::kMul, StateRef("acc"), Lit(0x100000001b3ULL, Type::kI64)),
                      Bin(Opcode::kAdd,
                          Bin(Opcode::kAdd, CastTo(Type::kI64, Local("q")), Local("s64")),
                          CastTo(Type::kI64, Bin(Opcode::kSub, Local("r"), Local("wide")))))),
      AssignPkt("ip.tos", Local("s32")),
      AssignPkt("ip.ttl", Bin(Opcode::kAdd, Local("narrow"), Local("le"))),
      AssignPkt("tcp.ack", Bin(Opcode::kXor, Local("q"), Local("r"))),
      AssignPayload(Lit(3), Local("s8")),
      Send(Bin(Opcode::kAnd, Local("b"), Lit(1))));
  return p;
}

// Loop control flow: a loop that hits the runaway backstop (once per
// instance), a loop variable written in its own body, a loop bound that
// reads state, returns and drops from inside (nested) loops, and a statement
// after a return that never runs.
Program LoopConstructs() {
  Program p;
  p.name = "k_loops";
  p.state.push_back(Scalar("seen", Type::kI32));
  p.state.push_back(Scalar("total", Type::kI64));
  p.state.push_back(Array("trail", Type::kI32, 8));
  p.body = Stmts(
      If(Cmp(Opcode::kIcmpEq, StateRef("seen"), Lit(0)),
         Stmts(AssignState("seen", Lit(1)),
               For("w", Lit(0), Lit(0xffffffffULL),
                   Stmts(AssignState("total", Bin(Opcode::kAdd, StateRef("total"), Lit(1))))))),
      For("i", Lit(0), Lit(20),
          Stmts(AssignStateAt("trail", Local("i"), Local("i")),
                Assign("i", Bin(Opcode::kAdd, Local("i"),
                                Bin(Opcode::kAnd, PktField("ip.src"), Lit(3)))))),
      For("t", Lit(0), Bin(Opcode::kAnd, StateAt("trail", Lit(2)), Lit(7)),
          Stmts(AssignState("total", Bin(Opcode::kAdd, StateRef("total"), Local("t"))))),
      For("k", Lit(0), Lit(4),
          Stmts(For("m", Lit(0), Lit(4),
                    Stmts(If(Cmp(Opcode::kIcmpEq,
                                 Bin(Opcode::kAdd, Bin(Opcode::kMul, Local("k"), Lit(4)),
                                     Local("m")),
                                 Bin(Opcode::kAnd, PktField("tcp.seq"), Lit(63))),
                             Stmts(AssignPkt("ip.ttl", Local("m")), Drop())))))),
      For("j", Lit(0), Lit(16),
          Stmts(If(Cmp(Opcode::kIcmpEq, Local("j"),
                       Bin(Opcode::kAnd, PktField("tcp.sport"), Lit(31))),
                   Stmts(AssignPkt("ip.tos", Local("j")), Return(),
                         AssignPkt("ip.ttl", Lit(1)))),
                AssignState("total", Bin(Opcode::kAdd, StateRef("total"), Local("j"))))),
      AssignPkt("tcp.ack", CastTo(Type::kI32, StateRef("total"))),
      Send(Lit(1)));
  return p;
}

// Framework calls: rand as a value and in a branch, value-returning calls
// with more than two arguments nested inside expressions, a void call with
// three arguments, an API the interpreter does not know, and a call whose
// packet write an enclosing expression has already read around.
Program CallConstructs() {
  Program p;
  p.name = "k_calls";
  p.state.push_back(Scalar("r", Type::kI32));
  p.state.push_back(Scalar("mix", Type::kI64));
  p.body = Stmts(
      Api("ip_header"),
      Decl("x", Type::kI32, CallExpr("rand", {}, Type::kI32)),
      AssignState("r", Bin(Opcode::kXor, StateRef("r"), Local("x"))),
      Decl("h", Type::kI32,
           Bin(Opcode::kAdd,
               CallExpr("crc_hash_hw",
                        Exprs(PktField("ip.src"), PktField("ip.dst"),
                              CallExpr("rand", {}, Type::kI32)),
                        Type::kI32),
               Lit(7))),
      Api("flow_cache_put",
          Exprs(Bin(Opcode::kAnd, Local("h"), Lit(63)), PktField("tcp.sport"), Lit(9))),
      Decl("g", Type::kI32,
           Bin(Opcode::kMul,
               CallExpr("flow_cache_get", Exprs(Bin(Opcode::kAnd, Local("x"), Lit(63))),
                        Type::kI32),
               Lit(3))),
      Decl("u", Type::kI16,
           CallExpr("unknown_hw", Exprs(Local("x"), Local("h"), Local("g"), Lit(4)),
                    Type::kI16)),
      Decl("c8", Type::kI8, CallExpr("crc32_hw", Exprs(Lit(20)), Type::kI8)),
      AssignPkt("ip.csum", Lit(0)),
      AssignPkt("tcp.csum", Bin(Opcode::kAdd, PktField("ip.csum"),
                                CallExpr("checksum_update", {}, Type::kI16))),
      AssignState("mix", Bin(Opcode::kAdd, StateRef("mix"),
                             CastTo(Type::kI64, Bin(Opcode::kXor, Local("g"),
                                                    Bin(Opcode::kAdd, Local("u"),
                                                        Local("c8")))))),
      If(Cmp(Opcode::kIcmpUlt, Bin(Opcode::kAnd, CallExpr("rand", {}, Type::kI32), Lit(255)),
             Lit(40)),
         Stmts(Drop())),
      AssignPkt("tcp.ack", Bin(Opcode::kXor, Local("h"), CastTo(Type::kI32, StateRef("mix")))),
      Send(Bin(Opcode::kAnd, Local("h"), Lit(3))));
  return p;
}

// Map operations: erase, and a host linear-probe map keyed on three fields
// of different widths, small enough to wrap, fill and exhaust its probes,
// next to a NIC fixed-bucket map and a find with no outputs.
Program MapConstructs() {
  Program p;
  p.name = "k_maps";
  StateDecl conn;
  conn.name = "conn";
  conn.kind = StateKind::kMap;
  conn.key_fields = {Type::kI32, Type::kI16, Type::kI8};
  conn.value_fields = {{"cnt", Type::kI32}, {"last", Type::kI64}};
  conn.capacity = 97;
  conn.impl = MapImpl::kHostLinearProbe;
  p.state.push_back(conn);
  StateDecl recent;
  recent.name = "recent";
  recent.kind = StateKind::kMap;
  recent.key_fields = {Type::kI32};
  recent.value_fields = {{"v", Type::kI16}};
  recent.capacity = 64;
  p.state.push_back(recent);
  auto conn_key = [] {
    return Exprs(PktField("ip.src"), PktField("tcp.sport"), PktField("ip.proto"));
  };
  p.body = Stmts(
      MapFind("conn", conn_key(), "hit", {"cnt", "last"}),
      If(Cmp(Opcode::kIcmpNe, Local("hit"), Lit(0)),
         Stmts(If(Cmp(Opcode::kIcmpUge, Local("cnt"), Lit(3)), Stmts(MapErase("conn", conn_key())),
                  Stmts(MapInsert("conn", conn_key(),
                                  Exprs(Bin(Opcode::kAdd, Local("cnt"), Lit(1)),
                                        PktField("pkt.ts")))))),
         Stmts(MapInsert("conn", conn_key(), Exprs(Lit(1), PktField("pkt.ts"))))),
      MapFind("recent", Exprs(PktField("ip.dst")), "rh", {"v"}),
      If(Local("rh"), Stmts(MapErase("recent", Exprs(PktField("ip.dst")))),
         Stmts(MapInsert("recent", Exprs(PktField("ip.dst")), Exprs(PktField("tcp.sport"))))),
      MapFind("recent", Exprs(PktField("ip.src")), "", {}),
      AssignPkt("tcp.ack", Bin(Opcode::kAdd, Local("cnt"), CastTo(Type::kI32, Local("last")))),
      AssignPkt("ip.tos", Local("v")),
      Send(Local("hit")));
  return p;
}

Program MakeConstruct(const std::string& name) {
  if (name == "k_arith") return ArithConstructs();
  if (name == "k_loops") return LoopConstructs();
  if (name == "k_calls") return CallConstructs();
  return MapConstructs();
}

// Recorded from the tree-walking interpreter, like GoldenDigests().
const std::map<std::string, std::array<uint64_t, 4>>& ConstructDigests() {
  static const std::map<std::string, std::array<uint64_t, 4>> kGolden = {
      {"k_arith",
       {0xd7a0dcbb49b2b27a, 0x4d0e9e3e2892b191, 0x2e5fbb4990fcc2d2, 0x154be6f5055bc312}},
      {"k_calls",
       {0xfbac529dbd971df9, 0x3a083930286b04f1, 0xfbac529dbd971df9, 0x7b22ef999ffe5cb1}},
      {"k_loops",
       {0xee584b3f4b0da18b, 0xb49d59480891239e, 0x3a3c448485be51e5, 0x404efb4fd22b2f7a}},
      {"k_maps",
       {0xc0b28d1310ee9c41, 0xf9bfd39758ead6dc, 0x307b0903e2c96958, 0xd493fa1c456d857d}},
  };
  return kGolden;
}

class ConstructDigestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConstructDigestTest, ProfileAndPacketsMatchGoldenDigests) {
  auto golden = ConstructDigests().find(GetParam());
  ExpectGoldenDigests(GetParam(), &MakeConstruct,
                      golden == ConstructDigests().end() ? nullptr : &golden->second);
}

INSTANTIATE_TEST_SUITE_P(Constructs, ConstructDigestTest,
                         ::testing::Values("k_arith", "k_loops", "k_calls", "k_maps"),
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
