// The evaluated NF element suite (paper Table 2), written in the mini-Click
// NF language. Each factory returns a fresh Program; parameterized factories
// expose the porting/workload variants used by Figures 1, 10, 13.
//
// Maps default to the NIC fixed-bucket implementation (the reverse-ported
// form, §3.3); pass MapImpl::kHostLinearProbe to analyze the original host
// structure instead.
#ifndef SRC_ELEMENTS_ELEMENTS_H_
#define SRC_ELEMENTS_ELEMENTS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace clara {

// ---- Stateless header-manipulation elements ----
Program MakeAnonIpAddr();   // address anonymization by keyed mixing
Program MakeTcpAck();       // ACK generation/validation arithmetic
Program MakeUdpIpEncap();   // UDP/IP encapsulation with checksum
Program MakeForceTcp();     // coerce packets into well-formed TCP
Program MakeTcpResp();      // craft TCP responses (swap/reply logic)

// ---- Simple stateful elements ----
Program MakeTcpGen();       // TCP traffic generator; many correlated scalars
Program MakeAggCounter();   // aggregate counters indexed by address hash
Program MakeTimeFilter();   // timestamp-window filtering
Program MakeWebTcp();       // web-server-ish TCP state machine scalars

// ---- Accelerator-eligible elements ----
// use_accel selects the ported version that calls the hardware engine
// instead of the procedural software loop (Figure 10's Clara port).
Program MakeCmSketch(bool use_crc_accel = false);
Program MakeWepDecap(bool use_crc_accel = false);
// iplookup embeds a trie over `num_rules` random prefixes (Figure 10c
// sweeps this); use_lpm_accel = ported form; use_flow_cache adds the flow
// cache fast path (Figure 1 LPM variants).
Program MakeIpLookup(int num_rules = 128, bool use_lpm_accel = false,
                     bool use_flow_cache = false, uint64_t seed = 99);

// ---- Flow-stateful / classifier elements ----
Program MakeFirewall(MapImpl impl = MapImpl::kNicFixedBucket);
Program MakeDpi(int scan_bytes = 48);       // payload pattern scan
Program MakeHeavyHitter(uint32_t threshold = 64);
Program MakeIpRewriter();
Program MakeIpClassifier();

// ---- Extension elements (beyond the paper's Table 2 suite) ----
Program MakeTokenBucket(uint32_t rate_per_ms = 64, uint32_t burst = 256);
Program MakeSynFlood(uint32_t threshold = 128);

// ---- Complex applications ----
Program MakeDnsProxy();
Program MakeMazuNat(bool use_checksum_accel = false);
Program MakeUdpCount();
Program MakeWebGen();

// ---- Registry (Table 2) ----
struct ElementInfo {
  std::string name;
  bool stateful;
  // Insight classes (Table 2 legend): subset of
  // {prediction, reverse-porting, algo-id, scale-out, placement, coalescing,
  //  colocation}.
  std::vector<std::string> insights;
  std::function<Program()> make;
};

const std::vector<ElementInfo>& ElementRegistry();

// Builds the element by registry name, or returns nullopt if no element has
// that name.
std::optional<Program> FindElementByName(const std::string& name);

// FindElementByName for names taken from the registry itself (tests,
// benches); an unknown name throws std::bad_optional_access.
Program MakeElementByName(const std::string& name);

}  // namespace clara

#endif  // SRC_ELEMENTS_ELEMENTS_H_
