#include "src/elements/elements.h"

namespace clara {

const std::vector<ElementInfo>& ElementRegistry() {
  // Insight tags mirror Table 2's legend: which Clara analyses apply.
  static const std::vector<ElementInfo> kRegistry = {
      {"anonipaddr", false, {"prediction", "scale-out"}, [] { return MakeAnonIpAddr(); }},
      {"tcpack", false, {"prediction", "scale-out"}, [] { return MakeTcpAck(); }},
      {"udpipencap", false, {"prediction", "scale-out"}, [] { return MakeUdpIpEncap(); }},
      {"forcetcp", false, {"prediction", "scale-out"}, [] { return MakeForceTcp(); }},
      {"tcpresp", false, {"prediction", "scale-out"}, [] { return MakeTcpResp(); }},
      {"tcpgen", true, {"prediction", "scale-out", "coalescing"}, [] { return MakeTcpGen(); }},
      {"aggcounter", true, {"prediction", "scale-out", "coalescing"},
       [] { return MakeAggCounter(); }},
      {"timefilter", true, {"prediction", "scale-out", "coalescing"},
       [] { return MakeTimeFilter(); }},
      {"webtcp", true, {"prediction", "coalescing"}, [] { return MakeWebTcp(); }},
      {"cmsketch", true, {"algo-id", "reverse-porting", "prediction", "placement"},
       [] { return MakeCmSketch(); }},
      {"wepdecap", true, {"algo-id", "reverse-porting", "prediction", "placement"},
       [] { return MakeWepDecap(); }},
      {"iplookup", true, {"algo-id", "reverse-porting", "prediction", "placement"},
       [] { return MakeIpLookup(); }},
      {"dpi", true, {"prediction", "scale-out"}, [] { return MakeDpi(); }},
      {"firewall", true, {"reverse-porting", "placement", "scale-out"},
       [] { return MakeFirewall(); }},
      {"heavyhitter", true, {"prediction", "placement", "scale-out"},
       [] { return MakeHeavyHitter(); }},
      {"iprewriter", true, {"algo-id", "reverse-porting", "prediction", "placement"},
       [] { return MakeIpRewriter(); }},
      {"ipclassifier", true, {"algo-id", "reverse-porting", "prediction", "placement"},
       [] { return MakeIpClassifier(); }},
      {"dnsproxy", true, {"algo-id", "reverse-porting", "scale-out", "placement", "colocation"},
       [] { return MakeDnsProxy(); }},
      {"mazunat", true,
       {"reverse-porting", "prediction", "scale-out", "placement", "coalescing", "colocation"},
       [] { return MakeMazuNat(); }},
      {"udpcount", true,
       {"reverse-porting", "prediction", "scale-out", "placement", "coalescing", "colocation"},
       [] { return MakeUdpCount(); }},
      {"webgen", true,
       {"reverse-porting", "prediction", "scale-out", "placement", "coalescing", "colocation"},
       [] { return MakeWebGen(); }},
      // Extension elements beyond the paper's Table 2 suite.
      {"tokenbucket", true, {"prediction", "scale-out", "coalescing"},
       [] { return MakeTokenBucket(); }},
      {"synflood", true, {"prediction", "placement", "scale-out"},
       [] { return MakeSynFlood(); }},
  };
  return kRegistry;
}

std::optional<Program> FindElementByName(const std::string& name) {
  for (const auto& e : ElementRegistry()) {
    if (e.name == name) {
      return e.make();
    }
  }
  return std::nullopt;
}

Program MakeElementByName(const std::string& name) {
  return FindElementByName(name).value();
}

}  // namespace clara
