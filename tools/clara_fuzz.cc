// Differential compiler fuzzer for the Clara NIC toolchain.
//
// Synthesizes random NF programs (src/synth), runs each over a generated
// packet trace (src/workload) through three independent executors — the AST
// interpreter, the IR reference interpreter, and the compiled-ISA executor
// (src/nic/exec.h) — and cross-checks per-packet outputs and final state
// via RunDifferential (src/nic/diff.h).
//
// On a mismatch the failing case is shrunk with delta debugging (first over
// the packet subset, then over the program's statements) and written to a
// corpus directory as a replayable .case file. CI replays the committed
// corpus (tests/corpus) on every run, so once-broken cases stay fixed.
//
// A second mode fuzzes the serving subsystem's parsers: --serve-fuzz mutates
// valid wire-protocol payloads (requests, responses), model-bundle artifacts,
// and framed byte streams, then checks that every parser either rejects the
// bytes with an error or accepts them canonically (accepted bytes must
// re-encode to a stable fixed point) — and never crashes. Violations are
// written as kind=serve .case files replayable with --replay.
//
// Usage:
//   clara_fuzz [--iters=N] [--seed=S] [--pkts=M]
//              [--corpus-out=DIR]      write shrunk failures here
//              [--replay=FILE|DIR]     replay .case file(s) instead of fuzzing
//              [--serve-fuzz]          fuzz wire/artifact parsers instead
//
// CLARA_FUZZ_ITERS overrides the default iteration count (the nightly CI
// job raises it without touching ctest definitions). Exit code is nonzero
// iff any mismatch was observed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/lang/ast.h"
#include "src/lang/interp.h"
#include "src/lang/printer.h"
#include "src/ir/printer.h"
#include "src/nic/diff.h"
#include "src/serve/artifact.h"
#include "src/serve/proto.h"
#include "src/synth/synth.h"
#include "src/util/binio.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

// Everything needed to regenerate one fuzz case deterministically.
struct FuzzCase {
  // kind "diff" (default): differential executor case regenerated from the
  // synthesis seeds below. kind "serve": raw bytes for a serving-layer
  // parser, stored directly in `hex`.
  std::string kind = "diff";
  uint64_t seed = 1;       // synthesis RNG seed
  int index = 0;           // synthesis program index
  std::string profile = "default";  // default | uniform | generic
  uint64_t wl_seed = 42;   // workload RNG seed
  uint32_t wl_flows = 16;  // concurrent flows in the trace
  uint32_t wl_pkts = 32;   // trace length
  std::vector<uint32_t> pkts;  // kept trace indices (empty = all)
  std::vector<int> keep;       // kept pre-order statement indices (empty = all)
  bool has_keep = false;
  std::string target;  // serve cases: request | response | artifact | frame
  std::string hex;     // serve cases: the input bytes, hex-encoded
  std::string note;
};

SynthOptions OptionsFor(const std::string& profile) {
  SynthOptions opts;
  if (profile == "uniform") {
    opts.profile = UniformProfile();
  } else if (profile == "generic") {
    opts.profile = GenericProfile();
  } else {
    opts.profile = SynthProfile{};
  }
  return opts;
}

// ---- statement pruning (pre-order keep-index semantics) ----

int CountStmts(const std::vector<StmtPtr>& body) {
  int n = 0;
  for (const auto& s : body) {
    n += 1 + CountStmts(s->body) + CountStmts(s->else_body);
  }
  return n;
}

// Emits clones of the statements whose pre-order index is in `keep` (children
// of dropped statements are dropped with them; `idx` still advances through
// the whole tree so indices are stable under any keep-set).
void FilterBody(const std::vector<StmtPtr>& in, std::vector<StmtPtr>* out,
                int* idx, const std::set<int>& keep) {
  for (const auto& s : in) {
    int my = (*idx)++;
    std::vector<StmtPtr> body, else_body;
    FilterBody(s->body, &body, idx, keep);
    FilterBody(s->else_body, &else_body, idx, keep);
    if (keep.count(my) == 0) {
      continue;
    }
    StmtPtr c = CloneStmt(*s);
    c->body = std::move(body);
    c->else_body = std::move(else_body);
    out->push_back(std::move(c));
  }
}

Program PruneProgram(const Program& p, const std::set<int>& keep) {
  Program out;
  out.name = p.name;
  for (const auto& d : p.state) {
    out.state.push_back(d);
  }
  int idx = 0;
  FilterBody(p.body, &out.body, &idx, keep);
  return out;
}

// ---- case regeneration ----

Program GenProgram(const FuzzCase& c) {
  Rng rng(c.seed);
  Program p = SynthesizeProgram(rng, OptionsFor(c.profile), c.index);
  if (c.has_keep) {
    std::set<int> keep(c.keep.begin(), c.keep.end());
    p = PruneProgram(p, keep);
  }
  return p;
}

std::vector<Packet> GenPackets(const FuzzCase& c) {
  WorkloadSpec spec;
  spec.seed = c.wl_seed;
  spec.num_flows = c.wl_flows == 0 ? 1 : c.wl_flows;
  Trace tr = GenerateTrace(spec, c.wl_pkts);
  if (c.pkts.empty()) {
    return tr.packets;
  }
  std::vector<Packet> out;
  for (uint32_t i : c.pkts) {
    if (i < tr.packets.size()) {
      out.push_back(tr.packets[i]);
    }
  }
  return out;
}

// A case "fails" if the differential run diverges (setup failures are not
// interesting shrink targets: the shrunk program must still lower).
bool CaseFails(const Program& p, const std::vector<Packet>& pkts) {
  DiffResult r = RunDifferential(p, pkts);
  return !r.ok && !r.setup_failed;
}

// ---- delta debugging ----

// Classic ddmin over the kept-packet index list.
std::vector<uint32_t> DdminPackets(const Program& p, const std::vector<Packet>& trace,
                                   std::vector<uint32_t> indices) {
  auto subset_fails = [&](const std::vector<uint32_t>& idxs) {
    std::vector<Packet> pkts;
    for (uint32_t i : idxs) {
      pkts.push_back(trace[i]);
    }
    return CaseFails(p, pkts);
  };
  size_t n = 2;
  while (indices.size() >= 2) {
    size_t chunk = (indices.size() + n - 1) / n;
    bool reduced = false;
    for (size_t start = 0; start < indices.size(); start += chunk) {
      // Complement of [start, start+chunk).
      std::vector<uint32_t> rest;
      for (size_t i = 0; i < indices.size(); ++i) {
        if (i < start || i >= start + chunk) {
          rest.push_back(indices[i]);
        }
      }
      if (!rest.empty() && subset_fails(rest)) {
        indices = rest;
        n = n > 2 ? n - 1 : 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= indices.size()) {
        break;
      }
      n = std::min(indices.size(), n * 2);
    }
  }
  return indices;
}

// Greedy statement pruning to a 1-minimal keep-set: repeatedly try dropping
// each kept statement (subtrees go with their parent) while the case still
// fails and still lowers.
std::set<int> MinimizeStmts(const Program& p, const std::vector<Packet>& pkts) {
  int total = CountStmts(p.body);
  std::set<int> keep;
  for (int i = 0; i < total; ++i) {
    keep.insert(i);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = total - 1; i >= 0; --i) {
      if (keep.count(i) == 0) {
        continue;
      }
      std::set<int> cand = keep;
      cand.erase(i);
      if (CaseFails(PruneProgram(p, cand), pkts)) {
        keep = std::move(cand);
        changed = true;
      }
    }
  }
  return keep;
}

// ---- case file I/O ----

std::string JoinU32(const std::vector<uint32_t>& v) {
  std::ostringstream oss;
  for (size_t i = 0; i < v.size(); ++i) {
    oss << (i ? "," : "") << v[i];
  }
  return oss.str();
}

std::string JoinInt(const std::vector<int>& v) {
  std::ostringstream oss;
  for (size_t i = 0; i < v.size(); ++i) {
    oss << (i ? "," : "") << v[i];
  }
  return oss.str();
}

std::string HexEncode(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* bytes) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  bytes->clear();
  bytes->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nib(hex[i]), lo = nib(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    bytes->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool WriteCaseFile(const FuzzCase& c, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# clara_fuzz regression case (replay: clara_fuzz --replay=<this file>)\n";
  if (c.kind == "serve") {
    out << "kind=serve\n";
    out << "target=" << c.target << "\n";
    out << "hex=" << c.hex << "\n";
    if (!c.note.empty()) {
      out << "note=" << c.note << "\n";
    }
    return true;
  }
  out << "seed=" << c.seed << "\n";
  out << "index=" << c.index << "\n";
  out << "profile=" << c.profile << "\n";
  out << "wl_seed=" << c.wl_seed << "\n";
  out << "wl_flows=" << c.wl_flows << "\n";
  out << "wl_pkts=" << c.wl_pkts << "\n";
  if (!c.pkts.empty()) {
    out << "pkts=" << JoinU32(c.pkts) << "\n";
  }
  if (c.has_keep) {
    out << "keep=" << JoinInt(c.keep) << "\n";
  }
  if (!c.note.empty()) {
    out << "note=" << c.note << "\n";
  }
  return true;
}

bool ParseCaseFile(const std::string& path, FuzzCase* c) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "clara_fuzz: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, eq);
    std::string val = line.substr(eq + 1);
    auto parse_list_u32 = [](const std::string& s) {
      std::vector<uint32_t> v;
      std::stringstream ss(s);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) {
          v.push_back(static_cast<uint32_t>(std::stoul(tok)));
        }
      }
      return v;
    };
    if (key == "kind") {
      c->kind = val;
    } else if (key == "target") {
      c->target = val;
    } else if (key == "hex") {
      c->hex = val;
    } else if (key == "seed") {
      c->seed = std::stoull(val);
    } else if (key == "index") {
      c->index = std::stoi(val);
    } else if (key == "profile") {
      c->profile = val;
    } else if (key == "wl_seed") {
      c->wl_seed = std::stoull(val);
    } else if (key == "wl_flows") {
      c->wl_flows = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "wl_pkts") {
      c->wl_pkts = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "pkts") {
      c->pkts = parse_list_u32(val);
    } else if (key == "keep") {
      c->has_keep = true;
      for (uint32_t k : parse_list_u32(val)) {
        c->keep.push_back(static_cast<int>(k));
      }
    } else if (key == "note") {
      c->note = val;
    }
  }
  return true;
}

// ---- serve-layer parser fuzzing ----

// Parsers for untrusted bytes must either reject with an error or accept
// canonically: accepted bytes re-encode to a stable fixed point. (Crashes
// and hangs fail the process itself.)
bool CheckServeBytes(const std::string& target, const std::string& bytes,
                     std::string* why) {
  std::string err;
  if (target == "request") {
    serve::InsightRequest req;
    if (!serve::ParseRequest(bytes, &req, &err)) {
      return true;  // graceful rejection
    }
    std::string e1 = serve::EncodeRequest(req);
    serve::InsightRequest r2;
    if (!serve::ParseRequest(e1, &r2, &err)) {
      *why = "accepted request failed to re-parse: " + err;
      return false;
    }
    if (serve::EncodeRequest(r2) != e1) {
      *why = "request re-encoding is not a fixed point";
      return false;
    }
    return true;
  }
  if (target == "response") {
    serve::InsightResponse resp;
    if (!serve::ParseResponse(bytes, &resp, &err)) {
      return true;
    }
    std::string e1 = serve::EncodeResponse(resp);
    serve::InsightResponse r2;
    if (!serve::ParseResponse(e1, &r2, &err)) {
      *why = "accepted response failed to re-parse: " + err;
      return false;
    }
    if (serve::EncodeResponse(r2) != e1) {
      *why = "response re-encoding is not a fixed point";
      return false;
    }
    return true;
  }
  if (target == "artifact") {
    TrainedBundle bundle;
    if (!serve::DeserializeBundle(bytes, &bundle, &err)) {
      return true;
    }
    std::string e1 = serve::SerializeBundle(bundle);
    TrainedBundle b2;
    if (!serve::DeserializeBundle(e1, &b2, &err)) {
      *why = "accepted bundle failed to round-trip: " + err;
      return false;
    }
    return true;
  }
  if (target == "control") {
    serve::ControlRequest creq;
    if (serve::ParseControlRequest(bytes, &creq, &err)) {
      std::string e1 = serve::EncodeControlRequest(creq);
      serve::ControlRequest c2;
      if (!serve::ParseControlRequest(e1, &c2, &err)) {
        *why = "accepted control request failed to re-parse: " + err;
        return false;
      }
      if (serve::EncodeControlRequest(c2) != e1) {
        *why = "control request re-encoding is not a fixed point";
        return false;
      }
      return true;
    }
    serve::ControlResponse cresp;
    if (!serve::ParseControlResponse(bytes, &cresp, &err)) {
      return true;  // neither message; graceful rejection
    }
    std::string e1 = serve::EncodeControlResponse(cresp);
    serve::ControlResponse c2;
    if (!serve::ParseControlResponse(e1, &c2, &err)) {
      *why = "accepted control response failed to re-parse: " + err;
      return false;
    }
    if (serve::EncodeControlResponse(c2) != e1) {
      *why = "control response re-encoding is not a fixed point";
      return false;
    }
    return true;
  }
  if (target == "frame") {
    // Feed in deterministic uneven chunks; every yielded frame must respect
    // the size cap and total consumption must terminate.
    serve::FrameReader reader;
    Rng chunks(Fnv1a64(bytes) | 1);
    size_t off = 0;
    std::string frame;
    size_t frames = 0;
    while (off < bytes.size()) {
      size_t n = std::min<size_t>(bytes.size() - off,
                                  1 + chunks.NextBounded(4096));
      reader.Feed(bytes.data() + off, n);
      off += n;
      while (reader.Next(&frame)) {
        ++frames;
        if (frame.size() > serve::kMaxFrameBytes) {
          *why = "frame reader yielded an oversized frame";
          return false;
        }
      }
    }
    reader.TakeOversized();
    (void)frames;
    return true;
  }
  *why = "unknown serve target: " + target;
  return false;
}

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string s(rng.NextBounded(max_len + 1), '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextU64() & 0xff);
  }
  return s;
}

// One valid base input per target, then mutated below.
std::string BaseServeBytes(Rng& rng, const std::string& target,
                           const std::string& artifact_bytes) {
  if (target == "request") {
    serve::InsightRequest req;
    req.id = rng.NextU64();
    req.element = RandomBytes(rng, 24);
    req.source = RandomBytes(rng, 120);
    req.workload.num_flows = static_cast<uint32_t>(1 + rng.NextBounded(serve::kMaxRequestFlows));
    req.workload.zipf_s = rng.NextDouble();
    req.workload.seed = rng.NextU64();
    req.deadline_ms = static_cast<uint32_t>(rng.NextBounded(5000));
    if (rng.NextBounded(2) == 0) {  // half traced: exercises the optional section
      req.trace_id = rng.NextU64();
    }
    if (rng.NextBounded(2) == 0) {  // half prioritized: second optional section
      req.priority = static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    return serve::EncodeRequest(req);
  }
  if (target == "response") {
    serve::InsightResponse resp;
    resp.id = rng.NextU64();
    resp.error = static_cast<serve::ErrorCode>(rng.NextBounded(11));  // incl. kShedded
    resp.error_message = RandomBytes(rng, 64);
    resp.nf_name = RandomBytes(rng, 24);
    resp.accelerator = RandomBytes(rng, 16);
    resp.suggested_cores = static_cast<int>(rng.NextInt(-4, 64));
    resp.total_compute = rng.NextDouble() * 1000;
    resp.naive_mpps = rng.NextDouble() * 100;
    resp.rendered = RandomBytes(rng, 200);
    if (rng.NextBounded(2) == 0) {  // half carry the optional breakdown section
      resp.breakdown.valid = true;
      resp.breakdown.trace_id = rng.NextU64();
      resp.breakdown.cache_hit = rng.NextBounded(2) == 0;
      resp.breakdown.queue_us = static_cast<uint32_t>(rng.NextU64());
      resp.breakdown.infer_us = static_cast<uint32_t>(rng.NextU64());
      resp.breakdown.total_us = static_cast<uint32_t>(rng.NextU64());
    }
    if (rng.NextBounded(2) == 0) {  // half carry the optional retry-hint section
      resp.retry_after_ms = static_cast<uint32_t>(1 + rng.NextBounded(60000));
    }
    return serve::EncodeResponse(resp);
  }
  if (target == "artifact") {
    return artifact_bytes;
  }
  if (target == "control") {
    uint64_t pick = rng.NextBounded(3);
    if (pick == 0) {
      serve::ControlRequest creq;
      creq.op = static_cast<serve::ControlOp>(rng.NextBounded(4));  // incl. kReload
      return serve::EncodeControlRequest(creq);
    }
    if (pick == 1) {
      // Reload frames get a dedicated generator arm: they are the only
      // state-changing control op, so their parser deserves the densest
      // adversarial coverage (Mutate() then flips/truncates/extends them).
      serve::ControlRequest creq;
      creq.op = serve::ControlOp::kReload;
      return serve::EncodeControlRequest(creq);
    }
    serve::ControlResponse cresp;
    cresp.op = static_cast<serve::ControlOp>(rng.NextBounded(4));
    cresp.ok = rng.NextBounded(2) == 0;
    cresp.error = RandomBytes(rng, 32);
    cresp.json = RandomBytes(rng, 160);
    return serve::EncodeControlResponse(cresp);
  }
  std::string stream;
  size_t n = 1 + rng.NextBounded(3);
  for (size_t i = 0; i < n; ++i) {
    serve::AppendFrame(&stream, RandomBytes(rng, 300));
  }
  return stream;
}

void Mutate(Rng& rng, std::string* bytes) {
  size_t edits = 1 + rng.NextBounded(8);
  for (size_t e = 0; e < edits; ++e) {
    if (bytes->empty()) {
      bytes->push_back(static_cast<char>(rng.NextU64() & 0xff));
      continue;
    }
    switch (rng.NextBounded(4)) {
      case 0:  // flip a byte
        (*bytes)[rng.NextBounded(bytes->size())] ^=
            static_cast<char>(1 + rng.NextBounded(255));
        break;
      case 1:  // truncate
        bytes->resize(rng.NextBounded(bytes->size()));
        break;
      case 2:  // insert a byte
        bytes->insert(bytes->begin() + rng.NextBounded(bytes->size() + 1),
                      static_cast<char>(rng.NextU64() & 0xff));
        break;
      default:  // append garbage
        bytes->append(RandomBytes(rng, 8));
        break;
    }
  }
}

int ServeFuzz(uint64_t seed, int iters, const std::string& corpus_out) {
  const char* targets[] = {"request", "response", "artifact", "frame", "control"};
  // A default-constructed (untrained) bundle serializes quickly and still
  // exercises every section parser.
  std::string artifact_bytes = serve::SerializeBundle(TrainedBundle{});
  Rng rng(seed);
  int failures = 0;
  for (int i = 0; i < iters; ++i) {
    std::string target = targets[i % 5];
    std::string bytes = BaseServeBytes(rng, target, artifact_bytes);
    if (rng.NextBounded(8) != 0) {  // 1-in-8 stays unmutated (accept path)
      Mutate(rng, &bytes);
    }
    std::string why;
    if (CheckServeBytes(target, bytes, &why)) {
      continue;
    }
    ++failures;
    std::printf("[SERVE-MISMATCH] iter=%d target=%s: %s\n", i, target.c_str(),
                why.c_str());
    if (!corpus_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(corpus_out, ec);
      FuzzCase c;
      c.kind = "serve";
      c.target = target;
      c.hex = HexEncode(bytes);
      c.note = why;
      std::ostringstream name;
      name << corpus_out << "/serve_" << seed << "_" << i << ".case";
      if (WriteCaseFile(c, name.str())) {
        std::printf("  wrote %s\n", name.str().c_str());
      }
    }
  }
  std::printf("clara_fuzz --serve-fuzz: %d iteration(s), %d violation(s)\n", iters,
              failures);
  return failures == 0 ? 0 : 1;
}

// ---- modes ----

int ReplayPath(const std::string& path, bool dump) {
  std::vector<std::string> files;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& e : std::filesystem::directory_iterator(path)) {
      if (e.path().extension() == ".case") {
        files.push_back(e.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  int failures = 0;
  for (const std::string& f : files) {
    FuzzCase c;
    if (!ParseCaseFile(f, &c)) {
      ++failures;
      continue;
    }
    if (c.kind == "serve") {
      std::string bytes, why;
      if (!HexDecode(c.hex, &bytes)) {
        ++failures;
        std::printf("[FAIL] %s: bad hex payload\n", f.c_str());
      } else if (CheckServeBytes(c.target, bytes, &why)) {
        std::printf("[ OK ] %s (%s, %zu bytes)\n", f.c_str(), c.target.c_str(),
                    bytes.size());
      } else {
        ++failures;
        std::printf("[FAIL] %s: %s\n", f.c_str(), why.c_str());
      }
      continue;
    }
    Program p = GenProgram(c);
    std::vector<Packet> pkts = GenPackets(c);
    if (dump) {
      std::printf("---- %s: program ----\n%s\n", f.c_str(), ToSource(p).c_str());
      NfInstance inst(CloneProgram(p), 1);
      if (inst.ok()) {
        std::printf("---- lowered IR ----\n%s\n", ToString(inst.module()).c_str());
      }
    }
    DiffResult r = RunDifferential(p, pkts);
    if (r.ok) {
      std::printf("[ OK ] %s (%llu packets)\n", f.c_str(),
                  static_cast<unsigned long long>(r.packets_run));
    } else {
      ++failures;
      std::printf("[FAIL] %s: %s (packet %d)\n", f.c_str(), r.detail.c_str(),
                  r.packet_index);
    }
  }
  std::printf("clara_fuzz replay: %zu case(s), %d failure(s)\n", files.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

int Fuzz(uint64_t seed, int iters, uint32_t pkts, const std::string& corpus_out) {
  const char* profiles[] = {"default", "uniform", "generic"};
  int failures = 0;
  uint64_t total_packets = 0;
  for (int i = 0; i < iters; ++i) {
    FuzzCase c;
    c.seed = seed + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    c.index = i;
    c.profile = profiles[i % 3];
    c.wl_seed = seed ^ (0xc2b2ae3d27d4eb4fULL + i);
    c.wl_flows = 4 + static_cast<uint32_t>(i % 61);
    c.wl_pkts = pkts;
    Program prog = GenProgram(c);
    std::vector<Packet> trace = GenPackets(c);
    DiffResult r = RunDifferential(prog, trace);
    total_packets += r.packets_run;
    if (r.ok) {
      continue;
    }
    ++failures;
    std::printf("[MISMATCH] iter=%d seed=%llu profile=%s: %s (packet %d)\n", i,
                static_cast<unsigned long long>(c.seed), c.profile.c_str(),
                r.detail.c_str(), r.packet_index);
    if (r.setup_failed) {
      continue;  // synthesizer/lowering bug; nothing to shrink
    }
    // Shrink: packets first (cheapest), then statements.
    std::vector<uint32_t> all;
    for (uint32_t k = 0; k < trace.size(); ++k) {
      all.push_back(k);
    }
    c.pkts = DdminPackets(prog, trace, all);
    std::vector<Packet> small;
    for (uint32_t k : c.pkts) {
      small.push_back(trace[k]);
    }
    std::set<int> keep = MinimizeStmts(prog, small);
    if (static_cast<int>(keep.size()) < CountStmts(prog.body)) {
      c.has_keep = true;
      c.keep.assign(keep.begin(), keep.end());
    }
    c.note = r.detail;
    std::printf("  shrunk to %zu packet(s), %zu statement(s)\n", c.pkts.size(),
                keep.size());
    if (!corpus_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(corpus_out, ec);
      std::ostringstream name;
      name << corpus_out << "/case_" << c.seed << "_" << c.index << ".case";
      if (WriteCaseFile(c, name.str())) {
        std::printf("  wrote %s\n", name.str().c_str());
      }
    }
  }
  std::printf(
      "clara_fuzz: %d iteration(s), %llu packet(s) cross-checked, %d "
      "mismatch(es)\n",
      iters, static_cast<unsigned long long>(total_packets), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace clara

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int iters = 0;
  uint32_t pkts = 32;
  bool dump = false;
  bool serve_fuzz = false;
  std::string replay, corpus_out;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&a](const char* pfx) { return a.substr(std::strlen(pfx)); };
    if (a == "--dump") {
      dump = true;
    } else if (a == "--serve-fuzz") {
      serve_fuzz = true;
    } else if (a.rfind("--seed=", 0) == 0) {
      seed = std::stoull(val("--seed="));
    } else if (a.rfind("--iters=", 0) == 0) {
      iters = std::stoi(val("--iters="));
    } else if (a.rfind("--pkts=", 0) == 0) {
      pkts = static_cast<uint32_t>(std::stoul(val("--pkts=")));
    } else if (a.rfind("--replay=", 0) == 0) {
      replay = val("--replay=");
    } else if (a.rfind("--corpus-out=", 0) == 0) {
      corpus_out = val("--corpus-out=");
    } else {
      std::fprintf(stderr,
                   "usage: clara_fuzz [--iters=N] [--seed=S] [--pkts=M]\n"
                   "                  [--corpus-out=DIR] [--replay=FILE|DIR]\n"
                   "                  [--serve-fuzz]\n");
      return 2;
    }
  }
  if (!replay.empty()) {
    return clara::ReplayPath(replay, dump);
  }
  if (iters == 0) {
    const char* env = std::getenv("CLARA_FUZZ_ITERS");
    iters = env != nullptr ? std::atoi(env) : 200;
    if (iters <= 0) {
      iters = 200;
    }
  }
  if (serve_fuzz) {
    return clara::ServeFuzz(seed, iters, corpus_out);
  }
  return clara::Fuzz(seed, iters, pkts, corpus_out);
}
