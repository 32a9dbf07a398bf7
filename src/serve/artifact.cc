#include "src/serve/artifact.h"

#include <cstdio>
#include <cstring>

#include "src/util/binio.h"
#include "src/util/fault.h"

namespace clara {
namespace serve {

std::string BundlePath(const std::string& model_dir) {
  if (model_dir.empty() || model_dir.back() == '/') {
    return model_dir + "clara_bundle.bin";
  }
  return model_dir + "/clara_bundle.bin";
}

std::string SerializeBundle(const TrainedBundle& bundle) {
  BinWriter payload;
  bundle.SaveTo(payload);
  BinWriter frame;
  frame.Bytes(kArtifactMagic, sizeof(kArtifactMagic));
  frame.U16(kArtifactVersion);
  frame.U32(Crc32(payload.data()));
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.Bytes(payload.data().data(), payload.size());
  return frame.Take();
}

namespace {

// Checks the trailing CLRQ frame of a bundle written by an older release.
// `tail` is everything after the main payload; empty tail == no trailer
// (ok). The payload is skipped once its CRC matches, but any malformation
// is still a hard error: a damaged file must not load.
bool CheckQuantTrailer(std::string_view tail, std::string* error) {
  if (tail.empty()) {
    return true;
  }
  BinReader r(tail);
  char magic[4];
  if (!r.Raw(magic, sizeof(magic)) || std::memcmp(magic, kQuantMagic, 4) != 0) {
    *error = "artifact: trailing bytes are not a quantized-weights frame";
    return false;
  }
  uint16_t version = r.U16();
  if (r.ok() && version != kQuantVersion) {
    *error = "artifact: quantized frame version " + std::to_string(version) +
             " unsupported (expected " + std::to_string(kQuantVersion) + ")";
    return false;
  }
  uint32_t crc = r.U32();
  uint32_t size = r.U32();
  if (!r.ok() || size != r.remaining()) {
    *error = "artifact: quantized frame truncated (payload size " +
             std::to_string(size) + ", remaining " +
             std::to_string(r.ok() ? r.remaining() : 0) + ")";
    return false;
  }
  uint32_t actual = Crc32(tail.substr(r.offset()));
  if (actual != crc) {
    char buf[80];
    std::snprintf(buf, sizeof(buf),
                  "artifact: quantized frame CRC mismatch (stored %08x, computed %08x)",
                  crc, actual);
    *error = buf;
    return false;
  }
  return true;
}

}  // namespace

bool DeserializeBundle(std::string_view data, TrainedBundle* bundle, std::string* error) {
  // Fault site artifact.load: the whole deserialization fails as if the file
  // were unreadable — hot reload must reject and keep the live model.
  if (fault::Armed() && fault::ShouldFail(fault::Site::kArtifactLoad)) {
    *error = "artifact: injected fault (artifact.load)";
    return false;
  }
  BinReader r(data);
  char magic[4];
  if (!r.Raw(magic, sizeof(magic)) || std::memcmp(magic, kArtifactMagic, 4) != 0) {
    *error = "artifact: bad magic (not a Clara bundle)";
    return false;
  }
  uint16_t version = r.U16();
  if (r.ok() && version != kArtifactVersion) {
    *error = "artifact: format version " + std::to_string(version) +
             " unsupported (expected " + std::to_string(kArtifactVersion) + ")";
    return false;
  }
  uint32_t crc = r.U32();
  uint32_t size = r.U32();
  // Bytes beyond the main payload are an older release's CLRQ trailer,
  // checked below; fewer bytes than the payload claims is a truncated
  // artifact.
  if (!r.ok() || size > r.remaining()) {
    *error = "artifact: truncated (payload size " + std::to_string(size) +
             ", remaining " + std::to_string(r.ok() ? r.remaining() : 0) + ")";
    return false;
  }
  std::string_view payload = data.substr(r.offset(), size);
  uint32_t actual = Crc32(payload);
  // Fault site artifact.crc: report a checksum mismatch on an intact
  // payload, exercising the reject-and-keep-serving path.
  if (fault::Armed() && fault::ShouldFail(fault::Site::kArtifactCrc)) {
    actual = ~actual;
  }
  if (actual != crc) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "artifact: CRC mismatch (stored %08x, computed %08x)",
                  crc, actual);
    *error = buf;
    return false;
  }
  BinReader body(payload);
  TrainedBundle loaded;
  if (!loaded.LoadFrom(body)) {
    *error = "artifact: " + body.error();
    return false;
  }
  if (!CheckQuantTrailer(data.substr(r.offset() + size), error)) {
    return false;
  }
  *bundle = std::move(loaded);
  return true;
}

bool SaveBundleFile(const std::string& path, const TrainedBundle& bundle,
                    std::string* error) {
  std::string data = SerializeBundle(bundle);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open '" + path + "' for writing";
    return false;
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  bool ok = std::fclose(f) == 0 && written == data.size();
  if (!ok) {
    *error = "short write to '" + path + "'";
  }
  return ok;
}

bool LoadBundleFile(const std::string& path, TrainedBundle* bundle, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open '" + path + "' (train first with --model-dir?)";
    return false;
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return DeserializeBundle(data, bundle, error);
}

}  // namespace serve
}  // namespace clara
