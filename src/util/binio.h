// Bounds-checked binary serialization primitives for model artifacts and the
// serve wire format (src/serve/).
//
// Encoding is little-endian and position-independent: fixed-width integers,
// doubles as raw IEEE-754 bit patterns (round trips are bit-identical, which
// the artifact store's "deserialized models predict byte-equal" guarantee
// relies on), and length-prefixed strings/vectors.
//
// BinReader never trusts a length field: every read is checked against the
// remaining byte count, and a claimed vector length larger than the remaining
// payload fails instead of allocating. After any failed read the reader is
// poisoned (ok() == false), every subsequent read returns a zero value, and
// error() describes the first failure — callers can therefore decode a whole
// struct and check ok() once at the end.
#ifndef SRC_UTIL_BINIO_H_
#define SRC_UTIL_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/fault.h"

namespace clara {

class BinWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { PutLe(v, 2); }
  void U32(uint32_t v) { PutLe(v, 4); }
  void U64(uint64_t v) { PutLe(v, 8); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  void VecF64(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (double x : v) {
      F64(x);
    }
  }
  void VecU64(const std::vector<uint64_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (uint64_t x : v) {
      U64(x);
    }
  }
  void VecI32(const std::vector<int>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (int x : v) {
      I32(x);
    }
  }
  void VecStr(const std::vector<std::string>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const auto& s : v) {
      Str(s);
    }
  }
  void MatF64(const std::vector<std::vector<double>>& m) {
    U32(static_cast<uint32_t>(m.size()));
    for (const auto& row : m) {
      VecF64(row);
    }
  }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

class BinReader {
 public:
  BinReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), n_(n) {
    // Fault injection (binio.read site): one decision per reader, taken at
    // construction so the probability is per decode operation rather than
    // per field. The injected reader poisons itself on its first read, which
    // exercises exactly the truncated/corrupt-input error paths.
    if (fault::Armed() && fault::ShouldFail(fault::Site::kBinioRead)) {
      inject_fault_ = true;
    }
  }
  explicit BinReader(std::string_view s) : BinReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t remaining() const { return n_ - off_; }
  size_t offset() const { return off_; }

  // Marks the reader failed (loaders use it for semantic errors, e.g. a
  // weight matrix whose size disagrees with the stored dimensions).
  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " (at byte " + std::to_string(off_) + ")";
    }
  }

  uint8_t U8() { return static_cast<uint8_t>(GetLe(1, "u8")); }
  uint16_t U16() { return static_cast<uint16_t>(GetLe(2, "u16")); }
  uint32_t U32() { return static_cast<uint32_t>(GetLe(4, "u32")); }
  uint64_t U64() { return GetLe(8, "u64"); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }

  std::string Str() {
    CheckInjected();
    uint32_t len = U32();
    if (!ok_ || len > remaining()) {
      Fail("string length " + std::to_string(len) + " exceeds remaining bytes");
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }

  // Reads `n` raw bytes into out; fails when fewer remain.
  bool Raw(void* out, size_t n) {
    CheckInjected();
    if (!ok_ || n > remaining()) {
      Fail("raw read of " + std::to_string(n) + " bytes exceeds remaining");
      return false;
    }
    if (n > 0) {  // an empty vector's data() may be null, which memcpy forbids
      std::memcpy(out, p_ + off_, n);
    }
    off_ += n;
    return true;
  }

  bool VecF64(std::vector<double>* out) { return ReadVec(out, 8, [this] { return F64(); }); }
  bool VecU64(std::vector<uint64_t>* out) { return ReadVec(out, 8, [this] { return U64(); }); }
  bool VecI32(std::vector<int>* out) { return ReadVec(out, 4, [this] { return I32(); }); }
  bool VecStr(std::vector<std::string>* out) {
    out->clear();
    uint32_t len = U32();
    // Every serialized string costs at least its 4-byte length prefix.
    if (!ok_ || static_cast<uint64_t>(len) * 4 > remaining()) {
      Fail("vector length " + std::to_string(len) + " exceeds remaining bytes");
      return false;
    }
    out->reserve(len);
    for (uint32_t i = 0; i < len && ok_; ++i) {
      out->push_back(Str());
    }
    return ok_;
  }
  bool MatF64(std::vector<std::vector<double>>* out) {
    out->clear();
    uint32_t rows = U32();
    // Every serialized row costs at least its 4-byte length prefix.
    if (!ok_ || static_cast<uint64_t>(rows) * 4 > remaining()) {
      Fail("matrix row count " + std::to_string(rows) + " exceeds remaining bytes");
      return false;
    }
    out->reserve(rows);
    for (uint32_t i = 0; i < rows && ok_; ++i) {
      std::vector<double> row;
      VecF64(&row);
      out->push_back(std::move(row));
    }
    return ok_;
  }

 private:
  // Fires the construction-time fault decision on the first actual read, so
  // the injected failure flows through the normal poisoned-reader protocol.
  void CheckInjected() {
    if (inject_fault_) {
      inject_fault_ = false;
      Fail("injected fault (binio.read)");
    }
  }

  uint64_t GetLe(int bytes, const char* what) {
    CheckInjected();
    if (!ok_ || static_cast<size_t>(bytes) > remaining()) {
      Fail(std::string("truncated ") + what);
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += bytes;
    return v;
  }

  template <typename T, typename ReadFn>
  bool ReadVec(std::vector<T>* out, size_t elem_bytes, const ReadFn& read) {
    out->clear();
    uint32_t len = U32();
    if (!ok_ || static_cast<uint64_t>(len) * elem_bytes > remaining()) {
      Fail("vector length " + std::to_string(len) + " exceeds remaining bytes");
      return false;
    }
    out->reserve(len);
    for (uint32_t i = 0; i < len && ok_; ++i) {
      out->push_back(read());
    }
    return ok_;
  }

  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
  bool inject_fault_ = false;
  std::string error_;
};

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected). Crc32("123456789")
// == 0xCBF43926. Chainable: pass the previous result as `seed`.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

// FNV-1a 64-bit content hash (serve-cache keys).
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 1469598103934665603ULL);
inline uint64_t Fnv1a64(std::string_view s, uint64_t seed = 1469598103934665603ULL) {
  return Fnv1a64(s.data(), s.size(), seed);
}

}  // namespace clara

#endif  // SRC_UTIL_BINIO_H_
