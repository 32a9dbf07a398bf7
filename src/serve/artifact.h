// Versioned, checksummed model artifact store.
//
// A trained Clara bundle (LSTM+FC instruction predictor, SVM algorithm
// identifier, GBDT scale-out and colocation models, vocabulary, synthesis
// profile) is serialized into a single framed binary:
//
//   "CLRB" magic | u16 format version | u32 CRC-32 of payload | u32 payload
//   size | payload (TrainedBundle::SaveTo encoding)
//
// Bundles written by older releases end in one more frame of the same shape,
// which carried int8 weights that nothing reads any more:
//
//   "CLRQ" magic | u16 frame version | u32 CRC-32 of payload | u32 payload
//   size | payload
//
// The loader still checks that trailer's magic, version, size and CRC, then
// skips its payload: every existing bundle keeps loading, and a damaged
// trailer still rejects the whole artifact. New bundles are written without
// it.
//
// Loading verifies magic, version, size, and checksum before touching the
// payload, and the payload decoder is fully bounds-checked — truncated,
// corrupted, or version-bumped artifacts are rejected with a descriptive
// error, never a crash. Round trips are bit-identical, so a loaded bundle
// predicts exactly what the trained one did.
#ifndef SRC_SERVE_ARTIFACT_H_
#define SRC_SERVE_ARTIFACT_H_

#include <string>
#include <string_view>

#include "src/core/analyzer.h"

namespace clara {
namespace serve {

inline constexpr char kArtifactMagic[4] = {'C', 'L', 'R', 'B'};
inline constexpr uint16_t kArtifactVersion = 1;
inline constexpr char kQuantMagic[4] = {'C', 'L', 'R', 'Q'};
inline constexpr uint16_t kQuantVersion = 1;

// Artifact file name inside a --model-dir.
std::string BundlePath(const std::string& model_dir);

// Serializes the bundle with the artifact frame (magic/version/CRC).
std::string SerializeBundle(const TrainedBundle& bundle);

// Verifies the frame and decodes the payload. On failure returns false and
// sets *error; *bundle is left untouched.
bool DeserializeBundle(std::string_view data, TrainedBundle* bundle, std::string* error);

// File convenience wrappers (binary I/O; *error set on failure).
bool SaveBundleFile(const std::string& path, const TrainedBundle& bundle,
                    std::string* error);
bool LoadBundleFile(const std::string& path, TrainedBundle* bundle, std::string* error);

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_ARTIFACT_H_
