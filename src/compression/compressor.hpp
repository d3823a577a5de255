// The compressor abstraction shared by the lossless stage and all four
// lossy "Solutions" of Section 4, plus the ZFP/FPZIP baselines. All codecs
// compress arrays of doubles (a state-vector block is viewed as interleaved
// re/im doubles) into self-describing byte containers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::compression {

/// Error control model (Section 2.3 of the paper).
enum class BoundMode {
  kLossless,           ///< exact reconstruction
  kAbsolute,           ///< |d - d'| <= value
  kPointwiseRelative,  ///< |d - d'| <= value * |d|
};

struct ErrorBound {
  BoundMode mode = BoundMode::kLossless;
  double value = 0.0;

  static ErrorBound lossless() { return {BoundMode::kLossless, 0.0}; }
  static ErrorBound absolute(double e) { return {BoundMode::kAbsolute, e}; }
  static ErrorBound relative(double eps) {
    return {BoundMode::kPointwiseRelative, eps};
  }
};

/// Per-worker pooled codec working state (codec_scratch.hpp). Forward
/// declared so the interface stays light; only scratch-aware codecs and
/// hot-path callers include the definition.
struct CodecScratch;

class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::string name() const = 0;

  /// True if the codec honors this bound mode.
  virtual bool supports(BoundMode mode) const = 0;

  /// Compresses `data` under `bound` into a self-describing container.
  /// `scratch` is the caller's per-worker pooled working state: the
  /// bitstream never depends on it, but pooled codecs reach a
  /// zero-allocation steady state (the returned payload being compress()'s
  /// single, exact-sized allocation).
  virtual Bytes compress(std::span<const double> data, const ErrorBound& bound,
                         CodecScratch& scratch) const = 0;

  /// Decompresses into `out`, which must have the original element count
  /// (recorded in the container and queryable via element_count).
  virtual void decompress(ByteSpan compressed, std::span<double> out,
                          CodecScratch& scratch) const = 0;

  /// Scratch-less conveniences for cold callers: each builds a local
  /// CodecScratch and forwards, so the bytes are identical.
  Bytes compress(std::span<const double> data, const ErrorBound& bound) const;
  void decompress(ByteSpan compressed, std::span<double> out) const;

  /// Element count recorded in a container produced by this codec.
  virtual std::size_t element_count(ByteSpan compressed) const = 0;

  /// Convenience: decompress into a fresh vector.
  std::vector<double> decompress_to_vector(ByteSpan compressed) const {
    std::vector<double> out(element_count(compressed));
    decompress(compressed, out);
    return out;
  }
};

/// Factory over every codec in the repository, keyed by the names used in
/// the paper's figures: "zstd" (zx lossless), "sz" (Solution A),
/// "sz-complex" (Solution B), "qzc" (Solution C), "qzc-shuffle" (Solution D),
/// "zfp", "fpzip", plus "zfp-rans" (zfp with an order-0 rANS entropy stage
/// over the plane stream, under its own append-only id).
std::unique_ptr<Compressor> make_compressor(const std::string& name);

/// All codec names known to make_compressor.
std::vector<std::string> compressor_names();

/// Id of the lossless zx codec ("zstd") — the codec of every block at
/// ladder level 0.
inline constexpr std::uint8_t kLosslessCodecId = 0;

/// Stable numeric id of a codec name. Ids are part of the on-disk
/// checkpoint format (v3 stores one per block) and of BlockMeta, so the
/// mapping must never be reordered — new codecs append.
/// Throws std::invalid_argument for unknown names.
std::uint8_t codec_id(const std::string& name);

/// Inverse of codec_id. Throws std::invalid_argument for unknown ids.
const std::string& codec_name_of(std::uint8_t id);

}  // namespace cqs::compression
