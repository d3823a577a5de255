// Golden compressed-bitstream digests: SHA-256 of every registry codec's
// output on the three shared fixtures (common/fixtures.hpp, 4096 doubles,
// seeds 101/202/303) under every bound mode the codec supports.
//
// These digests were recorded from the pre-hot-path-overhaul implementation
// and pin the wire format: checkpoints store these containers and
// BlockCache keys hash them, so ANY byte drift invalidates persisted state.
// A performance change must never alter them; a deliberate format change
// must bump the checkpoint format (and re-record, with a changelog entry).
//
// Verified in two places: tests/golden_blob_test.cpp (ctest) and the
// bench_micro_codecs --json drift gate in CI.
#pragma once

#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/sha256.hpp"
#include "compression/compressor.hpp"

namespace cqs::compression {

struct GoldenBlob {
  const char* codec;
  const char* mode;     // "lossless" | "abs" | "rel"
  const char* fixture;  // "spiky" | "dense" | "sparse"
  const char* sha256;
};

/// Fixture parameters shared with the benches: size and seeds are part of
/// the golden identity — do not change them without re-recording.
inline constexpr std::size_t kGoldenFixtureSize = 4096;
inline constexpr std::uint64_t kGoldenSpikySeed = 101;
inline constexpr std::uint64_t kGoldenDenseSeed = 202;
inline constexpr std::uint64_t kGoldenSparseSeed = 303;

/// Bounds used for the non-lossless modes.
inline constexpr double kGoldenAbsoluteBound = 1e-4;
inline constexpr double kGoldenRelativeBound = 1e-3;

inline constexpr GoldenBlob kGoldenBlobs[] = {
    {"zstd", "lossless", "spiky",
     "2c84b532d31db31f7ce4e49246a04544a13b1e21cc1a491cbe40d5d68f7ba300"},
    {"zstd", "lossless", "dense",
     "0a296346250d2bac336c3aa4417f7990d4f4b2de30bd57f25805db54e06f126a"},
    {"zstd", "lossless", "sparse",
     "673866ab3c4d265bf923d5e6825d43cc120f0cdf2ff31da9fef147685915a28b"},
    {"sz", "abs", "spiky",
     "d38654da9b31c1445671e3277d79c5c81e64a92d3a563dec6e2a6b9017d2635b"},
    {"sz", "abs", "dense",
     "8acc9700263c27da7e5e3f6fea43bc5f235c5ae417332bc28564d1a829f16ba5"},
    {"sz", "abs", "sparse",
     "976fc26dc9cdf63aa1671df4d4a7a81eeade0858fce19fd8e18d8cbb55916de9"},
    {"sz", "rel", "spiky",
     "510b8183bd4e6dd1ac80fdb3200b0c71d832fb6e70d35e001d5345aa0ee9d8d6"},
    {"sz", "rel", "dense",
     "c9612a5e406a58cdbf99490be03f477fe0aacb512712af5c8b58858e03c51f56"},
    {"sz", "rel", "sparse",
     "ea931a4bafd2183e771b2fbd3d6f8b43ad48c3bff900fcda6eb37ee055d9d2ff"},
    {"sz-complex", "abs", "spiky",
     "b38dbabea1b009436a1ed4becb1d89d2989afd584bb376368bd5eb3e8bf11428"},
    {"sz-complex", "abs", "dense",
     "15fe1bd208a3a2a2fec86c8b9e71a7dcbfcdcf55db6fd36104eb13b0aba795dd"},
    {"sz-complex", "abs", "sparse",
     "337651b4bcf3da5b8fe877b8c26467a008140f1685a88a3445d5f8e9b5d64220"},
    {"sz-complex", "rel", "spiky",
     "bd6a034e1248205ba6f8e6281251048b734fbc429bbdc1eb5fa7adcef607264c"},
    {"sz-complex", "rel", "dense",
     "4f80b93a4fd9f084115bb542adbe34e5db06b5f354be389aea3a6097e2e134e5"},
    {"sz-complex", "rel", "sparse",
     "bfebb7cee8d7ad40bda3e39ce6820816e018abc168ca43fc45f3d01ab6a17356"},
    {"qzc", "rel", "spiky",
     "c5e0dd68addfb95a9250e31c95655593f300f4093b850bd80f5780d73659e72c"},
    {"qzc", "rel", "dense",
     "686fe52a5b313766002bae2b7e8456e289ba93d2bf1141b0646f4925b0048ef4"},
    {"qzc", "rel", "sparse",
     "67cae6b58d8b8757a700d067e79155456df58ea2dce78930f3f4a83f71383de0"},
    {"qzc-shuffle", "rel", "spiky",
     "db38b8bff031ad2dfaf8f3cadf830636e24d602430721b46dd907665c6878f37"},
    {"qzc-shuffle", "rel", "dense",
     "6dc201a429a385976c23b22d21f486e8d8d01dfbd170bc6d46fad83d2bf2fc67"},
    {"qzc-shuffle", "rel", "sparse",
     "400a71edb85854f52096a6745c59ede6a7a15d63033c7793f45d86a6cdaa4fc0"},
    {"zfp", "abs", "spiky",
     "19dea687fbcdbfd0da68844ed97ab5d26ff2c40fe9a8d827dec14d045de6cf35"},
    {"zfp", "abs", "dense",
     "82a80c89c910f66e1ecb787b94d41d0315898f48f4d783243072a315fda886a6"},
    {"zfp", "abs", "sparse",
     "8999ec7c4fdabe3560bd12d73de16ea5cfddd1c45a27b2f314de15886f80f2c2"},
    {"zfp", "rel", "spiky",
     "36d37b8e0c9138d693dd001e6b4025dd79d8c01634a73afe3f2d2f5faadae2b3"},
    {"zfp", "rel", "dense",
     "39335ced7958261291aa27b4db9f2545d5a61ea9f87d8bf8556a80cb83f59d57"},
    {"zfp", "rel", "sparse",
     "02feb370630f0d00ff2056c63770ccf04f6b4705955b4278cda0f9863103c125"},
    {"fpzip", "lossless", "spiky",
     "e2a0b2f3682ca65bf45904564c94188ad3c3db0ec0ab9761d710b43f892189aa"},
    {"fpzip", "lossless", "dense",
     "35c004caf4d83b4b1e059a24563b9450abe70f61161b7ac751c5703445ba21b2"},
    {"fpzip", "lossless", "sparse",
     "93c14267d258264d9106cfd26cdb0f3cac571e1225833861fbaf5ae17f129409"},
    {"fpzip", "rel", "spiky",
     "46acd876a804a9f6a310832822dbded0e80ca44b87206494e81107bd22c3e3f5"},
    {"fpzip", "rel", "dense",
     "b7c05ad4662fb3a6725308568d36ee905517eeff7f94bdf5d4068421d0f8d768"},
    {"fpzip", "rel", "sparse",
     "afd78dabe1eef0eb6db78522d5cb80280abb44394b671b029887b5d0356910f4"},
    {"zfp-rans", "abs", "spiky",
     "f6823b9037e81a11864e9b74e054c2a265ccebe4f97c060a6fc76fcc162485e7"},
    {"zfp-rans", "abs", "dense",
     "9c73de21e7ef680e6d18fc4d74fe889a7c4ee000051529a856cfc3c5ef1635c2"},
    {"zfp-rans", "abs", "sparse",
     "30cc9de14f793c2e91720d6dd89c32c9d6deb6512a887fb1bdd09add3bf367b8"},
    {"zfp-rans", "rel", "spiky",
     "45e12bbf3eb634b5e79a5deeaa89d84c356824889d26b52f4687d62c66086cf9"},
    {"zfp-rans", "rel", "dense",
     "8bcefbcba9a831b5502485ad6b0e766aa316782fc1af5460358190294ed74680"},
    {"zfp-rans", "rel", "sparse",
     "c679dfed7680d84744125614183f32de03d54d581bf47fd5fca035685c2c3ff8"},
};

inline const std::vector<double>& golden_fixture(const std::string& name) {
  static const std::vector<double> spiky =
      fixtures::spiky_qaoa_like(kGoldenFixtureSize, kGoldenSpikySeed);
  static const std::vector<double> dense =
      fixtures::dense_supremacy_like(kGoldenFixtureSize, kGoldenDenseSeed);
  static const std::vector<double> sparse =
      fixtures::sparse_like(kGoldenFixtureSize, kGoldenSparseSeed);
  if (name == "spiky") return spiky;
  if (name == "dense") return dense;
  if (name == "sparse") return sparse;
  // A typo in the table must fail loudly, not silently pin the wrong
  // fixture's bitstream.
  throw std::invalid_argument("golden_fixture: unknown fixture '" + name +
                              "'");
}

inline ErrorBound golden_bound(const std::string& mode) {
  if (mode == "lossless") return ErrorBound::lossless();
  if (mode == "abs") return ErrorBound::absolute(kGoldenAbsoluteBound);
  if (mode == "rel") return ErrorBound::relative(kGoldenRelativeBound);
  throw std::invalid_argument("golden_bound: unknown mode '" + mode + "'");
}

/// Compresses the entry's fixture with its codec and returns the SHA-256
/// of the container, optionally through the scratch-pooled overload (both
/// paths must produce identical bytes).
inline std::string golden_blob_hash(const GoldenBlob& blob,
                                    CodecScratch* scratch = nullptr) {
  const auto codec = make_compressor(blob.codec);
  const auto& data = golden_fixture(blob.fixture);
  const Bytes compressed =
      scratch ? codec->compress(data, golden_bound(blob.mode), *scratch)
              : codec->compress(data, golden_bound(blob.mode));
  return sha256_hex(compressed);
}

}  // namespace cqs::compression
