#include "runtime/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/bytes.hpp"
#include "compression/compressor.hpp"
#include "runtime/fault_injection.hpp"

namespace cqs::runtime {
namespace {

// The trailing magic byte is the format version. v5 carries the lossy-
// pass count, the logical->physical qubit map, and a level, codec id and
// tier byte per block; v6 is layout-identical to v5 and flagged that some
// block used a codec id beyond the v5-era registry. v7, the only version
// written, is v5's layout plus the circuit digest. A v1-v4 magic is
// rejected by name.
constexpr char kMagicV7[8] = {'C', 'Q', 'S', 'C', 'K', 'P', 'T', '7'};

// Highest codec id the registry held while v5 was current ("fpzip").
// Later appends (zfp-rans onward) are corruption when claimed by a v5
// image.
constexpr std::uint8_t kMaxCodecIdV5 = 6;

/// Writes `buffer` to `path` via a same-directory temporary + fsync +
/// atomic rename, so the previous file at `path` survives any failure
/// (including a crash) up to the rename. The checkpoint.write fault site
/// cuts the stream short mid-image, standing in for the crash.
void write_file_atomically(const std::string& path, const Bytes& buffer) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  auto fail = [&](const std::string& message) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error(message);
  };

  std::size_t written = 0;
  while (written < buffer.size()) {
    const std::size_t chunk = std::min<std::size_t>(buffer.size() - written,
                                                    std::size_t{1} << 20);
    if (const auto hit =
            FaultInjector::instance().on_call(fault_sites::kCheckpointWrite)) {
      // Write the partial chunk first so the aborted temporary looks
      // exactly like a mid-save crash artifact.
      const auto torn = static_cast<std::size_t>(
          std::min<std::uint64_t>(hit->aux, chunk));
      if (torn > 0) {
        [[maybe_unused]] const ssize_t n =
            ::write(fd, buffer.data() + written, torn);
      }
      fail("checkpoint: write failed (injected) " + tmp);
    }
    const ssize_t n = ::write(fd, buffer.data() + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("checkpoint: write failed " + tmp + ": " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  // The data must be durable *before* the rename publishes it; otherwise
  // a crash after the rename could leave a torn file under the good name.
  if (::fsync(fd) != 0) {
    fail("checkpoint: fsync failed " + tmp + ": " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: close failed " + tmp + ": " +
                             std::strerror(errno));
  }
  // Scripted crash at the publish step: the durable temp image exists but
  // the rename never happens, so the previous checkpoint must survive.
  if (FaultInjector::instance().on_call(fault_sites::kCheckpointRename)) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path +
                             " failed (injected fault before publish)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path + " failed: " +
                             std::strerror(err));
  }
  // The rename is only durable once the directory entry is: fsync the
  // containing directory, or a crash right after a "successful" return
  // could still surface the old file. (The previous-file-survives
  // guarantee holds either way; this pins the publish itself.)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    throw std::runtime_error("checkpoint: cannot open directory " + dir +
                             ": " + std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    const int err = errno;
    ::close(dir_fd);
    throw std::runtime_error("checkpoint: fsync of directory " + dir +
                             " failed: " + std::strerror(err));
  }
  ::close(dir_fd);
}

}  // namespace

void save_checkpoint(const std::string& path, const CheckpointHeader& header,
                     const std::vector<BlockStore>& ranks) {
  Bytes buffer(reinterpret_cast<const std::byte*>(kMagicV7),
               reinterpret_cast<const std::byte*>(kMagicV7) + 8);
  put_varint(buffer, header.num_qubits);
  put_varint(buffer, header.num_ranks);
  put_varint(buffer, header.blocks_per_rank);
  put_varint(buffer, header.ladder_level);
  put_varint(buffer, header.next_gate_index);
  put_scalar(buffer, header.circuit_digest);
  put_scalar(buffer, header.fidelity_bound);
  put_varint(buffer, header.lossy_passes);
  put_varint(buffer, header.codec_name.size());
  for (char ch : header.codec_name) {
    buffer.push_back(static_cast<std::byte>(ch));
  }
  // An empty map serializes as a zero count, which the loader reads as
  // the identity layout.
  header.qubit_map.serialize(buffer);
  put_varint(buffer, ranks.size());
  for (const BlockStore& store : ranks) {
    put_varint(buffer, store.num_blocks());
    for (int b = 0; b < store.num_blocks(); ++b) {
      buffer.push_back(static_cast<std::byte>(store.meta(b).level));
      buffer.push_back(static_cast<std::byte>(store.meta(b).codec));
      buffer.push_back(
          static_cast<std::byte>(store.is_spilled(b) ? 1 : 0));
      // raw_view reads either tier — a spilled block streams straight
      // from the spill mapping into the image without re-materializing —
      // and counts no fault, so a save never skews the report's spill
      // telemetry.
      const ByteSpan payload = store.raw_view(b);
      put_varint(buffer, payload.size());
      buffer.insert(buffer.end(), payload.begin(), payload.end());
    }
  }
  write_file_atomically(path, buffer);
}

LoadedCheckpoint load_checkpoint_full(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  Bytes buffer(size);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("checkpoint: read failed " + path);

  // Every version shares the 7-byte "CQSCKPT" prefix; the eighth byte is
  // the version digit.
  const char version = size >= 8 && std::memcmp(buffer.data(), kMagicV7, 7) == 0
                           ? static_cast<char>(buffer[7])
                           : '\0';
  if (version >= '1' && version <= '4') {
    throw std::runtime_error(
        std::string("checkpoint: unsupported checkpoint format v") + version +
        "; v5 to v7 only");
  }
  if (version < '5' || version > '7') {
    throw std::runtime_error("checkpoint: bad magic");
  }
  std::size_t offset = 8;
  LoadedCheckpoint loaded;
  CheckpointHeader& header = loaded.header;
  header.num_qubits = static_cast<int>(get_varint(buffer, offset));
  header.num_ranks = static_cast<int>(get_varint(buffer, offset));
  header.blocks_per_rank = static_cast<int>(get_varint(buffer, offset));
  header.ladder_level =
      static_cast<std::uint32_t>(get_varint(buffer, offset));
  header.next_gate_index = get_varint(buffer, offset);
  if (version == '7') {
    header.circuit_digest = get_scalar<std::uint64_t>(buffer, offset);
  }
  header.fidelity_bound = get_scalar<double>(buffer, offset);
  header.lossy_passes = get_varint(buffer, offset);
  // Subtraction form: `offset + len` could wrap for a corrupt varint near
  // UINT64_MAX, turning a truncation into a huge out-of-bounds read.
  // get_varint guarantees offset <= buffer.size() on return.
  const std::uint64_t name_len = get_varint(buffer, offset);
  if (name_len > buffer.size() - offset) {
    throw std::runtime_error("checkpoint: truncated codec name");
  }
  header.codec_name.assign(
      reinterpret_cast<const char*>(buffer.data()) + offset, name_len);
  offset += name_len;
  // Rejects non-permutation tables (corruption) with runtime_error.
  header.qubit_map = QubitMap::deserialize(buffer, offset);

  // Codec-id ceiling for this image's vintage: a v5 image predates every
  // id past kMaxCodecIdV5, so a larger id is corruption, not a codec this
  // build merely lacks; a v6 or v7 id must exist in the running registry.
  const bool v5 = version == '5';
  const std::uint8_t max_codec_id =
      v5 ? kMaxCodecIdV5
         : static_cast<std::uint8_t>(compression::compressor_names().size() -
                                     1);

  // The counts must agree with the header the simulator sizes its state
  // from, and fit the bytes left, before anything is sized from them.
  const std::uint64_t rank_count = get_varint(buffer, offset);
  if (header.num_ranks < 0 ||
      rank_count != static_cast<std::uint64_t>(header.num_ranks)) {
    throw std::runtime_error("checkpoint: rank count " +
                             std::to_string(rank_count) +
                             " disagrees with the header's " +
                             std::to_string(header.num_ranks));
  }
  if (header.blocks_per_rank < 0) {
    throw std::runtime_error("checkpoint: negative blocks per rank");
  }
  const auto block_count = static_cast<std::uint64_t>(header.blocks_per_rank);
  // Every block takes at least three meta bytes and a length varint. Both
  // counts fit an int, so the product cannot overflow.
  if (rank_count * block_count * 4 > buffer.size() - offset) {
    throw std::runtime_error(
        "checkpoint: " + std::to_string(rank_count) + " x " +
        std::to_string(block_count) + " blocks exceed the " +
        std::to_string(buffer.size() - offset) + " bytes left");
  }
  loaded.ranks.reserve(rank_count);
  loaded.spilled.reserve(rank_count);
  for (std::uint64_t r = 0; r < rank_count; ++r) {
    const std::uint64_t rank_blocks = get_varint(buffer, offset);
    if (rank_blocks != block_count) {
      throw std::runtime_error(
          "checkpoint: rank " + std::to_string(r) + " block count " +
          std::to_string(rank_blocks) + " disagrees with the header's " +
          std::to_string(block_count));
    }
    BlockStore store(header.blocks_per_rank);
    std::vector<std::uint8_t> tiers(block_count, 0);
    for (int b = 0; b < header.blocks_per_rank; ++b) {
      // Level, codec id and tier byte.
      if (offset + 3 > buffer.size()) {
        throw std::runtime_error("checkpoint: truncated block meta");
      }
      BlockMeta meta;
      meta.level = static_cast<std::uint8_t>(buffer[offset++]);
      meta.codec = static_cast<std::uint8_t>(buffer[offset++]);
      if (meta.codec > max_codec_id) {
        throw std::runtime_error(
            "checkpoint: block codec id " + std::to_string(meta.codec) +
            (v5 ? " is not valid in a v5 image (corrupt meta)"
                : " is not in this build's registry"));
      }
      tiers[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(buffer[offset++]) != 0 ? 1 : 0;
      const std::uint64_t block_size = get_varint(buffer, offset);
      if (block_size > buffer.size() - offset) {  // overflow-safe bound
        throw std::runtime_error("checkpoint: truncated block payload");
      }
      Bytes payload(buffer.begin() + static_cast<std::ptrdiff_t>(offset),
                    buffer.begin() +
                        static_cast<std::ptrdiff_t>(offset + block_size));
      offset += block_size;
      store.set_block(b, std::move(payload), meta);
    }
    loaded.ranks.push_back(std::move(store));
    loaded.spilled.push_back(std::move(tiers));
  }
  return loaded;
}

}  // namespace cqs::runtime
