#include "core/report.hpp"

#include <iomanip>
#include <ostream>

#include "core/memory_model.hpp"

namespace cqs::core {

double SimulationReport::phase_fraction(Phase p) const {
  const double total = phases.total();
  return total == 0.0 ? 0.0 : phases.get(p) / total;
}

double SimulationReport::lossless_block_ratio() const {
  return final_lossless_bytes == 0
             ? 0.0
             : static_cast<double>(final_lossless_blocks) *
                   static_cast<double>(block_raw_bytes) /
                   static_cast<double>(final_lossless_bytes);
}

double SimulationReport::lossy_block_ratio() const {
  return final_lossy_bytes == 0
             ? 0.0
             : static_cast<double>(final_lossy_blocks) *
                   static_cast<double>(block_raw_bytes) /
                   static_cast<double>(final_lossy_bytes);
}

void SimulationReport::print(std::ostream& os) const {
  const auto pct = [&](Phase p) {
    return phase_fraction(p) * 100.0;
  };
  os << std::fixed << std::setprecision(2);
  os << "qubits:              " << num_qubits << "\n"
     << "ranks x blocks:      " << num_ranks << " x " << blocks_per_rank
     << "\n"
     << "codec:               " << codec << "\n";
  os << "gates:               " << gates << "\n"
     << "memory requirement:  " << format_bytes(memory_requirement_bytes)
     << "\n"
     << "peak compressed:     " << format_bytes(peak_compressed_bytes)
     << " (+" << format_bytes(scratch_bytes) << " scratch)\n";
  if (budget_bytes > 0) {
    os << "memory budget:       " << format_bytes(budget_bytes)
       << (budget_exceeded ? "  [EXCEEDED]" : "") << "\n";
  }
  if (spill_enabled) {
    os << "out-of-core:         resident " << format_bytes(resident_bytes)
       << " + spilled " << format_bytes(spilled_bytes) << " (budget "
       << format_bytes(resident_budget_bytes) << ", peak resident "
       << format_bytes(peak_resident_bytes) << ")"
       << (degraded ? "  [DEGRADED: disk full, spilling disabled]" : "")
       << "\n"
       << "spill traffic:       " << spill_events << " spills / "
       << fault_events << " faults";
    if (spill_write_failures > 0) {
      os << "; " << spill_write_failures << " ENOSPC writes ridden out";
    }
    os << "\n";
  }
  if (checkpoint_interval_gates > 0) {
    os << "auto-checkpoint:     " << autosaves << " saves ("
       << std::setprecision(4) << autosave_seconds << " s, every "
       << checkpoint_interval_gates << " gates)"
       << std::setprecision(2);
    if (autosave_failures > 0) {
      os << "; " << autosave_failures << " failed saves survived";
    }
    os << "\n";
  }
  os << "total time:          " << total_seconds << " s\n"
     << "  compression:       " << pct(Phase::kCompression) << " %\n"
     << "  decompression:     " << pct(Phase::kDecompression) << " %\n"
     << "  communication:     " << pct(Phase::kCommunication) << " %\n"
     << "  computation:       " << pct(Phase::kComputation) << " %\n"
     << "time per gate:       " << std::setprecision(6)
     << seconds_per_gate() << " s\n"
     << std::setprecision(2) << "gate runs:           " << batched_runs
     << " batched (" << batched_gates << " gates, avg " << gates_per_run()
     << " gates/run)\n"
     << "codec invocations:   " << compress_invocations << " compress / "
     << decompress_invocations << " decompress\n"
     << std::setprecision(4) << "codec time:          compress "
     << lossless_compress_seconds << " s lossless / "
     << lossy_compress_seconds << " s lossy; decompress "
     << lossless_decompress_seconds << " s lossless / "
     << lossy_decompress_seconds << " s lossy\n"
     << "fidelity bound:      " << fidelity_bound
     << " (" << lossy_passes << " lossy passes, final level "
     << final_ladder_level << ")\n"
     << std::setprecision(2) << "min compression:     "
     << min_compression_ratio << "x\n"
     << "codec mix:           " << lossless_compress_invocations
     << " lossless / " << lossy_compress_invocations << " lossy compressions ("
     << codec_switches << " switches); final blocks "
     << final_lossless_blocks << " lossless ("
     << format_bytes(final_lossless_bytes) << ") / " << final_lossy_blocks
     << " lossy (" << format_bytes(final_lossy_bytes) << ")\n"
     << "communication:       " << format_bytes(comm_bytes) << " in "
     << comm_messages << " messages\n"
     << std::setprecision(4) << "comm time:           " << comm_seconds
     << " s\n"
     << std::setprecision(2);
  if (swaps_relabeled > 0) {
    os << "swaps relabeled:     " << swaps_relabeled << "\n";
  }
  os << "simd_kernel:         " << simd_kernel << "\n";
  os << "cache:               " << cache.hits << " hits / " << cache.misses
     << " misses\n";
}

std::ostream& operator<<(std::ostream& os, const SimulationReport& report) {
  report.print(os);
  return os;
}

}  // namespace cqs::core
