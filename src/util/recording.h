// The one enable mask of every recorder (docs/OBSERVABILITY.md).
//
// Each bit turns one recorder on: the metrics registry (on by default), the
// phase tracer, the --progress display, the streaming sketches, the DES
// queue-dynamics series, the solver audit and the flight recorder. Every
// recording site reads its bit inline, one relaxed load:
//
//   if (recording(kRecAudit)) { ... }
//
// ArtifactOutputs::bind computes the mask from the requested outputs and
// stores it once, before the measured work. No recorder draws from an RNG
// stream, so no bit can change a placement or a simulated response time.
#pragma once

#include <atomic>
#include <cstdint>

namespace mmr {

inline constexpr std::uint32_t kRecMetrics = 1u << 0;
inline constexpr std::uint32_t kRecTrace = 1u << 1;
inline constexpr std::uint32_t kRecProgress = 1u << 2;
inline constexpr std::uint32_t kRecObs = 1u << 3;
inline constexpr std::uint32_t kRecTimeseries = 1u << 4;
inline constexpr std::uint32_t kRecAudit = 1u << 5;
inline constexpr std::uint32_t kRecFlight = 1u << 6;

namespace detail {
inline std::atomic<std::uint32_t> g_recording{kRecMetrics};
}  // namespace detail

/// The whole mask.
inline std::uint32_t recording_mask() {
  return detail::g_recording.load(std::memory_order_relaxed);
}

/// True when any of `bits` is on.
inline bool recording(std::uint32_t bits) {
  return (recording_mask() & bits) != 0;
}

/// Replaces the whole mask.
inline void set_recording(std::uint32_t mask) {
  detail::g_recording.store(mask, std::memory_order_relaxed);
}

}  // namespace mmr
