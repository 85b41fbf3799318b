// Per-layer host-time and allocation attribution for the traced run.
//
// The benchmark marks layer boundaries only through public hooks, from
// its own files: EventLoop::set_trace (start of every event), each host's
// ingress filter (admits everything) and egress observer, and its own
// publish / delivery / reply callbacks. Each host-time interval between
// two consecutive boundaries, and the allocations made in it, go to the
// layer of the boundary that opened it; the stretch from an event's start
// to its first host hook counts as `sim`. Spans are kept in memory (the
// first kSpanCap of a round) and written out when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kSim, kBroker, kClient, kXgsp, kSip, kH323, kAdmire, kCount };
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

class Tracer {
 public:
  struct Span {
    std::uint64_t start_ns;  // since the round's trace start
    std::uint32_t dur_ns;
    std::uint32_t event;     // index of the event the span belongs to
    Layer layer;
  };
  struct Totals {
    std::array<std::uint64_t, kLayers> ns{};
    std::array<std::uint64_t, kLayers> allocs{};
  };

  /// Installs the event-start hook and opens the first interval.
  void attach(gmmcs::sim::EventLoop& loop);
  /// Installs ingress/egress hooks on `host`, attributing both to `layer`.
  /// `on_ingress` / `on_egress` run after the boundary (frame capture).
  void attach_host(gmmcs::sim::Host& host, Layer layer,
                   std::function<void(const gmmcs::sim::Datagram&)> on_ingress = {},
                   std::function<void(const gmmcs::sim::Datagram&)> on_egress = {});
  void boundary(Layer l);
  /// Closes the open interval; totals() is final afterwards.
  void stop();
  /// Closes the open interval without changing layer; host time and
  /// allocations until resume() are billed to no layer.
  void pause() { boundary(cur_); }
  void resume();

  [[nodiscard]] const Totals& totals() const { return totals_; }
  /// Largest EventLoop::pending() seen at an event start.
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  /// Writes the kept spans as CSV (start_ns,dur_ns,event,layer).
  void write(const std::string& path) const;

 private:
  static constexpr std::size_t kSpanCap = 200000;
  using Clock = std::chrono::steady_clock;

  Totals totals_;
  std::vector<Span> spans_;
  Clock::time_point origin_{};
  std::uint64_t last_ns_ = 0;
  std::uint64_t last_allocs_ = 0;
  std::uint32_t event_ = 0;
  std::size_t pending_peak_ = 0;
  Layer cur_ = Layer::kSim;
  bool open_ = false;
};

/// Process CPU time of the calling thread, in seconds (the host clock of
/// every rate the benchmark reports; the simulation is single-threaded).
double cpu_seconds();
double wall_seconds();

}  // namespace perfbench
