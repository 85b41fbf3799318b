#include "trace.hpp"

#include <cstdio>
#include <ctime>

#include "alloc_count.hpp"

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kBroker: return "broker";
    case Layer::kClient: return "client";
    case Layer::kXgsp: return "xgsp";
    case Layer::kSip: return "sip";
    case Layer::kH323: return "h323";
    case Layer::kAdmire: return "admire";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::attach(gmmcs::sim::EventLoop& loop) {
  spans_.reserve(kSpanCap);
  origin_ = Clock::now();
  last_ns_ = 0;
  last_allocs_ = allocations();
  cur_ = Layer::kSim;
  open_ = true;
  loop.set_trace([this, &loop](gmmcs::SimTime, std::uint64_t) {
    ++event_;
    pending_peak_ = std::max(pending_peak_, loop.pending());
    boundary(Layer::kSim);
  });
}

void Tracer::attach_host(gmmcs::sim::Host& host, Layer layer,
                         std::function<void(const gmmcs::sim::Datagram&)> on_ingress,
                         std::function<void(const gmmcs::sim::Datagram&)> on_egress) {
  host.set_ingress_filter([this, layer, f = std::move(on_ingress)](const gmmcs::sim::Datagram& d) {
    boundary(layer);
    if (f) f(d);
    return true;
  });
  host.set_egress_observer([this, layer, f = std::move(on_egress)](const gmmcs::sim::Datagram& d) {
    boundary(layer);
    if (f) f(d);
  });
}

void Tracer::boundary(Layer l) {
  if (!open_) return;
  auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  std::uint64_t allocs = allocations();
  auto i = static_cast<std::size_t>(cur_);
  totals_.ns[i] += now - last_ns_;
  totals_.allocs[i] += allocs - last_allocs_;
  if (spans_.size() < kSpanCap) {
    spans_.push_back(Span{last_ns_, static_cast<std::uint32_t>(now - last_ns_), event_, cur_});
  }
  last_ns_ = now;
  // The span vector is preallocated, so the push above allocates nothing;
  // read the counter after it anyway so tracing never bills itself.
  last_allocs_ = allocations();
  cur_ = l;
}

void Tracer::resume() {
  last_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  last_allocs_ = allocations();
}

void Tracer::stop() {
  boundary(Layer::kSim);
  open_ = false;
}

void Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "start_ns,dur_ns,event,layer\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%u,%u,%s\n", static_cast<unsigned long long>(s.start_ns), s.dur_ns,
                 s.event, layer_name(s.layer));
  }
  std::fclose(f);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

}  // namespace perfbench
