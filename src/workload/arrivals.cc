#include "src/workload/arrivals.h"

#include <algorithm>
#include <cmath>

namespace whodunit::workload {
namespace {

constexpr double kNsPerSec = 1e9;

sim::SimTime ToNsAtLeastOne(double ns) {
  if (ns < 1.0) {
    return 1;
  }
  return static_cast<sim::SimTime>(std::llround(ns));
}

}  // namespace

bool ParseArrivalKind(const std::string& s, ArrivalKind* out) {
  if (s == "closed") {
    *out = ArrivalKind::kClosed;
  } else if (s == "poisson") {
    *out = ArrivalKind::kPoisson;
  } else if (s == "bursty") {
    *out = ArrivalKind::kBursty;
  } else {
    return false;
  }
  return true;
}

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kClosed:
      return "closed";
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "unknown";
}

double EffectiveOfferedTps(const ArrivalConfig& cfg, uint64_t clients,
                           sim::SimTime per_client_think_mean) {
  if (cfg.offered_load_tps > 0.0) {
    return cfg.offered_load_tps;
  }
  if (per_client_think_mean <= 0) {
    return static_cast<double>(clients);
  }
  return static_cast<double>(clients) *
         (kNsPerSec / static_cast<double>(per_client_think_mean));
}

void ForEachGenerator(const ArrivalConfig& cfg, int clients,
                      sim::SimTime per_client_think_mean, uint64_t seed,
                      const std::function<void(double tps, uint64_t seed)>& spawn) {
  const auto population = static_cast<uint64_t>(std::max(clients, 0));
  const uint64_t per_gen = cfg.clients_per_generator > 0
                               ? cfg.clients_per_generator
                               : ArrivalConfig{}.clients_per_generator;
  const uint64_t gens = (population + per_gen - 1) / per_gen;
  const double tps = EffectiveOfferedTps(cfg, population, per_client_think_mean);
  util::Rng seeder(seed ^ 0x9E3779B97F4A7C15ULL);
  for (uint64_t g = 0; g < gens; ++g) {
    spawn(tps / static_cast<double>(gens), seeder.NextU64());
  }
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& cfg, double tps,
                               uint64_t seed)
    : rng_(seed), kind_(cfg.kind) {
  const double mean_rate = tps / kNsPerSec;  // arrivals per virtual ns
  if (kind_ != ArrivalKind::kBursty) {
    rate_on_ = rate_off_ = mean_rate;
    return;
  }
  on_mean_ = std::max<sim::SimTime>(1, cfg.burst_on_mean);
  off_mean_ = std::max<sim::SimTime>(1, cfg.burst_off_mean);
  const double p_on = static_cast<double>(on_mean_) /
                      static_cast<double>(on_mean_ + off_mean_);
  const double factor = std::max(1.0, cfg.burst_factor);
  rate_on_ = factor * mean_rate;
  // Solve the OFF rate so the long-run mean is exactly the target;
  // if the burst alone overshoots it, dial the ON rate back instead.
  rate_off_ = (mean_rate - p_on * rate_on_) / (1.0 - p_on);
  if (rate_off_ < 0.0) {
    rate_off_ = 0.0;
    rate_on_ = mean_rate / p_on;
  }
  on_ = true;
  state_left_ = ToNsAtLeastOne(
      rng_.NextExponential(static_cast<double>(on_mean_)));
}

sim::SimTime ArrivalProcess::NextInterarrival() {
  ++arrivals_drawn_;
  if (kind_ != ArrivalKind::kBursty) {
    return ToNsAtLeastOne(rng_.NextExponential(1.0 / rate_on_));
  }
  // Piecewise draw across state boundaries. Exponential memorylessness
  // makes redrawing at each flip exact for the MMPP.
  double elapsed = 0.0;
  for (;;) {
    const double rate = RateNow();
    if (rate > 0.0) {
      const double gap = rng_.NextExponential(1.0 / rate);
      if (gap < static_cast<double>(state_left_)) {
        state_left_ -= static_cast<sim::SimTime>(gap);
        return ToNsAtLeastOne(elapsed + gap);
      }
    }
    // No arrival before the state flips: consume the dwell remainder.
    elapsed += static_cast<double>(state_left_);
    on_ = !on_;
    state_left_ = ToNsAtLeastOne(rng_.NextExponential(
        static_cast<double>(on_ ? on_mean_ : off_mean_)));
  }
}

}  // namespace whodunit::workload
