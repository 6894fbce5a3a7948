// The synthetic stand-in for the Rice CS web trace (paper §8, §9.2).
//
// The paper replays a trace collected at Rice's departmental web
// server; we have no such trace, so this models its qualitative
// properties, which are all the experiments rely on:
//   * Zipf-skewed object popularity (caches work, but miss too);
//   * heavy-tailed object sizes (a few large objects dominate bytes);
//   * connection churn — clients open a connection, issue a few
//     requests, close, reconnect (what keeps Whodunit re-emulating
//     Apache's queue critical sections in §9.2).
#ifndef SRC_WORKLOAD_WEBTRACE_H_
#define SRC_WORKLOAD_WEBTRACE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/http/http.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/workload/calibration.h"

namespace whodunit::workload {

struct WebTraceModel {
  uint64_t objects = kTraceObjects;
  double zipf_theta = kTraceZipfTheta;
  int requests_per_connection_mean = kRequestsPerConnectionMean;
  uint64_t min_object_bytes = kTraceMinObjectBytes;
  uint64_t max_object_bytes = kTraceMaxObjectBytes;
};

class WebTrace {
 public:
  explicit WebTrace(const WebTraceModel& model = {})
      : model_(model),
        zipf_(model.objects, model.zipf_theta),
        store_(model.objects, model.min_object_bytes, model.max_object_bytes) {}

  // Appends the object ids requested over one connection to
  // `objects`: geometric length with exactly the configured mean (the
  // exponential's rate is corrected for the floor:
  // E[1 + floor(Exp(mu))] = 1 + 1/(e^(1/mu)-1), solved for the target),
  // objects Zipf-popular. Callers reuse one buffer per connection
  // record, so steady-state draws do not allocate.
  void DrawConnection(util::Rng& rng, std::vector<uint32_t>& objects) const {
    const double target = static_cast<double>(model_.requests_per_connection_mean);
    const double mu = 1.0 / std::log(1.0 + 1.0 / (target - 1.0));
    const int n = 1 + static_cast<int>(rng.NextExponential(mu));
    for (int i = 0; i < n; ++i) {
      objects.push_back(static_cast<uint32_t>(zipf_.Sample(rng)));
    }
  }

  uint64_t ObjectBytes(uint32_t object) const { return store_.SizeOf(object); }
  const http::ObjectStore& store() const { return store_; }
  const WebTraceModel& model() const { return model_; }

 private:
  WebTraceModel model_;
  util::ZipfSampler zipf_;
  http::ObjectStore store_;
};

}  // namespace whodunit::workload

#endif  // SRC_WORKLOAD_WEBTRACE_H_
