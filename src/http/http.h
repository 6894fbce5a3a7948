// The synthetic web content the simulated servers serve.
//
// Contents are abstract — what matters for the experiments is who
// talks to whom, how many bytes move, and what each hop costs.
#ifndef SRC_HTTP_HTTP_H_
#define SRC_HTTP_HTTP_H_

#include <cmath>
#include <cstdint>

namespace whodunit::http {

// Deterministic synthetic content store: object sizes follow a
// bounded Pareto-like distribution derived from the object id, so any
// stage can compute an object's size without shared state.
class ObjectStore {
 public:
  ObjectStore(uint64_t objects, uint64_t min_bytes, uint64_t max_bytes)
      : objects_(objects), min_bytes_(min_bytes), max_bytes_(max_bytes) {}

  uint64_t objects() const { return objects_; }

  uint64_t SizeOf(uint32_t object_id) const {
    // splitmix64 of the id -> heavy-tailed size in [min, max].
    uint64_t x = object_id + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Map to a Pareto-ish tail: most objects small, a few large.
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    const double alpha = 1.2;
    double size = static_cast<double>(min_bytes_) / std::pow(1.0 - u, 1.0 / alpha);
    if (size > static_cast<double>(max_bytes_)) {
      size = static_cast<double>(max_bytes_);
    }
    return static_cast<uint64_t>(size);
  }

 private:
  uint64_t objects_;
  uint64_t min_bytes_;
  uint64_t max_bytes_;
};

}  // namespace whodunit::http

#endif  // SRC_HTTP_HTTP_H_
