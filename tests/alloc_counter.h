// A global operator new that counts its calls, for tests that pin a
// path's heap traffic. Linking alloc_counter.cc into a test binary
// replaces the allocation functions for the whole binary.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace whodunit::testing {

// operator new calls (every form) since the process started.
uint64_t AllocCount();

}  // namespace whodunit::testing

#endif  // TESTS_ALLOC_COUNTER_H_
