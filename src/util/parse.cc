#include "src/util/parse.h"

#include <cstdlib>

namespace whodunit::util {

void ExitBadValue(std::string_view what, std::string_view text, const std::string& want) {
  std::fprintf(stderr, "bad value '%.*s' for %.*s: want %s\n", static_cast<int>(text.size()),
               text.data(), static_cast<int>(what.size()), what.data(), want.c_str());
  std::exit(2);
}

}  // namespace whodunit::util
