// Interning of whole call paths.
//
// A transaction context element of kind kCallPath references an
// interned call path (the paper: "the transaction context at a message
// send point is the call path of the program"). Interning makes those
// elements 4 bytes and comparable by id.
#ifndef SRC_CALLPATH_PATH_TABLE_H_
#define SRC_CALLPATH_PATH_TABLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/callpath/function_registry.h"

namespace whodunit::callpath {

using PathId = uint32_t;
inline constexpr PathId kNoPathId = 0xffffffffu;

class CallPathTable {
 public:
  PathId Intern(const std::vector<FunctionId>& path) {
    auto it = ids_.find(path);
    if (it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<PathId>(paths_.size());
    paths_.push_back(path);
    ids_.emplace(path, id);
    return id;
  }

  const std::vector<FunctionId>& PathOf(PathId id) const { return paths_.at(id); }
  size_t size() const { return paths_.size(); }

  // "main>handle>send" for reports.
  std::string Render(PathId id, const FunctionRegistry& registry) const {
    std::string out;
    for (FunctionId f : paths_.at(id)) {
      if (!out.empty()) {
        out += ">";
      }
      out += registry.NameOf(f);
    }
    return out;
  }

 private:
  std::map<std::vector<FunctionId>, PathId> ids_;
  std::vector<std::vector<FunctionId>> paths_;
};

}  // namespace whodunit::callpath

#endif  // SRC_CALLPATH_PATH_TABLE_H_
