// Transaction-context synopses (paper §7.4).
//
// Shipping a whole transaction context with every message would be
// expensive, so Whodunit sends a *synopsis*: each stage keeps a
// dictionary of the contexts it has seen and represents each with a
// 4-byte id. A response's synopsis is the caller's synopsis, the '#'
// delimiter, then the callee's own part — `synopsis(α)#synopsis(β)` —
// which lets the caller recognize its own synopsis as a prefix and
// conclude the message is a reply rather than a new request.
//
// The runtime carries synopses as interned SynopsisIds (SynopsisTable):
// a 4-byte id per hop, so extending, comparing and hashing a synopsis
// is integer work. The value Synopsis is the report and interchange
// form, materialized from an id when a profile is rendered.
#ifndef SRC_CONTEXT_SYNOPSIS_H_
#define SRC_CONTEXT_SYNOPSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/context/context_tree.h"
#include "src/context/transaction_context.h"
#include "src/obs/metrics.h"
#include "src/util/robin_hood.h"

namespace whodunit::context {

// A synopsis: one or more 4-byte context ids joined by '#'. The value
// form, for reports, serialized profiles and tests; SynopsisTable
// interns it.
struct Synopsis {
  std::vector<uint32_t> parts;

  friend bool operator==(const Synopsis&, const Synopsis&) = default;

  bool empty() const { return parts.empty(); }

  // True when `p` is a prefix of this synopsis (the reply-recognition
  // test of §5).
  bool HasPrefix(const Synopsis& p) const;

  // Appends the other synopsis after a '#'.
  Synopsis Extend(const Synopsis& tail) const;

  // Bytes this synopsis occupies on the wire: 4 bytes per part plus
  // one '#' delimiter between parts. This is what the communication
  // overhead measurement (§9.1) charges.
  size_t WireBytes() const;

  // "12#7" — for reports and debugging.
  std::string ToString() const;
};

// Per-stage dictionary: transaction context <-> 4-byte synopsis part.
// (The paper: "maintains transaction contexts and their synopses in a
// dictionary".) Contexts are stored as interned context-tree NodeIds,
// so interning at a send point is one O(1) integer-keyed probe rather
// than a full-sequence hash and copy.
class SynopsisDictionary {
 public:
  // Returns the synopsis part for the interned context, assigning the
  // next id if new. This is the send-point hot path.
  uint32_t Intern(NodeId ctxt);

  // Legacy value-API entry point: interns into the global context tree
  // first. Hash-consing guarantees the same element sequence maps to
  // the same part id either way.
  uint32_t Intern(const TransactionContext& ctxt) {
    return Intern(GlobalContextTree().Intern(ctxt));
  }

  // The context for a previously interned part id, as an interned
  // node (O(1)) or materialized into the legacy value form.
  NodeId LookupNode(uint32_t part) const { return contexts_.at(part); }
  TransactionContext Lookup(uint32_t part) const;

  bool Contains(uint32_t part) const { return part < contexts_.size(); }
  size_t size() const { return contexts_.size(); }

 private:
  util::RobinHoodMap<NodeId, uint32_t> ids_;
  std::vector<NodeId> contexts_;
  // Bound at construction so a dictionary built inside a shard isolate
  // reports into that shard's registry.
  obs::Counter* obs_hits_ = &obs::Registry().GetCounter("synopsis.dict_hits");
  obs::Counter* obs_inserts_ = &obs::Registry().GetCounter("synopsis.dict_inserts");
};

// An interned synopsis. Value 0 is the empty synopsis.
using SynopsisId = uint32_t;
inline constexpr SynopsisId kEmptySynopsis = 0;

// Hash-consed synopsis chains: every synopsis is a path of parts from
// the empty root, and a node stores (parent, last part, depth), so
//   * Extend     — one hash-cons probe on (parent id, part);
//   * equality   — SynopsisId comparison (same parts <=> same id);
//   * HasPrefix  — ancestor walk of the depth difference;
//   * WireBytes  — a function of the depth.
// Append-only and owned by the Deployment, like the dictionary.
class SynopsisTable {
 public:
  SynopsisTable();

  // The synopsis `s#part`, creating it on first use.
  SynopsisId Extend(SynopsisId s, uint32_t part);

  // Number of parts, the last part (0 for the empty synopsis) and the
  // synopsis without its last part.
  uint32_t Depth(SynopsisId s) const { return nodes_[s].depth; }
  uint32_t LastPart(SynopsisId s) const { return nodes_[s].part; }
  SynopsisId Parent(SynopsisId s) const { return nodes_[s].parent; }

  // Synopsis::HasPrefix on the interned chains.
  bool HasPrefix(SynopsisId s, SynopsisId prefix) const;

  // Synopsis::WireBytes: 4 bytes per part, '#' between parts.
  size_t WireBytes(SynopsisId s) const {
    const uint32_t depth = Depth(s);
    return depth == 0 ? 0 : size_t{depth} * 5 - 1;
  }

  // Value form <-> id. Find interns nothing and returns false when the
  // synopsis was never built.
  SynopsisId Intern(const Synopsis& s);
  bool Find(const Synopsis& s, SynopsisId* out) const;
  Synopsis Materialize(SynopsisId s) const;

  size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    SynopsisId parent = kEmptySynopsis;
    uint32_t part = 0;
    uint32_t depth = 0;
  };
  static uint64_t Key(SynopsisId parent, uint32_t part) {
    return (uint64_t{parent} << 32) | part;
  }

  std::vector<Node> nodes_;
  util::RobinHoodMap<uint64_t, SynopsisId> children_;
};

}  // namespace whodunit::context

#endif  // SRC_CONTEXT_SYNOPSIS_H_
