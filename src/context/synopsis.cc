#include "src/context/synopsis.h"

#include <sstream>

#include "src/obs/metrics.h"

namespace whodunit::context {

bool Synopsis::HasPrefix(const Synopsis& p) const {
  if (p.parts.size() > parts.size()) {
    return false;
  }
  for (size_t i = 0; i < p.parts.size(); ++i) {
    if (parts[i] != p.parts[i]) {
      return false;
    }
  }
  return true;
}

Synopsis Synopsis::Extend(const Synopsis& tail) const {
  Synopsis out = *this;
  out.parts.insert(out.parts.end(), tail.parts.begin(), tail.parts.end());
  return out;
}

size_t Synopsis::WireBytes() const {
  if (parts.empty()) {
    return 0;
  }
  return parts.size() * 4 + (parts.size() - 1);
}

std::string Synopsis::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (uint32_t p : parts) {
    if (!first) {
      out << "#";
    }
    first = false;
    out << p;
  }
  return out.str();
}

uint32_t SynopsisDictionary::Intern(NodeId ctxt) {
  if (const uint32_t* found = ids_.Find(ctxt)) {
    obs_hits_->Add();
    return *found;
  }
  obs_inserts_->Add();
  const auto id = static_cast<uint32_t>(contexts_.size());
  contexts_.push_back(ctxt);
  ids_.Upsert(ctxt, id);
  return id;
}

TransactionContext SynopsisDictionary::Lookup(uint32_t part) const {
  return GlobalContextTree().Materialize(contexts_.at(part));
}

SynopsisTable::SynopsisTable() { nodes_.push_back(Node{}); }

SynopsisId SynopsisTable::Extend(SynopsisId s, uint32_t part) {
  bool existed = false;
  SynopsisId& child = children_.FindOrInsert(Key(s, part), &existed);
  if (!existed) {
    child = static_cast<SynopsisId>(nodes_.size());
    nodes_.push_back(Node{s, part, nodes_[s].depth + 1});
  }
  return child;
}

bool SynopsisTable::HasPrefix(SynopsisId s, SynopsisId prefix) const {
  if (Depth(prefix) > Depth(s)) {
    return false;
  }
  for (uint32_t up = Depth(s) - Depth(prefix); up > 0; --up) {
    s = Parent(s);
  }
  return s == prefix;
}

SynopsisId SynopsisTable::Intern(const Synopsis& s) {
  SynopsisId id = kEmptySynopsis;
  for (uint32_t part : s.parts) {
    id = Extend(id, part);
  }
  return id;
}

bool SynopsisTable::Find(const Synopsis& s, SynopsisId* out) const {
  SynopsisId id = kEmptySynopsis;
  for (uint32_t part : s.parts) {
    const SynopsisId* child = children_.Find(Key(id, part));
    if (child == nullptr) {
      return false;
    }
    id = *child;
  }
  *out = id;
  return true;
}

Synopsis SynopsisTable::Materialize(SynopsisId s) const {
  Synopsis out;
  out.parts.resize(Depth(s));
  for (size_t i = out.parts.size(); i > 0; --i, s = Parent(s)) {
    out.parts[i - 1] = LastPart(s);
  }
  return out;
}

}  // namespace whodunit::context
