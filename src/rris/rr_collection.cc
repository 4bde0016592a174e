#include "rris/rr_collection.h"

#include <algorithm>
#include <utility>

namespace atpm {

void RRCollection::AddSet(std::span<const NodeId> nodes) {
  set_nodes_.insert(set_nodes_.end(), nodes.begin(), nodes.end());
  set_offsets_.push_back(set_nodes_.size());
  index_built_ = false;
}

void RRCollection::AppendShard(std::span<const NodeId> nodes,
                               std::span<const uint32_t> set_sizes) {
  set_nodes_.insert(set_nodes_.end(), nodes.begin(), nodes.end());
  set_offsets_.reserve(set_offsets_.size() + set_sizes.size());
  uint64_t offset = set_offsets_.back();
  for (uint32_t size : set_sizes) {
    offset += size;
    set_offsets_.push_back(offset);
  }
  ATPM_DCHECK(offset == set_nodes_.size());
  index_built_ = false;
}

void RRCollection::Reserve(uint64_t sets, uint64_t nodes) {
  set_offsets_.reserve(sets + 1);
  set_nodes_.reserve(nodes);
}

uint64_t RRCollection::Generate(RRSetGenerator* generator,
                                const BitVector* removed, uint32_t num_alive,
                                uint64_t count, Rng* rng) {
  std::vector<NodeId> nodes;
  std::vector<uint32_t> set_sizes;
  const uint64_t edges = generator->GenerateBatch(
      removed, num_alive, count, rng, &nodes, &set_sizes, members());
  AppendShard(nodes, set_sizes);
  return edges;
}

void RRCollection::RestrictTo(std::span<const NodeId> members) {
  ATPM_CHECK(num_sets() == 0);
  BitVector bits(num_nodes_);
  for (NodeId v : members) bits.Set(v);
  if (bits.Count() == num_nodes_) {
    members_.reset();
  } else {
    members_ = std::move(bits);
  }
}

void RRCollection::Clear() {
  set_offsets_.assign(1, 0);
  set_nodes_.clear();
  members_.reset();
  index_built_ = false;
}

bool RRCollection::Answers(const BitVector& nodes) const {
  if (!members_.has_value()) return true;
  const std::span<const uint64_t> words = nodes.words();
  const std::span<const uint64_t> member_words = members_->words();
  for (size_t i = 0; i < words.size(); ++i) {
    const uint64_t member = i < member_words.size() ? member_words[i] : 0;
    if ((words[i] & ~member) != 0) return false;
  }
  return true;
}

uint64_t RRCollection::CoverageOfNode(NodeId u) const {
  ATPM_DCHECK(Answers(u));
  if (index_built_) {
    return index_offsets_[u + 1] - index_offsets_[u];
  }
  uint64_t cov = 0;
  for (uint64_t i = 0; i < num_sets(); ++i) {
    for (NodeId w : set(i)) {
      if (w == u) {
        ++cov;
        break;
      }
    }
  }
  return cov;
}

uint64_t RRCollection::CoverageOfSet(const BitVector& members) const {
  ATPM_DCHECK(Answers(members));
  uint64_t cov = 0;
  for (uint64_t i = 0; i < num_sets(); ++i) {
    for (NodeId w : set(i)) {
      if (members.Test(w)) {
        ++cov;
        break;
      }
    }
  }
  return cov;
}

uint64_t RRCollection::ConditionalCoverage(NodeId u,
                                           const BitVector& base) const {
  ATPM_DCHECK(!base.Test(u));
  ATPM_DCHECK(Answers(u) && Answers(base));
  uint64_t cov = 0;
  for (uint64_t i = 0; i < num_sets(); ++i) {
    bool has_u = false;
    bool hits_base = false;
    for (NodeId w : set(i)) {
      if (w == u) {
        has_u = true;
      } else if (base.Test(w)) {
        hits_base = true;
        break;
      }
    }
    if (has_u && !hits_base) ++cov;
  }
  return cov;
}

void RRCollection::AnswerBatch(CoverageQueryBatch* batch) const {
  batch->ZeroHits();
  const std::span<const CoverageQuery> queries = batch->queries();
  ATPM_DCHECK(std::all_of(
      queries.begin(), queries.end(), [&](const CoverageQuery& query) {
        return Answers(query.node) &&
               (query.base == nullptr || Answers(*query.base));
      }));
  const size_t num_queries = queries.size();
  if (num_queries == 0 || num_sets() == 0) return;
  uint64_t* hits = batch->hit_data();

  // Fast path: with the inverted index built, unconditional queries are
  // O(1) each — the NSG/NDG initialization shape pays nothing beyond the
  // index it needs anyway.
  const bool all_unconditional = [&]() {
    for (const CoverageQuery& query : queries) {
      if (query.base != nullptr) return false;
    }
    return true;
  }();
  if (index_built_ && all_unconditional) {
    for (size_t q = 0; q < num_queries; ++q) {
      hits[q] = CoveringSets(queries[q].node).size();
    }
    return;
  }

  // General path: one CSR scan. node -> chain of query indices asking
  // about that node (queries may repeat nodes), plus the conditional
  // queries grouped by base bitmap: a sweep conditioning many candidates
  // on the same base (the RisSpreadOracle shape) tests each distinct base
  // once per set node and stamps once per (set, group).
  std::vector<int32_t> head(num_nodes_, -1);
  std::vector<int32_t> next(num_queries, -1);
  constexpr int32_t kNoGroup = -1;
  std::vector<int32_t> query_group(num_queries, kNoGroup);
  std::vector<const BitVector*> bases;
  for (size_t q = 0; q < num_queries; ++q) {
    const NodeId u = queries[q].node;
    next[q] = head[u];
    head[u] = static_cast<int32_t>(q);
    if (queries[q].base != nullptr) {
      size_t group = 0;
      while (group < bases.size() && bases[group] != queries[q].base) {
        ++group;
      }
      if (group == bases.size()) bases.push_back(queries[q].base);
      query_group[q] = static_cast<int32_t>(group);
    }
  }

  // Per-set found/dead marks via set-id stamps: no per-set clearing, and
  // the final per-set tally walks only the queries actually touched.
  std::vector<uint64_t> found_stamp(num_queries, 0);
  std::vector<uint64_t> group_dead_stamp(bases.size(), 0);
  std::vector<uint32_t> touched;
  for (uint64_t i = 0; i < num_sets(); ++i) {
    const uint64_t stamp = i + 1;
    touched.clear();
    for (NodeId w : set(i)) {
      for (int32_t q = head[w]; q >= 0; q = next[q]) {
        if (found_stamp[q] != stamp) {
          found_stamp[q] = stamp;
          touched.push_back(static_cast<uint32_t>(q));
        }
      }
      for (size_t group = 0; group < bases.size(); ++group) {
        if (group_dead_stamp[group] != stamp && bases[group]->Test(w)) {
          group_dead_stamp[group] = stamp;
        }
      }
    }
    for (uint32_t q : touched) {
      const int32_t group = query_group[q];
      if (group == kNoGroup || group_dead_stamp[group] != stamp) ++hits[q];
    }
  }
}

void RRCollection::BuildIndex() {
  index_offsets_.assign(num_nodes_ + 1, 0);
  for (NodeId w : set_nodes_) ++index_offsets_[w + 1];
  for (NodeId v = 0; v < num_nodes_; ++v) {
    index_offsets_[v + 1] += index_offsets_[v];
  }
  index_sets_.resize(set_nodes_.size());
  std::vector<uint64_t> cursor(index_offsets_.begin(),
                               index_offsets_.end() - 1);
  for (uint64_t i = 0; i < num_sets(); ++i) {
    for (NodeId w : set(i)) {
      index_sets_[cursor[w]++] = static_cast<uint32_t>(i);
    }
  }
  index_built_ = true;
}

}  // namespace atpm
