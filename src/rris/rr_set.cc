#include "rris/rr_set.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "graph/geometric_scan.h"

namespace atpm {

RRSetGenerator::RRSetGenerator(const Graph& graph, DiffusionModel model,
                               SamplingKernel kernel)
    : RRSetGenerator(graph, model, kernel,
                     MakeStepTable(graph, model, kernel)) {}

RRSetGenerator::RRSetGenerator(const Graph& graph, DiffusionModel model,
                               SamplingKernel kernel,
                               std::shared_ptr<const StepTable> steps)
    : graph_(&graph),
      model_(model),
      kernel_(kernel),
      step_table_(std::move(steps)),
      weight_version_(graph.weight_version()),
      visited_(graph.num_nodes()) {
  const bool reads_steps = model == DiffusionModel::kIndependentCascade &&
                           kernel == SamplingKernel::kGeometricJump;
  ATPM_CHECK(reads_steps == (step_table_ != nullptr));
  if (step_table_ != nullptr) {
    ATPM_CHECK(step_table_->size() == graph.num_nodes());
    ATPM_CHECK(step_table_->weight_version() == weight_version_);
    steps_ = step_table_->records();
    step_in_adj_ = step_table_->in_adj();
  }
}

std::shared_ptr<const StepTable> RRSetGenerator::MakeStepTable(
    const Graph& graph, DiffusionModel model, SamplingKernel kernel) {
  if (model != DiffusionModel::kIndependentCascade ||
      kernel != SamplingKernel::kGeometricJump) {
    return nullptr;
  }
  return std::make_shared<const StepTable>(graph);
}

void RRSetGenerator::RebuildAliveCache(const BitVector* removed,
                                       uint32_t num_alive) {
  alive_cache_.clear();
  alive_cache_.reserve(num_alive);
  const NodeId n = graph_->num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    if (!removed->Test(v)) alive_cache_.push_back(v);
  }
  // The historical linear scan tolerated num_alive below the true alive
  // count (it indexed the first num_alive alive nodes), so the cache only
  // requires "at least num_alive alive" to reproduce it.
  ATPM_CHECK(alive_cache_.size() >= num_alive);
  alive_cache_removed_ = removed;
  alive_cache_num_alive_ = num_alive;
  alive_cache_valid_ = true;
}

NodeId RRSetGenerator::SampleAliveRoot(const BitVector* removed,
                                       uint32_t num_alive, Rng* rng,
                                       uint64_t* draws) {
  const NodeId n = graph_->num_nodes();
  ATPM_CHECK_GT(num_alive, 0u);
  if (removed == nullptr) {
    ++*draws;
    return static_cast<NodeId>(rng->UniformInt(n));
  }
  // Rejection sampling; the alive fraction stays high in practice (adaptive
  // seeding removes a small part of the graph), so a handful of trials
  // suffice.
  const uint32_t kMaxRejections = 64;
  for (uint32_t t = 0; t < kMaxRejections; ++t) {
    ++*draws;
    const NodeId v = static_cast<NodeId>(rng->UniformInt(n));
    if (!removed->Test(v)) return v;
  }
  // Heavily depleted graph (alive fraction ≲ 2^-6): draw the target-th
  // alive node from a cached alive list instead of re-scanning O(n) per
  // draw, which went quadratic in counting loops on heavily seeded
  // instances. Same single UniformInt consumption and same selected node
  // as the historical scan, so the RNG stream and results are unchanged.
  // The cache lives within ONE public kernel call (Generate /
  // CountCoveringBatch invalidate it on entry, and the generator is not
  // re-entrant, so the bitmap cannot change while it is live) — a
  // counting loop's θ draws share one O(n) build, and no bitmap
  // reallocated at a recycled address can ever serve a stale list.
  if (!alive_cache_valid_ || alive_cache_removed_ != removed ||
      alive_cache_num_alive_ != num_alive) {
    RebuildAliveCache(removed, num_alive);
  }
  ++*draws;
  const uint64_t target = rng->UniformInt(num_alive);
  const NodeId v = alive_cache_[target];
  // A failure here means the caller mutated `removed` mid-call, violating
  // the generator's non-reentrancy contract.
  ATPM_CHECK(!removed->Test(v));
  return v;
}

template <typename Visit>
[[gnu::always_inline]] inline bool RRSetGenerator::ExpandNode(
    NodeId v, const BitVector* removed, Rng* rng, uint64_t* draws,
    uint64_t* edges, Visit&& visit) {
  const Graph& g = *graph_;
  // The historical per-edge loop: kGeneral nodes under the jump kernel and
  // every IC node under the per-edge kernel. It skips dead endpoints before
  // drawing; the jump scans draw first and let visit discard dead
  // successes, which is distribution-identical for independent trials.
  const auto per_edge = [&] {
    const auto neigh = g.InNeighbors(v);
    const auto probs = g.InProbs(v);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId u = neigh[j];
      if (visited_.IsMarked(u)) continue;
      if (removed != nullptr && removed->Test(u)) continue;
      ++*draws;
      if (rng->Bernoulli(probs[j]) && !visit(u)) return false;
    }
    return true;
  };
  if (steps_ != nullptr) {  // IC, geometric-jump kernel
    const StepRecord& step = steps_[v];
    *edges += step.InDegree();
    const NodeId* neigh = step_in_adj_ + step.in_begin;
    switch (step.Kind()) {
      case StepKind::kEmpty:
        return true;
      case StepKind::kJump:
        return OneSegmentJumpScan(step.segment, rng, draws, [&](uint32_t j) {
          return visit(neigh[j]);
        });
      case StepKind::kScan:
        return ScanNonJumpSegment(step.segment, rng, draws, [&](uint32_t j) {
          return visit(neigh[j]);
        });
      case StepKind::kOther:
        break;
    }
    if (g.InWeightClass(v) == NodeWeightClass::kFewDistinct) {
      const auto grouped = g.JumpInNeighbors(v);
      return GeometricSegmentScan(g.InProbSegments(v), rng, draws,
                                  [&](uint32_t j) { return visit(grouped[j]); });
    }
    return per_edge();
  }
  *edges += g.InDegree(v);
  if (model_ == DiffusionModel::kLinearThreshold) {
    const uint32_t slot = PickLtInEdge(
        g, v, removed, kernel_ == SamplingKernel::kGeometricJump, rng, draws);
    return slot == kNoLtPick || visit(g.InNeighbors(v)[slot]);
  }
  return per_edge();
}

uint64_t RRSetGenerator::Generate(const BitVector* removed, uint32_t num_alive,
                                  Rng* rng, std::vector<NodeId>* out) {
  CheckWeightVersion();
  out->clear();
  alive_cache_valid_ = false;  // the residual graph may have moved on
  return GenerateOne(removed, num_alive, rng, out);
}

uint64_t RRSetGenerator::GenerateBatch(const BitVector* removed,
                                       uint32_t num_alive, uint64_t count,
                                       Rng* rng, std::vector<NodeId>* nodes,
                                       std::vector<uint32_t>* set_sizes,
                                       const BitVector* members,
                                       BudgetGate* budget) {
  // One invalidation for the whole block: every root draw of the batch
  // shares one alive-list build on depleted residual graphs, instead of
  // paying the O(n) rebuild per set like a Generate loop would. Root
  // sampling consumes the same stream either way (cache validity never
  // changes RNG consumption), so the batch is bit-identical to the loop.
  CheckWeightVersion();
  alive_cache_valid_ = false;
  uint64_t edges_examined = 0;
  size_t charged_nodes = nodes->size();
  size_t charged_sets = set_sizes->size();
  const auto charge = [&] {
    budget->AddPoolBytes(
        (nodes->size() - charged_nodes) * sizeof(NodeId) +
        (set_sizes->size() - charged_sets) * sizeof(uint64_t));
    charged_nodes = nodes->size();
    charged_sets = set_sizes->size();
  };
  for (uint64_t i = 0; i < count; ++i) {
    if (budget != nullptr && (i & (kBudgetStride - 1)) == 0) {
      charge();
      if (budget->Exhausted() != BudgetStop::kNone) break;
    }
    const size_t begin = nodes->size();
    edges_examined += GenerateOne(removed, num_alive, rng, nodes, members);
    set_sizes->push_back(static_cast<uint32_t>(nodes->size() - begin));
  }
  if (budget != nullptr) charge();
  return edges_examined;
}

uint64_t RRSetGenerator::GenerateOne(const BitVector* removed,
                                     uint32_t num_alive, Rng* rng,
                                     std::vector<NodeId>* out,
                                     const BitVector* members) {
  visited_.NextEpoch();
  uint64_t draws = 0;
  // The walk's queue: the output itself, or scratch_ when only members
  // are stored.
  std::vector<NodeId>* queue = out;
  if (members != nullptr) {
    scratch_.clear();
    queue = &scratch_;
  }
  const size_t begin = queue->size();

  const NodeId root = SampleAliveRoot(removed, num_alive, rng, &draws);
  visited_.Mark(root);
  queue->push_back(root);

  uint64_t edges_examined = 0;
  const auto admit = [&](NodeId u) {
    if (!visited_.IsMarked(u) && (removed == nullptr || !removed->Test(u))) {
      visited_.Mark(u);
      queue->push_back(u);
    }
    return true;
  };
  for (size_t head = begin; head < queue->size(); ++head) {
    ExpandNode((*queue)[head], removed, rng, &draws, &edges_examined, admit);
  }
  if (members != nullptr) {
    for (NodeId v : scratch_) {
      if (members->Test(v)) out->push_back(v);
    }
  }
  rng_draws_ += draws;
  return edges_examined;
}

uint64_t RRSetGenerator::CountCovering(const BitVector* removed,
                                       uint32_t num_alive, uint64_t theta,
                                       NodeId u, const BitVector* base,
                                       Rng* rng) {
  const CoverageQuery query{u, base};
  uint64_t hits = 0;
  CountCoveringBatch(removed, num_alive, theta, {&query, 1}, &hits, rng);
  return hits;
}

void RRSetGenerator::BuildQueryMasks(const BitVector* removed,
                                     std::span<const CoverageQuery> queries) {
  const size_t num_queries = queries.size();
  const size_t words = (num_queries + 63) / 64;
  interesting_.assign((graph_->num_nodes() + 63) / 64, 0);
  mask_bases_.clear();
  mask_nodes_.clear();
  const auto mask_slot = [&](auto* keys, auto key) {
    for (size_t i = 0; i < keys->size(); ++i) {
      if ((*keys)[i] == key) return i;
    }
    keys->push_back(key);
    return keys->size() - 1;
  };
  for (const CoverageQuery& query : queries) {
    if (query.base != nullptr) mask_slot(&mask_bases_, query.base);
  }
  // A base whose nodes are all removed can never be reached by a walk (the
  // root is alive, and removed endpoints are skipped before any test), so
  // it drops out; the others mark their alive nodes interesting.
  const std::span<const uint64_t> removed_words =
      removed != nullptr ? removed->words() : std::span<const uint64_t>();
  size_t kept = 0;
  for (const BitVector* base : mask_bases_) {
    const std::span<const uint64_t> base_words = base->words();
    const size_t n = std::min(base_words.size(), interesting_.size());
    uint64_t any = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t removed_bits =
          i < removed_words.size() ? removed_words[i] : 0;
      const uint64_t alive = base_words[i] & ~removed_bits;
      interesting_[i] |= alive;
      any |= alive;
    }
    if (any != 0) mask_bases_[kept++] = base;
  }
  mask_bases_.resize(kept);
  for (const CoverageQuery& query : queries) {
    mask_slot(&mask_nodes_, query.node);
    interesting_[query.node >> 6] |= 1ULL << (query.node & 63);
  }
  // Layout: one W-word mask per kept base, then one per distinct node.
  query_masks_.assign((mask_bases_.size() + mask_nodes_.size()) * words, 0);
  // Per-set state: dead and found, then the all-queries mask and the
  // unkillable mask (queries with no kept base: once found, always hit).
  set_masks_.assign(4 * words, 0);
  uint64_t* all = set_masks_.data() + 2 * words;
  uint64_t* unkillable = all + words;
  for (size_t q = 0; q < num_queries; ++q) {
    const uint64_t bit = 1ULL << (q & 63);
    all[q / 64] |= bit;
    unkillable[q / 64] |= bit;
    for (size_t b = 0; b < mask_bases_.size(); ++b) {
      if (mask_bases_[b] == queries[q].base) {
        query_masks_[b * words + q / 64] |= bit;
        unkillable[q / 64] &= ~bit;
      }
    }
    const size_t node = mask_slot(&mask_nodes_, queries[q].node);
    query_masks_[(mask_bases_.size() + node) * words + q / 64] |= bit;
  }
}

uint64_t RRSetGenerator::CountCoveringBatch(
    const BitVector* removed, uint32_t num_alive, uint64_t theta,
    std::span<const CoverageQuery> queries, uint64_t* hits, Rng* rng,
    const BudgetGate* budget, uint64_t* sampled) {
  CheckWeightVersion();
  const size_t num_queries = queries.size();
  if (sampled != nullptr) *sampled = theta;
  for (size_t q = 0; q < num_queries; ++q) hits[q] = 0;
  if (num_queries == 0) return 0;
  BuildQueryMasks(removed, queries);
  const size_t words = (num_queries + 63) / 64;
  const size_t num_bases = mask_bases_.size();
  const uint64_t* base_masks = query_masks_.data();
  const uint64_t* node_masks = base_masks + num_bases * words;
  uint64_t* dead = set_masks_.data();
  uint64_t* found = dead + words;
  const uint64_t* all = found + words;
  const uint64_t* unkillable = all + words;
  alive_cache_valid_ = false;  // the residual graph may have moved on
  uint64_t edges_examined = 0;
  uint64_t draws = 0;
  uint64_t settled_walks = 0;
  uint64_t walk_nodes = 0;

  // An interesting node (alive in some base, or a query node) folds its
  // queries into the per-set masks; returns true once every query is
  // settled: dead, or found with nothing left that could kill it.
  // Out of line: it runs on few visits, and inlined it slows every visit.
  const auto fold = [&](NodeId w) __attribute__((noinline)) {
    for (size_t b = 0; b < num_bases; ++b) {
      if (!mask_bases_[b]->Test(w)) continue;
      for (size_t k = 0; k < words; ++k) dead[k] |= base_masks[b * words + k];
    }
    for (size_t i = 0; i < mask_nodes_.size(); ++i) {
      if (mask_nodes_[i] != w) continue;
      for (size_t k = 0; k < words; ++k) found[k] |= node_masks[i * words + k];
      break;
    }
    for (size_t k = 0; k < words; ++k) {
      if ((dead[k] | (found[k] & unkillable[k])) != all[k]) return false;
    }
    return true;
  };
  const auto interesting = [&](NodeId w) {
    return (interesting_[w >> 6] >> (w & 63)) & 1ULL;
  };
  // Shared per-success handling for every kernel path: dead endpoints are
  // ignored, a visit that settles the last open query aborts the walk, and
  // survivors are marked and enqueued.
  const auto process = [&](NodeId w) -> bool {
    if (visited_.IsMarked(w) || (removed != nullptr && removed->Test(w))) {
      return true;
    }
    if (interesting(w) && fold(w)) return false;
    visited_.Mark(w);
    scratch_.push_back(w);
    return true;
  };

  for (uint64_t t = 0; t < theta; ++t) {
    if (budget != nullptr && (t & (kBudgetStride - 1)) == 0 &&
        budget->Exhausted() != BudgetStop::kNone) {
      if (sampled != nullptr) *sampled = t;
      break;
    }
    visited_.NextEpoch();
    scratch_.clear();

    const NodeId root = SampleAliveRoot(removed, num_alive, rng, &draws);
    std::fill(dead, dead + 2 * words, 0);
    // Every query settled at the root: nothing to walk, but its hits count.
    bool settled = interesting(root) && fold(root);
    if (!settled) {
      visited_.Mark(root);
      scratch_.push_back(root);
      for (size_t head = 0; head < scratch_.size(); ++head) {
        if (!ExpandNode(scratch_[head], removed, rng, &draws, &edges_examined,
                        process)) {
          settled = true;
          break;
        }
      }
    }
    settled_walks += settled;
    walk_nodes += scratch_.size();
    for (size_t k = 0; k < words; ++k) {
      for (uint64_t live_hits = found[k] & ~dead[k]; live_hits != 0;
           live_hits &= live_hits - 1) {
        ++hits[k * 64 + static_cast<size_t>(std::countr_zero(live_hits))];
      }
    }
  }
  rng_draws_ += draws;
  settled_walks_ += settled_walks;
  count_walk_nodes_ += walk_nodes;
  return edges_examined;
}

}  // namespace atpm
