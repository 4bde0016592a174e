#include "rris/rr_set.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/geometric_scan.h"

namespace atpm {

RRSetGenerator::RRSetGenerator(const Graph& graph, DiffusionModel model,
                               SamplingKernel kernel)
    : graph_(&graph),
      model_(model),
      kernel_(kernel),
      visited_(graph.num_nodes()) {}

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

namespace {

// LT reverse step, historical kernel: node v keeps at most one alive
// in-neighbor, in-edge j with probability InProbs(v)[j] (edges from removed
// nodes do not exist, their mass falls into "no pick"). Returns the picked
// neighbor or n (= none). Consumes exactly one uniform draw (counted by the
// caller).
NodeId PickLtPrefix(const Graph& g, NodeId v, const BitVector* removed,
                    Rng* rng) {
  const auto neigh = g.InNeighbors(v);
  const auto probs = g.InProbs(v);
  double r = rng->UniformDouble();
  for (uint32_t j = 0; j < neigh.size(); ++j) {
    if (removed != nullptr && removed->Test(neigh[j])) continue;
    if (r < probs[j]) return neigh[j];
    r -= probs[j];
  }
  return g.num_nodes();
}

// LT reverse step, jump kernel: O(1) pick per the node's LtPickPlan. Picks
// an in-edge by its own probability and nullifies removed picks afterwards
// — the same distribution as the skip-removed prefix scan whenever no
// probability mass is truncated, which the plan gate guarantees (mass > 1
// nodes keep the prefix scan).
NodeId PickLtFast(const Graph& g, NodeId v, const BitVector* removed,
                  Rng* rng, uint64_t* draws) {
  const NodeId n = g.num_nodes();
  switch (g.LtInPlan(v)) {
    case LtPickPlan::kNone:
      return n;
    case LtPickPlan::kUniform: {
      const ProbSegment seg = g.InProbSegments(v)[0];
      const double p = static_cast<double>(seg.prob);
      if (p <= 0.0) return n;  // zero mass: no pick, no draw
      ++*draws;
      const double r = rng->UniformDouble();
      const double j = r / p;
      if (j >= static_cast<double>(seg.length)) return n;
      const NodeId u = g.InNeighbors(v)[static_cast<uint32_t>(j)];
      return (removed != nullptr && removed->Test(u)) ? n : u;
    }
    case LtPickPlan::kAlias: {
      const auto slots = g.LtAliasSlots(v);
      ++*draws;
      const double x =
          rng->UniformDouble() * static_cast<double>(slots.size());
      uint32_t i = static_cast<uint32_t>(x);
      if (i >= slots.size()) i = static_cast<uint32_t>(slots.size()) - 1;
      if (x - static_cast<double>(i) >= slots[i].threshold) {
        i = slots[i].alias;
      }
      if (i + 1 >= slots.size()) return n;  // the "no pick" outcome
      const NodeId u = g.InNeighbors(v)[i];
      return (removed != nullptr && removed->Test(u)) ? n : u;
    }
    case LtPickPlan::kPrefix:
      ++*draws;
      return PickLtPrefix(g, v, removed, rng);
  }
  return n;
}

// Expands a jump-class node's in-edges, calling visit(u) for every
// successful in-neighbor u. The jump classes draw first and let visit
// discard dead (visited/removed) successes, which is
// distribution-identical to skip-then-draw for independent trials.
// kGeneral nodes are NOT handled here: callers route them through the
// historical per-edge loop, which is already the tuned fallback (and
// skips dead endpoints before drawing). Returns false iff visit aborted.
template <typename Visit>
bool ExpandIcJump(const Graph& g, NodeId v, Rng* rng, uint64_t* draws,
                  Visit&& visit) {
  if (g.InWeightClass(v) == NodeWeightClass::kFewDistinct) {
    const auto arcs = g.JumpInArcs(v);
    return GeometricSegmentScan(
        g.InProbSegments(v), rng, draws,
        [&](uint32_t j) { return visit(arcs[j].src); });
  }
  const auto neigh = g.InNeighbors(v);
  return GeometricSegmentScan(g.InProbSegments(v), rng, draws,
                              [&](uint32_t j) { return visit(neigh[j]); });
}

// True iff the jump kernel has a fast path for v's class (kEmpty expands
// to nothing either way; kGeneral keeps the per-edge loop). kSegmentedRuns
// scans its CSR-ordered per-edge segments through the same path as
// kUniform — the in-direction index never emits it today, but the
// expansion is correct if it ever does.
bool HasJumpPath(const Graph& g, NodeId v) {
  const NodeWeightClass cls = g.InWeightClass(v);
  return cls == NodeWeightClass::kUniform ||
         cls == NodeWeightClass::kFewDistinct ||
         cls == NodeWeightClass::kSegmentedRuns;
}

}  // namespace

uint64_t RRSetGenerator::Generate(const BitVector* removed, uint32_t num_alive,
                                  Rng* rng, std::vector<NodeId>* out) {
  out->clear();
  alive_cache_valid_ = false;  // the residual graph may have moved on
  return GenerateOne(removed, num_alive, rng, out);
}

uint64_t RRSetGenerator::GenerateBatch(const BitVector* removed,
                                       uint32_t num_alive, uint64_t count,
                                       Rng* rng, std::vector<NodeId>* nodes,
                                       std::vector<uint32_t>* set_sizes,
                                       BudgetGate* budget) {
  // One invalidation for the whole block: every root draw of the batch
  // shares one alive-list build on depleted residual graphs, instead of
  // paying the O(n) rebuild per set like a Generate loop would. Root
  // sampling consumes the same stream either way (cache validity never
  // changes RNG consumption), so the batch is bit-identical to the loop.
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
    edges_examined += GenerateOne(removed, num_alive, rng, nodes);
    set_sizes->push_back(static_cast<uint32_t>(nodes->size() - begin));
  }
  if (budget != nullptr) charge();
  return edges_examined;
}

uint64_t RRSetGenerator::GenerateOne(const BitVector* removed,
                                     uint32_t num_alive, Rng* rng,
                                     std::vector<NodeId>* out) {
  const Graph& g = *graph_;
  visited_.NextEpoch();
  uint64_t draws = 0;
  const size_t begin = out->size();

  const NodeId root = SampleAliveRoot(removed, num_alive, rng, &draws);
  visited_.Mark(root);
  out->push_back(root);

  const bool jump = kernel_ == SamplingKernel::kGeometricJump;
  uint64_t edges_examined = 0;
  const auto dead = [&](NodeId u) {
    return visited_.IsMarked(u) ||
           (removed != nullptr && removed->Test(u));
  };
  const auto admit = [&](NodeId u) {
    if (!dead(u)) {
      visited_.Mark(u);
      out->push_back(u);
    }
    return true;
  };
  for (size_t head = begin; head < out->size(); ++head) {
    const NodeId v = (*out)[head];
    if (model_ == DiffusionModel::kLinearThreshold) {
      edges_examined += g.InDegree(v);
      NodeId u;
      if (jump) {
        u = PickLtFast(g, v, removed, rng, &draws);
      } else {
        ++draws;
        u = PickLtPrefix(g, v, removed, rng);
      }
      if (u < g.num_nodes()) admit(u);
      continue;
    }
    if (jump && HasJumpPath(g, v)) {
      edges_examined += g.InDegree(v);
      ExpandIcJump(g, v, rng, &draws, admit);
      continue;
    }
    const auto neigh = g.InNeighbors(v);
    const auto probs = g.InProbs(v);
    edges_examined += neigh.size();
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId u = neigh[j];
      if (visited_.IsMarked(u)) continue;
      if (removed != nullptr && removed->Test(u)) continue;
      ++draws;
      if (!rng->Bernoulli(probs[j])) continue;
      visited_.Mark(u);
      out->push_back(u);
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
  for (size_t q = 0; q < num_queries; ++q) {
    const uint64_t bit = 1ULL << (q & 63);
    for (size_t b = 0; b < mask_bases_.size(); ++b) {
      if (mask_bases_[b] == queries[q].base) {
        query_masks_[b * words + q / 64] |= bit;
      }
    }
    const size_t node = mask_slot(&mask_nodes_, queries[q].node);
    query_masks_[(mask_bases_.size() + node) * words + q / 64] |= bit;
  }
  // Per-set state: dead, found, and the all-queries mask.
  set_masks_.assign(3 * words, 0);
  uint64_t* all = set_masks_.data() + 2 * words;
  for (size_t q = 0; q < num_queries; ++q) all[q / 64] |= 1ULL << (q & 63);
}

uint64_t RRSetGenerator::CountCoveringBatch(
    const BitVector* removed, uint32_t num_alive, uint64_t theta,
    std::span<const CoverageQuery> queries, uint64_t* hits, Rng* rng,
    const BudgetGate* budget, uint64_t* sampled) {
  const Graph& g = *graph_;
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
  alive_cache_valid_ = false;  // the residual graph may have moved on
  const bool jump = kernel_ == SamplingKernel::kGeometricJump;
  uint64_t edges_examined = 0;
  uint64_t draws = 0;

  // An interesting node (alive in some base, or a query node) folds its
  // queries into the per-set masks; returns true once every query is dead.
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
      if (dead[k] != all[k]) return false;
    }
    return true;
  };
  const auto interesting = [&](NodeId w) {
    return (interesting_[w >> 6] >> (w & 63)) & 1ULL;
  };
  // Shared per-success handling for every kernel path: dead endpoints are
  // ignored, a visit that kills the last live query aborts the walk, and
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
    // Every query disqualified at the root: nothing to walk.
    if (interesting(root) && fold(root)) continue;

    visited_.Mark(root);
    scratch_.push_back(root);

    for (size_t head = 0; head < scratch_.size(); ++head) {
      const NodeId v = scratch_[head];
      if (model_ == DiffusionModel::kLinearThreshold) {
        edges_examined += g.InDegree(v);
        NodeId w;
        if (jump) {
          w = PickLtFast(g, v, removed, rng, &draws);
        } else {
          ++draws;
          w = PickLtPrefix(g, v, removed, rng);
        }
        if (w >= g.num_nodes()) continue;
        if (!process(w)) break;
        continue;
      }
      if (jump && HasJumpPath(g, v)) {
        edges_examined += g.InDegree(v);
        if (!ExpandIcJump(g, v, rng, &draws, process)) break;
        continue;
      }
      const auto neigh = g.InNeighbors(v);
      const auto probs = g.InProbs(v);
      edges_examined += neigh.size();
      bool abort = false;
      for (uint32_t j = 0; j < neigh.size(); ++j) {
        const NodeId w = neigh[j];
        if (visited_.IsMarked(w)) continue;
        if (removed != nullptr && removed->Test(w)) continue;
        ++draws;
        if (!rng->Bernoulli(probs[j])) continue;
        if (!process(w)) {
          abort = true;
          break;
        }
      }
      if (abort) break;
    }
    for (size_t k = 0; k < words; ++k) {
      for (uint64_t live_hits = found[k] & ~dead[k]; live_hits != 0;
           live_hits &= live_hits - 1) {
        ++hits[k * 64 + static_cast<size_t>(std::countr_zero(live_hits))];
      }
    }
  }
  rng_draws_ += draws;
  return edges_examined;
}

}  // namespace atpm
