#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/metrics.h"

namespace atpm {

const char* SamplingKernelName(SamplingKernel kernel) {
  switch (kernel) {
    case SamplingKernel::kGeometricJump:
      return "geometric-jump";
    case SamplingKernel::kPerEdge:
      return "per-edge";
  }
  return "?";
}

std::vector<WeightedEdge> Graph::CollectEdges() const {
  std::vector<WeightedEdge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < n_; ++u) {
    const auto neigh = OutNeighbors(u);
    const auto probs = OutProbs(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      edges.push_back(WeightedEdge{u, neigh[j], probs[j]});
    }
  }
  return edges;
}

namespace {

// Relative cost of one log() against one Bernoulli trial (RNG step +
// multiply + compare) on commodity x86 — the break-even constant of the
// jump gate below. Erring low only forfeits upside on marginal segments;
// erring high regresses short low-probability runs. The scan's table log
// now makes most successes cheaper than this, but the gate stays as
// calibrated: it decides which segments jump, so moving it would change
// every jump-kernel RNG stream.
constexpr double kGeometricLogCost = 3.0;

// log1p(-p) for the geometric inverse CDF — or 0 when the segment should
// be scanned per-edge instead. Under the cross-segment walk
// (GeometricSegmentScan) a run of jump segments costs roughly one log per
// *success* plus half a terminal draw, against one Bernoulli per edge for
// the linear scan: jump iff length * prob * kGeometricLogCost + 0.5 <=
// length. High-probability short segments (p = 0.5 pairs) stay linear;
// everything in the weighted-cascade / trivalency regime jumps.
// Degenerate probs are always drawless and also encode as 0 (the scan
// special-cases them before reading the factor).
double JumpFactor(uint32_t length, float prob) {
  const double p = static_cast<double>(prob);
  if (p <= 0.0 || p >= 1.0) return 0.0;
  const double expected_logs = static_cast<double>(length) * p;
  if (expected_logs * kGeometricLogCost + 0.5 > static_cast<double>(length)) {
    return 0.0;
  }
  return std::log1p(-p);
}

// Walker/Vose alias construction over `weights` (need not sum to 1; the
// table realizes weights[i] / Σ weights). Appends weights.size() slots.
void BuildAliasTable(const std::vector<double>& weights,
                     std::vector<LtAliasSlot>* out) {
  const uint32_t k = static_cast<uint32_t>(weights.size());
  double total = 0.0;
  for (double w : weights) total += w;
  const size_t base = out->size();
  out->resize(base + k);
  LtAliasSlot* slots = out->data() + base;
  if (total <= 0.0) {
    // Degenerate: make every slot resolve to the last outcome ("no pick"
    // in the LT usage); callers never hit this for real LT nodes because
    // the "none" weight is positive whenever the edge mass is 0.
    for (uint32_t i = 0; i < k; ++i) slots[i] = LtAliasSlot{0.0, k - 1};
    return;
  }
  // Scaled weights; <1 goes to `small`, >=1 to `large`.
  std::vector<double> scaled(k);
  std::vector<uint32_t> small, large;
  for (uint32_t i = 0; i < k; ++i) {
    scaled[i] = weights[i] * k / total;
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    slots[s] = LtAliasSlot{scaled[s], l};
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (uint32_t l : large) slots[l] = LtAliasSlot{1.0, l};
  for (uint32_t s : small) slots[s] = LtAliasSlot{1.0, s};
}

// Fills run_any_prob over segments [begin, end): suffix any-success
// probabilities within each maximal run of jump segments, back to front.
// run_any_prob of a segment covers the run from it to the run's end, which
// is exactly what the scan's remaining suffix is whenever it sits at a
// segment boundary.
void FillRunAnyProb(std::vector<ProbSegment>* segments, size_t begin) {
  double suffix_ln = 0.0;
  for (size_t i = segments->size(); i-- > begin;) {
    ProbSegment& seg = (*segments)[i];
    if (seg.log1p_neg == 0.0) {
      suffix_ln = 0.0;  // run boundary
      continue;
    }
    suffix_ln += static_cast<double>(seg.length) * seg.log1p_neg;
    seg.run_any_prob = -std::expm1(suffix_ln);
  }
}

// Decides whether an irregular (all-distinct or overflowed) probability
// vector is still worth segmenting as one length-1 segment per edge in the
// original CSR order, so the cross-segment geometric walk can share draws
// across runs of consecutive low-probability edges. The walk costs about
// one draw per success plus one terminal draw per maximal jump run (gated
// and degenerate edges cost what they cost per-edge); require a clear 2x
// draw advantage over the per-edge loop before paying the extra segment
// storage and dispatch.
bool SegmentedRunsProfitable(std::span<const float> probs) {
  const uint32_t deg = static_cast<uint32_t>(probs.size());
  if (deg < 3) return false;
  double per_edge_draws = 0.0;
  double segmented_draws = 0.0;
  bool in_run = false;
  for (float pf : probs) {
    const double p = static_cast<double>(pf);
    if (p <= 0.0 || p >= 1.0) {
      in_run = false;  // degenerate: drawless under both kernels
      continue;
    }
    per_edge_draws += 1.0;
    if (JumpFactor(1, pf) != 0.0) {
      if (!in_run) {
        segmented_draws += 1.0;  // the run's terminal no-more-success draw
        in_run = true;
      }
      segmented_draws += p;  // one draw per success
    } else {
      segmented_draws += 1.0;  // gate-rejected: linear Bernoulli either way
      in_run = false;
    }
  }
  return segmented_draws * 2.0 <= per_edge_draws;
}

// Edges sampled without per-edge draws: jump-enabled segments plus the
// drawless degenerate ones — the WeightClassProfile jumpable criterion.
// Gate-rejected segments run the linear Bernoulli scan and are NOT
// jumpable, even on uniform / few-distinct nodes.
uint64_t CountJumpableEdges(std::span<const ProbSegment> segments) {
  uint64_t jumpable = 0;
  for (const ProbSegment& seg : segments) {
    if (seg.log1p_neg != 0.0 || seg.prob <= 0.0f || seg.prob >= 1.0f) {
      jumpable += seg.length;
    }
  }
  return jumpable;
}

ProbSegment MakeSegment(uint32_t length, float prob) {
  return ProbSegment{length, prob, JumpFactor(length, prob), 0.0};
}

// Distinct-value census of one node's probability vector, capped at
// kMaxDistinctInProbs: the distinct values in first-seen order with their
// multiplicities, or `overflow` (the scan stops) past the cap.
struct ProbCensus {
  float values[kMaxDistinctInProbs] = {};
  uint32_t counts[kMaxDistinctInProbs] = {};
  uint32_t num_distinct = 0;
  bool overflow = false;

  explicit ProbCensus(std::span<const float> probs) {
    for (const float p : probs) {
      uint32_t d = 0;
      while (d < num_distinct && values[d] != p) ++d;
      if (d == num_distinct) {
        if (num_distinct == kMaxDistinctInProbs) {
          overflow = true;
          return;
        }
        values[num_distinct] = p;
        counts[num_distinct] = 0;
        ++num_distinct;
      }
      ++counts[d];
    }
  }
};

// Appends a kFewDistinct node's jump view: one segment per distinct
// probability, descending (order is statistically irrelevant for
// independent trials; descending keeps the near-certain edges in the first
// cache lines), with the arcs and their original CSR slots grouped to
// match. `Arc` is InArc or OutArc.
template <typename Arc>
void AppendGroupedRuns(const ProbCensus& census, std::span<const NodeId> neigh,
                       std::span<const float> probs,
                       std::vector<ProbSegment>* segments,
                       std::vector<Arc>* arcs, std::vector<uint32_t>* slots) {
  // Insertion sort of the value indices, descending. The values are
  // distinct, so the order is unique and stream-identical to std::sort,
  // which is avoided because libstdc++'s reads up to its 16-element
  // insertion-sort threshold, and GCC's -Warray-bounds rejects that
  // against this 8-slot stack array at -O2.
  uint32_t order[kMaxDistinctInProbs] = {};
  for (uint32_t i = 0; i < census.num_distinct; ++i) {
    uint32_t j = i;
    for (; j > 0 && census.values[order[j - 1]] < census.values[i]; --j) {
      order[j] = order[j - 1];
    }
    order[j] = i;
  }
  for (uint32_t oi = 0; oi < census.num_distinct; ++oi) {
    const uint32_t d = order[oi];
    const float p = census.values[d];
    segments->push_back(MakeSegment(census.counts[d], p));
    for (uint32_t j = 0; j < probs.size(); ++j) {
      if (probs[j] == p) {
        arcs->push_back(Arc{neigh[j], p});
        slots->push_back(j);
      }
    }
  }
}

// Node-class census of one direction's index.
WeightClassProfile ProfileClasses(std::span<const NodeWeightClass> classes,
                                  std::span<const ProbSegment> segments,
                                  uint64_t total_edges) {
  WeightClassProfile profile;
  profile.total_edges = total_edges;
  for (const NodeWeightClass cls : classes) {
    switch (cls) {
      case NodeWeightClass::kEmpty:
        ++profile.empty_nodes;
        break;
      case NodeWeightClass::kUniform:
        ++profile.uniform_nodes;
        break;
      case NodeWeightClass::kFewDistinct:
        ++profile.few_distinct_nodes;
        break;
      case NodeWeightClass::kGeneral:
        ++profile.general_nodes;
        break;
      case NodeWeightClass::kSegmentedRuns:
        ++profile.segmented_nodes;
        break;
    }
  }
  profile.jumpable_edges = CountJumpableEdges(segments);
  return profile;
}

}  // namespace

void Graph::RebuildInWeightIndex() {
  const NodeId n = n_;
  // Assemble into plain vectors and adopt at the end: the blocks may be
  // read-only views into a mapping (see array_block.h), and bulk
  // construction keeps the hot accessors branch-free.
  std::vector<NodeWeightClass> in_class(n, NodeWeightClass::kEmpty);
  std::vector<uint64_t> seg_offsets(n + 1, 0);
  std::vector<ProbSegment> in_segments;
  std::vector<uint64_t> jump_offsets(n + 1, 0);
  std::vector<InArc> jump_in_arcs;
  std::vector<uint32_t> jump_in_slots;
  std::vector<uint8_t> lt_plan(n, static_cast<uint8_t>(LtPickPlan::kNone));
  std::vector<uint64_t> lt_alias_offsets(n + 1, 0);
  std::vector<LtAliasSlot> lt_alias;

  // LT mass within [1, 1 + eps] is treated as exactly 1: float rounding of
  // per-edge probs (e.g. weighted cascade's indeg * float(1/indeg)) must
  // not demote an O(1) pick to the linear prefix scan.
  constexpr double kLtMassEps = 1e-6;
  // An alias pick replaces an O(deg) prefix scan with one draw plus a
  // table lookup; for short in-lists the scan is already a handful of
  // float compares in one cache line, so the table only pays off above
  // this degree.
  constexpr uint32_t kMinAliasDegree = 8;
  std::vector<double> alias_weights;

  for (NodeId v = 0; v < n; ++v) {
    const auto probs = InProbs(v);
    const uint32_t deg = static_cast<uint32_t>(probs.size());
    if (deg > 0) {
      const ProbCensus census(probs);
      // All-distinct vectors (every edge its own probability, the
      // uniform-random weighting on low-degree nodes) have no same-p runs
      // to jump over: grouping them into length-1 segments would only add
      // dispatch overhead, so they take the general per-edge path too.
      // General nodes materialize nothing — the kernels run the historical
      // per-edge loop over the original CSR for them.
      if (census.overflow ||
          (census.num_distinct > 1 && census.num_distinct == deg)) {
        in_class[v] = NodeWeightClass::kGeneral;
      } else if (census.num_distinct == 1) {
        in_class[v] = NodeWeightClass::kUniform;
        in_segments.push_back(MakeSegment(deg, census.values[0]));
      } else {
        in_class[v] = NodeWeightClass::kFewDistinct;
        AppendGroupedRuns(census, InNeighbors(v), probs, &in_segments,
                          &jump_in_arcs, &jump_in_slots);
      }

      // LT pick plan. The closed-form / alias picks select an edge by its
      // own probability and nullify removed picks afterwards, which
      // matches the historical skip-removed prefix scan only while no
      // probability mass is truncated — hence the mass <= 1 (+eps) gate.
      const double mass = std::accumulate(probs.begin(), probs.end(), 0.0);
      LtPickPlan plan = LtPickPlan::kPrefix;
      if (in_class[v] == NodeWeightClass::kUniform) {
        const double uniform_mass =
            static_cast<double>(deg) * static_cast<double>(census.values[0]);
        if (uniform_mass <= 1.0 + kLtMassEps) plan = LtPickPlan::kUniform;
      } else if (mass <= 1.0 + kLtMassEps && deg >= kMinAliasDegree) {
        plan = LtPickPlan::kAlias;
        alias_weights.assign(probs.begin(), probs.end());
        alias_weights.push_back(std::max(0.0, 1.0 - mass));
        BuildAliasTable(alias_weights, &lt_alias);
      }
      lt_plan[v] = static_cast<uint8_t>(plan);
      FillRunAnyProb(&in_segments, seg_offsets[v]);
    }
    seg_offsets[v + 1] = in_segments.size();
    jump_offsets[v + 1] = jump_in_arcs.size();
    lt_alias_offsets[v + 1] = lt_alias.size();
  }
  in_jumpable_edges_ = CountJumpableEdges(in_segments);

  in_class_.Adopt(std::move(in_class));
  seg_offsets_.Adopt(std::move(seg_offsets));
  in_segments_.Adopt(std::move(in_segments));
  jump_offsets_.Adopt(std::move(jump_offsets));
  jump_in_arcs_.Adopt(std::move(jump_in_arcs));
  jump_in_slots_.Adopt(std::move(jump_in_slots));
  lt_plan_.Adopt(std::move(lt_plan));
  lt_alias_offsets_.Adopt(std::move(lt_alias_offsets));
  lt_alias_.Adopt(std::move(lt_alias));
}

void Graph::RebuildOutWeightIndex() {
  const NodeId n = n_;
  // Same assemble-then-adopt pattern as RebuildInWeightIndex.
  std::vector<NodeWeightClass> out_class(n, NodeWeightClass::kEmpty);
  std::vector<uint64_t> out_seg_offsets(n + 1, 0);
  std::vector<ProbSegment> out_segments;
  std::vector<uint64_t> out_jump_offsets(n + 1, 0);
  std::vector<OutArc> jump_out_arcs;
  std::vector<uint32_t> jump_out_slots;

  for (NodeId u = 0; u < n; ++u) {
    const auto probs = OutProbs(u);
    const uint32_t deg = static_cast<uint32_t>(probs.size());
    if (deg > 0) {
      const ProbCensus census(probs);
      if (!census.overflow && census.num_distinct == 1) {
        out_class[u] = NodeWeightClass::kUniform;
        out_segments.push_back(MakeSegment(deg, census.values[0]));
      } else if (!census.overflow && census.num_distinct < deg) {
        out_class[u] = NodeWeightClass::kFewDistinct;
        AppendGroupedRuns(census, OutNeighbors(u), probs, &out_segments,
                          &jump_out_arcs, &jump_out_slots);
      } else if (SegmentedRunsProfitable(probs)) {
        // Irregular vector, but predominantly low-probability: one
        // length-1 segment per edge in the ORIGINAL CSR order. Runs of
        // consecutive jump-enabled edges then share draws in the
        // cross-segment walk — the weighted-cascade forward case
        // (p(u, v) = 1/indeg(v), almost always all-distinct, almost always
        // tiny on hub-heavy graphs).
        out_class[u] = NodeWeightClass::kSegmentedRuns;
        for (const float p : probs) out_segments.push_back(MakeSegment(1, p));
      } else {
        out_class[u] = NodeWeightClass::kGeneral;
      }
      FillRunAnyProb(&out_segments, out_seg_offsets[u]);
    }
    out_seg_offsets[u + 1] = out_segments.size();
    out_jump_offsets[u + 1] = jump_out_arcs.size();
  }
  out_jumpable_edges_ = CountJumpableEdges(out_segments);

  out_class_.Adopt(std::move(out_class));
  out_seg_offsets_.Adopt(std::move(out_seg_offsets));
  out_segments_.Adopt(std::move(out_segments));
  out_jump_offsets_.Adopt(std::move(out_jump_offsets));
  jump_out_arcs_.Adopt(std::move(jump_out_arcs));
  jump_out_slots_.Adopt(std::move(jump_out_slots));
}

void Graph::EnsureOwnedStorage() {
  if (out_offsets_.IsView()) {
    // Count only real detaches (store-backed views about to be copied),
    // not the no-op calls on already-owned graphs.
    static obs::Counter* const detaches =
        obs::MetricsRegistry::Global().RegisterCounter(
            "atpm_graph_detach_total",
            "Store-backed graphs copied into owned storage");
    detaches->Increment();
  }
  ForEachArray(*this, [](const char*, Extent, auto& block) {
    block.EnsureOwned();
  });
  backing_.reset();
}

WeightClassProfile Graph::InWeightClassProfile() const {
  WeightClassProfile profile =
      ProfileClasses(in_class_, in_segments_, num_edges());
  for (const uint8_t plan : lt_plan_) {
    if (plan == static_cast<uint8_t>(LtPickPlan::kUniform) ||
        plan == static_cast<uint8_t>(LtPickPlan::kAlias)) {
      ++profile.lt_fast_nodes;
    }
  }
  return profile;
}

WeightClassProfile Graph::OutWeightClassProfile() const {
  // lt_fast_nodes stays 0: the forward LT step draws one threshold per
  // node, there is no out-direction edge pick to plan.
  return ProfileClasses(out_class_, out_segments_, num_edges());
}

}  // namespace atpm
