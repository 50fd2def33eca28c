#include "core/decision.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace sapp {

namespace {

/// "cost model: <best> predicted X ms vs <runner-up> Y ms".
std::string model_rationale(const std::vector<CostPrediction>& ranked) {
  std::ostringstream os;
  os << "cost model: " << to_string(ranked.front().scheme) << " predicted "
     << ranked.front().total() * 1e3 << " ms";
  if (ranked.size() > 1 && ranked[1].applicable)
    os << " vs " << to_string(ranked[1].scheme) << " "
       << ranked[1].total() * 1e3 << " ms";
  return os.str();
}

}  // namespace

Decision decide_model(const PatternStats& stats, unsigned body_flops,
                      const MachineCoeffs& mc) {
  Decision d;
  d.predictions = predict_all(stats, body_flops, mc);
  SAPP_REQUIRE(!d.predictions.empty() && d.predictions.front().applicable,
               "no applicable scheme");
  d.recommended = d.predictions.front().scheme;
  d.rationale = model_rationale(d.predictions);
  return d;
}

void add_sequential_venue(Decision& d, const PatternStats& stats,
                          unsigned body_flops, const MachineCoeffs& mc) {
  const CostPrediction seq =
      predict_cost(SchemeKind::kSeq, stats, body_flops, mc);
  auto& ranked = d.predictions;
  // Ties stay with the parallel scheme already ranked there.
  const auto at =
      std::find_if(ranked.begin(), ranked.end(), [&](const auto& c) {
        return !c.applicable || c.total() > seq.total();
      });
  ranked.insert(at, seq);
  d.recommended = ranked.front().scheme;
  d.rationale = model_rationale(ranked);
}

Decision decide_rules(const PatternStats& s, const RuleThresholds& th) {
  Decision d;
  std::ostringstream why;

  if (s.sp < th.hash_sp_max && s.mo >= th.hash_mo_min && s.dim_ratio > 1.0) {
    // Very sparse wide-scatter references into an array much bigger than
    // cache: hash tables shrink the processed space (the paper's Spice
    // case, MO = 28).
    d.recommended = SchemeKind::kHash;
    why << "SP=" << s.sp << "% < " << th.hash_sp_max << "%, MO=" << s.mo
        << " >= " << th.hash_mo_min << " and DIM=" << s.dim_ratio
        << " > 1: very sparse scatter -> hash";
  } else if (s.chr >= th.rep_chr_min && s.dim_ratio <= th.rep_dim_max) {
    // Heavy reuse of a modest array: full replication amortizes its
    // init/merge sweeps (Irreg small, Moldyn small).
    d.recommended = SchemeKind::kRep;
    why << "CHR=" << s.chr << " >= " << th.rep_chr_min
        << " and DIM=" << s.dim_ratio << " <= " << th.rep_dim_max
        << ": dense reuse -> rep";
  } else if (s.lw_legal && s.lw_replication <= th.lw_replication_max &&
             s.lw_imbalance <= th.lw_imbalance_max && s.chr >= 0.05) {
    // Moderate reuse, good partition locality, balanced owners: owner
    // computes avoids all private storage (Irreg medium).
    d.recommended = SchemeKind::kLocalWrite;
    why << "lw legal, replication=" << s.lw_replication
        << " <= " << th.lw_replication_max << ", imbalance=" << s.lw_imbalance
        << " <= " << th.lw_imbalance_max << " -> lw";
  } else if (s.shared_fraction >= th.ll_shared_min) {
    // Most touched elements are shared between threads: selective
    // privatization degenerates to full replication plus indirection, so
    // lazy-init replicated buffers win (Moldyn large, Charmm).
    d.recommended = SchemeKind::kLinked;
    why << "shared fraction=" << s.shared_fraction << " >= "
        << th.ll_shared_min << ": most touched elements contended -> ll";
  } else {
    // Few shared elements: privatize only those (Nbf, Spark98).
    d.recommended = SchemeKind::kSelective;
    why << "shared fraction=" << s.shared_fraction << " < "
        << th.ll_shared_min << ": privatize only shared -> sel";
  }
  d.rationale = why.str();
  return d;
}

}  // namespace sapp
