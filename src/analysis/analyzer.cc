#include "analysis/analyzer.h"

#include <algorithm>

#include "support/logging.h"

namespace qb::analysis {

const char *
passName(Pass pass)
{
    switch (pass) {
      case Pass::None:        return "none";
      case Pass::Affine:      return "affine";
      case Pass::Permutation: return "permutation";
    }
    return "?";
}

Analyzer::Analyzer(const ir::Circuit &circuit, AnalysisOptions options)
    : circuit_(circuit), options_(options),
      factsCache_(circuit.numQubits())
{
}

const QubitFacts &
Analyzer::qubitFacts(ir::QubitId q)
{
    qbAssert(q < circuit_.numQubits(),
             "Analyzer::qubitFacts: qubit out of range");
    if (factsCache_[q])
        return *factsCache_[q];

    QubitFacts facts;
    if (circuit_.isClassical() && options_.anyPass()) {
        if (options_.affine) {
            const AffineFacts affine = affineFacts(q);
            if (affine.zeroUnsat)
                facts.zeroDischargedBy = Pass::Affine;
            if (affine.plusUnsat)
                facts.plusDischargedBy = Pass::Affine;
        }
        if (options_.permutation &&
            facts.zeroDischargedBy == Pass::None &&
            permutationCheck(circuit_, q,
                             options_.permutationWindow) ==
                PermutationVerdict::Restored) {
            facts.zeroDischargedBy = Pass::Permutation;
        }
    }
    factsCache_[q] = facts;
    return *factsCache_[q];
}

const AffineState *
Analyzer::affineFinal()
{
    if (!affineTried_) {
        affineTried_ = true;
        if (options_.affine && circuit_.isClassical())
            affineFinal_ = runForward<AffineDomain>(
                circuit_, AffineDomain::initial(circuit_));
    }
    return affineFinal_ ? &*affineFinal_ : nullptr;
}

bool
Analyzer::affineHopeless(ir::QubitId q)
{
    if (!affineTop_)
        affineTop_ = affineTopWires(circuit_);
    const std::vector<bool> &top = *affineTop_;
    return top[q] && std::count(top.begin(), top.end(), true) >= 2;
}

AffineFacts
Analyzer::affineFacts(ir::QubitId q)
{
    qbAssert(q < circuit_.numQubits(),
             "Analyzer::affineFacts: qubit out of range");
    AffineFacts facts;
    if (affineHopeless(q))
        return facts;
    const AffineState *final = affineFinal();
    if (!final)
        return facts;
    // (6.1): b_q AND NOT q is UNSAT when b_q = q as functions, or
    // when b_q is identically 0 (then the conjunction is false).
    facts.zeroUnsat = final->isIdentity(q) ||
                      final->constantOf(q) == std::optional(false);
    // (6.2): the cofactor disjunction is UNSAT when no OTHER wire's
    // final value may depend on initial q.  Exact rows make this
    // strictly stronger than a syntactic cone-of-influence check:
    // cancelled contributions (w ^= q; w ^= q) do not count as
    // dependence.
    facts.plusUnsat = true;
    for (ir::QubitId other = 0; other < circuit_.numQubits(); ++other) {
        if (other != q && final->mayDependOn(other, q)) {
            facts.plusUnsat = false;
            break;
        }
    }
    return facts;
}

} // namespace qb::analysis
