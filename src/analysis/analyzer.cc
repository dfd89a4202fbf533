#include "analysis/analyzer.h"

#include <algorithm>

#include "support/logging.h"

namespace qb::analysis {

Analyzer::Analyzer(const ir::Circuit &circuit, AnalysisOptions options)
    : circuit_(circuit), options_(options)
{
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
