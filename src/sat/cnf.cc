#include "sat/cnf.h"

#include <algorithm>
#include <sstream>

#include "sat/dimacs.h"

namespace qb::sat {

void
Cnf::addClause(LitVec lits)
{
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
        if (lits[i].var() == lits[i + 1].var())
            return; // tautology: v and ~v both present
    }
    for (Lit l : lits)
        ensureVars(l.var() + 1);
    if (lits.empty())
        trivialConflict_ = true;
    clauses_.push_back(std::move(lits));
}

bool
Cnf::satisfiedBy(const std::vector<LBool> &assignment) const
{
    if (trivialConflict_)
        return false;
    return validateModel(clauses_, assignment);
}

std::string
Cnf::toDimacs() const
{
    return writeDimacsString(*this);
}

Cnf
Cnf::fromDimacs(const std::string &text)
{
    std::istringstream in(text);
    return readDimacsOrThrow(in);
}

bool
validateModel(const std::vector<LitVec> &clauses,
              const std::vector<LBool> &model,
              std::size_t *failed_clause)
{
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        bool sat = false;
        for (Lit l : clauses[i]) {
            if (l.var() < static_cast<Var>(model.size()) &&
                model[l.var()] == lboolOf(!l.sign())) {
                sat = true;
                break;
            }
        }
        if (!sat) {
            if (failed_clause != nullptr)
                *failed_clause = i;
            return false;
        }
    }
    return true;
}

} // namespace qb::sat
