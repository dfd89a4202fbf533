/**
 * @file
 * CNF formula container and DIMACS serialization.
 *
 * The Cnf class is the interchange format between the Tseitin encoder,
 * the preprocessor and the solver.  It deliberately stays a dumb data
 * holder; all smarts live in the consumers.
 */

#ifndef QB_SAT_CNF_H
#define QB_SAT_CNF_H

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/literal.h"

namespace qb::sat {

/** A CNF formula: a clause list over numVars variables. */
class Cnf
{
  public:
    /** Allocate a fresh variable and return it. */
    Var newVar() { return numVars_++; }

    /** Ensure at least @p n variables exist. */
    void ensureVars(Var n) { if (n > numVars_) numVars_ = n; }

    /**
     * Add a clause.  Tautologies are dropped and duplicate literals
     * removed; the empty clause marks the formula trivially UNSAT.
     */
    void addClause(LitVec lits);

    /** Convenience single/binary clause adders. */
    void addUnit(Lit a) { addClause({a}); }
    void addBinary(Lit a, Lit b) { addClause({a, b}); }

    Var numVars() const { return numVars_; }
    std::size_t numClauses() const { return clauses_.size(); }
    const std::vector<LitVec> &clauses() const { return clauses_; }
    /** True when an empty clause was added. */
    bool trivialConflict() const { return trivialConflict_; }

    /** Check a total/partial assignment against all clauses. */
    bool satisfiedBy(const std::vector<LBool> &assignment) const;

    /** Serialize in DIMACS cnf format (see sat/dimacs.h). */
    std::string toDimacs() const;

    /**
     * Parse DIMACS text with the strict located reader of
     * sat/dimacs.h.
     *
     * @throws FatalError("DIMACS: line:col: ...") on malformed input.
     */
    static Cnf fromDimacs(const std::string &text);

  private:
    Var numVars_ = 0;
    std::vector<LitVec> clauses_;
    bool trivialConflict_ = false;
};

/**
 * Model-validation checker: true iff every clause of @p clauses
 * contains at least one literal assigned true by @p model.  A
 * variable that is Undef or beyond @p model never satisfies a
 * clause, so a partial "model" only validates when the assigned
 * prefix already covers everything - exactly the conservative
 * direction a soundness check wants.  On failure, the index of the
 * first unsatisfied clause is stored through @p failed_clause (when
 * non-null) for diagnostics.
 *
 * This is the independent Sat-verdict cross-check: the fuzz harness
 * (support/fuzz.h) runs it after every Sat answer, qbsat runs it
 * before printing a model, and the sat_test property suites assert
 * it over random formulas for both solver presets.
 */
bool validateModel(const std::vector<LitVec> &clauses,
                   const std::vector<LBool> &model,
                   std::size_t *failed_clause = nullptr);

} // namespace qb::sat

#endif // QB_SAT_CNF_H
