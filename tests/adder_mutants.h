/**
 * @file
 * Unsafe variants of adder.qbr shared by the engine test suites.
 */

#ifndef QB_TESTS_ADDER_MUTANTS_H
#define QB_TESTS_ADDER_MUTANTS_H

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/qbr_text.h"

namespace qb::test {

/**
 * adder.qbr at @p n with one line of its final uncompute section
 * dropped, once per distinct line: each mutant leaves some dirty
 * qubits unsafe, so runs over them compare real counterexamples.
 */
inline std::vector<std::string>
adderMutantSources(std::uint32_t n)
{
    const std::string source = circuits::adderQbrSource(n);
    const std::size_t uncompute = source.find("// reverse");
    std::vector<std::string> out;
    for (const char *line :
         {"CNOT[q[1], a[1]];\n", "    CCNOT[a[i - 1], q[i], a[i]];\n",
          "    X[q[i]];\n", "    CNOT[q[i], a[i]];\n"}) {
        const std::size_t at = source.rfind(line);
        EXPECT_GT(at, uncompute) << line;
        std::string mutant = source;
        mutant.erase(at, std::string(line).size());
        out.push_back(std::move(mutant));
    }
    return out;
}

} // namespace qb::test

#endif // QB_TESTS_ADDER_MUTANTS_H
