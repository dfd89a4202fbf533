#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>

#include "analysis/dataflow.h"
#include "analysis/permutation.h"
#include "ir/circuit_index.h"
#include "lang/parser.h"
#include "support/logging.h"
#include "support/strings.h"

namespace qb::analysis {

bool
selfInverseClassical(const ir::Gate &gate)
{
    switch (gate.kind()) {
      case ir::GateKind::X:
      case ir::GateKind::CNOT:
      case ir::GateKind::CCNOT:
      case ir::GateKind::MCX:
      case ir::GateKind::Swap:
        return true;
      default:
        return false;
    }
}

namespace {

/** Collect every register name released anywhere under @p body. */
void
collectReleases(const std::vector<lang::Stmt> &body,
                std::set<std::string> &out)
{
    for (const lang::Stmt &stmt : body) {
        if (const auto *rel =
                std::get_if<lang::ReleaseStmt>(&stmt.node)) {
            out.insert(rel->name);
        } else if (const auto *loop =
                       std::get_if<lang::ForStmt>(&stmt.node)) {
            collectReleases(loop->body, out);
        } else if (const auto *cond =
                       std::get_if<lang::IfStmt>(&stmt.node)) {
            collectReleases(cond->thenBody, out);
            collectReleases(cond->elseBody, out);
        } else if (const auto *loop =
                       std::get_if<lang::WhileStmt>(&stmt.node)) {
            collectReleases(loop->body, out);
        }
    }
}

/** path-divergent-release over every `if` under @p body. */
void
lintPathDivergentRelease(const std::vector<lang::Stmt> &body,
                         std::vector<Diagnostic> &out)
{
    for (const lang::Stmt &stmt : body) {
        if (const auto *cond =
                std::get_if<lang::IfStmt>(&stmt.node)) {
            std::set<std::string> then_released, else_released;
            collectReleases(cond->thenBody, then_released);
            collectReleases(cond->elseBody, else_released);
            const auto report = [&](const std::string &name,
                                    const char *path,
                                    const char *other) {
                Diagnostic d;
                d.severity = Severity::Warning;
                d.rule = "path-divergent-release";
                d.loc = stmt.loc;
                d.message = format(
                    "register '%s' is released in the %s branch but "
                    "stays live on the %s path; writes made there "
                    "are never restored by a release",
                    name.c_str(), path, other);
                out.push_back(std::move(d));
            };
            for (const std::string &name : then_released)
                if (!else_released.count(name))
                    report(name, "then", "else");
            for (const std::string &name : else_released)
                if (!then_released.count(name))
                    report(name, "else", "then");
            lintPathDivergentRelease(cond->thenBody, out);
            lintPathDivergentRelease(cond->elseBody, out);
        } else if (const auto *loop =
                       std::get_if<lang::ForStmt>(&stmt.node)) {
            lintPathDivergentRelease(loop->body, out);
        } else if (const auto *loop =
                       std::get_if<lang::WhileStmt>(&stmt.node)) {
            lintPathDivergentRelease(loop->body, out);
        }
    }
}

bool
isBorrowRole(lang::QubitRole role)
{
    return role == lang::QubitRole::BorrowVerify ||
           role == lang::QubitRole::BorrowSkip;
}

/** Source location of gate @p i, default when locations are absent
 *  (programmatically built ElaboratedPrograms). */
lang::SourceLoc
gateLoc(const lang::ElaboratedProgram &program, std::size_t i)
{
    return i < program.gateLocs.size() ? program.gateLocs[i]
                                       : lang::SourceLoc{};
}

void
lintUnusedBorrows(const lang::ElaboratedProgram &program,
                  const ir::CircuitIndex &index,
                  std::vector<Diagnostic> &out)
{
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (!isBorrowRole(info.role) ||
            index.nextTouch(static_cast<ir::QubitId>(q),
                            info.scopeBegin) < info.scopeEnd)
            continue;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "unused-borrow";
        d.loc = info.loc;
        d.message = format(
            "borrowed qubit '%s' is never used; drop the borrow "
            "or narrow the register",
            info.name.c_str());
        out.push_back(std::move(d));
    }
}

/** Wire name for diagnostics; gate operands always map to declared
 *  qubits in elaborated programs, but stay defensive. */
std::string
wireName(const lang::ElaboratedProgram &program, ir::QubitId q)
{
    return q < program.qubits.size() ? program.qubits[q].name
                                     : format("q%u", q);
}

void
lintRedundantGates(const lang::ElaboratedProgram &program,
                   const ir::CircuitIndex &index,
                   std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    const std::uint32_t n = program.circuit.numQubits();
    std::vector<bool> covered(gates.size(), false);

    // Pass 1: GF(2)-affine boundary scan.  The UNSEEDED affine state
    // (no alloc constants) with no ⊤ wire describes an invertible
    // affine map of ALL wires; two equal ⊤-free boundary states
    // therefore certify that the gates between them compose to the
    // identity on EVERY input - the generalization of the old
    // adjacent-cancelling-pair rule to arbitrary linear blocks.
    // Candidate matches come from the incremental state hash and are
    // confirmed by recomputing the earlier boundary (rare).
    AffineState state(n);
    std::unordered_map<std::uint64_t, std::size_t> earliest;
    earliest.emplace(state.hash(), 0);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        state.applyGate(gates[i]);
        if (state.anyTop())
            break; // ⊤ is sticky: no later boundary can certify
        const std::size_t boundary = i + 1;
        bool matched = false;
        const auto it = earliest.find(state.hash());
        if (it != earliest.end()) {
            AffineState probe(n);
            for (std::size_t g = 0; g < it->second; ++g)
                probe.applyGate(gates[g]);
            matched = probe == state;
            if (matched) {
                const std::size_t begin = it->second;
                for (std::size_t g = begin; g < boundary; ++g)
                    covered[g] = true;
                Diagnostic d;
                d.severity = Severity::Warning;
                d.rule = "redundant-gate";
                d.loc = gateLoc(program, begin);
                d.message = format(
                    "gates through %s compose to the identity on "
                    "every input; the %zu-gate block is a no-op",
                    gateLoc(program, boundary - 1)
                        .toString()
                        .c_str(),
                    boundary - begin);
                out.push_back(std::move(d));
                earliest.clear();
            }
        }
        if (!matched || earliest.empty())
            earliest.emplace(state.hash(), boundary);
    }

    // Pass 2: the exact-pair rule for the nonlinear gates the affine
    // certificate cannot reach (CCNOT/MCX drive their target to ⊤).
    // A self-inverse classical gate whose NEXT wire-touching gate is
    // an identical copy composes with it to the identity.  cursor[w]
    // counts w's touches passed so far, so once gate i is counted,
    // entry cursor[w] of w's touch list is w's next touch after i.
    std::vector<bool> dead = covered;
    std::vector<std::size_t> cursor(n, 0);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        std::size_t next = gates.size();
        for (const ir::QubitId w : gates[i].qubits()) {
            const std::span<const std::size_t> list = index.touches(w);
            const std::size_t k = ++cursor[w];
            if (k < list.size())
                next = std::min(next, list[k]);
        }
        if (dead[i] || !selfInverseClassical(gates[i]))
            continue;
        if (next == gates.size() || dead[next] ||
            !(gates[next] == gates[i]))
            continue;
        dead[i] = dead[next] = true;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "redundant-gate";
        d.loc = gateLoc(program, i);
        d.message = format(
            "gate cancels with the identical gate at %s; both are "
            "no-ops",
            gateLoc(program, next).toString().c_str());
        out.push_back(std::move(d));
    }
}

void
lintControlAlwaysConstant(const lang::ElaboratedProgram &program,
                          std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    const std::size_t n = program.circuit.numQubits();
    // Constants domain SEEDED with |0> at each alloc's scope entry:
    // catches both reads-before-first-write (the old read-before-init
    // shape) and constants re-derived mid-circuit by linear
    // cancellation, on any wire role.
    ConstantState state(static_cast<std::uint32_t>(n));
    std::vector<std::vector<ir::QubitId>> seed_at(gates.size() + 1);
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (info.role == lang::QubitRole::Alloc &&
            info.scopeBegin <= gates.size())
            seed_at[info.scopeBegin].push_back(
                static_cast<ir::QubitId>(q));
    }
    std::vector<bool> reported(n, false);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        for (const ir::QubitId q : seed_at[i])
            state.setKnown(q, false);
        const ir::Gate &gate = gates[i];
        const bool x_family = gate.kind() == ir::GateKind::X ||
                              gate.kind() == ir::GateKind::CNOT ||
                              gate.kind() == ir::GateKind::CCNOT ||
                              gate.kind() == ir::GateKind::MCX;
        for (const ir::QubitId c :
             x_family ? gate.controls()
                      : std::span<const ir::QubitId>{}) {
            const std::optional<bool> v = state.value(c);
            if (!v || reported[c])
                continue;
            reported[c] = true;
            Diagnostic d;
            d.severity = Severity::Warning;
            d.rule = "control-always-constant";
            d.loc = gateLoc(program, i);
            d.message = *v
                ? format("control '%s' is provably |1> here on every "
                         "input; it is always satisfied - drop the "
                         "control",
                         wireName(program, c).c_str())
                : format("control '%s' is provably |0> here on every "
                         "input; the gate never fires",
                         wireName(program, c).c_str());
            out.push_back(std::move(d));
        }
        state.applyGate(gate);
    }
}

void
lintQubitNeverRead(const lang::ElaboratedProgram &program,
                   const ir::CircuitIndex &index,
                   std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    std::vector<ir::QubitId> allocs;
    for (std::size_t q = 0; q < program.qubits.size(); ++q)
        if (program.qubits[q].role == lang::QubitRole::Alloc)
            allocs.push_back(static_cast<ir::QubitId>(q));
    if (allocs.empty())
        return;
    // Backward liveness seeded with every borrowed wire (their final
    // values escape to the owner).  An alloc'd qubit dead at EVERY
    // boundary of its scope is never observed - not by a control, not
    // by a non-classical gate, and never (even via Swaps) flowing
    // into an escaping wire - so all writes into it are wasted work.
    //
    // One backward sweep with a single running state.  A wire's
    // liveness changes only at gates touching it, so q is live at
    // some boundary of [scopeBegin, last] exactly when it is live
    // just before one of its touches from scopeBegin up to and
    // including its first touch at or after `last`: liveness at
    // `last` equals liveness just before that touch, or the seed's
    // when there is none, and the seed holds only borrowed wires.
    // Those touches are gates [scopeBegin, until[q]).
    std::vector<std::size_t> until(program.circuit.numQubits(), 0);
    for (const ir::QubitId q : allocs) {
        const lang::QubitInfo &info = program.qubits[q];
        const std::size_t last = std::min(info.scopeEnd, gates.size());
        if (info.scopeBegin <= last)
            until[q] = index.nextTouch(q, last) + 1;
    }
    LivenessState state(program.circuit.numQubits());
    for (std::size_t q = 0; q < program.qubits.size(); ++q)
        if (isBorrowRole(program.qubits[q].role))
            state.setLive(static_cast<ir::QubitId>(q));
    std::vector<bool> read(program.circuit.numQubits(), false);
    for (std::size_t i = gates.size(); i-- > 0;) {
        state.applyGateBackward(gates[i]); // the boundary before gate i
        for (const ir::QubitId w : gates[i].qubits())
            if (i < until[w] && program.qubits[w].scopeBegin <= i &&
                state.isLive(w))
                read[w] = true;
    }
    for (const ir::QubitId q : allocs) {
        if (read[q])
            continue;
        const lang::QubitInfo &info = program.qubits[q];
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "qubit-never-read";
        d.loc = info.loc;
        d.message = format(
            "clean qubit '%s' is never read: no gate observes its "
            "value and it never flows into an escaping wire",
            info.name.c_str());
        out.push_back(std::move(d));
    }
}

/** What borrow-not-restored derives from one lifetime scope, built
 *  once however many borrowed wires share the scope. */
struct LifetimeScope
{
    bool classical;
    std::vector<bool> top; ///< affineTopWires over the lifetime
    /** Unseeded affine final state, built at the first TooWide wire
     *  that the ⊤ set cannot settle. */
    std::optional<AffineState> final;
};

void
lintBorrowNotRestored(const lang::ElaboratedProgram &program,
                      const ir::CircuitIndex &index,
                      const LintOptions &options,
                      std::vector<Diagnostic> &out)
{
    // Keyed by (scopeBegin, scopeEnd): on the ladders every borrowed
    // wire shares one scope, so the ⊤ set and the dense affine sweep
    // are paid once per program instead of once per wire.
    const std::vector<ir::Gate> &gates = program.circuit.gates();
    std::map<std::pair<std::size_t, std::size_t>, LifetimeScope> scopes;
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (!isBorrowRole(info.role) ||
            info.scopeBegin >= info.scopeEnd)
            continue;
        auto it = scopes.find({info.scopeBegin, info.scopeEnd});
        if (it == scopes.end()) {
            const std::span<const ir::Gate> lifetime(
                gates.begin() + static_cast<std::ptrdiff_t>(
                                    info.scopeBegin),
                gates.begin() + static_cast<std::ptrdiff_t>(
                                    info.scopeEnd));
            const bool classical =
                std::all_of(lifetime.begin(), lifetime.end(),
                            [](const ir::Gate &g) {
                                return g.isClassical();
                            });
            it = scopes
                     .emplace(std::pair{info.scopeBegin, info.scopeEnd},
                              LifetimeScope{
                                  classical,
                                  affineTopWires(
                                      lifetime,
                                      program.circuit.numQubits()),
                                  std::nullopt})
                     .first;
        }
        LifetimeScope &scope = it->second;
        if (!scope.classical)
            continue;
        const ir::QubitId wire = static_cast<ir::QubitId>(q);
        const PermutationVerdict verdict = permutationCheck(
            index, wire, info.scopeBegin, info.scopeEnd,
            options.permutationWindow);
        bool not_restored =
            verdict == PermutationVerdict::NotRestored;
        if (verdict == PermutationVerdict::TooWide) {
            // Cone wider than the window: fall back to the
            // window-free affine proof.  An UNSEEDED ⊤-free final row
            // for q that is neither q itself nor poisoned is an exact
            // function description differing from q, so some initial
            // assignment is provably changed - the same certificate
            // the 2^k sweep gives, without the width bound.  A ⊤ wire
            // proves nothing, and the exact ⊤ set settles that
            // without the dense sweep.
            if (!scope.top[wire]) {
                if (!scope.final)
                    scope.final = runForward<AffineDomain>(
                        program.circuit.slice(info.scopeBegin,
                                              info.scopeEnd),
                        AffineState(program.circuit.numQubits()));
                not_restored = !scope.final->isIdentity(wire);
            }
        }
        if (!not_restored)
            continue;
        // Exact, not heuristic: the lifetime circuit is a reversible
        // classical map F with b_q != q as functions, so either some
        // input with q=0 ends with q=1 ((6.1) satisfiable) or - when
        // b_q ignores q yet differs from it - flipping q flips which
        // inputs collide, forcing another output to depend on q
        // ((6.2) satisfiable).  Unsafe by Theorem 6.4 either way.
        Diagnostic d;
        d.severity = info.role == lang::QubitRole::BorrowVerify
            ? Severity::Error
            : Severity::Warning;
        d.rule = "borrow-not-restored";
        d.loc = info.loc;
        d.message = format(
            "borrowed qubit '%s' is written without restoration: "
            "some initial value is provably changed by its lifetime "
            "circuit%s",
            info.name.c_str(),
            info.role == lang::QubitRole::BorrowSkip
                ? " (verification waived by borrow@)"
                : "");
        out.push_back(std::move(d));
    }
}

ProgramMetrics
computeMetrics(const lang::ElaboratedProgram &program)
{
    ProgramMetrics m;
    m.gateCount = program.circuit.size();
    m.depth = program.circuit.depth();
    m.qubits = program.circuit.numQubits();
    // Peak borrow liveness: sweep lifetime begin/end events in gate
    // order, ends before begins at equal positions.
    std::vector<std::pair<std::size_t, int>> events;
    for (const lang::QubitInfo &info : program.qubits) {
        if (!isBorrowRole(info.role) ||
            info.scopeBegin >= info.scopeEnd)
            continue;
        events.emplace_back(info.scopeBegin, +1);
        events.emplace_back(info.scopeEnd, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    std::size_t live = 0;
    for (const auto &[pos, delta] : events) {
        (void)pos;
        if (delta > 0)
            m.borrowPressure = std::max(m.borrowPressure, ++live);
        else
            --live;
    }
    return m;
}

} // namespace

std::size_t
LintResult::errorCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Error)
            ++n;
    return n;
}

std::size_t
LintResult::warningCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Warning)
            ++n;
    return n;
}

void
lintAst(const lang::Program &program, std::vector<Diagnostic> &out)
{
    lintPathDivergentRelease(program.statements, out);
}

void
lintElaborated(const lang::ElaboratedProgram &program,
               const LintOptions &options, LintResult &out)
{
    const ir::CircuitIndex index(program.circuit);
    lintUnusedBorrows(program, index, out.diagnostics);
    lintRedundantGates(program, index, out.diagnostics);
    lintControlAlwaysConstant(program, out.diagnostics);
    lintQubitNeverRead(program, index, out.diagnostics);
    lintBorrowNotRestored(program, index, options, out.diagnostics);
    out.metrics = computeMetrics(program);
    out.elaborated = true;
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.loc.line != b.loc.line)
                             return a.loc.line < b.loc.line;
                         return a.loc.column < b.loc.column;
                     });
}

LintResult
lintSource(const std::string &source, const LintOptions &options)
{
    const lang::Program ast = lang::parse(source);
    LintResult result;
    lintAst(ast, result.diagnostics);
    try {
        const lang::ElaboratedProgram program = lang::elaborate(ast);
        lintElaborated(program, options, result);
    } catch (const FatalError &e) {
        // Measurement-guarded (and otherwise unelaborable) programs
        // keep their AST diagnostics; record why the IR layer is
        // missing.
        result.elaborated = false;
        result.elaborationError = e.what();
    }
    sortDiagnostics(result.diagnostics);
    return result;
}

std::string
renderLintText(const LintResult &result,
               const std::string &program_name)
{
    std::string out;
    for (const Diagnostic &d : result.diagnostics)
        out += program_name + ":" + d.toString() + "\n";
    if (result.elaborated) {
        out += format(
            "%s: %zu gate(s), depth %zu, %zu qubit(s), borrow "
            "pressure %zu; %zu error(s), %zu warning(s)\n",
            program_name.c_str(), result.metrics.gateCount,
            result.metrics.depth, result.metrics.qubits,
            result.metrics.borrowPressure, result.errorCount(),
            result.warningCount());
    } else {
        out += format(
            "%s: AST rules only (not elaborable: %s); %zu error(s), "
            "%zu warning(s)\n",
            program_name.c_str(), result.elaborationError.c_str(),
            result.errorCount(), result.warningCount());
    }
    return out;
}

std::string
lintToJson(const LintResult &result, const std::string &program_name)
{
    std::string out = "{\n";
    if (program_name.empty())
        out += "  \"program\": null,\n";
    else
        out += format("  \"program\": \"%s\",\n",
                      jsonEscape(program_name).c_str());
    out += format("  \"elaborated\": %s,\n",
                  result.elaborated ? "true" : "false");
    if (!result.elaborated)
        out += format("  \"elaboration_error\": \"%s\",\n",
                      jsonEscape(result.elaborationError).c_str());
    out += format("  \"errors\": %zu,\n", result.errorCount());
    out += format("  \"warnings\": %zu,\n", result.warningCount());
    if (result.elaborated) {
        out += format(
            "  \"metrics\": {\"gates\": %zu, \"depth\": %zu, "
            "\"qubits\": %zu, \"borrow_pressure\": %zu},\n",
            result.metrics.gateCount, result.metrics.depth,
            result.metrics.qubits, result.metrics.borrowPressure);
    } else {
        out += "  \"metrics\": null,\n";
    }
    out += "  \"diagnostics\": [";
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        const Diagnostic &d = result.diagnostics[i];
        out += i > 0 ? ",\n    " : "\n    ";
        out += format("{\"severity\": \"%s\", \"rule\": \"%s\", "
                      "\"line\": %d, \"column\": %d, "
                      "\"message\": \"%s\"}",
                      severityName(d.severity), d.rule.c_str(),
                      d.loc.line, d.loc.column,
                      jsonEscape(d.message).c_str());
    }
    if (!result.diagnostics.empty())
        out += "\n  ";
    out += "]\n}\n";
    return out;
}

} // namespace qb::analysis
