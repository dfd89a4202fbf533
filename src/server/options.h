/**
 * @file
 * qborrow's options table, the one place an option is declared: per
 * flag its type, bounds, default, help, protocol member, scope (the
 * modes it acts in) and whether it keys the result cache.  qborrow's
 * flag scan and usage text, client forwarding and "ignored" warnings,
 * the protocol's `options` parser, the resolver to EngineOptions and
 * the result-cache fingerprint all come from it.
 */

#ifndef QB_SERVER_OPTIONS_H
#define QB_SERVER_OPTIONS_H

#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "support/flags.h"

namespace qb::server {

/** qborrow's modes; a row's scope is the set it acts in. */
enum Mode : unsigned { Local = 1, Serve = 2, Connect = 4 };

/** Every qborrow option, in the order of optionRows(). */
enum class Opt : std::size_t {
    Lane, Portfolio, Clean, Counterexample, Budget,
    Jobs, Inprocess, Analysis,
    Lint, NoLint, AnalysisWindow, DumpCircuit, Json, Quiet,
    ServePath, ServeTcp, Parallel, Queue, MaxConnections, MaxInflight,
    IdleTimeout, ResultCache, AuthToken, Token,
    ConnectPath, ConnectTcp, Stats, Shutdown,
};

std::span<const flags::Row> optionRows();
/** The table's defaults, parsed once. */
const std::vector<flags::Value> &optionDefaults();

/** One value per row of optionRows(). */
struct Settings
{
    std::vector<flags::Value> values = optionDefaults();

    const flags::Value &operator[](Opt o) const
    {
        return values[std::size_t(o)];
    }
    bool on(Opt o) const { return (*this)[o].number != 0; }
    long number(Opt o) const { return (*this)[o].number; }
    const std::string &text(Opt o) const { return (*this)[o].text; }

    /** Parse @p text as @p o's value and mark it set; false (value
     *  unchanged) when the row rejects it. */
    bool set(Opt o, const std::string &text);
};

/** The one resolver from settings to engine options. */
core::EngineOptions engineOptions(const Settings &settings);

/** Result-cache key: the values of the fingerprinted rows. */
std::string fingerprint(const Settings &settings);

/** The rows with a protocol member that were given (an alias marks
 *  its target given), as a request's `options`. */
std::string requestOptionsJson(const Settings &settings);

/** Warn once for each set flag that has no effect in @p mode. */
void warnIgnored(const Settings &settings, Mode mode);

/** Usage lines of every row, one section per scope. */
std::string optionsUsage();

} // namespace qb::server

#endif // QB_SERVER_OPTIONS_H
