/**
 * @file
 * Table-driven command-line options: a tool declares one Row per flag
 * and gets a strict flag scan, its usage lines and one Value per row.
 * Every value, from argv, a default or a protocol member, goes through
 * parseValue(), so junk is an error, never a silent 0.
 *
 * A flag takes its value as `--flag value` or `--flag=value`; a Bool
 * flag takes none and writes the opposite of its default.  An Alias is
 * a second spelling of the row named by `choices`: with a `value` it
 * writes that value (`--portfolio` is `--lane portfolio`), without one
 * it takes the target's argument.
 */

#ifndef QB_SUPPORT_FLAGS_H
#define QB_SUPPORT_FLAGS_H

#include <span>
#include <string>
#include <vector>

namespace qb::flags {

enum class Kind : unsigned char { Bool, Int, Real, Enum, Text, Alias };

struct Row
{
    const char *flag;
    Kind kind;
    /** Default as the flag spells it (an Int default may lie outside
     *  the bounds: 0 jobs is all hardware threads); Alias: see above. */
    const char *value;
    long min, max;       ///< Int and Real bounds, inclusive
    const char *choices; ///< Enum: '|'-separated; Alias: target flag
    const char *metavar; ///< usage placeholder (Enum shows choices)
    const char *help;
    /** Columns of qborrow's front doors (server/options.h). */
    const char *member = nullptr; ///< protocol `options` member
    unsigned scope = 0;           ///< modes the option acts in
    bool fingerprint = false;     ///< keys the result cache
};

struct Value
{
    long number = 0; ///< Bool 0/1, Int, Enum choice index
    double real = 0.0;
    std::string text; ///< canonical: parses back to the same value
    bool set = false; ///< given explicitly (argv or a request)
};

/** Strict parse of @p text for @p row into @p out (`set` untouched);
 *  false, leaving @p out alone, when invalid.  Defaults are parsed
 *  with @p bounded false. */
bool parseValue(const Row &row, const std::string &text, Value &out,
                bool bounded = true);

/** What parseValue() accepts for @p row, for error messages. */
std::string describe(const Row &row);

/** Every row at its default. */
std::vector<Value> defaults(std::span<const Row> rows);

/** Scan argv[1..argc) into @p values; "-" and arguments not starting
 *  with '-' go to @p positional.  Returns the first usage error, or
 *  empty. */
std::string scan(std::span<const Row> rows, int argc,
                 char *const *argv, std::vector<Value> &values,
                 std::vector<std::string> &positional);

/** Usage lines: flag and placeholder, then the wrapped help. */
std::string usage(std::span<const Row> rows);

} // namespace qb::flags

#endif // QB_SUPPORT_FLAGS_H
