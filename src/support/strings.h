/**
 * @file
 * Small string-formatting helpers shared across the library.
 */

#ifndef QB_SUPPORT_STRINGS_H
#define QB_SUPPORT_STRINGS_H

#include <cstdarg>
#include <string>
#include <vector>

namespace qb {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Fixed-point decimal rendering of @p value with @p precision digits,
 * like "%.Nf" but locale-INDEPENDENT: the decimal separator is always
 * '.' no matter what LC_NUMERIC says.  Machine-readable emitters (the
 * JSON reports) must use this instead of format() - under a
 * comma-decimal locale such as de_DE, printf writes "0,5", which is
 * not a JSON number.
 */
std::string formatFixed(double value, int precision);

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * Escape @p s for inclusion inside a JSON string literal: quote,
 * backslash and every control character (including DEL) are escaped;
 * everything else passes through byte-for-byte.  Shared by the report
 * emitter and the server wire protocol.
 */
std::string jsonEscape(const std::string &s);

} // namespace qb

#endif // QB_SUPPORT_STRINGS_H
