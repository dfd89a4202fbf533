#include "support/flags.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "support/strings.h"

namespace qb::flags {

bool
parseValue(const Row &row, const std::string &text, Value &out,
           bool bounded)
{
    Value v = out;
    v.text = text;
    const long min = bounded ? row.min : -1;
    const long max = bounded ? row.max : LONG_MAX;
    if (row.kind == Kind::Bool) {
        if (text != "true" && text != "false")
            return false;
        v.number = text == "true";
    } else if (row.kind == Kind::Int) {
        // ASCII digits only, or exactly "-1" (the "unlimited" spelling)
        // when the row allows it: std::atol would read junk as 0.
        char *end = nullptr;
        errno = 0;
        v.number = std::strtol(text.c_str(), &end, 10);
        if (!((text[0] >= '0' && text[0] <= '9') || text == "-1") ||
            errno == ERANGE || *end != '\0' || v.number < min ||
            v.number > max)
            return false;
        v.text = std::to_string(v.number);
    } else if (row.kind == Kind::Real) {
        const char *last = text.data() + text.size();
        const auto [end, ec] = std::from_chars(text.data(), last, v.real);
        if (text.empty() || ec != std::errc() || end != last ||
            !std::isfinite(v.real) || v.real < min || v.real > max)
            return false;
    } else if (row.kind == Kind::Enum) {
        std::istringstream choices(row.choices);
        std::string choice;
        for (v.number = 0; std::getline(choices, choice, '|') &&
                           choice != text;)
            ++v.number;
        if (choice != text || text.empty())
            return false;
    }
    out = std::move(v);
    return true;
}

std::string
describe(const Row &row)
{
    if (row.kind == Kind::Int || row.kind == Kind::Real)
        return format("a %s in [%ld, %ld]",
                      row.kind == Kind::Int ? "whole number" : "number",
                      row.min, row.max);
    return row.kind == Kind::Enum ? std::string("one of ") + row.choices
        : row.kind == Kind::Bool  ? "true or false"
                                  : "a string";
}

std::vector<Value>
defaults(std::span<const Row> rows)
{
    std::vector<Value> values(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].kind != Kind::Alias)
            parseValue(rows[i], rows[i].value, values[i], false);
    return values;
}

std::string
scan(std::span<const Row> rows, int argc, char *const *argv,
     std::vector<Value> &values, std::vector<std::string> &positional)
{
    const auto find = [rows](const std::string &flag) -> const Row * {
        for (const Row &row : rows)
            if (flag == row.flag)
                return &row;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-') { // "-" is stdin
            positional.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const Row *row = find(name);
        if (!row)
            return "unknown option '" + name + "'";
        const bool alias = row->kind == Kind::Alias;
        const Row *target = alias ? find(row->choices) : row;
        const char *fixed = alias ? row->value
            : row->kind != Kind::Bool ? nullptr
            : std::strcmp(row->value, "true") == 0 ? "false" : "true";
        const bool inline_value = eq != std::string::npos;
        if (fixed ? inline_value : !inline_value && i + 1 >= argc)
            return name + (fixed ? " takes no value" : " needs a value");
        const std::string text = fixed ? fixed
            : inline_value             ? arg.substr(eq + 1)
                                       : argv[++i];
        if (!parseValue(*target, text, values[target - rows.data()]))
            return format("invalid value '%s' for %s: expected %s",
                          text.c_str(), name.c_str(),
                          describe(*target).c_str());
        values[row - rows.data()].set = true;
        values[target - rows.data()].set = true;
    }
    return {};
}

std::string
usage(std::span<const Row> rows)
{
    constexpr std::size_t kColumn = 20, kWidth = 72;
    std::string out;
    for (const Row &row : rows) {
        const char *meta =
            row.kind == Kind::Enum ? row.choices : row.metavar;
        std::string line = std::string("  ") + row.flag +
                           (meta ? std::string(" ") + meta : "");
        line.resize(std::max(line.size() + 1, kColumn), ' ');
        std::istringstream words(row.help);
        for (std::string word; words >> word; line += word + ' ') {
            if (line.size() + word.size() > kWidth &&
                line.size() > kColumn) {
                out += line.substr(0, line.size() - 1) + '\n';
                line.assign(kColumn, ' ');
            }
        }
        out += line.substr(0, line.size() - 1) + '\n';
    }
    return out;
}

} // namespace qb::flags
