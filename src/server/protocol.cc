#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "core/report.h"
#include "support/logging.h"
#include "support/strings.h"

namespace qb::server {

// --------------------------------------------------------------- parser

/** Strict RFC 8259 recursive-descent parser over one document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (at_ != text_.size())
            fail("trailing garbage after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal(format("JSON parse error at offset %zu: ", at_) + what);
    }

    void
    skipWs()
    {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' ||
                text_[at_] == '\n' || text_[at_] == '\r'))
            ++at_;
    }

    char
    peek()
    {
        if (at_ >= text_.size())
            fail("unexpected end of input");
        return text_[at_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(format("expected '%c'", c));
        ++at_;
    }

    bool
    consume(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(at_, len, word) != 0)
            return false;
        at_ += len;
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't':
            if (consume("true"))
                return boolean(true);
            fail("invalid literal");
          case 'f':
            if (consume("false"))
                return boolean(false);
            fail("invalid literal");
          case 'n':
            if (consume("null"))
                return JsonValue();
            fail("invalid literal");
          default:
            return number();
        }
    }

    static JsonValue
    boolean(bool b)
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = b;
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++at_;
            return v;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            JsonValue key = string();
            skipWs();
            expect(':');
            v.members_.emplace_back(std::move(key.string_), value());
            skipWs();
            const char c = peek();
            ++at_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++at_;
            return v;
        }
        while (true) {
            v.items_.push_back(value());
            skipWs();
            const char c = peek();
            ++at_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::uint32_t
    hex4()
    {
        std::uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++at_;
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return cp;
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        std::string &out = v.string_;
        while (true) {
            if (at_ >= text_.size())
                fail("unterminated string");
            const char c = text_[at_++];
            if (c == '"')
                return v;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = peek();
            ++at_;
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                std::uint32_t cp = hex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    if (!consume("\\u"))
                        fail("unpaired surrogate");
                    const std::uint32_t lo = hex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default: fail("invalid escape");
            }
        }
    }

    JsonValue
    number()
    {
        const std::size_t start = at_;
        if (peek() == '-')
            ++at_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            fail("invalid number");
        while (at_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[at_])) ||
                text_[at_] == '.' || text_[at_] == 'e' ||
                text_[at_] == 'E' || text_[at_] == '+' ||
                text_[at_] == '-'))
            ++at_;
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        // std::from_chars is locale-independent, unlike strtod.
        const char *first = text_.data() + start;
        const char *last = text_.data() + at_;
        const auto [end, ec] =
            std::from_chars(first, last, v.number_);
        if (ec != std::errc() || end != last)
            fail("invalid number");
        return v;
    }

    const std::string &text_;
    std::size_t at_ = 0;
};

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).document();
}

bool
JsonValue::asBool(bool dflt) const
{
    return kind_ == Kind::Bool ? bool_ : dflt;
}

double
JsonValue::asNumber(double dflt) const
{
    return kind_ == Kind::Number ? number_ : dflt;
}

std::int64_t
JsonValue::asInt(std::int64_t dflt) const
{
    if (kind_ != Kind::Number)
        return dflt;
    // Guard the float->int conversion: for wire input like 1e300 the
    // unchecked cast would be undefined behavior.  9.2e18 is the
    // largest double magnitude safely below INT64_MAX.
    if (!(number_ >= -9.2e18 && number_ <= 9.2e18))
        return dflt;
    return static_cast<std::int64_t>(number_);
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return kind_ == Kind::String ? string_ : empty;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    return items_;
}

// ------------------------------------------------------------- requests

namespace {

RequestOp
parseOp(const std::string &op)
{
    if (op == "verify")
        return RequestOp::Verify;
    if (op == "cancel")
        return RequestOp::Cancel;
    if (op == "ping")
        return RequestOp::Ping;
    if (op == "stats")
        return RequestOp::Stats;
    if (op == "shutdown")
        return RequestOp::Shutdown;
    if (op == "auth")
        return RequestOp::Auth;
    fatal("unknown op '" + op + "'");
}

/** Each member of @p node through its options-table row. */
void
parseOptions(const JsonValue *node, Settings &options)
{
    if (!node)
        return;
    if (node->kind() != JsonValue::Kind::Object)
        fatal("'options' must be an object");
    const auto rows = optionRows();
    for (const auto &[member, value] : node->members()) {
        const auto row = std::find_if(
            rows.begin(), rows.end(), [&](const flags::Row &r) {
                return r.member && member == r.member;
            });
        if (row == rows.end())
            fatal("unknown options member '" + member + "'");
        // The JSON type must match the row's kind; the row's own
        // parser then checks bounds and choices (a fractional number
        // reaches it as "", which it rejects).
        const auto want = row->kind == flags::Kind::Bool
            ? JsonValue::Kind::Bool
            : row->kind == flags::Kind::Int ? JsonValue::Kind::Number
                                            : JsonValue::Kind::String;
        const std::int64_t n = value.asInt(INT64_MIN);
        const std::string text = want == JsonValue::Kind::Bool
            ? (value.asBool() ? "true" : "false")
            : want == JsonValue::Kind::String ? value.asString()
            : double(n) == value.asNumber()   ? std::to_string(n)
                                              : "";
        if (value.kind() != want ||
            !options.set(static_cast<Opt>(row - rows.begin()), text))
            fatal("options." + member + " must be " +
                  flags::describe(*row));
    }
}

} // namespace

Request
parseRequest(const std::string &line, std::int64_t *frame_id)
{
    const JsonValue doc = JsonValue::parse(line);
    if (doc.kind() != JsonValue::Kind::Object)
        fatal("request must be a JSON object");
    Request request;
    if (const JsonValue *id = doc.find("id"))
        request.id = id->asInt(-1);
    if (request.id < 0)
        fatal("request is missing non-negative field 'id'");
    if (frame_id)
        *frame_id = request.id;
    const JsonValue *op = doc.find("op");
    if (!op || op->kind() != JsonValue::Kind::String)
        fatal("request is missing string field 'op'");
    request.op = parseOp(op->asString());
    switch (request.op) {
      case RequestOp::Verify: {
        const JsonValue *source = doc.find("source");
        if (!source || source->kind() != JsonValue::Kind::String)
            fatal("verify request is missing string field 'source'");
        request.source = source->asString();
        if (const JsonValue *name = doc.find("name"))
            request.name = name->asString();
        parseOptions(doc.find("options"), request.options);
        break;
      }
      case RequestOp::Cancel: {
        const JsonValue *target = doc.find("target");
        if (!target || target->kind() != JsonValue::Kind::Number)
            fatal("cancel request is missing numeric field 'target'");
        request.target = target->asInt(-1);
        break;
      }
      case RequestOp::Auth: {
        const JsonValue *token = doc.find("token");
        if (!token || token->kind() != JsonValue::Kind::String)
            fatal("auth request is missing string field 'token'");
        request.token = token->asString();
        break;
      }
      case RequestOp::Ping:
      case RequestOp::Stats:
      case RequestOp::Shutdown:
        break;
    }
    return request;
}

// ------------------------------------------------------------ responses

std::string
acceptedResponse(std::int64_t id)
{
    return format("{\"type\": \"accepted\", \"id\": %lld}",
                  static_cast<long long>(id));
}

std::string
errorResponse(std::int64_t id, const std::string &message)
{
    if (id < 0) {
        return format("{\"type\": \"error\", \"id\": null, "
                      "\"message\": \"%s\"}",
                      jsonEscape(message).c_str());
    }
    return format("{\"type\": \"error\", \"id\": %lld, "
                  "\"message\": \"%s\"}",
                  static_cast<long long>(id),
                  jsonEscape(message).c_str());
}

std::string
qubitResponse(std::int64_t id, const core::QubitResult &result)
{
    return format("{\"type\": \"qubit\", \"id\": %lld, "
                  "\"qubit\": %s}",
                  static_cast<long long>(id),
                  core::toJson(result).c_str());
}

std::string
resultResponse(std::int64_t id, const std::string &status,
               const core::ProgramResult &result,
               const std::string &program_name)
{
    return format(
        "{\"type\": \"result\", \"id\": %lld, \"status\": \"%s\", "
        "\"report\": %s}",
        static_cast<long long>(id), jsonEscape(status).c_str(),
        core::toJsonCompact(result, program_name).c_str());
}

std::string
cancelledResponse(std::int64_t id, std::int64_t target, bool found)
{
    return format("{\"type\": \"cancel\", \"id\": %lld, "
                  "\"target\": %lld, \"found\": %s}",
                  static_cast<long long>(id),
                  static_cast<long long>(target),
                  found ? "true" : "false");
}

std::string
pongResponse(std::int64_t id)
{
    return format("{\"type\": \"pong\", \"id\": %lld}",
                  static_cast<long long>(id));
}

std::string
statsResponse(std::int64_t id, const StatsSnapshot &snapshot)
{
    std::string out = format(
        "{\"type\": \"stats\", \"id\": %lld, \"counters\": "
        "{\"connections\": %llu, \"requests\": %llu, "
        "\"served\": %llu, \"cancelled\": %llu, "
        "\"rejected\": %llu, \"errors\": %llu}",
        static_cast<long long>(id),
        static_cast<unsigned long long>(snapshot.connections),
        static_cast<unsigned long long>(snapshot.requests),
        static_cast<unsigned long long>(snapshot.served),
        static_cast<unsigned long long>(snapshot.cancelled),
        static_cast<unsigned long long>(snapshot.rejected),
        static_cast<unsigned long long>(snapshot.errors));
    out += format(", \"queue\": {\"depth\": %zu, \"capacity\": %zu}",
                  snapshot.queueDepth, snapshot.queueCapacity);
    out += format(", \"scheduler\": {\"workers\": %u, \"bands\": [",
                  snapshot.satWorkers);
    bool first = true;
    for (const auto &[band, backlog] : snapshot.bands) {
        if (!first)
            out += ", ";
        first = false;
        out += format("{\"band\": %u, \"backlog\": %zu}", band,
                      backlog);
    }
    out += "]}";
    out += format(", \"uptime_seconds\": %.3f",
                  snapshot.uptimeSeconds);
    out += format(
        ", \"ops\": {\"verify\": %llu, \"cancel\": %llu, "
        "\"ping\": %llu, \"stats\": %llu, \"shutdown\": %llu, "
        "\"auth\": %llu}",
        static_cast<unsigned long long>(snapshot.opVerify),
        static_cast<unsigned long long>(snapshot.opCancel),
        static_cast<unsigned long long>(snapshot.opPing),
        static_cast<unsigned long long>(snapshot.opStats),
        static_cast<unsigned long long>(snapshot.opShutdown),
        static_cast<unsigned long long>(snapshot.opAuth));
    const auto cacheJson = [](const StatsSnapshot::Cache &c) {
        return format("{\"hits\": %llu, \"misses\": %llu, "
                      "\"evictions\": %llu, \"entries\": %zu}",
                      static_cast<unsigned long long>(c.hits),
                      static_cast<unsigned long long>(c.misses),
                      static_cast<unsigned long long>(c.evictions),
                      c.entries);
    };
    out += ", \"caches\": {\"result\": " +
           cacheJson(snapshot.resultCache) + "}";
    out += format(
        ", \"connections\": {\"active\": %zu, \"limit\": %zu, "
        "\"refused\": %llu, \"auth_rejected\": %llu}",
        snapshot.activeConnections, snapshot.connectionLimit,
        static_cast<unsigned long long>(snapshot.connectionsRefused),
        static_cast<unsigned long long>(snapshot.authRejected));
    // Every discharge is the affine pass's, so "affine" repeats the
    // total; the key stays so existing readers keep parsing.
    out += format(
        ", \"analysis\": {\"discharged\": %llu, \"affine\": %llu}",
        static_cast<unsigned long long>(snapshot.analysisDischarged),
        static_cast<unsigned long long>(snapshot.analysisDischarged));
    out += '}';
    return out;
}

std::string
byeResponse(std::int64_t id)
{
    return format("{\"type\": \"bye\", \"id\": %lld}",
                  static_cast<long long>(id));
}

std::string
authResponse(std::int64_t id, bool ok)
{
    return format("{\"type\": \"auth\", \"id\": %lld, \"ok\": %s}",
                  static_cast<long long>(id), ok ? "true" : "false");
}

} // namespace qb::server
