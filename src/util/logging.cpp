#include "util/logging.hpp"

#include <cstdlib>
#include <vector>

#include "util/wallclock.hpp"

namespace fastcap {

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "silent")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "inform" || name == "info")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    throw FatalError("unknown log level '" + name +
                     "' (want silent|warn|inform|debug)");
}

LogField::LogField(const char *k, double v) : key(k)
{
    value = detail::format("%.6g", v);
}

LogField::LogField(const char *k, long long v) : key(k)
{
    value = detail::format("%lld", v);
}

LogField::LogField(const char *k, unsigned long long v) : key(k)
{
    value = detail::format("%llu", v);
}

Logger &
Logger::global()
{
    static Logger instance;
    return instance;
}

LogLevel
Logger::levelFor(const char *module) const
{
    if (module) {
        LockGuard lock(_mu);
        const auto it = _moduleLevels.find(module);
        if (it != _moduleLevels.end())
            return it->second;
    }
    return _level;
}

void
Logger::moduleLevel(const std::string &module, LogLevel lvl)
{
    LockGuard lock(_mu);
    _moduleLevels[module] = lvl;
}

void
Logger::configure(const std::string &spec)
{
    std::size_t pos = 0;
    bool first = true;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty()) {
            if (first && spec.empty())
                break;
            throw FatalError("empty item in log-level spec '" +
                             spec + "'");
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (!first)
                throw FatalError(
                    "global level must come first in log-level "
                    "spec '" + spec + "'");
            level(parseLogLevel(item));
        } else {
            const std::string module = item.substr(0, eq);
            if (module.empty())
                throw FatalError("empty module in log-level spec '" +
                                 spec + "'");
            moduleLevel(module, parseLogLevel(item.substr(eq + 1)));
        }
        first = false;
        if (comma == spec.size())
            break;
    }
}

void
Logger::write(LogLevel lvl, const std::string &line)
{
    (void)lvl;
    std::string prefix;
    if (_timestamps) {
        // Operator-facing elapsed time only; log lines never feed
        // back into serialized results.
        prefix = detail::format(
            "t=%.3f ",
            wallSeconds()); // fastcap-lint: wall-clock(log-line timestamp, stderr only, never serialized into results)
    }
    LockGuard lock(_mu);
    std::fprintf(_out, "%s%s\n", prefix.c_str(), line.c_str());
    std::fflush(_out);
}

void
Logger::emit(LogLevel lvl, const char *tag, const std::string &msg)
{
    if (static_cast<int>(lvl) > static_cast<int>(_level))
        return;
    write(lvl, std::string(tag) + ": " + msg);
}

namespace {

const char *
levelTag(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Inform:
        return "info";
      case LogLevel::Debug:
        return "debug";
      default:
        return "log";
    }
}

/** Quote a value when spaces/'='/quotes would break k=v parsing. */
std::string
kvValue(const std::string &v)
{
    if (v.empty() ||
        v.find_first_of(" =\"\t\n") != std::string::npos) {
        std::string out = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }
    return v;
}

} // namespace

void
Logger::logkv(LogLevel lvl, const char *module, const char *event,
              std::initializer_list<LogField> fields)
{
    if (static_cast<int>(lvl) > static_cast<int>(levelFor(module)))
        return;
    std::string line = levelTag(lvl);
    line += ": module=";
    line += module;
    line += " event=";
    line += event;
    for (const LogField &f : fields) {
        line += ' ';
        line += f.key;
        line += '=';
        line += kvValue(f.value);
    }
    write(lvl, line);
}

namespace detail {

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);

    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    const int written = std::vsnprintf(buf.data(), buf.size(), fmt,
                                       args);
    // Cannot panic() from the formatter panic() itself uses; fall
    // back to the raw format string on the (unreachable) mismatch.
    if (written != needed)
        return std::string(fmt);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
format(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

} // namespace detail

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Inform, "info", msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Warn, "warn", msg);
}

void
debugLog(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Debug, "debug", msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Warn, "panic", msg);
    throw PanicError(msg);
}

} // namespace fastcap
