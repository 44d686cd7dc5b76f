/**
 * @file
 * Error-reporting helpers in the gem5 tradition: panic() for internal
 * invariant violations, fatal() for user/configuration errors, warn() and
 * inform() for status messages that do not stop the run.
 */

#ifndef SKYWAY_SUPPORT_LOGGING_HH
#define SKYWAY_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace skyway
{

/** Print a formatted message to stderr with a severity prefix. */
void logMessage(const char *severity, const std::string &msg);

/**
 * Abort the process: an internal invariant was violated. Use for
 * conditions that indicate a bug in the runtime itself, never for bad
 * input.
 */
[[noreturn, gnu::cold]] void panic(const std::string &msg);

/**
 * Exit with an error: the run cannot continue because of a condition that
 * is the caller's fault (bad configuration, invalid arguments).
 */
[[noreturn]] void fatal(const std::string &msg);

/** Alert the user to suspicious but survivable conditions. */
void warn(const std::string &msg);

/** Provide normal operating status to the user. */
void inform(const std::string &msg);

/**
 * Assert an internal invariant: panics with @p msg when @p cond is
 * true. Unlike assert(3) this is active in all build types — the
 * runtime manipulates raw heap memory and silent corruption is worse
 * than a halt.
 *
 * The message is a literal, so a passing check costs one predicted
 * branch and builds nothing. When the message needs runtime context,
 * write `if (cond) panic("..." + ctx);` instead: the string is then
 * built only on the failure path. There is deliberately no std::string
 * overload, so the compiler rejects a call that would build its
 * message before the check.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

} // namespace skyway

#endif // SKYWAY_SUPPORT_LOGGING_HH
