#include "util/invariant.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace corona {

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations_) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

void InvariantReport::merge(const InvariantReport& other) {
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
}

namespace {

void default_handler(const char* file, int line, const char* expr,
                     const char* message) {
  std::fprintf(stderr, "CORONA_INVARIANT violated at %s:%d\n  check: %s\n  %s\n",
               file, line, expr, message);
  std::fflush(stderr);
  std::abort();
}

// Atomic so a test swapping the handler is visible to SocketRuntime loop
// threads without a data race.  A single word needs no corona::Mutex
// (util/sync.h); anything richer than one pointer would.
std::atomic<InvariantHandler> g_handler{&default_handler};

}  // namespace

InvariantHandler set_invariant_handler(InvariantHandler handler) {
  return g_handler.exchange(handler != nullptr ? handler : &default_handler);
}

void invariant_failed(const char* file, int line, const char* expr,
                      const char* message) {
  g_handler.load()(file, line, expr, message);
}

}  // namespace corona
