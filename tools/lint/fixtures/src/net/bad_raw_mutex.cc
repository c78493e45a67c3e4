// Fixture: raw std locking primitives.  src/net/ is exempt from
// raw-thread (spawning its loop thread is its job) but NOT from raw-mutex:
// locking must go through the annotated corona wrappers even here, or the
// clang thread-safety build and lock_order.py are blind to it.
#include <condition_variable>
#include <mutex>

namespace fixture {

std::mutex g_mu;                                            // line 10: flagged
std::condition_variable g_cv;                               // line 11: flagged

void touch() {
  std::lock_guard<std::mutex> hold(g_mu);                   // line 14: flagged
}

void wait_once() {
  std::unique_lock<std::mutex> hold(g_mu);                  // line 18: flagged
  g_cv.wait(hold);                                          // line 19: clean (no std:: spelling)
}

void bridge() {
  // Interop with a foreign library that hands us a std::unique_lock; the
  // waiver must silence the rule.
  std::unique_lock<std::mutex> hold(g_mu);  // lint: raw-mutex-ok
}

}  // namespace fixture
