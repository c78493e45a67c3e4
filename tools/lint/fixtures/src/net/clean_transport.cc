// Fixture: src/net/ is a real transport — wall clocks and threading
// primitives are its job and must lint clean without waivers.  Randomness
// stays banned there, and locking still goes through the annotated corona
// wrappers (raw-mutex applies even here).
#include <chrono>
#include <map>
#include <thread>

#include "util/sync.h"

namespace fixture {

corona::Mutex net_mu;  // allowed: the annotated wrapper, not std::mutex

long transport_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // allowed
}

void spawn_loop() {
  std::thread loop([] {});  // allowed
  loop.join();
  corona::MutexLock lock(net_mu);
}

}  // namespace fixture
