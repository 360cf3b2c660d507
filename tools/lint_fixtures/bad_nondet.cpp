// Fixture: five distinct nondeterminism violations, one per construct the
// check knows. The comment mentioning steady_clock must NOT count.
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>

namespace fixture {

struct Sim {
  std::unordered_map<int, int> flows_;
  std::map<const int*, int> by_ptr_;  // violation: pointer-keyed ordering

  double now() {
    // steady_clock in prose is fine; the call below is not.
    auto t = std::chrono::steady_clock::now();  // violation: wall clock
    return static_cast<double>(t.time_since_epoch().count());
  }

  int draw() { return rand(); }  // violation: ambient randomness

  void spawn() {
    std::thread worker([] {});  // violation: a second thread
    worker.join();
  }

  int checksum() {
    int total = 0;
    for (const auto& kv : flows_) {  // violation: hash-order iteration
      total ^= kv.second;
    }
    return total;
  }
};

}  // namespace fixture
