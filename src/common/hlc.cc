#include "src/common/hlc.h"

#include <chrono>

#include "src/common/clock.h"

namespace antipode {

uint64_t HlcClock::NowMicros() {
  // Reads the process GlobalClock (virtual time in simulation mode), so HLC
  // stamps advance deterministically under the sim scheduler. Steady and
  // process-relative: stamps only ever compare against each other, so the
  // epoch is arbitrary. Offset by one so a packed stamp is never 0 — 0 is
  // the "unknown stamp" sentinel.
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   GlobalClock().Now().time_since_epoch())
                                   .count()) +
         1;
}

uint64_t HlcClock::Tick() {
  const uint64_t physical = Pack(NowMicros(), 0);
  uint64_t last = last_.load(std::memory_order_relaxed);
  for (;;) {
    // Strictly after everything issued/observed so far, and never behind the
    // physical clock. When the physical component already leads, the logical
    // counter resets to 0; otherwise it increments (the +1 below lands in the
    // logical bits until they overflow into physical time, which at 2^16
    // stamps per microsecond is beyond this simulator's throughput).
    const uint64_t next = last >= physical ? last + 1 : physical;
    if (last_.compare_exchange_weak(last, next, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      return next;
    }
  }
}

void HlcClock::Observe(uint64_t remote) {
  uint64_t last = last_.load(std::memory_order_relaxed);
  while (remote > last) {
    if (last_.compare_exchange_weak(last, remote, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

HlcClock& HlcClock::ForGroup(int group) {
  assert(group >= 0 && group < kMaxGroups && "region-group index out of range");
  // Leaked: late timer callbacks may stamp after static destruction begins.
  static HlcClock* clocks = new HlcClock[kMaxGroups];
  return clocks[group];
}

}  // namespace antipode
