// Hybrid logical clock (Kulkarni et al.), the timestamp source of the
// stable-frontier enforcement backend (DESIGN.md §12).
//
// A stamp packs 48 bits of physical time (microseconds since process start)
// with a 16-bit logical counter that breaks ties when several stamps are
// drawn within one microsecond:
//
//     | 48-bit physical µs | 16-bit logical |
//
// `Tick` is strictly increasing across the whole process, so the stamps of
// one store are monotone in its write sequence numbers as long as seq and
// stamp are assigned atomically together (ReplicatedStore::Put does this
// under its stamp lock) — the property the stabilization frontier's
// soundness argument rests on: frontier(r) ≥ hlc(w) implies every write
// stamped at or before w has applied at r.
//
// Clock sharing is per region-group, not process-wide: every store draws all
// of its stamps from exactly one clock (`ForGroup`, keyed by the store's home
// region-group), so stamps stay monotone in that store's sequence numbers —
// which is all the frontier's soundness needs, because a stabilization cut is
// always computed from the *same store's* dependency stamps and compared
// against that store's frontier, and the caught-up rule (watermark ≥ issued
// high-water mark) is clock-free. Partitioning the clocks removes the one
// compare-exchange cell every region's Put used to contend on. Every clock
// shares the process epoch, so stamps across groups have comparable widths.

#ifndef SRC_COMMON_HLC_H_
#define SRC_COMMON_HLC_H_

#include <atomic>
#include <cassert>
#include <cstdint>

namespace antipode {

class HlcClock {
 public:
  // Draws a fresh stamp: max(last + 1, physical now). Strictly increasing,
  // never behind the physical clock, wait-free in the uncontended case.
  uint64_t Tick();

  // Merges a stamp received from elsewhere (a replicated entry's stamp) so
  // subsequent local stamps dominate it — the "hybrid" half of the clock.
  // In this single-process reproduction every store of a region-group shares
  // one clock and the merge is a no-op in practice, but replication applies
  // call it anyway so the protocol reads like the multi-process original.
  void Observe(uint64_t remote);

  // The most recent stamp issued or observed.
  uint64_t Last() const { return last_.load(std::memory_order_acquire); }

  // The clock of one region-group (RegionGroupOf in src/net/region.h — this
  // layer only sees the index). Each store must draw every stamp it ever
  // issues from one clock; which one is a pure locality/contention choice.
  static constexpr int kMaxGroups = 8;
  static HlcClock& ForGroup(int group);

  static constexpr int kLogicalBits = 16;
  static uint64_t PhysicalMicros(uint64_t stamp) { return stamp >> kLogicalBits; }
  static uint64_t Logical(uint64_t stamp) { return stamp & ((1u << kLogicalBits) - 1); }
  static uint64_t Pack(uint64_t physical_micros, uint64_t logical) {
    return (physical_micros << kLogicalBits) | (logical & ((1u << kLogicalBits) - 1));
  }

 private:
  // Physical microseconds since the process-wide epoch (first use).
  static uint64_t NowMicros();

  std::atomic<uint64_t> last_{0};
};

}  // namespace antipode

#endif  // SRC_COMMON_HLC_H_
