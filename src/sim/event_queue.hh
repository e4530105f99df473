/**
 * @file
 * Discrete-event queue for the simulation kernel.
 *
 * Events fire in (tick, insertion-order) order, so simultaneous
 * events are deterministic. The queue carries only the sparse work
 * between activity quanta (1 Hz sampler reads, DAQ sync pulses,
 * thread launches), so it is a plain binary min-heap of callbacks.
 */

#ifndef TDP_SIM_EVENT_QUEUE_HH
#define TDP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/units.hh"

namespace tdp {

/** Callbacks ordered by tick, then by the order they were scheduled. */
class EventQueue
{
  public:
    /**
     * Schedule a callback at an absolute tick. Scheduling in the past
     * (before the current tick) or an empty callback is a bug and
     * panics; `name` labels the event in that panic.
     */
    void schedule(std::string_view name, Tick when,
                  std::function<void()> fn);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t size() const { return heap_.size(); }

    /** Tick of the next pending event; panics when empty. */
    Tick nextTick() const;

    /**
     * Pop and run the next event, advancing time to its tick. The
     * callback may schedule further events. Panics when empty.
     */
    void step();

    /**
     * Run until the queue empties or simulated time would pass
     * until_tick. Events exactly at until_tick are processed; time
     * finishes at until_tick.
     */
    void runUntil(Tick until_tick);

    /** Total number of events processed so far. */
    uint64_t processedCount() const { return processed_; }

  private:
    /** One pending firing. */
    struct Entry
    {
        Tick when;
        uint64_t sequence;
        std::function<void()> fn;
    };

    /**
     * True when a fires after b. The std heap algorithms build a
     * max-heap, so this "greater" ordering keeps the earliest entry at
     * the front.
     */
    static bool firesAfter(const Entry &a, const Entry &b);

    /** Binary min-heap on (when, sequence), via std::push/pop_heap. */
    std::vector<Entry> heap_;
    Tick now_ = 0;
    uint64_t nextSequence_ = 0;
    uint64_t processed_ = 0;
};

} // namespace tdp

#endif // TDP_SIM_EVENT_QUEUE_HH
