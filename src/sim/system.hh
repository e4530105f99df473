/**
 * @file
 * The System: owns the event queue, the registered components and the
 * per-quantum update schedule.
 */

#ifndef TDP_SIM_SYSTEM_HH
#define TDP_SIM_SYSTEM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

namespace tdp {

/**
 * Container and scheduler for one simulated machine.
 *
 * Components register themselves on construction (via SimObject) and
 * optionally as Ticked participants with a TickPhase. run() interleaves
 * discrete events with fixed activity quanta: each quantum, every
 * Ticked object is stepped in phase order, then pending events up to
 * the quantum boundary fire.
 */
class System
{
  public:
    /**
     * @param master_seed seed from which all component RNG streams
     *        derive; two systems with equal seeds and configs evolve
     *        identically.
     * @param quantum activity quantum length in ticks (default 1 ms).
     */
    explicit System(uint64_t master_seed, Tick quantum = ticksPerMs);

    /** Event queue for discrete events. */
    EventQueue &events() { return events_; }

    /** Current simulated time. */
    Tick now() const { return events_.now(); }

    /** Activity quantum length. */
    Tick quantum() const { return quantum_; }

    /** Master seed for this run. */
    uint64_t masterSeed() const { return masterSeed_; }

    /** Derive an independent RNG stream for a named component. */
    Rng makeRng(const std::string &stream_name) const;

    /** Called by SimObject's constructor; not for direct use. */
    void registerObject(SimObject *obj);

    /** Register a per-quantum participant in the given phase. */
    void addTicked(Ticked *ticked, TickPhase phase);

    /** Find a registered object by name; nullptr when absent. */
    SimObject *findObject(const std::string &name) const;

    /** All registered objects, in construction order. */
    const std::vector<SimObject *> &objects() const { return objects_; }

    /**
     * Run the simulation for the given number of seconds of simulated
     * time. May be called repeatedly to extend a run. The first call
     * invokes startup() on all registered objects.
     */
    void runFor(Seconds seconds);

    /** Run until an absolute tick. */
    void runUntil(Tick until_tick);

    /** Number of quanta executed so far. */
    uint64_t quantaExecuted() const { return quantaExecuted_; }

    /**
     * Publish the kernel's counters (events processed, quanta) and
     * every registered object's recordStats() into the registry.
     * Cold path: call at collection points (end of a run),
     * not per quantum. No-op when the registry is disabled.
     */
    void publishStats(obs::StatsRegistry &stats) const;

  private:
    void ensureStarted();
    void executeQuantum(Tick start);
    void sortTickeds();

    uint64_t masterSeed_;
    Tick quantum_;
    EventQueue events_;
    std::vector<SimObject *> objects_;
    std::unordered_map<std::string, SimObject *> objectsByName_;
    struct TickedEntry
    {
        Ticked *ticked;
        int phase;
        uint64_t order;
    };
    std::vector<TickedEntry> tickeds_;
    bool tickedsDirty_ = false;
    bool started_ = false;
    Tick nextQuantumStart_ = 0;
    uint64_t quantaExecuted_ = 0;
};

} // namespace tdp

#endif // TDP_SIM_SYSTEM_HH
