/**
 * @file
 * DRAM module with a Janzen-style power model (paper reference [8]).
 *
 * Power is derived from the module's state residency and access
 * energies: background (idle/powerdown) power, precharge vs active
 * standby residency, row activations governed by the access stream's
 * page-hit rate, and per-burst read/write energies (writes cost more
 * than reads - the mix term the paper's model deliberately omits and
 * later blames for its FP-workload underestimation).
 */

#ifndef TDP_MEMORY_DRAM_HH
#define TDP_MEMORY_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace tdp {

/**
 * One DRAM module (DIMM). Not a SimObject: the MemoryController owns
 * and steps a bank of these directly.
 */
class DramModule
{
  public:
    /** Electrical/timing configuration of a module. */
    struct Params
    {
        /** Background power with all banks precharged (W). */
        double backgroundPower = 2.55;

        /** Extra standby power while any bank is active (W). */
        double activeStandbyPower = 0.55;

        /**
         * Energy per row activation+precharge pair (J). Deliberately
         * the largest per-access term: row locality is invisible to
         * the bus-transaction counter, so workloads whose page-hit
         * rate differs from the training workload's produce the
         * memory-model errors the paper reports on FP codes.
         */
        double activateEnergy = 150e-9;

        /** Energy per read burst (J). */
        double readEnergy = 40e-9;

        /** Energy per write burst (J). */
        double writeEnergy = 60e-9;

        /** Seconds of bank busy time per access (for residency). */
        double accessBusyTime = 60e-9;

        /**
         * Bank-overlap power at full utilisation (W). Multiple banks
         * active simultaneously draw superlinear current - this is the
         * physical source of the quadratic term the paper fits.
         */
        double bankOverlapPower = 0.45;
    };

    explicit DramModule(const Params &params) : params_(params) {}

    /**
     * Account one quantum of traffic and return the module's average
     * power over the quantum.
     *
     * @param reads read bursts in the quantum.
     * @param writes write bursts in the quantum.
     * @param page_hit_rate fraction of accesses hitting an open row.
     * @param dt quantum length in seconds.
     */
    Watts advance(double reads, double writes, double page_hit_rate,
                  Seconds dt);

    /** Lifetime read bursts. */
    double lifetimeReads() const { return lifetimeReads_; }

    /** Lifetime write bursts. */
    double lifetimeWrites() const { return lifetimeWrites_; }

    /** Lifetime row activations. */
    double lifetimeActivations() const { return lifetimeActivations_; }

    /** Active-state residency fraction of the last quantum. */
    double lastActiveFraction() const { return lastActiveFraction_; }

  private:
    Params params_;
    double lifetimeReads_ = 0.0;
    double lifetimeWrites_ = 0.0;
    double lifetimeActivations_ = 0.0;
    double lastActiveFraction_ = 0.0;
};

/**
 * A population of identical DIMMs stepped together, with the per-DIMM
 * bookkeeping held as structure-of-arrays so a quantum costs one
 * power-chain evaluation instead of one advance() per module.
 *
 * The controller hands every DIMM the same per-module traffic share,
 * so the quantum's power chain is evaluated once (bit-identical to
 * DramModule::advance on the same inputs) and the lifetime
 * accumulators each add the same per-module traffic. Per-DIMM
 * inspection accessors mirror DramModule's.
 */
class DramBank
{
  public:
    DramBank(const DramModule::Params &params, size_t count);

    /** Number of DIMMs in the bank. */
    size_t size() const { return lifetimeReads_.size(); }

    /**
     * Account one quantum of per-DIMM traffic, identical for every
     * module, and return one module's average power over the quantum
     * (every module draws the same). Same validation as
     * DramModule::advance.
     */
    Watts advanceShared(double reads, double writes,
                        double page_hit_rate, Seconds dt);

    /** Lifetime read bursts of DIMM d. */
    double lifetimeReads(size_t d) const { return lifetimeReads_[d]; }

    /** Lifetime write bursts of DIMM d. */
    double lifetimeWrites(size_t d) const { return lifetimeWrites_[d]; }

    /** Lifetime row activations of DIMM d. */
    double
    lifetimeActivations(size_t d) const
    {
        return lifetimeActivations_[d];
    }

    /** Active-state residency fraction of DIMM d's last quantum. */
    double
    lastActiveFraction(size_t d) const
    {
        return lastActiveFraction_[d];
    }

  private:
    DramModule::Params params_;
    std::vector<double> lifetimeReads_;
    std::vector<double> lifetimeWrites_;
    std::vector<double> lifetimeActivations_;
    std::vector<double> lastActiveFraction_;
};

} // namespace tdp

#endif // TDP_MEMORY_DRAM_HH
