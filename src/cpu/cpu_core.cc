/**
 * @file
 * Implementation of the CPU package model.
 */

#include "cpu/cpu_core.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tdp {

CpuCore::CpuCore(std::string name, const Params &params, Rng rng)
    : name_(std::move(name)), params_(params), clock_(params.clockHz),
      rng_(rng)
{
}

CoreQuantumOutputs
CpuCore::executeQuantum(const CoreQuantumInputs &inputs, Tick quantum)
{
    if (inputs.threads.size() != inputs.stallFactors.size()) {
        panic("CpuCore %s: %zu threads but %zu stall factors",
              name_.c_str(), inputs.threads.size(),
              inputs.stallFactors.size());
    }

    const Seconds dt = ticksToSeconds(quantum);
    const Cycles cycles = clock_.cycles(quantum);
    CoreQuantumOutputs out;

    const size_t n_threads = inputs.threads.size();
    const double smt_factor = n_threads >= 2 ? params_.smtEfficiency : 1.0;
    // Oversubscribed cores time-share their two hardware threads.
    const double time_share =
        n_threads > 2 ? 2.0 / static_cast<double>(n_threads) : 1.0;

    // Pass 1: effective per-thread fetch rates before the width cap.
    // Demands are read in place: a thread's demand changes only in its
    // commit(), which pass 2 calls after the thread's last read.
    demandScratch_.resize(n_threads);
    effScratch_.assign(n_threads, 0.0);
    std::vector<const ThreadDemand *> &demands = demandScratch_;
    std::vector<double> &eff = effScratch_;
    double total_demand = 0.0;
    for (size_t i = 0; i < n_threads; ++i) {
        demands[i] = &inputs.threads[i]->demand();
        const ThreadDemand &d = *demands[i];
        double rate = d.uopsPerCycle * d.dutyCycle * time_share *
                      smt_factor * inputs.stallFactors[i];
        // Memory-bound threads lose throughput to bus congestion.
        rate *= 1.0 - d.memBoundness * (1.0 - inputs.busThrottle);
        eff[i] = std::max(0.0, rate);
        total_demand += eff[i];
    }
    if (total_demand > params_.fetchWidth) {
        const double scale = params_.fetchWidth / total_demand;
        for (double &r : eff)
            r *= scale;
    }

    // Pass 2: execute and account events.
    const double kernel_uops =
        inputs.kernelUops +
        inputs.interrupts * params_.uopsPerInterrupt;
    double fetched = kernel_uops;
    double demand_misses =
        kernel_uops * params_.kernelL3MissPerKuop / 1000.0;
    double writebacks = demand_misses * 0.3;
    double prefetches = 0.0;
    double tlb_misses = 0.0;
    double uncacheable = inputs.mmioAccesses;
    double spec_uops_rate = 0.0;
    double occupancy_miss = 1.0;
    double crosstalk = 0.0;
    double gating_weight = 0.0;
    double presence_total = 0.0;

    for (size_t i = 0; i < n_threads; ++i) {
        const ThreadDemand &d = *demands[i];
        const double uops = eff[i] * cycles;
        const double misses = uops * d.l3MissPerKuop / 1000.0;
        fetched += uops;
        demand_misses += misses;
        writebacks += misses * d.writebackFraction;
        prefetches += misses * d.prefetchPerMiss * inputs.busThrottle;
        tlb_misses += uops * d.tlbMissPerMuop / 1e6;
        uncacheable += uops * d.uncacheablePerMuop / 1e6;

        const double presence = d.dutyCycle * time_share;
        occupancy_miss *= 1.0 - std::min(1.0, presence);
        spec_uops_rate += d.specUopsEquiv * presence * smt_factor;
        crosstalk += d.chipsetCrosstalkW * presence;
        gating_weight += d.clockGatingFactor * presence;
        presence_total += presence;

        const double traffic =
            misses * (1.0 + d.writebackFraction + d.prefetchPerMiss);
        out.pageHitWeight += traffic * d.pageHitRate;
        out.trafficWeight += traffic;

        inputs.threads[i]->commit(uops, dt);
    }
    spec_uops_rate = std::min(spec_uops_rate, params_.fetchWidth);

    // Page walks fetch PTE cache lines through the hierarchy.
    const double pagewalk_fills =
        tlb_misses * params_.pageWalkLinesPerTlbMiss;

    out.demandFills = demand_misses + pagewalk_fills;
    out.writebacks = writebacks;
    out.prefetches = prefetches;
    out.uncacheable = uncacheable;
    out.chipsetCrosstalk = crosstalk;

    // Active (non-halted) fraction: union of thread occupancy, plus
    // interrupt wake windows and kernel work on otherwise idle cores.
    const double occupancy = 1.0 - occupancy_miss;
    const double wake =
        inputs.interrupts * params_.wakeCyclesPerInterrupt / cycles +
        kernel_uops / (params_.fetchWidth * cycles) * 8.0;
    const double active =
        std::clamp(occupancy + (1.0 - occupancy) * std::min(1.0, wake),
                   0.0, 1.0);

    const double uops_per_cycle = fetched / cycles;

    // Ground-truth package power. The active term is mildly sublinear
    // (partially-awake packages are less efficient than the linear
    // interpolation a trained model assumes), and speculative window
    // search burns fetch-equivalent power the PMU cannot see.
    const double s = clock_.scale();
    const double v = 0.75 + 0.25 * s;
    const double v2 = v * v;
    const double gating =
        presence_total > 0.0 ? gating_weight / presence_total : 0.0;
    // pow is pure and a core's active fraction takes few distinct
    // values, mostly repeating the previous quantum's (1 when fully
    // occupied), so the last input and output are kept.
    if (active != powInput_) {
        powInput_ = active;
        powOutput_ = std::pow(active, 0.90);
    }
    const double dynamic =
        params_.activePower * powOutput_ * (1.0 - gating) +
        params_.powerPerUopPerCycle * (uops_per_cycle + spec_uops_rate);
    Watts power = params_.haltedPower * v2 + dynamic * s * v2;
    power += rng_.gaussian(0.0, params_.powerNoiseSigma);
    power = std::max(0.0, power);

    // PMU accounting.
    counters_.increment(PerfEvent::Cycles, cycles);
    counters_.increment(PerfEvent::HaltedCycles, cycles * (1.0 - active));
    counters_.increment(PerfEvent::FetchedUops, fetched);
    counters_.increment(PerfEvent::L3LoadMisses, demand_misses);
    counters_.increment(PerfEvent::TlbMisses, tlb_misses);
    counters_.increment(PerfEvent::DmaOtherAccesses, inputs.dmaSnoopShare);
    counters_.increment(PerfEvent::PrefetchTransactions, prefetches);
    counters_.increment(PerfEvent::UncacheableAccesses, uncacheable);
    counters_.increment(PerfEvent::InterruptsServiced, inputs.interrupts);
    counters_.increment(
        PerfEvent::BusTransactions,
        out.demandFills + out.writebacks + out.prefetches +
            out.uncacheable + inputs.dmaSnoopShare);

    lastPower_ = power;
    lastActiveFraction_ = active;
    lastUopsPerCycle_ = uops_per_cycle;
    out.power = power;
    return out;
}

} // namespace tdp
