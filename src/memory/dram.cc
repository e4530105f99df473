/**
 * @file
 * Implementation of the DRAM module power model.
 */

#include "memory/dram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tdp {

namespace {

/** One quantum of the Janzen model, shared by module and bank. */
struct QuantumResult
{
    double activations = 0.0;
    double activeFraction = 0.0;
    Watts power = 0.0;
};

QuantumResult
advanceQuantum(const DramModule::Params &params, double reads,
               double writes, double page_hit_rate, Seconds dt)
{
    if (reads < 0.0 || writes < 0.0)
        panic("DramModule: negative access counts (%g, %g)", reads,
              writes);
    if (dt <= 0.0)
        panic("DramModule: non-positive quantum %g", dt);
    page_hit_rate = std::clamp(page_hit_rate, 0.0, 1.0);

    QuantumResult q;
    const double accesses = reads + writes;
    q.activations = accesses * (1.0 - page_hit_rate);

    // State residency: fraction of the quantum with at least one bank
    // active. Saturates at 1 when the module is fully busy.
    const double busy = accesses * params.accessBusyTime / dt;
    q.activeFraction = std::min(1.0, busy);

    const double burst_energy = q.activations * params.activateEnergy +
                                reads * params.readEnergy +
                                writes * params.writeEnergy;

    q.power = params.backgroundPower;
    q.power += q.activeFraction * params.activeStandbyPower;
    q.power += burst_energy / dt;
    // Superlinear bank-overlap term: with more concurrent bank
    // activity the shared charge pumps and I/O drivers run hotter.
    q.power += params.bankOverlapPower * q.activeFraction *
               q.activeFraction;
    return q;
}

} // namespace

Watts
DramModule::advance(double reads, double writes, double page_hit_rate,
                    Seconds dt)
{
    const QuantumResult q =
        advanceQuantum(params_, reads, writes, page_hit_rate, dt);
    lifetimeReads_ += reads;
    lifetimeWrites_ += writes;
    lifetimeActivations_ += q.activations;
    lastActiveFraction_ = q.activeFraction;
    return q.power;
}

DramBank::DramBank(const DramModule::Params &params, size_t count)
    : params_(params), lifetimeReads_(count, 0.0),
      lifetimeWrites_(count, 0.0), lifetimeActivations_(count, 0.0),
      lastActiveFraction_(count, 0.0)
{
}

Watts
DramBank::advanceShared(double reads, double writes,
                        double page_hit_rate, Seconds dt)
{
    const QuantumResult q =
        advanceQuantum(params_, reads, writes, page_hit_rate, dt);
    for (size_t b = 0; b < size(); ++b) {
        lifetimeReads_[b] += reads;
        lifetimeWrites_[b] += writes;
        lifetimeActivations_[b] += q.activations;
    }
    std::fill(lastActiveFraction_.begin(), lastActiveFraction_.end(),
              q.activeFraction);
    return q.power;
}

} // namespace tdp
