/**
 * @file
 * Front-side bus model.
 *
 * All transactions entering or leaving a processor pass through this
 * bus (the paper's "Processor Memory Bus Transactions" event). Agents
 * are the CPU cores (demand fills, writebacks, prefetches, uncacheable
 * accesses) and the memory controller performing DMA on behalf of I/O
 * devices. Like the Pentium 4's counters, per-CPU accounting cannot
 * distinguish DMA from other-processor coherency traffic: both land in
 * a single DMA/Other bucket.
 */

#ifndef TDP_MEMORY_BUS_HH
#define TDP_MEMORY_BUS_HH

#include <cstdint>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/system.hh"

namespace tdp {

/** Classes of bus transactions, for per-kind accounting. */
enum class BusTxKind : int
{
    DemandFill = 0,  ///< cache-line fills from demand L3 misses
    Writeback,       ///< dirty-line evictions to memory
    Prefetch,        ///< hardware prefetcher fills
    Uncacheable,     ///< MMIO / uncacheable loads and stores
    Dma,             ///< device DMA through the memory controller
    NumKinds,
};

/** Number of BusTxKind values. */
constexpr int numBusTxKinds = static_cast<int>(BusTxKind::NumKinds);

/**
 * Shared front-side bus. CPUs and the DMA engine deposit transaction
 * counts during their phases; the bus finalises totals in the Memory
 * phase and exposes the previous quantum's utilisation so producers
 * can model congestion backpressure.
 */
class FrontSideBus : public SimObject, public Ticked
{
  public:
    /** Configuration for the bus. */
    struct Params
    {
        /** Peak sustainable transactions per second (cache lines). */
        double capacityTxPerSec = 140e6;

        /** Bytes per bus transaction (one cache line). */
        double bytesPerTx = 64.0;
    };

    FrontSideBus(System &system, const std::string &name,
                 const Params &params);

    /**
     * Deposit transactions of a kind for the current quantum;
     * panic()s on a negative count.
     */
    void
    addTransactions(BusTxKind kind, double count)
    {
        if (count < 0.0)
            negativeTransactions(count);
        pending_[static_cast<int>(kind)] += count;
    }

    /**
     * Utilisation of the previous quantum in [0, ~1.2]; values above
     * 1 indicate oversubscription that the CPUs should back off from.
     */
    double prevUtilization() const { return prevUtilization_; }

    /**
     * Congestion throttle factor in (0, 1]: multiply demand throughput
     * by this to model queueing once the bus saturates.
     */
    double throttleFactor() const;

    /** Transactions of one kind deposited so far this quantum. */
    double pendingOfKind(BusTxKind kind) const;

    /** All transactions deposited so far this quantum. */
    double pendingTotal() const;

    /** DMA transactions deposited so far this quantum. */
    double
    pendingDma() const
    {
        return pendingOfKind(BusTxKind::Dma);
    }

    /** Finalised totals of the previous quantum, per kind. */
    double prevOfKind(BusTxKind kind) const;

    /** Finalised total of the previous quantum. */
    double prevTotal() const { return prevTotal_; }

    /** Lifetime transaction count per kind. */
    double lifetimeOfKind(BusTxKind kind) const;

    /** Bus capacity in transactions per second. */
    double capacityTxPerSec() const { return params_.capacityTxPerSec; }

    void tickUpdate(Tick now, Tick quantum) override;

  private:
    [[noreturn]] static void negativeTransactions(double count);

    Params params_;
    double pending_[numBusTxKinds] = {};
    double prev_[numBusTxKinds] = {};
    double lifetime_[numBusTxKinds] = {};
    double prevTotal_ = 0.0;
    double prevUtilization_ = 0.0;
};

} // namespace tdp

#endif // TDP_MEMORY_BUS_HH
