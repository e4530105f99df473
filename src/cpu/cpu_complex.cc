/**
 * @file
 * Implementation of the CPU complex.
 */

#include "cpu/cpu_complex.hh"

#include "common/logging.hh"

namespace tdp {

CpuComplex::CpuComplex(System &system, const std::string &name,
                       Scheduler &scheduler, OperatingSystem &os,
                       VirtualMemory &vm, FrontSideBus &bus,
                       MemoryController &mem_controller,
                       InterruptController &irq_controller,
                       IoChipComplex &chips, const Params &params)
    : SimObject(system, name), params_(params), scheduler_(scheduler),
      os_(os), vm_(vm), bus_(bus), memController_(mem_controller),
      irqController_(irq_controller), chips_(chips)
{
    if (params_.coreCount <= 0)
        fatal("CpuComplex: coreCount must be positive");
    if (params_.coreCount != scheduler.coreCount()) {
        fatal("CpuComplex: %d cores but scheduler manages %d",
              params_.coreCount, scheduler.coreCount());
    }
    for (int i = 0; i < params_.coreCount; ++i) {
        const std::string core_name =
            name + ".cpu" + std::to_string(i);
        cores_.push_back(std::make_unique<CpuCore>(
            core_name, params_.core, system.makeRng(core_name)));
    }
    system.addTicked(this, TickPhase::Cpu);
}

void
CpuComplex::addMmioSource(MmioSource source)
{
    mmioSources_.push_back(std::move(source));
}

CpuCore &
CpuComplex::core(int index)
{
    if (index < 0 || index >= coreCount())
        panic("CpuComplex: core %d out of %d", index, coreCount());
    return *cores_[static_cast<size_t>(index)];
}

const CpuCore &
CpuComplex::core(int index) const
{
    if (index < 0 || index >= coreCount())
        panic("CpuComplex: core %d out of %d", index, coreCount());
    return *cores_[static_cast<size_t>(index)];
}

void
CpuComplex::tickUpdate(Tick /* now */, Tick quantum)
{
    const Seconds dt = ticksToSeconds(quantum);
    const int n = coreCount();

    // Devices deposited their DMA earlier in this quantum; every
    // package snoops the bus, and the hardware attributes the traffic
    // round-robin so per-CPU counts sum to the true total.
    const double dma_share = bus_.pendingDma() / static_cast<double>(n);

    // Driver MMIO work raised by device submissions this quantum.
    double mmio_total = 0.0;
    for (const MmioSource &source : mmioSources_)
        mmio_total += source();
    chips_.addMmioAccesses(mmio_total);
    const double mmio_share = mmio_total / static_cast<double>(n);

    const double throttle = bus_.throttleFactor();
    const double kernel_uops = os_.kernelUopsPerQuantum(dt);

    Watts power = 0.0;
    Watts crosstalk = 0.0;
    double hit_weight = 0.0;
    double traffic_weight = 0.0;

    for (int i = 0; i < n; ++i) {
        CoreQuantumInputs &in = inputsScratch_;
        scheduler_.runnableOnCore(i, in.threads);
        if (vm_.pressure() <= 0.0) {
            // stallFactor() is exactly 1 without paging pressure.
            in.stallFactors.assign(in.threads.size(), 1.0);
        } else {
            in.stallFactors.clear();
            for (const ThreadContext *t : in.threads) {
                in.stallFactors.push_back(
                    vm_.stallFactor(t->demand().memBoundness));
            }
        }
        in.busThrottle = throttle;
        in.kernelUops = kernel_uops;
        in.interrupts = irqController_.pendingForCpu(i);
        in.mmioAccesses = mmio_share;
        in.dmaSnoopShare = dma_share;

        const CoreQuantumOutputs out =
            cores_[static_cast<size_t>(i)]->executeQuantum(in, quantum);

        bus_.addTransactions(BusTxKind::DemandFill, out.demandFills);
        bus_.addTransactions(BusTxKind::Writeback, out.writebacks);
        bus_.addTransactions(BusTxKind::Prefetch, out.prefetches);
        bus_.addTransactions(BusTxKind::Uncacheable, out.uncacheable);

        power += out.power;
        crosstalk += out.chipsetCrosstalk;
        hit_weight += out.pageHitWeight;
        traffic_weight += out.trafficWeight;
    }

    if (traffic_weight > 0.0)
        memController_.setCpuTrafficCharacter(hit_weight /
                                              traffic_weight);

    lastPower_ = power;
    // Crosstalk is specified per fully-occupied slot population.
    const double slots =
        static_cast<double>(n * scheduler_.smtPerCore());
    lastCrosstalk_ = crosstalk / slots;
}

} // namespace tdp
