/**
 * @file
 * Ablation A2 (paper section 4.2.4): I/O model input choice. The
 * paper considered three observable events for I/O power - DMA
 * accesses, uncacheable accesses and interrupts - and found
 * interrupts most representative: DMA is low-passed by the I/O chip
 * buffers and write-combining breaks its linearity; uncacheable
 * accesses only see the configuration half of the traffic. This
 * binary quantifies that choice on the synthetic disk workload.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "core/model.hh"
#include "stats/metrics.hh"

#include "common/bench_util.hh"

namespace {

using namespace tdp;
using namespace tdp::bench;

double
errorOn(SubsystemModel &model, const SampleTrace &trace)
{
    std::vector<double> modeled, measured;
    for (const AlignedSample &s : trace.rows()) {
        modeled.push_back(model.estimate(EventVector::fromSample(s)));
        measured.push_back(s.measured(Rail::Io));
    }
    return averageError(modeled, measured);
}

double
correlationOn(const SampleTrace &trace, double CpuEventRates::*field)
{
    std::vector<double> x, y;
    for (const AlignedSample &s : trace.rows()) {
        x.push_back(EventVector::fromSample(s).total(field));
        y.push_back(s.measured(Rail::Io));
    }
    return pearson(x, y);
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);

    std::printf("Ablation A2: I/O model inputs "
                "(interrupts vs DMA vs uncacheable)\n\n");

    // Validate on a bursty variant (synchronised sync() flushes):
    // burstiness is what separates the candidates - the chip buffers
    // low-pass the DMA stream while interrupts stay aligned with the
    // device activity. Training and validation runs share the pool.
    RunSpec valid_spec = characterizationRun("diskload");
    valid_spec.instances = 3;
    valid_spec.stagger = 0.0;
    const std::vector<SampleTrace> traces =
        runTraces({trainingRun("diskload"), valid_spec});
    const SampleTrace &train = traces[0];
    const SampleTrace &valid = traces[1];

    QuadraticEventModel irq("io-interrupt", Rail::Io,
                            &CpuEventRates::deviceInterruptsPerCycle);
    QuadraticEventModel dma("io-dma", Rail::Io,
                            &CpuEventRates::dmaPerCycle);
    QuadraticEventModel unc("io-uncacheable", Rail::Io,
                            &CpuEventRates::uncacheablePerCycle);
    irq.train(train);
    dma.train(train);
    unc.train(train);

    TableWriter table({"input event", "corr. w/ I/O power",
                       "avg error (diskload)"});
    table.addRow({"interrupts/cycle (Eq5)",
                  TableWriter::num(
                      correlationOn(
                          valid,
                          &CpuEventRates::deviceInterruptsPerCycle),
                      3),
                  TableWriter::pct(errorOn(irq, valid))});
    table.addRow({"DMA accesses/cycle",
                  TableWriter::num(
                      correlationOn(valid, &CpuEventRates::dmaPerCycle),
                      3),
                  TableWriter::pct(errorOn(dma, valid))});
    table.addRow({"uncacheable/cycle",
                  TableWriter::num(
                      correlationOn(
                          valid, &CpuEventRates::uncacheablePerCycle),
                      3),
                  TableWriter::pct(errorOn(unc, valid))});
    table.render(std::cout);

    std::printf("\nExpected shape (paper): interrupts win; DMA "
                "lags the device activity through chip buffering\n"
                "(a low-pass filter, section 4.2.4) and uncacheable "
                "accesses only observe configuration traffic.\n");
    return 0;
}
