/**
 * @file
 * Bit-level pins of trained model sets.
 *
 * ModelTrainer::train derives each training trace's event rates once
 * and feeds every fit of every rail from that one table. These pins
 * prove the fits come out unchanged: the paper model set and the
 * degradable model set are each trained on the stream's synthetic
 * training trace and on a short simulated diskload run, and the raw
 * bits of every coefficient (primaries and fallback rungs), plus each
 * rail's RMSE and R^2 over its training trace, are digested.
 *
 * RMSE and R^2 are computed here from the trained estimator's
 * estimates against the measured column (finite pairs only), so the
 * pins cover the estimate path too. A refactor or speed-up leaves
 * the constants alone; a deliberate model change re-records them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "core/trainer.hh"
#include "platform/server.hh"
#include "stream/synthetic.hh"

namespace tdp {
namespace {

/** Labelled values of one trained estimator, in a fixed order. */
struct Pinned
{
    std::vector<std::string> labels;
    std::vector<double> values;

    void
    add(const std::string &label, double value)
    {
        labels.push_back(label);
        values.push_back(value);
    }

    uint64_t
    digest() const
    {
        return fnv1a64(values.data(), values.size() * sizeof(double));
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        for (size_t i = 0; i < values.size(); ++i) {
            uint64_t bits;
            std::memcpy(&bits, &values[i], sizeof(bits));
            os << labels[i] << " = " << values[i] << " (0x" << std::hex
               << bits << std::dec << ")\n";
        }
        return os.str();
    }
};

/** Coefficients of one model, or one NaN when it is untrained. */
void
addModel(Pinned &pinned, const SubsystemModel &model)
{
    if (!model.trained()) {
        pinned.add(model.name() + " untrained",
                   std::nan(""));
        return;
    }
    const std::vector<double> coeffs = model.coefficients();
    for (size_t c = 0; c < coeffs.size(); ++c)
        pinned.add(model.name() + "[" + std::to_string(c) + "]",
                   coeffs[c]);
}

Pinned
trainAndPin(SystemPowerEstimator estimator, const SampleTrace &trace)
{
    ModelTrainer trainer;
    for (int r = 0; r < numRails; ++r)
        trainer.setTrainingTrace(static_cast<Rail>(r), trace);
    trainer.train(estimator);

    const std::array<std::vector<double>, numRails> estimates =
        estimator.estimateTrace(trace);
    Pinned pinned;
    for (int r = 0; r < numRails; ++r) {
        const Rail rail = static_cast<Rail>(r);
        addModel(pinned, estimator.model(rail));
        for (const auto &rung : estimator.fallbacks(rail))
            addModel(pinned, *rung);

        const std::vector<double> &measured = trace.measuredColumn(rail);
        double sum = 0.0;
        size_t n = 0;
        for (size_t i = 0; i < measured.size(); ++i) {
            if (std::isfinite(measured[i]) &&
                std::isfinite(estimates[static_cast<size_t>(r)][i])) {
                sum += measured[i];
                ++n;
            }
        }
        const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
        double ss_res = 0.0;
        double ss_tot = 0.0;
        for (size_t i = 0; i < measured.size(); ++i) {
            const double e = estimates[static_cast<size_t>(r)][i];
            if (!std::isfinite(measured[i]) || !std::isfinite(e))
                continue;
            ss_res += (measured[i] - e) * (measured[i] - e);
            ss_tot += (measured[i] - mean) * (measured[i] - mean);
        }
        const std::string name = railName(rail);
        pinned.add(name + " rmse",
                   n > 0 ? std::sqrt(ss_res / static_cast<double>(n))
                         : 0.0);
        pinned.add(name + " r2",
                   ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0);
    }
    return pinned;
}

/** A 20 s diskload x8 run, as ServerGolden simulates it. */
const SampleTrace &
diskloadTrace()
{
    static const SampleTrace trace = [] {
        Server server(0x60D1);
        server.runner().launchStaggered("diskload", 8, 0.5, 0.0);
        return SampleTrace(server.runAndCollect(20.0));
    }();
    return trace;
}

void
expectPinned(const Pinned &pinned, size_t values, uint64_t digest)
{
    EXPECT_EQ(pinned.values.size(), values) << pinned.describe();
    EXPECT_EQ(pinned.digest(), digest)
        << "digest 0x" << std::hex << pinned.digest() << std::dec
        << "\n"
        << pinned.describe();
}

TEST(TrainerPins, PaperSetOnSyntheticTrace)
{
    expectPinned(trainAndPin(SystemPowerEstimator::makePaperModelSet(),
                             stream::synthetic::trainingTrace()),
                 25, 0xdf9c8104521b7f86ull);
}

TEST(TrainerPins, DegradableSetOnSyntheticTrace)
{
    expectPinned(
        trainAndPin(SystemPowerEstimator::makeDegradableModelSet(),
                    stream::synthetic::trainingTrace()),
        32, 0x52b0c9539ec61da4ull);
}

TEST(TrainerPins, PaperSetOnDiskloadTrace)
{
    expectPinned(trainAndPin(SystemPowerEstimator::makePaperModelSet(),
                             diskloadTrace()),
                 25, 0xb811955a400fdf93ull);
}

TEST(TrainerPins, DegradableSetOnDiskloadTrace)
{
    expectPinned(
        trainAndPin(SystemPowerEstimator::makeDegradableModelSet(),
                    diskloadTrace()),
        32, 0xa2ad9f302dfcec95ull);
}

} // namespace
} // namespace tdp
