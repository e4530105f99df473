/**
 * @file
 * Direct-queue tests for the trace aligner's fault recovery: orphan
 * windows/readings, duplicate-pulse merging, resynchronisation after
 * a missed pulse, glitch filtering and the leftover accessors. The
 * DAQ queues are populated by hand so each scenario is exact. The
 * same scenarios, replayed in time order, show that draining after
 * every pulse (as the rig does) equals one drain at the end.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "measure/aligner.hh"
#include "measure/trace_io.hh"

namespace tdp {
namespace {

class AlignerFaults : public ::testing::Test
{
  protected:
    AlignerFaults()
        : system_(1),
          daq_(system_, "daq", DataAcquisition::Params{}),
          aligner_(daq_)
    {
    }

    /** Append one DAQ block starting at @p start seconds. */
    void
    addBlock(Seconds start, Seconds length,
             const std::array<float, numRails> &watts)
    {
        DaqBlock block;
        block.start = secondsToTicks(start);
        block.length = secondsToTicks(length);
        block.watts = watts;
        daq_.blocks().push_back(block);
    }

    /** Fill [from, to) with 0.1 s blocks of uniform power. */
    void
    fillBlocks(Seconds from, Seconds to, float watts)
    {
        std::array<float, numRails> uniform;
        uniform.fill(watts);
        const int n = static_cast<int>(std::lround((to - from) / 0.1));
        for (int i = 0; i < n; ++i)
            addBlock(from + 0.1 * i, 0.1, uniform);
    }

    void addPulse(Seconds t) { daq_.pulses().push_back(secondsToTicks(t)); }

    void
    addReading(Seconds time, Seconds interval = 1.0)
    {
        CounterReading reading;
        reading.time = time;
        reading.interval = interval;
        reading.perCpu.resize(1);
        reading.perCpu[0][PerfEvent::Cycles] = 2.8e9 * interval;
        readings_.push_back(std::move(reading));
    }

    System system_;
    DataAcquisition daq_;
    TraceAligner aligner_;
    std::deque<CounterReading> readings_;
    SampleTrace trace_;
};

TEST_F(AlignerFaults, CleanStreamsAlignOneToOne)
{
    for (Seconds t : {0.0, 1.0, 2.0, 3.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0})
        addReading(t);
    fillBlocks(0.0, 3.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.alignedCount(), 3u);
    ASSERT_EQ(trace_.size(), 3u);
    for (const AlignedSample &s : trace_.rows()) {
        for (int r = 0; r < numRails; ++r) {
            EXPECT_DOUBLE_EQ(
                s.measuredWatts[static_cast<size_t>(r)], 40.0);
        }
    }
    EXPECT_EQ(aligner_.orphanWindows(), 0u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.duplicatePulses(), 0u);
    EXPECT_EQ(aligner_.resyncedWindows(), 0u);
    EXPECT_TRUE(readings_.empty());
}

TEST_F(AlignerFaults, MissedPulseOrphansReadingAndResyncsWindow)
{
    // The pulse at t=2 was lost: windows become [0,1] and [1,3]. The
    // reading at t=2 is permanently unmatchable; the stretched [1,3]
    // window must only average the power span its matched reading
    // (t=3, interval 1 s) actually covers.
    for (Seconds t : {0.0, 1.0, 3.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0})
        addReading(t);
    fillBlocks(0.0, 1.0, 20.0f);
    fillBlocks(1.0, 2.0, 10.0f);
    fillBlocks(2.0, 3.0, 50.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanReadings(), 1u);
    EXPECT_EQ(aligner_.resyncedWindows(), 1u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_.row(0).measuredWatts[0], 20.0);
    // The 10 W span belongs to the lost reading; the clamped window
    // averages only [2, 3).
    EXPECT_DOUBLE_EQ(trace_.row(1).measuredWatts[0], 50.0);
    EXPECT_DOUBLE_EQ(trace_.row(1).time, 3.0);
}

TEST_F(AlignerFaults, DroppedReadingOrphansItsWindow)
{
    for (Seconds t : {0.0, 1.0, 2.0, 3.0})
        addPulse(t);
    // The reading at t=2 was dropped in transit.
    addReading(1.0);
    addReading(3.0);
    fillBlocks(0.0, 3.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanWindows(), 1u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_.row(0).time, 1.0);
    EXPECT_DOUBLE_EQ(trace_.row(1).time, 3.0);
}

TEST_F(AlignerFaults, DuplicatePulseEdgesAreMerged)
{
    // A duplicated serial byte lands 1 ms after the real edge; the
    // sub-minimum window it creates must be merged, not aligned.
    addPulse(0.0);
    addPulse(1.0);
    addPulse(1.001);
    addPulse(2.0);
    addReading(1.0);
    addReading(2.0);
    fillBlocks(0.0, 2.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.duplicatePulses(), 1u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    for (const AlignedSample &s : trace_.rows())
        EXPECT_DOUBLE_EQ(s.measuredWatts[0], 40.0);
}

TEST_F(AlignerFaults, GlitchedValuesAreExcludedPerRail)
{
    addPulse(0.0);
    addPulse(1.0);
    addReading(1.0);
    std::array<float, numRails> good;
    good.fill(40.0f);
    for (int i = 0; i < 10; ++i) {
        std::array<float, numRails> watts = good;
        if (i == 4) {
            // One NaN on rail 0: excluded, other rails unaffected.
            watts[0] = std::numeric_limits<float>::quiet_NaN();
        }
        // Rail 1 is glitched in every block: no finite value remains.
        watts[1] = std::numeric_limits<float>::infinity();
        addBlock(0.1 * i, 0.1, watts);
    }

    aligner_.drainInto(readings_, trace_);

    ASSERT_EQ(trace_.size(), 1u);
    // 9 finite blocks of 40 W remain on rail 0.
    EXPECT_DOUBLE_EQ(trace_.row(0).measuredWatts[0], 40.0);
    EXPECT_TRUE(std::isnan(trace_.row(0).measuredWatts[1]));
    EXPECT_DOUBLE_EQ(trace_.row(0).measuredWatts[2], 40.0);
    EXPECT_EQ(aligner_.glitchValuesDiscarded(), 11u);
}

TEST_F(AlignerFaults, WindowWithNoUsablePowerIsSkipped)
{
    addPulse(0.0);
    addPulse(1.0);
    addReading(1.0);
    // No blocks at all: the window has nothing to average.

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(trace_.size(), 0u);
    EXPECT_EQ(aligner_.emptyWindows(), 1u);
    EXPECT_EQ(aligner_.alignedCount(), 0u);
}

TEST_F(AlignerFaults, TrailingWindowWaitsForItsReading)
{
    // collect() is incremental: a complete window whose reading has
    // not been drained yet must stay queued, not be orphaned.
    for (Seconds t : {0.0, 1.0, 2.0})
        addPulse(t);
    addReading(1.0);
    fillBlocks(0.0, 2.0, 40.0f);

    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.alignedCount(), 1u);
    EXPECT_EQ(aligner_.orphanWindows(), 0u);
    EXPECT_EQ(daq_.pulses().size(), 2u);

    // The late reading arrives; the queued window aligns.
    addReading(2.0);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_.row(1).time, 2.0);
}

TEST_F(AlignerFaults, ResyncsAfterLeadingOrphanReadingBurst)
{
    // The DAQ came up late: the counter collector had already queued
    // readings at t=1..3 before the first pulse window ever closed.
    // The whole leading burst must be discarded as orphans and the
    // stream must then align one-to-one - not wedge, not mispair an
    // early reading with a later window.
    for (Seconds t : {4.0, 5.0, 6.0})
        addPulse(t);
    for (Seconds t : {1.0, 2.0, 3.0, 5.0, 6.0})
        addReading(t);
    fillBlocks(4.0, 6.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanReadings(), 3u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_.row(0).time, 5.0);
    EXPECT_DOUBLE_EQ(trace_.row(1).time, 6.0);
    EXPECT_DOUBLE_EQ(trace_.row(0).measuredWatts[0], 40.0);

    // Once resynced, the next drain is clean: no new orphans.
    addPulse(7.0);
    addReading(7.0);
    fillBlocks(6.0, 7.0, 30.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanReadings(), 3u);
    EXPECT_EQ(aligner_.alignedCount(), 3u);
    ASSERT_EQ(trace_.size(), 3u);
    EXPECT_DOUBLE_EQ(trace_.row(2).measuredWatts[0], 30.0);
}

TEST_F(AlignerFaults, ResyncsAfterLeadingOrphanWindowBurst)
{
    // The mirror fault: pulses and power flowed from t=0 but the
    // counter collector only started at t=4. Every window before the
    // first reading is an orphan window; alignment then locks on.
    for (Seconds t : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0})
        addPulse(t);
    addReading(4.0);
    addReading(5.0);
    fillBlocks(0.0, 3.0, 20.0f);
    fillBlocks(3.0, 5.0, 40.0f);

    aligner_.drainInto(readings_, trace_);

    EXPECT_EQ(aligner_.orphanWindows(), 3u);
    EXPECT_EQ(aligner_.orphanReadings(), 0u);
    EXPECT_EQ(aligner_.alignedCount(), 2u);
    ASSERT_EQ(trace_.size(), 2u);
    EXPECT_DOUBLE_EQ(trace_.row(0).time, 4.0);
    EXPECT_DOUBLE_EQ(trace_.row(1).time, 5.0);
    // The orphan windows consumed their own power blocks: the
    // aligned samples only average the spans they cover.
    EXPECT_DOUBLE_EQ(trace_.row(0).measuredWatts[0], 40.0);
    EXPECT_DOUBLE_EQ(trace_.row(1).measuredWatts[0], 40.0);
}

TEST_F(AlignerFaults, AccountingAccumulatesAcrossDrains)
{
    // First drain: one dropped reading.
    for (Seconds t : {0.0, 1.0, 2.0})
        addPulse(t);
    addReading(2.0);
    fillBlocks(0.0, 2.0, 40.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanWindows(), 1u);

    // Second drain: one missed pulse.
    addPulse(4.0);
    addReading(3.0);
    addReading(4.0);
    fillBlocks(2.0, 4.0, 40.0f);
    aligner_.drainInto(readings_, trace_);
    EXPECT_EQ(aligner_.orphanWindows(), 1u);
    EXPECT_EQ(aligner_.orphanReadings(), 1u);
    EXPECT_EQ(aligner_.resyncedWindows(), 1u);
}

/** One timed input of a replayed scenario. */
struct ScriptEvent
{
    /** Replay order of inputs sharing a time stamp. */
    enum Kind { Block, Pulse, Reading };

    Kind kind;
    Seconds time;
    std::array<float, numRails> watts{};
};

/** A scenario's inputs, sorted into the order a run produces them. */
struct Script
{
    explicit Script(std::string script_name) : name(std::move(script_name))
    {
    }

    std::string name;
    std::vector<ScriptEvent> events;

    Script &
    pulses(std::initializer_list<Seconds> times)
    {
        for (Seconds t : times)
            events.push_back({ScriptEvent::Pulse, t});
        return *this;
    }

    Script &
    readings(std::initializer_list<Seconds> times)
    {
        for (Seconds t : times)
            events.push_back({ScriptEvent::Reading, t});
        return *this;
    }

    /** 0.1 s blocks over [from, to), @p glitch_every-th one NaN. */
    Script &
    blocks(Seconds from, Seconds to, float watts, int glitch_every = 0)
    {
        const int n = static_cast<int>(std::lround((to - from) / 0.1));
        for (int i = 0; i < n; ++i) {
            ScriptEvent e{ScriptEvent::Block, from + 0.1 * i};
            e.watts.fill(watts);
            if (glitch_every > 0 && i % glitch_every == 0)
                e.watts[0] = std::numeric_limits<float>::quiet_NaN();
            events.push_back(e);
        }
        return *this;
    }

    /**
     * Time order; at one instant a block comes first, then the pulse,
     * then the reading - the sampler queues its reading after the
     * pulse it sent.
     */
    Script &
    sorted()
    {
        std::stable_sort(events.begin(), events.end(),
                         [](const ScriptEvent &a, const ScriptEvent &b) {
                             return a.time != b.time ? a.time < b.time
                                                     : a.kind < b.kind;
                         });
        return *this;
    }
};

/** A DAQ, aligner and reading queue fed from a script. */
struct Replay
{
    Replay(System &system, const std::string &name)
        : daq(system, name, DataAcquisition::Params{}), aligner(daq)
    {
    }

    /** Feed every event; drain after each pulse when asked to. */
    void
    run(const Script &script, bool drain_at_pulse)
    {
        for (const ScriptEvent &e : script.events) {
            switch (e.kind) {
              case ScriptEvent::Block:
                daq.blocks().push_back(DaqBlock{
                    secondsToTicks(e.time), secondsToTicks(0.1),
                    e.watts});
                break;
              case ScriptEvent::Pulse:
                daq.pulses().push_back(secondsToTicks(e.time));
                if (drain_at_pulse)
                    aligner.drainInto(readings, trace);
                break;
              case ScriptEvent::Reading: {
                CounterReading reading;
                reading.time = e.time;
                reading.interval = 1.0;
                reading.perCpu.resize(1);
                reading.perCpu[0][PerfEvent::Cycles] = 2.8e9 * e.time;
                readings.push_back(std::move(reading));
                break;
              }
            }
        }
        aligner.drainInto(readings, trace);
    }

    DataAcquisition daq;
    TraceAligner aligner;
    std::deque<CounterReading> readings;
    SampleTrace trace;
};

/**
 * A seeded 120 s stream with every fault the rig injects: missed and
 * duplicated pulses, dropped readings and glitched blocks.
 */
Script
randomFaultScript()
{
    Rng rng(0xA119);
    Script script("random faults");
    script.pulses({0.0});
    for (int k = 1; k <= 120; ++k) {
        const Seconds t = k + rng.uniform(-1.5e-3, 1.5e-3);
        const double fault = rng.uniform();
        if (fault >= 0.05)
            script.pulses({t});
        if (fault >= 0.05 && fault < 0.10)
            script.pulses({t + 2e-3});
        if (fault < 0.10 || fault >= 0.15)
            script.readings({t});
        script.blocks(k - 1.0, k, 30.0f + 10.0f * rng.uniform(),
                      rng.uniform() < 0.2 ? 3 : 0);
    }
    return script;
}

TEST_F(AlignerFaults, DrainAfterEveryPulseEqualsOneDrain)
{
    std::vector<Script> scripts;
    scripts.push_back(Script("missed pulse")
                          .pulses({0.0, 1.0, 3.0})
                          .readings({1.0, 2.0, 3.0})
                          .blocks(0.0, 1.0, 20.0f)
                          .blocks(1.0, 2.0, 10.0f)
                          .blocks(2.0, 3.0, 50.0f));
    scripts.push_back(Script("duplicate edge")
                          .pulses({0.0, 1.0, 1.001, 2.0})
                          .readings({1.0, 2.0})
                          .blocks(0.0, 2.0, 40.0f));
    scripts.push_back(Script("dropped reading")
                          .pulses({0.0, 1.0, 2.0, 3.0})
                          .readings({1.0, 3.0})
                          .blocks(0.0, 3.0, 40.0f));
    scripts.push_back(Script("glitch")
                          .pulses({0.0, 1.0, 2.0})
                          .readings({1.0, 2.0})
                          .blocks(0.0, 2.0, 40.0f, 4));
    scripts.push_back(Script("orphan reading burst")
                          .pulses({4.0, 5.0, 6.0, 7.0})
                          .readings({1.0, 2.0, 3.0, 5.0, 6.0, 7.0})
                          .blocks(4.0, 7.0, 40.0f));
    scripts.push_back(Script("orphan window burst")
                          .pulses({0.0, 1.0, 2.0, 3.0, 4.0, 5.0})
                          .readings({4.0, 5.0})
                          .blocks(0.0, 3.0, 20.0f)
                          .blocks(3.0, 5.0, 40.0f));
    scripts.push_back(randomFaultScript());
    const Script &random = scripts.back();

    for (Script &script : scripts) {
        SCOPED_TRACE(script.name);
        script.sorted();
        System system(1);
        Replay once(system, "daq.once");
        Replay streamed(system, "daq.streamed");
        once.run(script, false);
        streamed.run(script, true);

        ASSERT_GT(once.trace.size(), 0u);
        EXPECT_TRUE(traceBitIdentical(once.trace, streamed.trace));
        const TraceAligner &a = once.aligner;
        const TraceAligner &b = streamed.aligner;
        EXPECT_EQ(a.alignedCount(), b.alignedCount());
        EXPECT_EQ(a.orphanWindows(), b.orphanWindows());
        EXPECT_EQ(a.orphanReadings(), b.orphanReadings());
        EXPECT_EQ(a.duplicatePulses(), b.duplicatePulses());
        EXPECT_EQ(a.resyncedWindows(), b.resyncedWindows());
        EXPECT_EQ(a.emptyWindows(), b.emptyWindows());
        EXPECT_EQ(a.glitchValuesDiscarded(), b.glitchValuesDiscarded());
        EXPECT_EQ(once.daq.blocks().size(), streamed.daq.blocks().size());
        EXPECT_EQ(once.daq.pulses().size(), streamed.daq.pulses().size());
        EXPECT_EQ(once.readings.size(), streamed.readings.size());
        if (&script == &random) {
            // The seeded stream reaches every recovery path.
            EXPECT_GT(a.orphanWindows(), 0u);
            EXPECT_GT(a.orphanReadings(), 0u);
            EXPECT_GT(a.duplicatePulses(), 0u);
            EXPECT_GT(a.resyncedWindows(), 0u);
            EXPECT_GT(a.glitchValuesDiscarded(), 0u);
        }
    }
}

} // namespace
} // namespace tdp
