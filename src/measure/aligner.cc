/**
 * @file
 * Implementation of the trace aligner.
 */

#include "measure/aligner.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tdp {

void
TraceAligner::drainInto(std::deque<CounterReading> &readings,
                        SampleTrace &out)
{
    auto &pulses = daq_.pulses();
    auto &blocks = daq_.blocks();
    const Seconds tolerance =
        params_.matchTolerance * params_.nominalPeriod;

    while (pulses.size() >= 2) {
        const Tick window_start = pulses[0];
        const Tick window_end = pulses[1];
        if (window_end < window_start)
            panic("TraceAligner: non-monotonic pulses (%llu, %llu)",
                  static_cast<unsigned long long>(window_start),
                  static_cast<unsigned long long>(window_end));

        const Seconds window_len =
            ticksToSeconds(window_end - window_start);
        if (window_len <
            params_.minWindowFraction * params_.nominalPeriod) {
            // Duplicated serial byte: the second edge is spurious.
            pulses.erase(pulses.begin() + 1);
            ++duplicatePulses_;
            continue;
        }

        const Seconds window_end_s = ticksToSeconds(window_end);

        // Readings stamped well before this window's end lost their
        // pulse; no later window can ever match them.
        while (!readings.empty() &&
               readings.front().time < window_end_s - tolerance) {
            readings.pop_front();
            ++orphanReadings_;
        }
        // The matching reading may not exist yet: the rig drains at
        // each pulse, before that pulse's reading is queued. Leave
        // the window queued.
        if (readings.empty())
            break;

        const bool matched =
            readings.front().time <= window_end_s + tolerance;

        // A window stretched by a missing pulse covers two sampling
        // intervals; only average the power span the matched
        // reading's counters actually cover.
        Tick power_start = window_start;
        if (matched &&
            window_len > readings.front().interval + tolerance) {
            const Tick covered =
                secondsToTicks(readings.front().interval);
            if (covered < window_end - window_start)
                power_start = window_end - covered;
            ++resyncedWindows_;
        }

        // Average the power blocks inside the window, excluding
        // non-finite (glitched) values per rail.
        std::array<double, numRails> acc{};
        std::array<uint64_t, numRails> used{};
        while (!blocks.empty() && blocks.front().start < window_end) {
            const DaqBlock &block = blocks.front();
            if (block.start >= power_start) {
                for (int r = 0; r < numRails; ++r) {
                    const double watts =
                        block.watts[static_cast<size_t>(r)];
                    if (std::isfinite(watts)) {
                        acc[static_cast<size_t>(r)] += watts;
                        ++used[static_cast<size_t>(r)];
                    } else {
                        ++glitchValuesDiscarded_;
                    }
                }
            }
            blocks.pop_front();
        }

        pulses.pop_front();

        if (!matched) {
            // The window's reading was dropped in transit; its power
            // blocks have no counters to pair with.
            ++orphanWindows_;
            continue;
        }

        CounterReading reading = std::move(readings.front());
        readings.pop_front();

        bool any_power = false;
        for (int r = 0; r < numRails; ++r)
            any_power = any_power || used[static_cast<size_t>(r)] > 0;
        if (!any_power) {
            warn("TraceAligner: empty power window at pulse %llu",
                 static_cast<unsigned long long>(window_start));
            ++emptyWindows_;
            continue;
        }

        AlignedSample sample;
        sample.time = reading.time;
        sample.interval = reading.interval;
        sample.perCpu = std::move(reading.perCpu);
        sample.osInterruptsTotal = reading.osInterruptsTotal;
        sample.osDiskInterrupts = reading.osDiskInterrupts;
        sample.osDeviceInterrupts = reading.osDeviceInterrupts;
        for (int r = 0; r < numRails; ++r) {
            const size_t i = static_cast<size_t>(r);
            sample.measuredWatts[i] =
                used[i] > 0
                    ? acc[i] / static_cast<double>(used[i])
                    : std::numeric_limits<double>::quiet_NaN();
        }
        out.add(std::move(sample));
        ++aligned_;
    }
}

} // namespace tdp
