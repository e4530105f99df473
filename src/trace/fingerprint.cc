/**
 * @file
 * Implementation of the fingerprint hasher.
 */

#include "trace/fingerprint.hh"

#include <cstring>

namespace tdp {

namespace {

enum : uint8_t
{
    tagBytes = 1,
    tagU64 = 2,
    tagI64 = 3,
    tagDouble = 4,
    tagString = 5,
    tagFaultPlan = 6,
};

} // namespace

Fingerprint &
Fingerprint::mixTag(uint8_t tag)
{
    hash_ = fnv1a64(&tag, 1, hash_);
    return *this;
}

Fingerprint &
Fingerprint::mixBytes(const void *data, size_t len)
{
    mixTag(tagBytes);
    mixU64(len);
    hash_ = fnv1a64(data, len, hash_);
    return *this;
}

Fingerprint &
Fingerprint::mixU64(uint64_t value)
{
    mixTag(tagU64);
    unsigned char bytes[sizeof(value)];
    for (size_t i = 0; i < sizeof(value); ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    hash_ = fnv1a64(bytes, sizeof(bytes), hash_);
    return *this;
}

Fingerprint &
Fingerprint::mixI64(int64_t value)
{
    mixTag(tagI64);
    return mixU64(static_cast<uint64_t>(value));
}

Fingerprint &
Fingerprint::mixDouble(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    mixTag(tagDouble);
    return mixU64(bits);
}

Fingerprint &
Fingerprint::mixString(const std::string &value)
{
    mixTag(tagString);
    return mixBytes(value.data(), value.size());
}

Fingerprint &
Fingerprint::mixFaultPlan(const FaultPlan &plan)
{
    mixTag(tagFaultPlan);
    mixI64(plan.counterWidthBits);
    mixDouble(plan.dropReadingProb);
    mixDouble(plan.missPulseProb);
    mixDouble(plan.duplicatePulseProb);
    mixDouble(plan.pulseLatencyMax);
    mixDouble(plan.dropBlockProb);
    mixDouble(plan.glitchBlockProb);
    mixDouble(plan.glitchSpikeWatts);
    mixU64(plan.unavailableEvents.size());
    for (PerfEvent event : plan.unavailableEvents)
        mixI64(static_cast<int64_t>(event));
    return *this;
}

} // namespace tdp
