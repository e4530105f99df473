/**
 * @file
 * Implementation of the profile-driven workload thread.
 */

#include "workloads/workload_thread.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tdp {

WorkloadThread::WorkloadThread(System &system, PageCache &cache,
                               const WorkloadProfile &profile,
                               std::string name)
    : cache_(cache), profile_(profile), name_(std::move(name)),
      rng_(system.makeRng(name_))
{
    validateProfile(profile);
    enterPhase(0);
}

const WorkloadPhase &
WorkloadThread::phase() const
{
    return profile_.phases[phaseIdx_];
}

void
WorkloadThread::enterPhase(size_t index)
{
    phaseIdx_ = index;
    phaseElapsed_ = 0.0;
    current_ = profile_.phases[index].demand;
}

void
WorkloadThread::start()
{
    if (state_ != ThreadState::NotStarted)
        panic("thread %s started twice", name_.c_str());
    if (profile_.initReadBytes > 0.0) {
        // Load the dataset from disk before computing, like the SPEC
        // codes reading their inputs at program initialisation.
        state_ = ThreadState::Blocked;
        cache_.readBytes(profile_.initReadBytes, 0.0, true, [this] {
            if (state_ == ThreadState::Blocked)
                state_ = ThreadState::Runnable;
        });
    } else {
        state_ = ThreadState::Runnable;
    }
}

void
WorkloadThread::issueIo(Seconds dt)
{
    const WorkloadPhase &p = phase();

    if (p.fileWriteBytesPerSec > 0.0) {
        double fresh = p.fileWriteBytesPerSec * dt *
                       cache_.writeThrottle();
        if (p.fileRegionBytes > 0.0) {
            // Re-dirtying the same region creates no new dirty pages.
            fresh = std::min(fresh, std::max(0.0, p.fileRegionBytes -
                                                      dirtyOutstanding_));
        }
        if (fresh > 0.0) {
            cache_.writeBytes(fresh);
            dirtyOutstanding_ += fresh;
        }
    }

    if (p.fileReadBytesPerSec > 0.0) {
        const double bytes = p.fileReadBytesPerSec * dt;
        if (p.readsBlock) {
            pendingReadBytes_ += bytes;
            // Batch small reads into one blocking request, like a
            // process consuming buffered I/O.
            if (pendingReadBytes_ >= 256.0 * 1024.0) {
                const double batch = pendingReadBytes_;
                pendingReadBytes_ = 0.0;
                state_ = ThreadState::Blocked;
                cache_.readBytes(batch, p.readCachedFraction,
                                 p.readSequential, [this] {
                                     if (state_ == ThreadState::Blocked)
                                         state_ = ThreadState::Runnable;
                                 });
            }
        } else {
            cache_.readBytes(bytes, p.readCachedFraction,
                             p.readSequential, nullptr);
        }
    }

    if (p.syncEverySeconds > 0.0 && sinceSync_ >= p.syncEverySeconds) {
        sinceSync_ = 0.0;
        ++syncCount_;
        state_ = ThreadState::Blocked;
        cache_.sync([this] {
            dirtyOutstanding_ = 0.0;
            if (state_ == ThreadState::Blocked)
                state_ = ThreadState::Runnable;
        });
    }
}

void
WorkloadThread::commit(double uops, Seconds dt)
{
    if (state_ != ThreadState::Runnable)
        panic("thread %s committed while not runnable", name_.c_str());
    lifetimeUops_ += uops;
    phaseElapsed_ += dt;
    sinceSync_ += dt;

    // Slow multiplicative wander (Ornstein-Uhlenbeck around 1.0)
    // models input-dependent variability within a phase.
    const double tau = std::max(0.5, profile_.demandWanderTau);
    if (dt != wanderDt_) {
        wanderDt_ = dt;
        wanderStepSigma_ =
            profile_.demandWanderSigma * std::sqrt(2.0 * dt / tau);
    }
    wander_ += (1.0 - wander_) * dt / tau +
               wanderStepSigma_ * rng_.gaussian();
    wander_ = std::clamp(wander_, 0.75, 1.25);

    issueIo(dt);

    // Advance phases by executed wall time.
    while (phaseElapsed_ >= phase().duration) {
        const Seconds leftover = phaseElapsed_ - phase().duration;
        if (phaseIdx_ + 1 < profile_.phases.size()) {
            enterPhase(phaseIdx_ + 1);
        } else if (profile_.loopForever) {
            enterPhase(0);
        } else {
            state_ = ThreadState::Finished;
            return;
        }
        phaseElapsed_ = leftover;
    }

    // Only the two wandered rates differ from the phase's demand;
    // enterPhase() copied the rest.
    const ThreadDemand &base = phase().demand;
    current_.uopsPerCycle = base.uopsPerCycle * wander_;
    current_.l3MissPerKuop = base.l3MissPerKuop * wander_;
}

} // namespace tdp
