/**
 * @file
 * Implementation of the System scheduler.
 */

#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/span_tracer.hh"
#include "obs/stats_registry.hh"

namespace tdp {

namespace {

/**
 * Quanta per `sim/quantum_batch` span. One span per quantum would swamp
 * the trace (a 180 s run is 180k quanta); one per 1000 quanta is one
 * span per simulated second at the default 1 ms quantum.
 */
constexpr uint64_t spanBatchQuanta = 1000;

} // namespace

System::System(uint64_t master_seed, Tick quantum)
    : masterSeed_(master_seed), quantum_(quantum)
{
    if (quantum_ == 0)
        fatal("System quantum must be positive");
}

Rng
System::makeRng(const std::string &stream_name) const
{
    return Rng(masterSeed_, stream_name);
}

void
System::registerObject(SimObject *obj)
{
    const auto [it, inserted] =
        objectsByName_.emplace(obj->name(), obj);
    (void)it;
    if (!inserted) {
        fatal("System: duplicate object name '%s'", obj->name().c_str());
    }
    objects_.push_back(obj);
}

void
System::addTicked(Ticked *ticked, TickPhase phase)
{
    if (!ticked)
        panic("System::addTicked: null participant");
    tickeds_.push_back(
        TickedEntry{ticked, static_cast<int>(phase), tickeds_.size()});
    // Ordering is deferred to the next quantum so registering N
    // participants costs O(N), not O(N^2 log N).
    tickedsDirty_ = true;
}

void
System::sortTickeds()
{
    std::sort(tickeds_.begin(), tickeds_.end(),
              [](const TickedEntry &a, const TickedEntry &b) {
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  return a.order < b.order;
              });
    tickedsDirty_ = false;
}

SimObject *
System::findObject(const std::string &name) const
{
    const auto it = objectsByName_.find(name);
    return it == objectsByName_.end() ? nullptr : it->second;
}

void
System::ensureStarted()
{
    if (started_)
        return;
    started_ = true;
    // startup() may construct further objects; iterate by index.
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->startup();
    if (tickedsDirty_)
        sortTickeds();
}

void
System::executeQuantum(Tick start)
{
    // startup() (or a component mid-run) may have registered more
    // participants since the last quantum.
    if (tickedsDirty_)
        sortTickeds();
    for (const TickedEntry &entry : tickeds_)
        entry.ticked->tickUpdate(start, quantum_);
    ++quantaExecuted_;
}

void
System::runUntil(Tick until_tick)
{
    ensureStarted();

    // Quantum-batch spans: one per spanBatchQuanta quanta, timing the
    // quanta and the events fired between them, with both counts as
    // args. The per-quantum cost with tracing off is the single
    // enabled() check hoisted out of the loop.
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    const bool tracing = tracer.enabled();
    double batch_start_us = tracing ? tracer.nowUs() : 0.0;
    uint64_t batch_quanta = 0;
    uint64_t batch_events = events_.processedCount();
    const auto record_batch = [&](double now_us) {
        tracer.record(
            "sim", "quantum_batch", batch_start_us,
            now_us - batch_start_us,
            {"quanta", static_cast<double>(batch_quanta)},
            {"events", static_cast<double>(events_.processedCount() -
                                           batch_events)});
    };

    while (nextQuantumStart_ + quantum_ <= until_tick) {
        const Tick start = nextQuantumStart_;
        // Fire events due at or before the quantum start (e.g. thread
        // launches, sampler reads) so they observe the pre-quantum
        // state, then advance the quantum.
        events_.runUntil(start);
        executeQuantum(start);
        nextQuantumStart_ = start + quantum_;
        if (tracing && ++batch_quanta == spanBatchQuanta) {
            const double now_us = tracer.nowUs();
            record_batch(now_us);
            batch_start_us = now_us;
            batch_quanta = 0;
            batch_events = events_.processedCount();
        }
    }
    events_.runUntil(until_tick);
    if (tracing && batch_quanta > 0)
        record_batch(tracer.nowUs());
}

void
System::runFor(Seconds seconds)
{
    if (seconds < 0.0)
        fatal("System::runFor: negative duration %g", seconds);
    obs::TraceSpan span("sim", "runFor");
    span.arg("sim_seconds", seconds);
    runUntil(nextQuantumStart_ + secondsToTicks(seconds));
}

void
System::publishStats(obs::StatsRegistry &stats) const
{
    if (!stats.enabled())
        return;
    stats.addNamed("sim.quanta", quantaExecuted_);
    stats.addNamed("sim.events.processed", events_.processedCount());
    stats.addNamed("sim.objects", objects_.size());
    for (const SimObject *obj : objects_)
        obj->recordStats(stats);
}

} // namespace tdp
