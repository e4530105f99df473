/**
 * @file
 * Implementation of the discrete-event queue.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace tdp {

bool
EventQueue::firesAfter(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.sequence > b.sequence;
}

void
EventQueue::schedule(std::string_view name, Tick when,
                     std::function<void()> fn)
{
    if (when < now_)
        panic("EventQueue::schedule: event '%s' scheduled at %llu, "
              "before current tick %llu",
              std::string(name).c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    if (!fn)
        panic("EventQueue::schedule: event '%s' has no callback",
              std::string(name).c_str());
    heap_.push_back(Entry{when, nextSequence_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), firesAfter);
}

Tick
EventQueue::nextTick() const
{
    if (heap_.empty())
        panic("EventQueue::nextTick on empty queue");
    return heap_.front().when;
}

void
EventQueue::step()
{
    if (heap_.empty())
        panic("EventQueue::step on empty queue");
    // pop_heap moves the earliest entry to the back, where it can be
    // moved out: the callback may schedule into heap_ while it runs.
    std::pop_heap(heap_.begin(), heap_.end(), firesAfter);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    now_ = entry.when;
    ++processed_;
    entry.fn();
}

void
EventQueue::runUntil(Tick until_tick)
{
    while (!heap_.empty() && heap_.front().when <= until_tick)
        step();
    if (now_ < until_tick)
        now_ = until_tick;
}

} // namespace tdp
