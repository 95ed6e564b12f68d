#include "event_queue.hh"

#include <bit>

namespace nosync
{

// User-provided, so value-initializing a queue does not zero _fifos.
EventQueue::EventQueue() = default;

void
EventQueue::addChunk()
{
    _chunks.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
}

void
EventQueue::park(Tick when, EventPriority prio, std::uint32_t idx)
{
    _overflow.push(OverflowEntry{
        when,
        (static_cast<std::uint64_t>(prio) << kSeqBits) | _overflowSeq++,
        idx});
}

unsigned
EventQueue::firstFifo() const
{
    // Wheel order starts at priority 0 of now()'s bucket and wraps:
    // every wheel event lies in [now, now + kHorizon).
    const unsigned start = static_cast<unsigned>(
                               _now & (kHorizon - 1)) *
                           kPriorities;
    const unsigned w = start >> 6;
    const std::uint64_t at_or_after = ~std::uint64_t{0} << (start & 63);
    if (std::uint64_t m = _bits[w] & at_or_after)
        return w * 64 + std::countr_zero(m);
    // Words after w, then words before w, then w's low bits.
    const std::uint64_t through_w = (std::uint64_t{2} << w) - 1;
    std::uint64_t s = _summary & ~through_w;
    if (!s)
        s = _summary & (through_w >> 1);
    if (s) {
        const unsigned w2 = std::countr_zero(s);
        return w2 * 64 + std::countr_zero(_bits[w2]);
    }
    return w * 64 + std::countr_zero(_bits[w] & ~at_or_after);
}

Tick
EventQueue::nextEventTick() const
{
    if (_inWheel)
        return fifoTick(firstFifo());
    return _overflow.empty() ? ~Tick{0} : _overflow.top().when;
}

void
EventQueue::setNow(Tick t)
{
    _now = t;
    // An overflow event was scheduled while its tick was at least
    // kHorizon away, so before any event that went straight into the
    // wheel for the same tick; migrating it now, ahead of every
    // callback at t, keeps it first in its FIFO.
    while (!_overflow.empty() && _overflow.top().when - t < kHorizon) {
        const OverflowEntry &e = _overflow.top();
        append(e.when, static_cast<unsigned>(e.key >> kSeqBits),
               e.slot);
        _overflow.pop();
    }
}

bool
EventQueue::runNext(Tick last)
{
    if (!_inWheel) {
        if (_overflow.empty() || _overflow.top().when > last)
            return false;
        setNow(_overflow.top().when);
    }
    const unsigned f = firstFifo();
    const Tick when = fifoTick(f);
    if (when > last)
        return false;
    // Migration lands only in buckets before f's, which are empty,
    // so f stays the earliest FIFO.
    if (when != _now)
        setNow(when);

    Fifo &fifo = _fifos[f];
    const std::uint32_t idx = fifo.head;
    if (idx == fifo.tail) {
        std::uint64_t &word = _bits[f >> 6];
        word &= ~(std::uint64_t{1} << (f & 63));
        if (!word)
            _summary &= ~(std::uint64_t{1} << (f >> 6));
    } else {
        fifo.head = slot(idx).next;
    }
    --_inWheel;
    --_pending;
    ++_executed;

    // Chunks never move, so the callback runs in place even if it
    // schedules enough to add a chunk; its slot is recycled after.
    Slot &s = slot(idx);
    s.fn();
    s.fn.reset();
    s.next = _freeSlot;
    _freeSlot = idx;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (runNext(limit)) {
    }
    if (_now < limit && _pending)
        setNow(limit);
    return _now;
}

void
EventQueue::runUntil(Tick end)
{
    if (end == 0)
        return;
    while (runNext(end - 1)) {
    }
}

void
EventQueue::advanceTo(Tick t)
{
    if (t <= _now)
        return;
    panic_if(t > nextEventTick(), "advancing the clock to ", t,
             " past a pending event at ", nextEventTick());
    setNow(t);
}

} // namespace nosync
