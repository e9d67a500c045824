/**
 * @file
 * Work-stealing deque: the owner pushes and pops at the bottom (LIFO,
 * cache-friendly), thieves steal from the top (FIFO, oldest task
 * first) — the classic Blumofe/Leiserson discipline the paper's
 * runtime relies on (Sec. IV-C, [14][15]).
 *
 * The implementation is a mutex-guarded ring buffer: simple, correct
 * under any interleaving, and more than fast enough for the task
 * granularity of this workload (tasks are whole DSP kernels over
 * hundreds of subcarriers, microseconds at minimum).  The ring is
 * preallocated (and only ever doubles past its high-water mark), so
 * steady-state push/pop/steal never touch the heap — a std::deque
 * here would allocate and free nodes on the subframe hot path.
 */
#ifndef LTE_RUNTIME_WS_DEQUE_HPP
#define LTE_RUNTIME_WS_DEQUE_HPP

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace lte::runtime {

template <typename T>
class WsDeque
{
  public:
    /** Far above the largest task burst one user creates (the tail
     *  fan-out: up to 2 slots x kMaxLayers x 6 data symbols = 48
     *  codeblock tasks pushed by one final demod decrement), with
     *  headroom for several users' bursts landing in one deque;
     *  power of two for masking. */
    static constexpr std::size_t kInitialCapacity = 1024;

    /**
     * @param capacity initial ring capacity; MUST be a power of two —
     *        index() and steal_top() mask with capacity - 1, and a
     *        non-power-of-two size would silently alias slots.
     */
    explicit WsDeque(std::size_t capacity = kInitialCapacity)
        : buffer_(capacity)
    {
        LTE_CHECK(capacity >= 1 && (capacity & (capacity - 1)) == 0,
                  "WsDeque capacity must be a power of two");
    }

    /** Owner side: push a task at the bottom. */
    void
    push_bottom(const T &task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == buffer_.size())
            grow();
        buffer_[index(count_)] = task;
        ++count_;
    }

    /** Owner side: pop the most recently pushed task. */
    std::optional<T>
    pop_bottom()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == 0)
            return std::nullopt;
        --count_;
        return buffer_[index(count_)];
    }

    /** Thief side: steal the oldest task. */
    std::optional<T>
    steal_top()
    {
        return steal_top_if([](const T &) { return true; });
    }

    /** Thief side: steal the oldest task only if @p take accepts it
     *  (checked under the lock, so the test and the steal are one
     *  step). */
    template <typename Pred>
    std::optional<T>
    steal_top_if(Pred &&take)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == 0 || !take(buffer_[head_]))
            return std::nullopt;
        T task = buffer_[head_];
        head_ = (head_ + 1) & (buffer_.size() - 1);
        --count_;
        return task;
    }

    /** @p key of the top (oldest) task, read under the lock, or
     *  nothing when empty.  A hint: the task may be taken right
     *  after. */
    template <typename Key>
    auto
    peek_top(Key &&key) const -> std::optional<decltype(key(T{}))>
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == 0)
            return std::nullopt;
        return key(buffer_[head_]);
    }

    /** Approximate emptiness (racy by nature; fine for polling). */
    bool
    empty() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_ == 0;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }

  private:
    static_assert((kInitialCapacity & (kInitialCapacity - 1)) == 0,
                  "masking in index()/steal_top() requires a "
                  "power-of-two capacity");

    std::size_t
    index(std::size_t i) const
    {
        return (head_ + i) & (buffer_.size() - 1);
    }

    void
    grow()
    {
        // Doubling a power of two keeps the mask invariant; the copy
        // below linearises the (possibly wrapped) ring from head_.
        std::vector<T> bigger(buffer_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = buffer_[index(i)];
        buffer_.swap(bigger);
        head_ = 0;
        LTE_ASSERT((buffer_.size() & (buffer_.size() - 1)) == 0,
                   "grow() broke the power-of-two capacity invariant");
    }

    mutable std::mutex mutex_;
    std::vector<T> buffer_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_WS_DEQUE_HPP
