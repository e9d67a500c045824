/**
 * @file
 * Shared admission-plane helpers for the subframe engines.
 *
 * Every engine that dispatches SubframeJobs — lock-step work-stealing
 * and each cell lane of the multi-cell (and so the streaming) engine —
 * performs the same three admission-plane chores: checking whether a
 * job's continuation graph has fully drained (job_done), harvesting a
 * completed job's scalar outcomes (collect), and recycling jobs
 * through a grow-only pool so steady-state admission never allocates
 * (JobPool).  They also share the op-model activity measure of a
 * subframe (subframe_ops).  Before this header each engine carried a
 * private copy of all four; the copies had already drifted apart once
 * (the lock-step reap loop missed the observability hook the
 * streaming engine added), so the admission core now lives here and
 * the engines keep only their genuinely different policy code: what
 * to do when the ring is full, and in which order lanes drain.
 */
#ifndef LTE_RUNTIME_ADMISSION_HPP
#define LTE_RUNTIME_ADMISSION_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "phy/op_model.hpp"
#include "phy/params.hpp"
#include "runtime/run_record.hpp"
#include "runtime/task.hpp"

namespace lte::runtime::admission {

/**
 * Analytical flops of a subframe (op-model activity measure).
 * @p decode prices the real-turbo decode stage so decode-heavy
 * subframes are admitted at their true cost; the default keeps the
 * historical pass-through charge.
 */
std::uint64_t subframe_ops(const phy::SubframeParams &params,
                           std::size_t n_antennas,
                           const phy::DecodeModel &decode = {});

/**
 * True once the job's last user finished its tail reduce.  acquire
 * pairs with the release decrement in WorkerPool::finish_user, so a
 * true return also publishes every worker's writes to the results.
 */
inline bool
job_done(const SubframeJob &job)
{
    return job.users_remaining.load(std::memory_order_acquire) <= 0;
}

/** Collect the outcome of a completed job. */
SubframeOutcome collect(const SubframeJob &job);

/**
 * Grow-only pool of SubframeJobs.  acquire() returns a warm job (its
 * UserWork pool, result array and workspace arenas keep their
 * high-water-mark capacity from earlier subframes) and only allocates
 * while the pool is still below the engine's peak concurrency —
 * admission_queue + max_in_flight + 1 jobs at most — after which the
 * steady state recycles without touching the heap.
 */
class JobPool
{
  public:
    /** A free job, or a newly grown one while below the peak. */
    SubframeJob *
    acquire()
    {
        if (free_.empty()) {
            jobs_.push_back(std::make_unique<SubframeJob>());
            return jobs_.back().get();
        }
        SubframeJob *job = free_.back();
        free_.pop_back();
        return job;
    }

    /** Return a job (completed or shed) for reuse. */
    void
    release(SubframeJob *job)
    {
        free_.push_back(job);
    }

    /** Jobs ever created (the concurrency high-water mark). */
    std::size_t size() const { return jobs_.size(); }

  private:
    std::vector<std::unique_ptr<SubframeJob>> jobs_;
    std::vector<SubframeJob *> free_;
};

} // namespace lte::runtime::admission

#endif // LTE_RUNTIME_ADMISSION_HPP
