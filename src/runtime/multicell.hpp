/**
 * @file
 * Multi-cell receiver: per-cell pipeline contexts sharded over one
 * shared worker pool.
 *
 * The paper benchmarks a single base-station sector, but a baseband
 * board serves several cells at once.  This engine refactors the
 * single-cell assumption out of the runtime: every cell owns its own
 * admission lane (a TTI-paced pending ring and an in-order executing
 * lane over pooled SubframeJobs), its own deterministic input stream
 * (InputGenerator seeded via cell_stream_seed), its own receiver
 * configuration (cell-specific scrambler and DMRS roots) and its own
 * backlog-aware workload estimate — while all cells' user tasks
 * execute on one shared work-stealing WorkerPool.
 *
 * Fairness: admission into the shared in-flight window is a deficit
 * weighted round-robin over the per-cell pending rings.  Each
 * replenish round grants cell c up to weights[c] admissions; within a
 * round cells are visited cyclically, so under overload the admitted
 * (and therefore completed) subframes of any two backlogged cells
 * converge to the ratio of their weights instead of whichever cell
 * the dispatch loop happened to visit first.
 *
 * The single-cell StreamingEngine is this engine with one lane, so
 * the streaming admission policy has exactly one implementation.
 *
 * Invariants (tests/test_multicell.cpp):
 *  - a 1-cell engine is bit-identical to the serial reference over
 *    the same model stream (digest parity), because every cell-id
 *    derivation is the identity at cell 1;
 *  - per cell, record order is arrival order and the per-cell record
 *    digests match a single-cell run of the same (seed, cell id)
 *    regardless of how many cells ran beside it;
 *  - steady-state processing performs zero heap allocations (the
 *    per-cell job pools, signal vectors and rings all reach a
 *    high-water mark during warm-up);
 *  - per cell, shed + completed == submitted.
 */
#ifndef LTE_RUNTIME_MULTICELL_HPP
#define LTE_RUNTIME_MULTICELL_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/engine.hpp"

namespace lte::io {
struct IqFrame;
struct FeedStats;
class SampleTransport;
}

namespace lte::runtime {

/** Configuration of the multi-cell engine. */
struct MultiCellConfig
{
    /**
     * Per-cell engine template: pool shape (shared), receiver, input
     * generator, streaming knobs (delta_ms, deadline_ms, shed_policy,
     * admission_queue per cell, max_in_flight for the *shared*
     * window) and observability.  The template's receiver/input
     * cell_id fields are overridden per cell from cell_ids.
     */
    EngineConfig engine;

    /** Number of cells sharing the pool. */
    std::size_t n_cells = 1;

    /**
     * Physical cell identities (1..511, distinct).  Empty = 1..n_cells,
     * so a default 1-cell engine serves cell 1 and reproduces the
     * single-cell pipeline bit-for-bit.
     */
    std::vector<std::uint32_t> cell_ids;

    /**
     * Weighted-round-robin admission weights (>= 1).  Empty = equal
     * weights.  Under overload, backlogged cells complete subframes
     * in proportion to their weights.
     */
    std::vector<std::uint32_t> weights;

    void validate() const;

    /** The cell id serving lane @p cell (applies the 1..n default). */
    std::uint32_t cell_id_of(std::size_t cell) const;

    /** The WRR weight of lane @p cell (applies the all-1 default). */
    std::uint32_t weight_of(std::size_t cell) const;
};

/** Everything a multi-cell run produces. */
struct MultiCellRunRecord
{
    /**
     * One record per cell, subframes in that cell's arrival order.
     * Each per-cell record carries its cell_id, per-cell total_ops
     * and the shared wall clock; pool-level aggregates (activity,
     * steals) live on the aggregate fields below.
     */
    std::vector<RunRecord> cells;

    /** Per-cell admission accounting (index-aligned with cells). */
    std::vector<ShedStats> shed;

    double wall_seconds = 0.0;
    double activity = 0.0;       ///< Eq. 2 over the shared pool
    std::uint64_t total_ops = 0; ///< analytical flops, all cells
    std::uint64_t steals = 0;

    /** Subframes completed across all cells. */
    std::size_t completed_subframes() const;

    /** Users processed across all cells. */
    std::size_t user_count() const;
};

/**
 * The multi-cell engine.  Not an Engine subclass: its run() consumes
 * one parameter model per cell and returns per-cell records, which
 * does not fit the single-model Engine contract; the per-cell
 * synchronous entry point mirrors Engine::process_subframe for tests
 * and warm-up.
 */
class MultiCellEngine
{
  public:
    explicit MultiCellEngine(const MultiCellConfig &config);

    const char *name() const { return "multi-cell"; }
    std::size_t n_cells() const { return cells_.size(); }
    const MultiCellConfig &config() const { return config_; }
    WorkerPool &pool() { return *pool_; }

    /** The given cell's input generator (pool warm-up, tests). */
    InputGenerator &input(std::size_t cell);

    /** The given cell's physical identity. */
    std::uint32_t cell_id(std::size_t cell) const;

    /** Admission tallies of the last run() for one cell. */
    const ShedStats &shed_stats(std::size_t cell) const;

    /**
     * Give every cell a backlog-aware Eq. 4 estimator (one copy per
     * cell) plus an engine-level copy that turns the *summed* per-cell
     * estimates into the shared pool's active-core count (Eq. 5).
     */
    void set_estimator(std::optional<mgmt::WorkloadEstimator> estimator);

    /** Span tracer, or nullptr when observability is disabled. */
    obs::Tracer *tracer() { return obs_.tracer.get(); }
    /** Cell-tagged per-subframe series, or nullptr when disabled. */
    const obs::SubframeSeries *subframe_series() const
    {
        return obs_.series.get();
    }
    /** Metrics registry (aggregate engine.* plus per-cell
     *  engine.cell<id>.* counters), or nullptr when disabled. */
    obs::MetricsRegistry *metrics() { return obs_.metrics.get(); }

    /**
     * Process one subframe of one cell synchronously (the engine must
     * be otherwise idle).  params.cell_id must name the lane's cell.
     * Allocation-free in steady state; the returned reference stays
     * valid until the next call.
     */
    const SubframeOutcome &
    process_subframe(std::size_t cell, const phy::SubframeParams &params);

    /**
     * Run @p n_subframes TTI ticks.  Each tick draws one subframe
     * from every cell's model (models.size() == n_cells; each consumed
     * from its current state), enqueues it on that cell's admission
     * ring under the configured deadline/shed policy, and drains the
     * rings into the shared in-flight window by weighted round-robin.
     * With deadline_ms == 0 the engine is lossless (backpressure).
     */
    MultiCellRunRecord
    run(const std::vector<workload::ParameterModel *> &models,
        std::size_t n_subframes);

  private:
    /** One cell's shard of the pipeline. */
    struct CellContext
    {
        explicit CellContext(const InputGeneratorConfig &input_config)
            : input(input_config)
        {
        }

        std::uint32_t cell_id = 1;
        std::uint32_t weight = 1;
        phy::ReceiverConfig receiver;
        InputGenerator input;
        std::optional<mgmt::WorkloadEstimator> estimator;

        /** Pooled jobs; at most admission_queue + max_in_flight + 1
         *  per cell ever exist. */
        admission::JobPool job_pool;
        /** Prepared subframes waiting for a shared in-flight slot. */
        std::deque<SubframeJob *> pending;
        /** This cell's submitted jobs, oldest first. */
        std::deque<SubframeJob *> executing;
        std::vector<const phy::UserSignal *> signals;

        ShedStats shed;
        /** Deficit-WRR credits remaining in the current round. */
        std::uint32_t credits = 0;
        /** Most recent Eq. 4 estimate (-1 when no estimator). */
        double last_estimate = -1.0;

        /** This lane's sample-plane transport, live only inside
         *  run_offloaded() (null on the inline path). */
        io::SampleTransport *transport = nullptr;
        /** Producer-side loss/late deltas already folded into shed. */
        std::uint64_t io_lost_synced = 0;
        std::uint64_t io_late_synced = 0;

        /** Cached per-cell counters (null when metrics are off). */
        obs::Counter *submitted_counter = nullptr;
        obs::Counter *completed_counter = nullptr;
        obs::Counter *shed_counter = nullptr;
        obs::Counter *degraded_counter = nullptr;
        obs::Counter *deadline_miss_counter = nullptr;
    };

    std::size_t dispatch_slot() const
    {
        return config_.engine.pool.n_workers;
    }
    double age_ms(const SubframeJob &job, std::uint64_t now_ns) const;

    /** Eq. 5 over the clamped sum of the cells' last estimates. */
    void update_active_workers();

    void observe_completion(CellContext &cell, const SubframeJob &job);
    void observe_shed(CellContext &cell, std::uint64_t subframe_index,
                      bool expired);

    /** Shed pending-ring heads that aged past the deadline. */
    void expire_pending(CellContext &cell);
    /** Move one job from the cell's pending ring into the shared
     *  window (degrade check, dispatch stamp, pool submit). */
    void admit_one(CellContext &cell);
    /** Deficit-WRR drain of all pending rings into the window. */
    void admit_wrr();
    /** Pop completed jobs off every cell's executing front. */
    void reap_all(MultiCellRunRecord &record);
    /** Block on the globally oldest admitted job, then reap. */
    void drain_one(MultiCellRunRecord &record);
    /** Release a job to its lane's pool, recycling its sample-plane
     *  frame (if any) to the lane's free ring first. */
    void release_job(CellContext &cell, SubframeJob *job);
    /** Fold one lane's producer-side frame losses into its shed
     *  accounting. */
    void sync_io_stats(CellContext &cell, const io::FeedStats &stats);
    /** Reset the per-run lane state and size the record. */
    MultiCellRunRecord begin_run(std::size_t n_subframes);
    /**
     * The arrival admission policy, shared by the inline and the
     * sample-plane loops: count the arrival, make room in the lane's
     * ring (backpressure, drop-oldest or drop-newest), then queue a
     * job for @p params.  Inline arrivals (@p frame null) synthesize
     * their signals and are stamped now; a sample-plane @p frame lends
     * its signals and producer stamp, and is recycled if dropped.
     */
    void admit_arrival(CellContext &cell,
                       const phy::SubframeParams &params,
                       io::IqFrame *frame, MultiCellRunRecord &record);
    /** Check the per-cell invariants and stamp the run aggregates. */
    void finish_run(MultiCellRunRecord &record,
                    std::chrono::steady_clock::time_point start);
    /** The sample-plane run loop (engine.io.enabled): one producer
     *  thread paces every lane, admission consumes ready frames. */
    MultiCellRunRecord
    run_offloaded(const std::vector<workload::ParameterModel *> &models,
                  std::size_t n_subframes);

    MultiCellConfig config_;
    EngineObs obs_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<std::unique_ptr<CellContext>> cells_;
    std::optional<mgmt::WorkloadEstimator> estimator_;

    std::size_t total_pending_ = 0;
    std::size_t total_executing_ = 0;
    /** Next admission-order stamp (monotonic across cells). */
    std::uint64_t admit_seq_ = 0;
    /** WRR scan start for the next admission. */
    std::size_t rr_next_ = 0;

    SubframeOutcome outcome_;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_MULTICELL_HPP
