/**
 * @file
 * The unified subframe-processing engine interface.
 *
 * The paper builds two versions of the benchmark — a serial reference
 * (Sec. IV-A) and the parallel work-stealing runtime (Sec. IV-C) —
 * and validates one against the other (Sec. IV-D).  Both are engines:
 * something that accepts a subframe's parameters, fetches pooled input
 * data, runs the Fig. 3 receive chain for every scheduled user, and
 * reports per-user outcomes.  This header makes that contract
 * explicit so tests, benches and tools select the engine by
 * configuration instead of hard-coding a class.
 *
 * Two entry points:
 *
 *   process_subframe() — synchronous, one subframe in, outcome out.
 *     This is the steady-state hot path: all per-subframe state lives
 *     in pooled, re-bindable objects (workspace arenas, user-work
 *     pools, preallocated queues), so after warm-up it performs zero
 *     heap allocations on either engine (tests/test_alloc_free.cpp
 *     enforces this).
 *
 *   run() — the paper's benchmark driver: n subframes drawn from a
 *     parameter model, with DELTA pacing, in-flight pipelining and
 *     estimation-guided core deactivation on the work-stealing
 *     engine, producing a RunRecord for validation and statistics.
 */
#ifndef LTE_RUNTIME_ENGINE_HPP
#define LTE_RUNTIME_ENGINE_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "io/io_config.hpp"
#include "mgmt/estimator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"
#include "runtime/admission.hpp"
#include "runtime/input_generator.hpp"
#include "runtime/run_record.hpp"
#include "runtime/task.hpp"
#include "runtime/worker_pool.hpp"
#include "workload/parameter_model.hpp"

namespace lte::runtime {

class SubframeFeedbackSink;

/** Which engine implementation a config selects. */
enum class EngineKind : std::uint8_t
{
    kSerial,       ///< one thread, users processed in order
    kWorkStealing, ///< worker pool with task stealing (the default)
    kStreaming,    ///< TTI-paced admission + bounded in-flight pipeline
};

/** Human-readable engine name ("serial" / "work-stealing" /
 *  "streaming"). */
const char *engine_kind_name(EngineKind kind);

/**
 * What the streaming admission controller does when it must shed load
 * (admission ring full, or a queued subframe has aged past the
 * deadline).  Expired subframes are always dropped — by the time the
 * deadline has passed there is nothing useful left to compute — so the
 * policy chooses the reaction to a *full ring*.
 */
enum class ShedPolicy : std::uint8_t
{
    /** Drop the arriving subframe; queued ones keep their place. */
    kDropNewest,
    /** Drop the oldest queued subframe to admit the arrival (the
     *  queued one is the likeliest to miss its deadline anyway). */
    kDropOldest,
    /** Like kDropOldest, but additionally process subframes that have
     *  consumed over half their deadline budget with a degraded
     *  receive chain to shorten the queue instead of dropping further
     *  subframes.  Real-turbo receivers climb a ladder: MRC combining
     *  plus a reduced decode iteration budget first, and the full
     *  decode bypass only past degrade_bypass_fraction of the
     *  deadline; pass-through receivers go straight to the bypass
     *  (the two levels coincide in output there). */
    kDegrade,
};

/** Human-readable policy name ("drop-newest" / "drop-oldest" /
 *  "degrade"). */
const char *shed_policy_name(ShedPolicy policy);

/**
 * Admission tallies of one streaming run (also exported as engine.*
 * counters when metrics are enabled), one per cell lane of the
 * multi-cell engine (the streaming engine is its one-lane case); the
 * per-run invariant is shed + completed == submitted.
 */
struct ShedStats
{
    std::uint64_t submitted = 0; ///< arrivals offered by the model
    std::uint64_t admitted = 0;  ///< entered the worker pool
    std::uint64_t completed = 0; ///< finished processing
    std::uint64_t shed = 0;      ///< dropped (queue-full + expired)
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_expired = 0;
    std::uint64_t degraded = 0;  ///< admitted on the degraded chain
    /** Sample plane only: ticks whose frame was dropped at the source
     *  because the buffer pool was exhausted.  Counted inside shed
     *  (and shed_queue_full — the pool is the upstream queue), so the
     *  shed + completed == submitted invariant is unchanged. */
    std::uint64_t io_lost = 0;
    /** Sample plane only: frames delivered more than one TTI after
     *  their scheduled tick (still processed; informational). */
    std::uint64_t io_late = 0;
};

/** Unified engine configuration (superset of both engines' needs). */
struct EngineConfig
{
    EngineKind kind = EngineKind::kWorkStealing;
    /** Worker-pool shape; ignored by the serial engine. */
    WorkerPoolConfig pool;
    phy::ReceiverConfig receiver;
    InputGeneratorConfig input;
    /** Maximum subframes concurrently in flight (paper: two to
     *  three); ignored by the serial engine. */
    std::size_t max_in_flight = 3;
    /** Dispatch period in milliseconds; 0 = free-running. */
    double delta_ms = 0.0;
    /** Proactive core management (paper NAP, Eq. 5): with an
     *  estimator installed, park workers beyond the estimate. */
    bool proactive = false;
    /** Over-provisioning margin for Eq. 5. */
    std::uint32_t core_margin = 2;
    /**
     * Streaming engine only: admission-to-completion deadline in
     * milliseconds.  0 means infinite — the engine never sheds and
     * applies backpressure (blocks the arrival source) when the
     * pipeline is full, which is the lossless mode used for
     * streaming-vs-lock-step validation.
     */
    double deadline_ms = 0.0;
    /** Streaming engine only: capacity of the pending admission ring
     *  (prepared subframes waiting for an in-flight slot). */
    std::size_t admission_queue = 8;
    /** Streaming engine only: reaction to overload. */
    ShedPolicy shed_policy = ShedPolicy::kDropNewest;
    /**
     * ShedPolicy::kDegrade with a real-turbo receiver: fraction of the
     * deadline past which a queued subframe is degraded all the way to
     * the decode bypass instead of the reduced iteration budget (must
     * be in [0.5, 1]; the ladder's first step fires at half).
     */
    double degrade_bypass_fraction = 0.75;
    /**
     * Observability: when obs.enabled the engine owns a span tracer
     * (one ring per worker plus the dispatch thread), a per-subframe
     * activity/deadline series and a metrics registry, all
     * preallocated so steady-state recording stays allocation-free.
     * obs.metrics_enabled grants the registry alone (counters work
     * with tracing off).  Disabled, every recording site costs a
     * single branch.
     */
    obs::ObsConfig obs;

    /**
     * Sample plane (streaming and multi-cell engines only): when
     * io.enabled, run() consumes ready IQ frames from a dedicated
     * producer thread (per cell) instead of synthesizing input inline
     * on the admission path.  deadline_ms == 0 pairs with the feed's
     * lossless mode, so offloaded zero-jitter generator runs remain
     * bit-identical to the inline engines.
     */
    io::IoConfig io;

    /**
     * Closed-loop feedback (MAC layer): when non-null, every engine
     * reports each completed subframe's outcome and every shed
     * decision to this sink from its dispatch thread (see
     * runtime/feedback.hpp).  The sink is borrowed, not owned, and
     * must outlive the engine's run()/process_subframe() calls.
     */
    SubframeFeedbackSink *feedback = nullptr;

    void validate() const;
};

/**
 * The observability block every engine owns: one copy of the set-up,
 * the clock and the completion bookkeeping for the serial,
 * work-stealing and multi-cell engines.
 *
 * With obs.enabled it holds a span tracer (one ring per thread slot),
 * a per-subframe series and a metrics registry, all preallocated so
 * steady-state recording stays allocation-free; obs.metrics_enabled
 * grants the registry alone (counters work with tracing off).  The
 * hot-path counters are cached so updates never take the registry
 * lock or allocate.  Disabled, every recording site costs a single
 * branch.
 */
struct EngineObs
{
    /**
     * Build what @p config asks for: @p n_slots tracer rings and the
     * engine.subframes / users / deadline_misses counters, plus the
     * admission counters (engine.submitted .. engine.degraded) when
     * @p admission and io.lost / io.late when @p io.
     */
    void init(const obs::ObsConfig &config, std::size_t n_slots,
              bool admission = false, bool io = false);

    /** True when anything records (the tracer implies metrics). */
    bool observing() const { return metrics != nullptr; }

    /** Monotonic ns: tracer epoch when tracing, engine epoch when only
     *  metrics are on (accounting must not depend on the tracer). */
    std::uint64_t now_ns() const;

    /** @p tp on the now_ns() clock. */
    std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) const;

    /** When @p job completed, on the now_ns() clock: the stamp of the
     *  worker that finished its last user, or its dispatch instant for
     *  a zero-user job (never submitted, born complete). */
    std::uint64_t
    completion_ns(const SubframeJob &job) const
    {
        return job.n_users == 0 ? job.t_dispatch_ns
                                : to_ns(job.t_complete);
    }

    /**
     * Account one completed subframe: a kSubframe span on @p slot from
     * @p t_span_begin to sample.t_complete_ns carrying @p arg, the
     * series sample, and engine.subframes / users / deadline_misses.
     * @return true when the subframe missed obs.deadline_ms.
     */
    bool complete(std::size_t slot, std::uint64_t t_span_begin,
                  std::uint64_t arg, const obs::SubframeSample &sample);

    /** Stamp a run's pool-level aggregates onto @p record and publish
     *  them as engine.* gauges. */
    template <class Record>
    void
    finish_run(Record &record, const WorkerPool &pool,
               std::chrono::steady_clock::time_point start) const
    {
        const auto snap = pool.activity();
        record.wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        record.activity = snap.activity(pool.n_workers());
        record.total_ops = snap.ops;
        record.steals = pool.steals();
        if (metrics) {
            metrics->gauge("engine.activity").set(record.activity);
            metrics->gauge("engine.wall_seconds").set(record.wall_seconds);
            metrics->counter("engine.steals").add(record.steals);
            if (tracer) {
                metrics->gauge("engine.trace_dropped")
                    .set(static_cast<double>(tracer->total_dropped()));
            }
        }
    }

    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::SubframeSeries> series;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    double deadline_ms = 0.0;
    obs::Counter *subframes = nullptr;
    obs::Counter *users = nullptr;
    obs::Counter *deadline_misses = nullptr;
    obs::Counter *submitted = nullptr;
    obs::Counter *admitted = nullptr;
    obs::Counter *completed = nullptr;
    obs::Counter *shed = nullptr;
    obs::Counter *shed_queue_full = nullptr;
    obs::Counter *shed_expired = nullptr;
    obs::Counter *degraded = nullptr;
    obs::Counter *io_lost = nullptr;
    obs::Counter *io_late = nullptr;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

/** Abstract subframe-processing engine. */
class Engine
{
  public:
    virtual ~Engine() = default;

    virtual const char *name() const = 0;

    /**
     * Process one subframe synchronously and return its outcome.  The
     * returned reference (into reused storage) stays valid until the
     * next process_subframe() call.  Allocation-free in steady state.
     */
    virtual const SubframeOutcome &
    process_subframe(const phy::SubframeParams &params) = 0;

    /**
     * Run @p n_subframes drawn from @p model and return the record.
     * The model is consumed from its current state.
     */
    virtual RunRecord run(workload::ParameterModel &model,
                          std::size_t n_subframes) = 0;

    /**
     * Provide the estimator used for proactive (NAP / NAP+IDLE) core
     * deactivation; a no-op on engines without cores to manage.
     */
    virtual void
    set_estimator(std::optional<mgmt::WorkloadEstimator> estimator) = 0;

    /** The worker pool, or nullptr for engines that have none. */
    virtual WorkerPool *worker_pool() = 0;

    virtual InputGenerator &input() = 0;
    virtual const EngineConfig &config() const = 0;

    /** Span tracer, or nullptr when observability is disabled. */
    virtual obs::Tracer *tracer() = 0;
    /** Per-subframe series, or nullptr when disabled. */
    virtual const obs::SubframeSeries *subframe_series() const = 0;
    /** Metrics registry, or nullptr when disabled. */
    virtual obs::MetricsRegistry *metrics() = 0;
};

/** Build the engine selected by config.kind. */
std::unique_ptr<Engine> make_engine(const EngineConfig &config);

/**
 * The serial reference engine (paper Sec. IV-A): one thread, one
 * reused UserProcessor, users handled in schedule order.
 */
class SerialEngine : public Engine
{
  public:
    explicit SerialEngine(const EngineConfig &config);

    const char *name() const override { return "serial"; }
    const SubframeOutcome &
    process_subframe(const phy::SubframeParams &params) override;
    RunRecord run(workload::ParameterModel &model,
                  std::size_t n_subframes) override;
    void set_estimator(std::optional<mgmt::WorkloadEstimator>) override
    {
        // No cores to deactivate.
    }
    WorkerPool *worker_pool() override { return nullptr; }
    InputGenerator &input() override { return input_; }
    const EngineConfig &config() const override { return config_; }
    obs::Tracer *tracer() override { return obs_.tracer.get(); }
    const obs::SubframeSeries *subframe_series() const override
    {
        return obs_.series.get();
    }
    obs::MetricsRegistry *metrics() override { return obs_.metrics.get(); }

  private:
    EngineConfig config_;
    InputGenerator input_;
    /** One processor, re-bound per user; arena reused across users. */
    phy::UserProcessor proc_;
    std::vector<const phy::UserSignal *> signals_;
    SubframeOutcome outcome_;
    EngineObs obs_;
};

/**
 * The parallel engine: the "maintenance thread" role of the paper's
 * Sec. IV-B dispatching users onto the work-stealing pool, with
 * optional DELTA pacing and estimation-guided core deactivation.
 */
class WorkStealingEngine : public Engine
{
  public:
    explicit WorkStealingEngine(const EngineConfig &config);

    const char *name() const override { return "work-stealing"; }
    const SubframeOutcome &
    process_subframe(const phy::SubframeParams &params) override;
    RunRecord run(workload::ParameterModel &model,
                  std::size_t n_subframes) override;
    void set_estimator(
        std::optional<mgmt::WorkloadEstimator> estimator) override;
    WorkerPool *worker_pool() override { return pool_.get(); }
    InputGenerator &input() override { return input_; }
    const EngineConfig &config() const override { return config_; }
    obs::Tracer *tracer() override { return obs_.tracer.get(); }
    const obs::SubframeSeries *subframe_series() const override
    {
        return obs_.series.get();
    }
    obs::MetricsRegistry *metrics() override { return obs_.metrics.get(); }

  private:
    /** The Eq. 4 estimate (-1 when no estimator is installed), with
     *  Eq. 5 core deactivation when proactive. */
    double apply_estimator(const phy::SubframeParams &params);
    /** The tracer slot used by the dispatch/maintenance thread. */
    std::size_t dispatch_slot() const { return config_.pool.n_workers; }
    /** Stamp a job's dispatch time (and its kDispatch instant). */
    void observe_dispatch(SubframeJob &job, double estimate);
    /** Record one completed job into the series/metrics/trace. */
    void observe_completion(const SubframeJob &job);
    /** Harvest a completed job into @p record and release it. */
    void reap(SubframeJob *job, RunRecord &record);

    EngineConfig config_;
    InputGenerator input_;
    EngineObs obs_;
    std::unique_ptr<WorkerPool> pool_;
    std::optional<mgmt::WorkloadEstimator> estimator_;

    /** Pooled jobs; at most max_in_flight + 1 ever exist. */
    admission::JobPool job_pool_;
    std::vector<const phy::UserSignal *> signals_;
    SubframeOutcome outcome_;
};

class MultiCellEngine;

/**
 * The streaming engine: a one-lane MultiCellEngine serving
 * receiver.cell_id behind the single-model Engine interface.  A
 * TTI-paced arrival source feeds a bounded admission ring; up to
 * max_in_flight subframes execute concurrently on the work-stealing
 * pool, and the admission controller sheds or degrades by the
 * configured ShedPolicy once deadline_ms is spent (see
 * runtime/multicell.hpp).  With deadline_ms == 0 the engine is
 * lossless and applies backpressure instead, which makes its output
 * bit-identical to the lock-step engines for the same model stream.
 */
class StreamingEngine : public Engine
{
  public:
    explicit StreamingEngine(const EngineConfig &config);
    ~StreamingEngine() override;

    const char *name() const override { return "streaming"; }
    const SubframeOutcome &
    process_subframe(const phy::SubframeParams &params) override;
    /** The lane's record, carrying the pool-level wall clock,
     *  activity, total_ops and steals. */
    RunRecord run(workload::ParameterModel &model,
                  std::size_t n_subframes) override;
    void set_estimator(
        std::optional<mgmt::WorkloadEstimator> estimator) override;
    WorkerPool *worker_pool() override;
    InputGenerator &input() override;
    const EngineConfig &config() const override;
    obs::Tracer *tracer() override;
    const obs::SubframeSeries *subframe_series() const override;
    obs::MetricsRegistry *metrics() override;

    /** Admission tallies of the last run(). */
    const ShedStats &shed_stats() const;

  private:
    std::unique_ptr<MultiCellEngine> lane_;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_ENGINE_HPP
