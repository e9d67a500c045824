#include "runtime/engine.hpp"

#include <chrono>
#include <deque>

#include "common/check.hpp"
#include "phy/kernel_scratch.hpp"
#include "phy/op_model.hpp"
#include "runtime/feedback.hpp"

namespace lte::runtime {

const char *
engine_kind_name(EngineKind kind)
{
    switch (kind) {
      case EngineKind::kSerial:
        return "serial";
      case EngineKind::kWorkStealing:
        return "work-stealing";
      case EngineKind::kStreaming:
        return "streaming";
    }
    return "unknown";
}

const char *
shed_policy_name(ShedPolicy policy)
{
    switch (policy) {
      case ShedPolicy::kDropNewest:
        return "drop-newest";
      case ShedPolicy::kDropOldest:
        return "drop-oldest";
      case ShedPolicy::kDegrade:
        return "degrade";
    }
    return "unknown";
}

void
EngineConfig::validate() const
{
    LTE_CHECK(max_in_flight >= 1, "need at least one subframe in flight");
    LTE_CHECK(delta_ms >= 0.0, "delta must be non-negative");
    LTE_CHECK(deadline_ms >= 0.0, "deadline must be non-negative");
    LTE_CHECK(admission_queue >= 1, "need at least one admission slot");
    LTE_CHECK(degrade_bypass_fraction >= 0.5 &&
                  degrade_bypass_fraction <= 1.0,
              "bypass fraction must be in [0.5, 1]");
    LTE_CHECK(receiver.cell_id == input.cell_id,
              "receiver and input generator must serve the same cell");
    receiver.validate();
    input.validate();
    obs.validate();
    io.validate();
}

using admission::collect;
using admission::job_done;
using admission::subframe_ops;

std::unique_ptr<Engine>
make_engine(const EngineConfig &config)
{
    switch (config.kind) {
      case EngineKind::kSerial:
        return std::make_unique<SerialEngine>(config);
      case EngineKind::kWorkStealing:
        return std::make_unique<WorkStealingEngine>(config);
      case EngineKind::kStreaming:
        return std::make_unique<StreamingEngine>(config);
    }
    LTE_CHECK(false, "unknown engine kind");
    return nullptr;
}

// ------------------------------------------------------- observability

void
EngineObs::init(const obs::ObsConfig &config, std::size_t n_slots,
                bool admission, bool io)
{
    deadline_ms = config.deadline_ms;
    if (config.enabled) {
        // Preallocated before any worker starts so recording never
        // allocates.
        tracer = std::make_unique<obs::Tracer>(n_slots, config);
        series = std::make_unique<obs::SubframeSeries>(
            config.series_capacity);
    }
    // Metrics are independent of tracing: engine.deadline_misses and
    // friends must count whenever metrics are on, not only when the
    // span rings happen to be allocated.
    if (!config.enabled && !config.metrics_enabled)
        return;
    metrics = std::make_unique<obs::MetricsRegistry>();
    subframes = &metrics->counter("engine.subframes");
    users = &metrics->counter("engine.users");
    deadline_misses = &metrics->counter("engine.deadline_misses");
    if (admission) {
        submitted = &metrics->counter("engine.submitted");
        admitted = &metrics->counter("engine.admitted");
        completed = &metrics->counter("engine.completed");
        shed = &metrics->counter("engine.shed");
        shed_queue_full = &metrics->counter("engine.shed_queue_full");
        shed_expired = &metrics->counter("engine.shed_expired");
        degraded = &metrics->counter("engine.degraded");
    }
    if (io) {
        io_lost = &metrics->counter("io.lost");
        io_late = &metrics->counter("io.late");
    }
}

std::uint64_t
EngineObs::now_ns() const
{
    return to_ns(std::chrono::steady_clock::now());
}

std::uint64_t
EngineObs::to_ns(std::chrono::steady_clock::time_point tp) const
{
    if (tracer)
        return tracer->to_ns(tp);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch)
            .count());
}

bool
EngineObs::complete(std::size_t slot, std::uint64_t t_span_begin,
                    std::uint64_t arg, const obs::SubframeSample &sample)
{
    if (tracer) {
        tracer->record(slot, obs::SpanKind::kSubframe, t_span_begin,
                       sample.t_complete_ns, arg);
        series->push(sample);
    }
    if (!metrics)
        return false;
    subframes->add();
    users->add(sample.n_users);
    const bool miss = sample.latency_ms() > deadline_ms;
    if (miss)
        deadline_misses->add();
    return miss;
}

// ------------------------------------------------------------ serial

SerialEngine::SerialEngine(const EngineConfig &config)
    : config_(config), input_(config.input), proc_(config.receiver)
{
    config_.validate();
    config_.kind = EngineKind::kSerial;
    obs_.init(config_.obs, 1);
    // The serial engine runs kernels on the caller's thread.
    phy::warm_kernel_scratch();
}

const SubframeOutcome &
SerialEngine::process_subframe(const phy::SubframeParams &params)
{
    params.validate();
    input_.signals_for(params, signals_);

    obs::Tracer *tracer = obs_.tracer.get();
    const std::uint64_t t_dispatch = obs_.observing() ? obs_.now_ns() : 0;

    outcome_.subframe_index = params.subframe_index;
    outcome_.cell_id = params.cell_id;
    outcome_.users.resize(params.users.size());
    for (std::size_t u = 0; u < params.users.size(); ++u) {
        const std::uint64_t t_user = tracer ? tracer->now_ns() : 0;
        proc_.bind(params.users[u], signals_[u]);
        const phy::UserResult &result = proc_.process_all();
        UserOutcome &out = outcome_.users[u];
        out.user_id = result.user_id;
        out.checksum = result.checksum;
        out.crc_ok = result.crc_ok;
        out.crc_modelled = result.crc_modelled;
        out.evm_rms = result.evm_rms;
        out.decode_iterations = result.decode_iterations;
        if (tracer) {
            tracer->record(0, obs::SpanKind::kUser, t_user,
                           tracer->now_ns(), result.user_id);
        }
    }

    if (obs_.observing()) {
        obs::SubframeSample sample;
        sample.subframe_index = params.subframe_index;
        sample.cell_id = params.cell_id;
        sample.t_dispatch_ns = t_dispatch;
        sample.t_complete_ns = obs_.now_ns();
        sample.n_users = static_cast<std::uint32_t>(params.users.size());
        sample.active_workers = 1;
        sample.ops =
            subframe_ops(params, config_.receiver.n_antennas,
                         phy::decode_model(config_.receiver));
        obs_.complete(0, t_dispatch, params.subframe_index, sample);
    }
    if (config_.feedback) {
        config_.feedback->on_subframe_complete(outcome_,
                                               phy::DegradeLevel::kNone);
    }
    return outcome_;
}

RunRecord
SerialEngine::run(workload::ParameterModel &model,
                  std::size_t n_subframes)
{
    using clock = std::chrono::steady_clock;
    RunRecord record;
    record.cell_id = config_.receiver.cell_id;
    record.subframes.reserve(n_subframes);
    const auto start = clock::now();

    for (std::size_t i = 0; i < n_subframes; ++i) {
        const phy::SubframeParams params = model.next_subframe();
        record.subframes.push_back(process_subframe(params));
        for (const auto &user : params.users) {
            record.total_ops +=
                phy::user_task_costs(user, config_.receiver.n_antennas)
                    .total();
        }
    }

    record.wall_seconds =
        std::chrono::duration<double>(clock::now() - start).count();
    record.activity = 1.0; // a serial run is busy by definition
    return record;
}

// ----------------------------------------------------- work stealing

WorkStealingEngine::WorkStealingEngine(const EngineConfig &config)
    : config_(config), input_(config.input)
{
    config_.validate();
    config_.kind = EngineKind::kWorkStealing;
    // One ring per worker plus the dispatch thread.
    obs_.init(config_.obs, config_.pool.n_workers + 1);
    config_.pool.tracer = obs_.tracer.get();
    pool_ = std::make_unique<WorkerPool>(config_.pool);
}

void
WorkStealingEngine::set_estimator(
    std::optional<mgmt::WorkloadEstimator> estimator)
{
    estimator_ = std::move(estimator);
    if (estimator_) {
        estimator_->set_decode_pricing(
            mgmt::decode_pricing_for(config_.receiver));
    }
}

double
WorkStealingEngine::apply_estimator(const phy::SubframeParams &params)
{
    // Eq. 4 estimate from the *next* subframe's known input
    // parameters, recorded whenever an estimator is installed; only a
    // proactive engine parks workers on it (Eq. 5).
    if (!estimator_.has_value())
        return -1.0;
    const double estimate = estimator_->estimate_subframe(params);
    if (config_.proactive) {
        pool_->set_active_workers(estimator_->active_cores(
            estimate, static_cast<std::uint32_t>(pool_->n_workers()),
            config_.core_margin));
    }
    return estimate;
}

void
WorkStealingEngine::observe_dispatch(SubframeJob &job, double estimate)
{
    if (!obs_.observing())
        return;
    job.t_dispatch_ns = obs_.now_ns();
    job.t_arrival_ns = job.t_dispatch_ns;
    job.est_activity = estimate;
    if (obs_.tracer) {
        obs_.tracer->record_instant(dispatch_slot(),
                                    obs::SpanKind::kDispatch,
                                    job.t_dispatch_ns,
                                    job.params.subframe_index);
    }
}

void
WorkStealingEngine::observe_completion(const SubframeJob &job)
{
    obs::SubframeSample sample;
    sample.subframe_index = job.params.subframe_index;
    sample.cell_id = job.cell_id;
    sample.t_dispatch_ns = job.t_dispatch_ns;
    sample.t_complete_ns = obs_.completion_ns(job);
    sample.n_users = static_cast<std::uint32_t>(job.n_users);
    sample.active_workers =
        static_cast<std::uint32_t>(pool_->active_workers());
    sample.est_activity = job.est_activity;
    sample.ops = subframe_ops(
        job.params, config_.receiver.n_antennas,
        phy::decode_model(config_.receiver, job.degrade_level));
    obs_.complete(dispatch_slot(), job.t_dispatch_ns,
                  job.params.subframe_index, sample);
}

void
WorkStealingEngine::reap(SubframeJob *job, RunRecord &record)
{
    if (obs_.observing())
        observe_completion(*job);
    record.subframes.push_back(collect(*job));
    if (config_.feedback) {
        config_.feedback->on_subframe_complete(record.subframes.back(),
                                               job->degrade_level);
    }
    job_pool_.release(job);
}

const SubframeOutcome &
WorkStealingEngine::process_subframe(const phy::SubframeParams &params)
{
    params.validate();
    input_.signals_for(params, signals_);
    const double estimate = apply_estimator(params);

    SubframeJob *job = job_pool_.acquire();
    job->prepare(params, signals_, config_.receiver);
    observe_dispatch(*job, estimate);
    if (job->n_users > 0) {
        pool_->submit(job);
        pool_->wait_idle();
    }
    if (obs_.observing())
        observe_completion(*job);

    outcome_.subframe_index = params.subframe_index;
    outcome_.cell_id = params.cell_id;
    outcome_.users = job->results; // capacity reuse, scalar payload
    const phy::DegradeLevel level = job->degrade_level;
    job_pool_.release(job);
    if (config_.feedback)
        config_.feedback->on_subframe_complete(outcome_, level);
    return outcome_;
}

RunRecord
WorkStealingEngine::run(workload::ParameterModel &model,
                        std::size_t n_subframes)
{
    using clock = std::chrono::steady_clock;

    RunRecord record;
    record.cell_id = config_.receiver.cell_id;
    record.subframes.reserve(n_subframes);

    std::deque<SubframeJob *> in_flight;
    pool_->reset_activity();
    const auto run_start = clock::now();
    auto next_dispatch = run_start;
    const auto delta =
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double, std::milli>(config_.delta_ms));

    // In-order harvest of every finished subframe at the front.
    const auto reap_done = [&] {
        while (!in_flight.empty() && job_done(*in_flight.front())) {
            reap(in_flight.front(), record);
            in_flight.pop_front();
        }
    };

    for (std::size_t i = 0; i < n_subframes; ++i) {
        // Flow control: keep at most max_in_flight subframes open.
        while (in_flight.size() >= config_.max_in_flight) {
            pool_->wait_job(*in_flight.front());
            reap_done();
        }

        const phy::SubframeParams params = model.next_subframe();
        params.validate();
        const double estimate = apply_estimator(params);

        input_.signals_for(params, signals_);
        SubframeJob *job = job_pool_.acquire();
        job->prepare(params, signals_, config_.receiver);

        // DELTA pacing (paper Sec. IV-B.3); until the tick, each
        // subframe is reaped as soon as its last worker finishes it.
        if (config_.delta_ms > 0.0) {
            pool_->reap_until(next_dispatch, reap_done);
            next_dispatch += delta;
        }

        observe_dispatch(*job, estimate);
        if (job->n_users == 0) {
            reap(job, record);
        } else {
            pool_->submit(job);
            in_flight.push_back(job);
        }
    }

    // Drain the tail.
    pool_->wait_idle();
    for (SubframeJob *job : in_flight) {
        LTE_ASSERT(job_done(*job), "pool idle but job incomplete");
        reap(job, record);
    }

    obs_.finish_run(record, *pool_, run_start);
    return record;
}

} // namespace lte::runtime
