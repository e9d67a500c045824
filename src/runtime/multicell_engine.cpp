/**
 * @file
 * Multi-cell engine implementation: per-cell admission lanes with a
 * deficit weighted-round-robin drain into one shared in-flight window
 * over the shared worker pool.
 *
 * Every lane runs the one streaming admission policy (expiry at the
 * ring head, the half-deadline degrade mark, drop-newest/drop-oldest
 * on a full ring, lossless backpressure at deadline 0), inline or fed
 * by the sample plane; the streaming engine is the one-lane case (see
 * StreamingEngine at the end of this file).  Between lanes, admission
 * order into the shared window follows WRR credits, and completion
 * waits always target the globally oldest admitted job (smallest
 * admit_seq across the lanes' executing fronts) so no cell can stall
 * another's reaping.
 */
#include "runtime/multicell.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "io/capture.hpp"
#include "io/sample_plane.hpp"
#include "phy/op_model.hpp"
#include "runtime/feedback.hpp"
#include "runtime/sample_source.hpp"

namespace lte::runtime {

using admission::collect;
using admission::job_done;
using admission::subframe_ops;

void
MultiCellConfig::validate() const
{
    LTE_CHECK(n_cells >= 1, "need at least one cell");
    LTE_CHECK(cell_ids.empty() || cell_ids.size() == n_cells,
              "cell_ids must be empty or name every cell");
    LTE_CHECK(weights.empty() || weights.size() == n_cells,
              "weights must be empty or cover every cell");
    for (std::size_t c = 0; c < n_cells; ++c) {
        const std::uint32_t id = cell_id_of(c);
        LTE_CHECK(id >= 1 && id <= 511,
                  "cell id must be 1..511 (9 scrambler bits)");
        LTE_CHECK(weight_of(c) >= 1, "WRR weights must be positive");
        for (std::size_t d = 0; d < c; ++d)
            LTE_CHECK(cell_id_of(d) != id, "cell ids must be distinct");
    }
    engine.validate();
}

std::uint32_t
MultiCellConfig::cell_id_of(std::size_t cell) const
{
    return cell_ids.empty() ? static_cast<std::uint32_t>(cell + 1)
                            : cell_ids[cell];
}

std::uint32_t
MultiCellConfig::weight_of(std::size_t cell) const
{
    return weights.empty() ? 1u : weights[cell];
}

std::size_t
MultiCellRunRecord::completed_subframes() const
{
    std::size_t n = 0;
    for (const auto &cell : cells)
        n += cell.subframes.size();
    return n;
}

std::size_t
MultiCellRunRecord::user_count() const
{
    std::size_t n = 0;
    for (const auto &cell : cells)
        n += cell.user_count();
    return n;
}

MultiCellEngine::MultiCellEngine(const MultiCellConfig &config)
    : config_(config)
{
    config_.validate();
    config_.engine.kind = EngineKind::kStreaming;
    // One ring per worker plus the dispatch thread.
    obs_.init(config_.engine.obs, config_.engine.pool.n_workers + 1,
              /*admission=*/true, /*io=*/config_.engine.io.enabled);
    config_.engine.pool.tracer = obs_.tracer.get();
    pool_ = std::make_unique<WorkerPool>(config_.engine.pool);

    cells_.reserve(config_.n_cells);
    for (std::size_t c = 0; c < config_.n_cells; ++c) {
        const std::uint32_t id = config_.cell_id_of(c);
        InputGeneratorConfig input_cfg = config_.engine.input;
        input_cfg.cell_id = id;
        auto cell = std::make_unique<CellContext>(input_cfg);
        cell->cell_id = id;
        cell->weight = config_.weight_of(c);
        cell->credits = cell->weight;
        cell->receiver = config_.engine.receiver;
        cell->receiver.cell_id = id;
        if (obs_.metrics) {
            const std::string prefix =
                "engine.cell" + std::to_string(id);
            obs::MetricsRegistry &m = *obs_.metrics;
            cell->submitted_counter = &m.counter(prefix + ".submitted");
            cell->completed_counter = &m.counter(prefix + ".completed");
            cell->shed_counter = &m.counter(prefix + ".shed");
            cell->degraded_counter = &m.counter(prefix + ".degraded");
            cell->deadline_miss_counter =
                &m.counter(prefix + ".deadline_misses");
        }
        cells_.push_back(std::move(cell));
    }
}

InputGenerator &
MultiCellEngine::input(std::size_t cell)
{
    LTE_CHECK(cell < cells_.size(), "cell index out of range");
    return cells_[cell]->input;
}

std::uint32_t
MultiCellEngine::cell_id(std::size_t cell) const
{
    LTE_CHECK(cell < cells_.size(), "cell index out of range");
    return cells_[cell]->cell_id;
}

const ShedStats &
MultiCellEngine::shed_stats(std::size_t cell) const
{
    LTE_CHECK(cell < cells_.size(), "cell index out of range");
    return cells_[cell]->shed;
}

void
MultiCellEngine::set_estimator(
    std::optional<mgmt::WorkloadEstimator> estimator)
{
    if (estimator.has_value()) {
        estimator->set_decode_pricing(
            mgmt::decode_pricing_for(config_.engine.receiver));
    }
    for (auto &cell : cells_)
        cell->estimator = estimator;
    estimator_ = std::move(estimator);
}

double
MultiCellEngine::age_ms(const SubframeJob &job,
                        std::uint64_t now_ns) const
{
    return static_cast<double>(now_ns - job.t_arrival_ns) / 1e6;
}

void
MultiCellEngine::update_active_workers()
{
    if (!estimator_.has_value() || !config_.engine.proactive)
        return;
    // The shared pool serves the sum of the cells' demands (the
    // multi-cell Eq. 4): each lane's backlog-aware estimate, summed
    // and clamped to the chip.
    double total = 0.0;
    for (const auto &cell : cells_)
        total += std::max(0.0, cell->last_estimate);
    total = std::min(1.0, total);
    pool_->set_active_workers(estimator_->active_cores(
        total, static_cast<std::uint32_t>(pool_->n_workers()),
        config_.engine.core_margin));
}

void
MultiCellEngine::observe_completion(CellContext &cell,
                                    const SubframeJob &job)
{
    ++cell.shed.completed;
    if (!obs_.observing())
        return;
    obs::SubframeSample sample;
    sample.subframe_index = job.params.subframe_index;
    sample.cell_id = cell.cell_id;
    // Latency is admission-to-completion: the deadline clock starts
    // at the TTI tick, not at pool admission, so queue wait counts.
    sample.t_dispatch_ns = job.t_arrival_ns;
    sample.t_complete_ns = obs_.completion_ns(job);
    sample.n_users = static_cast<std::uint32_t>(job.n_users);
    sample.active_workers =
        static_cast<std::uint32_t>(pool_->active_workers());
    sample.est_activity = job.est_activity;
    sample.ops = subframe_ops(
        job.params, config_.engine.receiver.n_antennas,
        phy::decode_model(config_.engine.receiver, job.degrade_level));
    const bool missed = obs_.complete(
        dispatch_slot(), job.t_dispatch_ns,
        obs::make_cell_arg(cell.cell_id, job.params.subframe_index),
        sample);
    obs_.completed->add();
    cell.completed_counter->add();
    if (missed)
        cell.deadline_miss_counter->add();
}

void
MultiCellEngine::observe_shed(CellContext &cell,
                              std::uint64_t subframe_index, bool expired)
{
    ++cell.shed.shed;
    if (expired)
        ++cell.shed.shed_expired;
    else
        ++cell.shed.shed_queue_full;
    if (obs_.tracer) {
        obs_.tracer->record_instant(
            dispatch_slot(), obs::SpanKind::kShed, obs_.now_ns(),
            obs::make_cell_arg(cell.cell_id, subframe_index));
    }
    if (obs_.metrics) {
        obs_.shed->add();
        cell.shed_counter->add();
        (expired ? obs_.shed_expired : obs_.shed_queue_full)->add();
    }
    if (config_.engine.feedback) {
        config_.engine.feedback->on_subframe_shed(cell.cell_id,
                                                  subframe_index);
    }
}

void
MultiCellEngine::expire_pending(CellContext &cell)
{
    if (config_.engine.deadline_ms <= 0.0)
        return;
    while (!cell.pending.empty()) {
        SubframeJob *job = cell.pending.front();
        if (age_ms(*job, obs_.now_ns()) <= config_.engine.deadline_ms)
            break;
        // Expired in the queue: nothing useful left to compute.
        cell.pending.pop_front();
        --total_pending_;
        observe_shed(cell, job->params.subframe_index,
                     /*expired=*/true);
        release_job(cell, job);
    }
}

void
MultiCellEngine::admit_one(CellContext &cell)
{
    SubframeJob *job = cell.pending.front();
    const std::uint64_t now = obs_.now_ns();
    const double age = age_ms(*job, now);
    if (config_.engine.shed_policy == ShedPolicy::kDegrade &&
        config_.engine.deadline_ms > 0.0 &&
        age > 0.5 * config_.engine.deadline_ms) {
        // Over half the budget gone waiting: trade EVM for latency
        // rather than risk a drop.  Real-turbo lanes climb the shed
        // ladder — reduced decode iterations first, the full bypass
        // only past the bypass fraction; pass-through lanes jump
        // straight to the bypass (both levels produce the same
        // output there).
        const bool bypass =
            !config_.engine.receiver.use_real_turbo ||
            age > config_.engine.degrade_bypass_fraction *
                      config_.engine.deadline_ms;
        const phy::DegradeLevel level =
            bypass ? phy::DegradeLevel::kBypass
                   : phy::DegradeLevel::kReducedIterations;
        job->set_degrade(level);
        ++cell.shed.degraded;
        if (obs_.metrics) {
            obs_.degraded->add();
            cell.degraded_counter->add();
        }
        if (cell.estimator.has_value()) {
            // The planned work just got cheaper; refresh this lane's
            // Eq. 4 estimate under the shed level's cost model so the
            // shared pool's core count tracks real demand.
            const double estimate = cell.estimator->estimate_subframe(
                job->params,
                cell.pending.size() + cell.executing.size(), level);
            cell.last_estimate = estimate;
            job->est_activity = estimate;
            update_active_workers();
        }
    }
    cell.pending.pop_front();
    --total_pending_;
    job->t_dispatch_ns = now;
    job->admit_seq = admit_seq_++;
    if (obs_.tracer) {
        obs_.tracer->record_instant(
            dispatch_slot(), obs::SpanKind::kDispatch, now,
            obs::make_cell_arg(cell.cell_id,
                               job->params.subframe_index));
    }
    ++cell.shed.admitted;
    if (obs_.metrics)
        obs_.admitted->add();
    if (job->n_users > 0)
        pool_->submit(job);
    // A zero-user job is born complete (users_remaining == 0); it
    // still flows through executing so reaping preserves order.
    cell.executing.push_back(job);
    ++total_executing_;
}

void
MultiCellEngine::admit_wrr()
{
    while (true) {
        for (auto &cell : cells_)
            expire_pending(*cell);
        if (total_executing_ >= config_.engine.max_in_flight ||
            total_pending_ == 0)
            break;
        bool admitted = false;
        for (std::size_t k = 0; k < cells_.size(); ++k) {
            const std::size_t c = (rr_next_ + k) % cells_.size();
            CellContext &cell = *cells_[c];
            if (cell.pending.empty() || cell.credits == 0)
                continue;
            admit_one(cell);
            --cell.credits;
            rr_next_ = (c + 1) % cells_.size();
            admitted = true;
            break;
        }
        if (!admitted) {
            // Every backlogged cell spent its round's credits: start
            // a new WRR round.
            for (auto &cell : cells_)
                cell->credits = cell->weight;
        }
    }
}

void
MultiCellEngine::reap_all(MultiCellRunRecord &record)
{
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        CellContext &cell = *cells_[c];
        while (!cell.executing.empty() &&
               job_done(*cell.executing.front())) {
            SubframeJob *job = cell.executing.front();
            cell.executing.pop_front();
            --total_executing_;
            observe_completion(cell, *job);
            record.cells[c].subframes.push_back(collect(*job));
            if (config_.engine.feedback) {
                config_.engine.feedback->on_subframe_complete(
                    record.cells[c].subframes.back(),
                    job->degrade_level);
            }
            record.cells[c].total_ops += subframe_ops(
                job->params, config_.engine.receiver.n_antennas,
                phy::decode_model(config_.engine.receiver,
                                  job->degrade_level));
            release_job(cell, job);
        }
    }
}

void
MultiCellEngine::drain_one(MultiCellRunRecord &record)
{
    LTE_ASSERT(total_executing_ > 0,
               "drain_one() needs an in-flight subframe");
    // The globally oldest admitted job: smallest admit_seq over the
    // lanes' executing fronts.  Waiting on it (instead of any one
    // lane's front) keeps one cell's long subframe from blocking the
    // reaping of every other cell.
    CellContext *oldest = nullptr;
    for (auto &cell : cells_) {
        if (cell->executing.empty())
            continue;
        if (oldest == nullptr ||
            cell->executing.front()->admit_seq <
                oldest->executing.front()->admit_seq)
            oldest = cell.get();
    }
    pool_->wait_job(*oldest->executing.front());
    reap_all(record);
}

void
MultiCellEngine::release_job(CellContext &cell, SubframeJob *job)
{
    if (job->io_frame != nullptr) {
        // Always on the dispatch thread (reap, drop, expiry), so each
        // lane's free ring keeps its single producer.
        LTE_ASSERT(cell.transport != nullptr,
                   "sample-plane job released outside run_offloaded()");
        cell.transport->release(job->io_frame);
        job->io_frame = nullptr;
    }
    cell.job_pool.release(job);
}

void
MultiCellEngine::sync_io_stats(CellContext &cell,
                               const io::FeedStats &stats)
{
    // Producer-side losses are subframes this lane never saw: folded
    // into its shed accounting exactly once (shed_queue_full — the
    // frame pool is the upstream queue), preserving the per-cell
    // shed + completed == submitted invariant.
    const std::uint64_t lost =
        stats.lost.load(std::memory_order_acquire);
    while (cell.io_lost_synced < lost) {
        ++cell.io_lost_synced;
        ++cell.shed.submitted;
        ++cell.shed.shed;
        ++cell.shed.shed_queue_full;
        ++cell.shed.io_lost;
        if (obs_.tracer) {
            obs_.tracer->record_instant(
                dispatch_slot(), obs::SpanKind::kIoLost, obs_.now_ns(),
                obs::make_cell_arg(cell.cell_id, cell.io_lost_synced));
        }
        if (obs_.metrics) {
            obs_.submitted->add();
            obs_.shed->add();
            obs_.shed_queue_full->add();
            obs_.io_lost->add();
            cell.submitted_counter->add();
            cell.shed_counter->add();
        }
    }
    const std::uint64_t late =
        stats.late.load(std::memory_order_acquire);
    while (cell.io_late_synced < late) {
        ++cell.io_late_synced;
        ++cell.shed.io_late;
        if (obs_.metrics)
            obs_.io_late->add();
    }
}

const SubframeOutcome &
MultiCellEngine::process_subframe(std::size_t cell_index,
                                  const phy::SubframeParams &params)
{
    LTE_CHECK(cell_index < cells_.size(), "cell index out of range");
    CellContext &cell = *cells_[cell_index];
    params.validate();
    LTE_CHECK(params.cell_id == cell.cell_id,
              "params.cell_id must name the lane's cell");
    LTE_ASSERT(total_pending_ == 0 && total_executing_ == 0,
               "process_subframe() may not interleave with run()");

    double estimate = -1.0;
    if (cell.estimator.has_value()) {
        estimate = cell.estimator->estimate_subframe(params, 0);
        cell.last_estimate = estimate;
        update_active_workers();
    }
    cell.input.signals_for(params, cell.signals);

    SubframeJob *job = cell.job_pool.acquire();
    job->prepare(params, cell.signals, cell.receiver);
    job->t_arrival_ns = obs_.now_ns();
    job->t_dispatch_ns = job->t_arrival_ns;
    job->est_activity = estimate;
    if (obs_.tracer) {
        obs_.tracer->record_instant(
            dispatch_slot(), obs::SpanKind::kDispatch,
            job->t_dispatch_ns,
            obs::make_cell_arg(cell.cell_id, params.subframe_index));
    }
    ++cell.shed.submitted;
    ++cell.shed.admitted;
    if (obs_.metrics) {
        obs_.submitted->add();
        obs_.admitted->add();
        cell.submitted_counter->add();
    }
    if (job->n_users > 0) {
        pool_->submit(job);
        pool_->wait_job(*job);
    }
    observe_completion(cell, *job);

    outcome_.subframe_index = params.subframe_index;
    outcome_.cell_id = params.cell_id;
    outcome_.users = job->results; // capacity reuse, scalar payload
    const phy::DegradeLevel level = job->degrade_level;
    cell.job_pool.release(job);
    if (config_.engine.feedback) {
        config_.engine.feedback->on_subframe_complete(outcome_, level);
    }
    return outcome_;
}

MultiCellRunRecord
MultiCellEngine::begin_run(std::size_t n_subframes)
{
    MultiCellRunRecord record;
    record.cells.resize(cells_.size());
    record.shed.resize(cells_.size());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        CellContext &cell = *cells_[c];
        record.cells[c].cell_id = cell.cell_id;
        record.cells[c].subframes.reserve(n_subframes);
        cell.shed = ShedStats{};
        cell.credits = cell.weight;
        cell.last_estimate = -1.0;
        cell.io_lost_synced = 0;
        cell.io_late_synced = 0;
    }
    admit_seq_ = 0;
    rr_next_ = 0;
    pool_->reset_activity();
    return record;
}

void
MultiCellEngine::admit_arrival(CellContext &cell,
                               const phy::SubframeParams &params,
                               io::IqFrame *frame,
                               MultiCellRunRecord &record)
{
    ++cell.shed.submitted;
    if (obs_.metrics) {
        obs_.submitted->add();
        cell.submitted_counter->add();
    }

    // Make room in this cell's admission ring.
    const std::size_t capacity = config_.engine.admission_queue;
    if (cell.pending.size() >= capacity) {
        if (config_.engine.deadline_ms == 0.0) {
            // Lossless mode: block the arrival source until this lane
            // frees a slot (backpressure, never shed; a held frame
            // also backs up the producer through its free ring).  The
            // WRR drain keeps the other lanes moving.
            while (cell.pending.size() >= capacity) {
                admit_wrr();
                if (cell.pending.size() < capacity)
                    break;
                drain_one(record);
            }
        } else if (config_.engine.shed_policy == ShedPolicy::kDropOldest) {
            // The oldest queued subframe is the closest to its
            // deadline — sacrifice it for the arrival.
            SubframeJob *oldest = cell.pending.front();
            cell.pending.pop_front();
            --total_pending_;
            observe_shed(cell, oldest->params.subframe_index,
                         /*expired=*/false);
            release_job(cell, oldest);
        } else {
            // kDropNewest / kDegrade: keep the queued work.  For
            // kDegrade this is what lets jobs age toward the
            // half-deadline mark and take the cheap chain instead of
            // being refreshed out of the ring by new arrivals.
            observe_shed(cell, params.subframe_index, /*expired=*/false);
            if (frame != nullptr)
                cell.transport->release(frame);
            return;
        }
    }

    double estimate = -1.0;
    if (cell.estimator.has_value()) {
        estimate = cell.estimator->estimate_subframe(
            params, cell.pending.size() + cell.executing.size());
    }
    cell.last_estimate = estimate;
    SubframeJob *job = cell.job_pool.acquire();
    if (frame == nullptr) {
        cell.input.signals_for(params, cell.signals);
        job->prepare(params, cell.signals, cell.receiver);
        job->t_arrival_ns = obs_.now_ns();
    } else {
        // Zero-copy handoff: the job reads the frame's signals in
        // place; the frame recycles at release_job().  The deadline
        // clock has been running since the producer stamp.
        job->prepare(params, frame->signals, cell.receiver);
        job->t_arrival_ns = frame->t_arrival_ns;
        job->io_frame = frame;
    }
    job->est_activity = estimate;
    cell.pending.push_back(job);
    ++total_pending_;
}

void
MultiCellEngine::finish_run(MultiCellRunRecord &record,
                            std::chrono::steady_clock::time_point start)
{
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        const ShedStats &s = cells_[c]->shed;
        LTE_ASSERT(s.shed + s.completed == s.submitted,
                   "admission accounting lost a subframe");
        record.shed[c] = s;
    }
    obs_.finish_run(record, *pool_, start);
    for (auto &cell_record : record.cells)
        cell_record.wall_seconds = record.wall_seconds;
}

MultiCellRunRecord
MultiCellEngine::run(const std::vector<workload::ParameterModel *> &models,
                     std::size_t n_subframes)
{
    using clock = std::chrono::steady_clock;
    LTE_CHECK(models.size() == cells_.size(),
              "need one parameter model per cell");
    for (const auto *model : models)
        LTE_CHECK(model != nullptr, "null parameter model");

    if (config_.engine.io.enabled)
        return run_offloaded(models, n_subframes);

    MultiCellRunRecord record = begin_run(n_subframes);
    const auto run_start = clock::now();
    auto next_arrival = run_start;
    const auto delta = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double, std::milli>(
            config_.engine.delta_ms));

    for (std::size_t i = 0; i < n_subframes; ++i) {
        // The shared TTI clock: every cell receives one subframe per
        // tick whether or not the pipeline kept up (free-running when
        // delta_ms == 0, where next_arrival stays in the past).  Until
        // the tick, every completed subframe is reaped and fed back as
        // soon as its last worker finishes it.
        pool_->reap_until(next_arrival, [&] { reap_all(record); });
        if (config_.engine.delta_ms > 0.0)
            next_arrival += delta;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            CellContext &cell = *cells_[c];
            phy::SubframeParams params = models[c]->next_subframe();
            params.cell_id = cell.cell_id;
            params.validate();
            admit_arrival(cell, params, nullptr, record);
        }
        update_active_workers();
        admit_wrr();
    }

    // Drain the tail; queued subframes can still expire while the
    // pipeline catches up.
    while (total_pending_ > 0 || total_executing_ > 0) {
        if (total_executing_ > 0)
            drain_one(record);
        admit_wrr();
    }

    finish_run(record, run_start);
    return record;
}

MultiCellRunRecord
MultiCellEngine::run_offloaded(
    const std::vector<workload::ParameterModel *> &models,
    std::size_t n_subframes)
{
    using clock = std::chrono::steady_clock;
    const io::IoConfig &io_cfg = config_.engine.io;
    MultiCellRunRecord record = begin_run(n_subframes);

    // One sample plane per lane (transport + source + recorder), all
    // paced by ONE producer thread on the common TTI grid.  Generator
    // lanes draw their own model on the producer thread; replay lanes
    // all replay the configured capture (cell id re-stamped at
    // consumption).  Recorder taps get per-cell file names beyond one
    // cell so lanes never share a stream, and each lane keeps its own
    // jitter stream.
    std::vector<std::unique_ptr<io::SampleTransport>> transports;
    std::vector<std::unique_ptr<io::SampleSource>> sources;
    std::vector<std::unique_ptr<io::CaptureWriter>> recorders;
    std::vector<io::FeedLane> lanes;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        CellContext &cell = *cells_[c];
        transports.push_back(
            std::make_unique<io::SampleTransport>(io_cfg.n_frames));
        cell.transport = transports.back().get();
        if (io_cfg.source == io::SourceKind::kReplay) {
            sources.push_back(std::make_unique<io::ReplaySource>(
                io_cfg.replay_path, /*loop=*/true));
        } else {
            sources.push_back(std::make_unique<GeneratorSampleSource>(
                cell.input, *models[c], cell.cell_id));
        }
        recorders.push_back(nullptr);
        if (!io_cfg.record_path.empty()) {
            std::string path = io_cfg.record_path;
            if (cells_.size() > 1)
                path += ".cell" + std::to_string(cell.cell_id);
            recorders.back() = std::make_unique<io::CaptureWriter>(
                path, config_.engine.receiver.n_antennas);
        }
        io::FeedLane lane;
        lane.transport = cell.transport;
        lane.source = sources.back().get();
        lane.recorder = recorders.back().get();
        lane.jitter_seed =
            cell_stream_seed(io_cfg.jitter_seed, cell.cell_id);
        lanes.push_back(lane);
    }
    io::FeedConfig feed_config;
    feed_config.delta_ms = config_.engine.delta_ms;
    feed_config.jitter_ms = io_cfg.jitter_ms;
    feed_config.lossless = config_.engine.deadline_ms == 0.0;
    feed_config.now_ns = [this] { return obs_.now_ns(); };
    io::MultiSampleFeed feed(std::move(lanes), feed_config);

    const auto run_start = clock::now();
    feed.start(n_subframes);

    // Every (cell, tick) resolves as consumed or lost exactly once,
    // so all lanes summing to n_cells * n ticks drains everything.
    const auto resolved = [this] {
        std::uint64_t n = 0;
        for (const auto &cell : cells_)
            n += cell->shed.completed + cell->shed.shed;
        return n;
    };
    const std::uint64_t target =
        static_cast<std::uint64_t>(n_subframes) * cells_.size();

    while (resolved() < target) {
        reap_all(record);
        bool any = false;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            CellContext &cell = *cells_[c];
            sync_io_stats(cell, feed.stats(c));
            io::IqFrame *frame = cell.transport->try_pop_ready();
            if (frame == nullptr)
                continue;
            any = true;
            // Replayed captures carry the recorded cell id; this lane
            // serves its own (generator sources stamp it at produce).
            frame->params.cell_id = cell.cell_id;
            if (obs_.tracer) {
                // Ready-ring residence: produced at t_arrival, consumed
                // now — budget the deadline clock already spent.
                obs_.tracer->record(
                    dispatch_slot(), obs::SpanKind::kIoFrame,
                    frame->t_arrival_ns, obs_.now_ns(),
                    obs::make_cell_arg(cell.cell_id,
                                       frame->params.subframe_index));
            }
            admit_arrival(cell, frame->params, frame, record);
        }
        // Admit even when nothing arrived, so queue ages stay honest
        // (expiry, degrade marks); then give the pool a breath.
        update_active_workers();
        admit_wrr();
        if (!any)
            std::this_thread::yield();
    }

    feed.stop();
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        sync_io_stats(*cells_[c], feed.stats(c));
        cells_[c]->transport = nullptr;
        LTE_ASSERT(cells_[c]->shed.submitted == n_subframes,
                   "sample plane lost track of a tick");
    }
    LTE_ASSERT(total_pending_ == 0 && total_executing_ == 0,
               "ticks resolved but jobs remain in flight");
    finish_run(record, run_start);
    return record;
}

// -------------------------------------------------------- streaming

namespace {

/** The one-lane multi-cell configuration serving @p config's cell. */
MultiCellConfig
one_lane(const EngineConfig &config)
{
    MultiCellConfig cfg;
    cfg.engine = config;
    cfg.n_cells = 1;
    cfg.cell_ids = {config.receiver.cell_id};
    return cfg;
}

} // namespace

StreamingEngine::StreamingEngine(const EngineConfig &config)
    : lane_(std::make_unique<MultiCellEngine>(one_lane(config)))
{
}

StreamingEngine::~StreamingEngine() = default;

const SubframeOutcome &
StreamingEngine::process_subframe(const phy::SubframeParams &params)
{
    return lane_->process_subframe(0, params);
}

RunRecord
StreamingEngine::run(workload::ParameterModel &model,
                     std::size_t n_subframes)
{
    MultiCellRunRecord all = lane_->run({&model}, n_subframes);
    RunRecord record = std::move(all.cells.front());
    record.activity = all.activity;
    record.total_ops = all.total_ops;
    record.steals = all.steals;
    return record;
}

void
StreamingEngine::set_estimator(
    std::optional<mgmt::WorkloadEstimator> estimator)
{
    lane_->set_estimator(std::move(estimator));
}

WorkerPool *
StreamingEngine::worker_pool()
{
    return &lane_->pool();
}

InputGenerator &
StreamingEngine::input()
{
    return lane_->input(0);
}

const EngineConfig &
StreamingEngine::config() const
{
    return lane_->config().engine;
}

obs::Tracer *
StreamingEngine::tracer()
{
    return lane_->tracer();
}

const obs::SubframeSeries *
StreamingEngine::subframe_series() const
{
    return lane_->subframe_series();
}

obs::MetricsRegistry *
StreamingEngine::metrics()
{
    return lane_->metrics();
}

const ShedStats &
StreamingEngine::shed_stats() const
{
    return lane_->shed_stats(0);
}

} // namespace lte::runtime
