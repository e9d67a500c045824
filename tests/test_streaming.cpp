/**
 * @file
 * Streaming-engine tests: lossless parity with the lock-step engines,
 * admission accounting under overload (shed + completed == submitted),
 * shed-policy behaviour, degraded-chain fallback and deadline-bounded
 * latency.  Suite names start with "Streaming" so the tsan preset's
 * test filter picks them up (multiple subframes genuinely execute
 * concurrently here).
 *
 * StreamingPaced tests prove a paced run feeds each subframe back when
 * its last worker finishes it, not at the next tick.
 *
 * Overload tests read knobs from the environment so CI can sweep a
 * max_inflight matrix without recompiling:
 *   LTE_STREAM_MAX_INFLIGHT   in-flight bound (default 2)
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/feedback.hpp"
#include "runtime/multicell.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::runtime {
namespace {

std::size_t
env_size_t(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return static_cast<std::size_t>(std::stoul(value));
}

EngineConfig
parity_config(EngineKind kind)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 4;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    return cfg;
}

workload::PaperModelConfig
randomized_model_config()
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = 77;
    return cfg;
}

/** A subframe heavy enough that a tiny pool cannot keep TTI pace. */
phy::UserParams
heavy_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 100;
    u.layers = 4;
    u.mod = Modulation::k64Qam;
    return u;
}

/** Overload scenario: arrivals far faster than the pool drains them. */
EngineConfig
overload_config(ShedPolicy policy)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = env_size_t("LTE_STREAM_MAX_INFLIGHT", 2);
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.05; // 20x the 1 ms cadence, scaled for test time
    cfg.deadline_ms = 2.0;
    cfg.shed_policy = policy;
    return cfg;
}

const StreamingEngine &
as_streaming(const Engine &engine)
{
    return dynamic_cast<const StreamingEngine &>(engine);
}

/** A subframe that takes a fraction of a millisecond on any host. */
phy::UserParams
small_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 6;
    u.layers = 1;
    u.mod = Modulation::kQpsk;
    return u;
}

/** A paced lossless run: one arrival per @p delta_ms, nothing shed. */
EngineConfig
paced_config(EngineKind kind, double delta_ms)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = 3;
    cfg.delta_ms = delta_ms;
    return cfg;
}

/** Records when each subframe's completion feedback fired, on the
 *  steady clock and (once tracer is set) on the engine's obs clock. */
struct FeedbackTimes : SubframeFeedbackSink
{
    struct Stamp
    {
        std::uint32_t cell_id = 0;
        std::uint64_t subframe_index = 0;
        std::chrono::steady_clock::time_point at;
        std::uint64_t obs_ns = 0;
    };

    void
    on_subframe_complete(const SubframeOutcome &outcome,
                         phy::DegradeLevel) override
    {
        stamps.push_back({outcome.cell_id, outcome.subframe_index,
                          std::chrono::steady_clock::now(),
                          tracer != nullptr ? tracer->now_ns() : 0});
    }
    void on_subframe_shed(std::uint32_t, std::uint64_t) override {}

    /** The stamp of (@p cell_id, @p subframe_index); null if none. */
    const Stamp *
    find(std::uint32_t cell_id, std::uint64_t subframe_index) const
    {
        for (const Stamp &s : stamps) {
            if (s.cell_id == cell_id && s.subframe_index == subframe_index)
                return &s;
        }
        return nullptr;
    }

    std::vector<Stamp> stamps;
    const obs::Tracer *tracer = nullptr;
};

/**
 * True when some subframe i < n - 1 was fed back before tick i + 1.
 * A run's ticks are run_start + k * delta and its run_start is no
 * earlier than @p t_before (read just before run()), so
 * t_before + (i + 1) * delta is the earliest tick i + 1 can fire.
 */
bool
fed_back_before_next_tick(const FeedbackTimes &sink,
                          std::chrono::steady_clock::time_point t_before,
                          double delta_ms, std::size_t n)
{
    using clock = std::chrono::steady_clock;
    for (const FeedbackTimes::Stamp &s : sink.stamps) {
        if (s.subframe_index + 1 >= n)
            continue;
        const auto next_tick =
            t_before + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               delta_ms *
                               static_cast<double>(s.subframe_index + 1)));
        if (s.at < next_tick)
            return true;
    }
    return false;
}

// ------------------------------------------------------------ parity

TEST(StreamingParity, LosslessSerialisedRunMatchesWorkStealing)
{
    // max_in_flight = 1 and an infinite deadline: the streaming engine
    // degenerates to lock-step processing with backpressure, so its
    // output must be bit-identical to the work-stealing engine over
    // the same randomized model stream (paper Sec. IV-D, extended to
    // the streaming pipeline).
    const std::size_t n = 25;

    auto reference = make_engine(parity_config(EngineKind::kWorkStealing));
    workload::PaperModel ref_model(randomized_model_config());
    const RunRecord ref = reference->run(ref_model, n);

    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    cfg.max_in_flight = 1;
    cfg.deadline_ms = 0.0;
    auto streaming = make_engine(cfg);
    workload::PaperModel model(randomized_model_config());
    const RunRecord record = streaming->run(model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
    EXPECT_GT(ref.user_count(), 0u);

    const auto &stats = as_streaming(*streaming).shed_stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.completed, n);
    EXPECT_EQ(stats.shed, 0u);
}

TEST(StreamingParity, LosslessPipelinedRunStaysBitIdentical)
{
    // Even with several subframes genuinely overlapping in the pool,
    // backpressure mode loses nothing and in-order reaping keeps the
    // record in arrival order — the digest still matches.
    const std::size_t n = 25;

    auto reference = make_engine(parity_config(EngineKind::kSerial));
    workload::PaperModel ref_model(randomized_model_config());
    const RunRecord ref = reference->run(ref_model, n);

    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    cfg.max_in_flight = 3;
    cfg.admission_queue = 4;
    cfg.deadline_ms = 0.0;
    auto streaming = make_engine(cfg);
    workload::PaperModel model(randomized_model_config());
    const RunRecord record = streaming->run(model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
}

TEST(StreamingParity, ProcessSubframeMatchesSerial)
{
    auto serial = make_engine(parity_config(EngineKind::kSerial));
    auto streaming = make_engine(parity_config(EngineKind::kStreaming));

    workload::PaperModel model(randomized_model_config());
    std::size_t users_seen = 0;
    for (std::size_t i = 0; i < 15; ++i) {
        const phy::SubframeParams params = model.next_subframe();
        const SubframeOutcome &a = serial->process_subframe(params);
        const SubframeOutcome &b = streaming->process_subframe(params);
        ASSERT_EQ(a.users.size(), b.users.size()) << "subframe " << i;
        for (std::size_t u = 0; u < a.users.size(); ++u) {
            EXPECT_EQ(a.users[u].checksum, b.users[u].checksum)
                << "subframe " << i << " user " << u;
            EXPECT_EQ(a.users[u].crc_ok, b.users[u].crc_ok);
        }
        users_seen += a.users.size();
    }
    EXPECT_GT(users_seen, 0u);
}

TEST(StreamingFactory, MakesStreamingEngine)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    auto engine = make_engine(cfg);
    EXPECT_STREQ(engine->name(), "streaming");
    ASSERT_NE(engine->worker_pool(), nullptr);
    EXPECT_EQ(engine->worker_pool()->n_workers(), 2u);
    EXPECT_STREQ(engine_kind_name(EngineKind::kStreaming), "streaming");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDropNewest),
                 "drop-newest");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDropOldest),
                 "drop-oldest");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDegrade), "degrade");
}

TEST(StreamingConfig, RejectsInvalidStreamingConfig)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.deadline_ms = -1.0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
    cfg = {};
    cfg.kind = EngineKind::kStreaming;
    cfg.admission_queue = 0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

// ---------------------------------------------------------- overload

TEST(StreamingOverload, AccountingBalancesUnderEveryPolicy)
{
    // The load-shedding soak: offered load far beyond capacity; every
    // arrival must be accounted for exactly once.
    const std::size_t n = 60;
    for (ShedPolicy policy :
         {ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
          ShedPolicy::kDegrade}) {
        EngineConfig cfg = overload_config(policy);
        cfg.obs.metrics_enabled = true;
        auto engine = make_engine(cfg);
        workload::SteadyModel model(heavy_user());
        const RunRecord record = engine->run(model, n);

        const auto &stats = as_streaming(*engine).shed_stats();
        EXPECT_EQ(stats.submitted, n) << shed_policy_name(policy);
        EXPECT_EQ(stats.shed + stats.completed, stats.submitted)
            << shed_policy_name(policy);
        EXPECT_EQ(stats.shed_queue_full + stats.shed_expired, stats.shed)
            << shed_policy_name(policy);
        EXPECT_GT(stats.shed, 0u)
            << shed_policy_name(policy)
            << ": 20x overload should force shedding";
        EXPECT_GT(stats.completed, 0u) << shed_policy_name(policy);
        EXPECT_EQ(record.subframes.size(), stats.completed)
            << shed_policy_name(policy);

        // The same invariant must be visible through the metrics
        // registry (metrics without tracing — the accounting bugfix).
        ASSERT_EQ(engine->tracer(), nullptr);
        ASSERT_NE(engine->metrics(), nullptr);
        auto &m = *engine->metrics();
        EXPECT_EQ(m.counter("engine.submitted").value(), stats.submitted);
        EXPECT_EQ(m.counter("engine.shed").value(), stats.shed);
        EXPECT_EQ(m.counter("engine.completed").value(), stats.completed);
        EXPECT_EQ(m.counter("engine.degraded").value(), stats.degraded);
    }
}

double measured_service_ms(); // defined below

TEST(StreamingOverload, LatencyStaysBoundedByDeadline)
{
    // With shedding on, no completed subframe can have waited past the
    // deadline for admission, so admission-to-completion latency is
    // bounded by deadline_ms plus the in-flight drain time.
    const double service_ms = measured_service_ms();
    const std::size_t n = 80;
    EngineConfig cfg = overload_config(ShedPolicy::kDropOldest);
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const obs::SubframeSeries *series = engine->subframe_series();
    ASSERT_NE(series, nullptr);
    ASSERT_GT(series->size(), 0u);
    std::vector<double> latencies;
    latencies.reserve(series->size());
    for (std::size_t i = 0; i < series->size(); ++i)
        latencies.push_back(series->at(i).latency_ms());
    std::sort(latencies.begin(), latencies.end());
    const double p99 =
        latencies[static_cast<std::size_t>(
            0.99 * static_cast<double>(latencies.size() - 1))];
    // Queue wait is capped at deadline_ms by the expiry check; the
    // rest is draining the jobs already in flight, at worst
    // max_in_flight serial service times on a single core.  The bound
    // scales with the measured service time so it holds on slow or
    // sanitized builds, with a 2x margin + 5 ms for scheduling noise.
    const double bound =
        cfg.deadline_ms +
        2.0 * static_cast<double>(cfg.max_in_flight) * service_ms + 5.0;
    EXPECT_LT(p99, bound)
        << "service " << service_ms << " ms, max_in_flight "
        << cfg.max_in_flight;

    // Un-shed load under the same pressure has unbounded queueing; the
    // controller must have intervened for the bound above to mean
    // anything.
    EXPECT_GT(as_streaming(*engine).shed_stats().shed, 0u);
}

/** Measure the serial per-subframe service time for the heavy user so
 *  overload tests can pick a deadline relative to this machine's real
 *  speed instead of a hard-coded guess. */
double
measured_service_ms()
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kSerial;
    cfg.input.pool_size = 2;
    auto engine = make_engine(cfg);
    phy::SubframeParams sf;
    sf.subframe_index = 0;
    sf.users.push_back(heavy_user());
    engine->process_subframe(sf); // warm-up: arenas, FFT plans
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; ++i)
        engine->process_subframe(sf);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           4.0;
}

TEST(StreamingOverload, DegradePolicyFallsBackToDegradedChain)
{
    // Under kDegrade, subframes that burned over half their deadline
    // waiting are processed with MRC + turbo pass-through instead of
    // being dropped outright.
    //
    // The deadline must straddle the queueing delay for the degrade
    // window to ever be hit at an admission opportunity, so calibrate
    // it from the measured service time s.  Admissions happen at the
    // completion spacing, which lies in [s/2, s] with two workers, so
    // front-of-queue ages sweep roughly [s/2, 4s] for a 4-deep ring.
    // A deadline of 3s puts the degrade window (1.5s, 3s] inside that
    // sweep for any parallel efficiency.
    const double service_ms = measured_service_ms();
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDegrade);
    cfg.pool.n_workers = 2;
    cfg.max_in_flight = 2; // pinned: the env matrix shifts the ages
    cfg.admission_queue = 4;
    cfg.deadline_ms = 3.0 * service_ms;
    cfg.obs.metrics_enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const auto &stats = as_streaming(*engine).shed_stats();
    EXPECT_GT(stats.degraded, 0u)
        << "sustained overload should push jobs past half deadline "
        << "(service " << service_ms << " ms, deadline "
        << cfg.deadline_ms << " ms)";
    EXPECT_GT(stats.completed, 0u);
    EXPECT_EQ(stats.shed + stats.completed, stats.submitted);
}

TEST(StreamingOverload, DegradedResultsDifferButRemainDeterministic)
{
    // The degraded chain is a different receiver (MRC weights), so its
    // checksums differ from the MMSE chain — but deterministically so.
    // MRC only diverges when there is inter-layer interference to
    // ignore, so this needs a multi-layer user (single-layer MRC and
    // MMSE coincide after bias correction).
    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    auto run_degraded = [&cfg](bool degraded) {
        auto engine = make_engine(cfg);
        phy::SubframeParams params;
        params.subframe_index = 0;
        params.users.push_back(heavy_user());
        // Reach the degraded path via a direct processor, mirroring
        // what SubframeJob::set_degraded() does per user.
        auto &input = engine->input();
        const auto signals = input.signals_for(params);
        phy::UserProcessor proc(cfg.receiver);
        proc.set_degraded(degraded);
        proc.bind(params.users.at(0), signals.at(0));
        return proc.process_all().checksum;
    };
    const std::uint64_t mmse_a = run_degraded(false);
    const std::uint64_t mmse_b = run_degraded(false);
    const std::uint64_t mrc_a = run_degraded(true);
    const std::uint64_t mrc_b = run_degraded(true);
    EXPECT_EQ(mmse_a, mmse_b);
    EXPECT_EQ(mrc_a, mrc_b);
    EXPECT_NE(mmse_a, mrc_a);
}

// ------------------------------------------------------------- paced

TEST(StreamingPaced, CompletionFeedbackPrecedesNextTick)
{
    // The paced loops wait for "next tick or a completion", so a
    // 6-PRB subframe is fed back a fraction of a millisecond after its
    // tick.  A loop that sleeps to tick i + 1 before reaping can never
    // feed subframe i back earlier; this one fails only if every
    // subframe takes longer than a whole 20 ms period.
    constexpr double kDeltaMs = 20.0;
    constexpr std::size_t kN = 20;
    using clock = std::chrono::steady_clock;

    for (EngineKind kind :
         {EngineKind::kStreaming, EngineKind::kWorkStealing}) {
        SCOPED_TRACE(engine_kind_name(kind));
        FeedbackTimes sink;
        sink.stamps.reserve(kN);
        EngineConfig cfg = paced_config(kind, kDeltaMs);
        cfg.feedback = &sink;
        auto engine = make_engine(cfg);
        workload::SteadyModel model(small_user());
        const auto t_before = clock::now();
        engine->run(model, kN);
        ASSERT_EQ(sink.stamps.size(), kN);
        EXPECT_TRUE(fed_back_before_next_tick(sink, t_before, kDeltaMs, kN));
    }

    SCOPED_TRACE("two-lane multi-cell");
    FeedbackTimes sink;
    sink.stamps.reserve(2 * kN);
    MultiCellConfig cfg;
    cfg.n_cells = 2;
    cfg.engine = paced_config(EngineKind::kStreaming, kDeltaMs);
    cfg.engine.feedback = &sink;
    MultiCellEngine engine(cfg);
    std::vector<workload::SteadyModel> models(
        2, workload::SteadyModel(small_user()));
    const auto t_before = clock::now();
    engine.run({&models[0], &models[1]}, kN);
    ASSERT_EQ(sink.stamps.size(), 2 * kN);
    EXPECT_TRUE(fed_back_before_next_tick(sink, t_before, kDeltaMs, kN));
}

// --------------------------------------------------------------- obs

/** Every sample in @p series completed no earlier than it arrived and
 *  no later than the feedback for it fired (both on the obs clock). */
void
expect_completion_between_arrival_and_feedback(
    const obs::SubframeSeries &series, const FeedbackTimes &sink)
{
    ASSERT_EQ(series.size(), sink.stamps.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        const obs::SubframeSample &sample = series.at(i);
        const FeedbackTimes::Stamp *fed =
            sink.find(sample.cell_id, sample.subframe_index);
        ASSERT_NE(fed, nullptr) << "subframe " << sample.subframe_index;
        EXPECT_LE(sample.t_dispatch_ns, sample.t_complete_ns)
            << "cell " << sample.cell_id << " subframe "
            << sample.subframe_index;
        EXPECT_LE(sample.t_complete_ns, fed->obs_ns)
            << "cell " << sample.cell_id << " subframe "
            << sample.subframe_index;
    }
}

TEST(StreamingObs, CompletionIsStampedByTheFinishingWorker)
{
    // A sample's completion time is when its last worker finished, not
    // when the dispatch thread reaped it: it lies between the arrival
    // and the feedback callback, in every engine that pipelines.
    constexpr double kDeltaMs = 2.0;
    constexpr std::size_t kN = 20;
    for (EngineKind kind :
         {EngineKind::kStreaming, EngineKind::kWorkStealing}) {
        SCOPED_TRACE(engine_kind_name(kind));
        FeedbackTimes sink;
        sink.stamps.reserve(kN);
        EngineConfig cfg = paced_config(kind, kDeltaMs);
        cfg.obs.enabled = true;
        cfg.feedback = &sink;
        auto engine = make_engine(cfg);
        sink.tracer = engine->tracer();
        workload::SteadyModel model(heavy_user());
        engine->run(model, kN);
        ASSERT_NE(engine->subframe_series(), nullptr);
        expect_completion_between_arrival_and_feedback(
            *engine->subframe_series(), sink);
    }

    SCOPED_TRACE("two-lane multi-cell");
    FeedbackTimes sink;
    sink.stamps.reserve(2 * kN);
    MultiCellConfig cfg;
    cfg.n_cells = 2;
    cfg.engine = paced_config(EngineKind::kStreaming, kDeltaMs);
    cfg.engine.obs.enabled = true;
    cfg.engine.feedback = &sink;
    MultiCellEngine engine(cfg);
    sink.tracer = engine.tracer();
    workload::SteadyModel heavy(heavy_user());
    workload::SteadyModel light(small_user());
    engine.run({&heavy, &light}, kN);
    ASSERT_NE(engine.subframe_series(), nullptr);
    expect_completion_between_arrival_and_feedback(
        *engine.subframe_series(), sink);
}


TEST(StreamingObs, ShedDecisionsAreTraced)
{
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDropNewest);
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const auto &stats = as_streaming(*engine).shed_stats();
    ASSERT_GT(stats.shed, 0u);

    ASSERT_NE(engine->tracer(), nullptr);
    const std::size_t dispatch_slot = cfg.pool.n_workers;
    std::vector<obs::TraceEvent> events;
    engine->tracer()->slot(dispatch_slot).snapshot(events);
    std::size_t shed_spans = 0;
    for (const auto &e : events)
        shed_spans += e.kind == obs::SpanKind::kShed;
    EXPECT_EQ(shed_spans, stats.shed);
}

TEST(StreamingObs, BacklogAwareEstimatorSeesQueueDepth)
{
    // With an estimator installed and a NAP+IDLE policy, the streaming
    // engine feeds the admission backlog into Eq. 4, so sustained
    // overload must produce backlog-boosted estimates.
    mgmt::CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 0.0005 * l);
    }
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDropOldest);
    cfg.proactive = true;
    cfg.pool.reactive_idle = true;
    auto engine = make_engine(cfg);
    engine->set_estimator(mgmt::WorkloadEstimator(table));
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    // The estimator is consumed by set_estimator; observe its effect
    // through a fresh estimator fed the same shapes.
    mgmt::WorkloadEstimator probe{table};
    phy::SubframeParams sf;
    sf.users.push_back(heavy_user());
    const double base = probe.estimate_subframe(sf);
    const double queued = probe.estimate_subframe(sf, 3);
    EXPECT_GT(queued, base);
    EXPECT_EQ(probe.stats().backlog_boosts, 1u);
}

TEST(StreamingObs, EstimateIsRecordedWithoutProactiveStrategy)
{
    // With an estimator installed but a non-proactive policy (NONAP),
    // both parallel engines still record the Eq. 4 estimate in the
    // series (-1 marks "no estimator" only) and leave every worker
    // active.
    mgmt::CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 0.0005 * l);
    }
    for (EngineKind kind :
         {EngineKind::kStreaming, EngineKind::kWorkStealing}) {
        SCOPED_TRACE(engine_kind_name(kind));
        EngineConfig cfg = parity_config(kind);
        cfg.obs.enabled = true;
        auto engine = make_engine(cfg);
        engine->set_estimator(mgmt::WorkloadEstimator(table));

        mgmt::WorkloadEstimator probe{table};
        probe.set_decode_pricing(mgmt::decode_pricing_for(cfg.receiver));
        phy::SubframeParams sf;
        sf.users.push_back(heavy_user());
        for (std::uint64_t i = 0; i < 3; ++i) {
            sf.subframe_index = i;
            engine->process_subframe(sf);
        }

        const obs::SubframeSeries *series = engine->subframe_series();
        ASSERT_NE(series, nullptr);
        ASSERT_EQ(series->size(), 3u);
        const double expected = probe.estimate_subframe(sf, 0);
        EXPECT_GT(expected, 0.0);
        for (std::size_t i = 0; i < series->size(); ++i)
            EXPECT_EQ(series->at(i).est_activity, expected)
                << "subframe " << i;
        EXPECT_EQ(engine->worker_pool()->active_workers(),
                  cfg.pool.n_workers);
    }
}

} // namespace
} // namespace lte::runtime
