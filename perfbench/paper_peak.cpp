/**
 * @file
 * Workload paper_peak: the paper's Fig. 6 input model held at its
 * maximum-load point (prob_min = prob_max = 1: every user 4 layers,
 * 64QAM), random-IQ pools, pass-through decode, on the single-cell
 * streaming engine with inline input.  The front-end DSP (chanest,
 * weights, demod) does almost all the work and nothing is decoded.
 *
 * Phases: a lossless free-running closed loop (deadline 0,
 * backpressure) for throughput, then an open loop paced at
 * kPeriodMs with a deadline of kDeadlinePeriods periods.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "fft/fft.hpp"
#include "phy/params.hpp"
#include "replay.hpp"
#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

/** Workers of the pool; with the dispatch thread, 4 threads. */
constexpr std::size_t kWorkers = 3;
/** Random-IQ data sets per PRB count.  The paper uses ten; two keeps
 *  the pools (one per PRB count, 2..200) near 200 MB. */
constexpr std::size_t kPoolSize = 2;
constexpr std::size_t kMaxInFlight = 3;
/** Paced arrival period (recorded in BENCHMARK.json): about half the
 *  lossless capacity of the commit that introduced the benchmark.
 *  The inline engine sees completions only at arrival ticks, so
 *  latency is a whole number of periods; at higher load the tick a
 *  subframe completes on moved with the host's speed (README.md). */
constexpr double kPeriodMs = 10.5;
/** The paper keeps two to three subframes in flight. */
constexpr double kDeadlinePeriods = 3.0;
/** Windows of the paced phase; latency_p99_ms is the median of their
 *  99th percentiles (see turbo_mac.cpp). */
constexpr std::size_t kWindows = 5;
/** Lossless capacity when the benchmark was introduced; sizes the
 *  lossless phase to its share of --seconds. */
constexpr double kNominalSfPerS = 190.0;
constexpr double kLosslessShare = 0.4;
/** Engine runs the lossless phase is split into. */
constexpr std::size_t kChunks = 8;
/** Subframes checked against the serial reference engine. */
constexpr std::size_t kSerialPrefix = 40;
/** Subframes replayed stage by stage in the traced run. */
constexpr std::size_t kReplaySubframes = 60;
/** Max-load subframes every engine runs during set-up.  Besides
 *  growing every pooled job's arenas, the run leaves all CPUs busy
 *  right before timing starts: on virtual hosts, CPUs idle for a few
 *  seconds run slowly for about a second after waking. */
constexpr std::size_t kWarmSubframes = 64;
/** Engine set-ups per phase (setup_s is their median). */
constexpr int kSetupReps = 2;

workload::PaperModelConfig
model_config(std::uint64_t seed)
{
    workload::PaperModelConfig cfg;
    cfg.prob_min = 1.0;
    cfg.prob_max = 1.0;
    cfg.seed = seed;
    return cfg;
}

std::vector<phy::SubframeParams>
draw(std::uint64_t seed, std::size_t n)
{
    workload::PaperModel model(model_config(seed));
    std::vector<phy::SubframeParams> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(model.next_subframe());
    return out;
}

runtime::EngineConfig
engine_config(std::uint64_t seed, std::size_t workers, bool paced,
              runtime::SubframeFeedbackSink *sink)
{
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = workers;
    cfg.input.pool_size = kPoolSize;
    cfg.input.seed = seed;
    cfg.max_in_flight = kMaxInFlight;
    cfg.feedback = sink;
    if (paced) {
        cfg.delta_ms = kPeriodMs;
        cfg.deadline_ms = kDeadlinePeriods * kPeriodMs;
    }
    return cfg;
}

/**
 * Construct an engine and do all its lazy warm-up: FFT plans and
 * random-IQ pools for every PRB count in @p prbs, and a run of @p warm
 * through the pipeline (arenas, per-thread scratch).  Every pool
 * cursor is then cycled back to its start, so the engine hands out
 * inputs exactly as a fresh serial engine would (the digest check
 * depends on it).
 */
std::unique_ptr<runtime::Engine>
build_engine(const runtime::EngineConfig &cfg,
             const std::set<std::uint32_t> &prbs,
             const std::vector<phy::SubframeParams> &warm)
{
    auto engine = runtime::make_engine(cfg);
    for (std::uint32_t prb : prbs)
        fft::FftCache::instance().plan(prb * kScPerPrb);

    std::map<std::uint32_t, std::size_t> requests;
    for (std::uint32_t prb : prbs)
        requests[prb] = 0;
    for (const phy::SubframeParams &sf : warm)
        for (const phy::UserParams &user : sf.users)
            ++requests[user.prb];
    phy::SubframeParams one;
    one.users.resize(1);
    std::vector<const phy::UserSignal *> signals;
    for (const auto &[prb, n] : requests) {
        one.users[0].prb = prb;
        std::size_t extra =
            n == 0 ? kPoolSize : (kPoolSize - n % kPoolSize) % kPoolSize;
        while (extra-- > 0)
            engine->input().signals_for(one, signals);
    }
    ListModel model(warm);
    engine->run(model, warm.size());
    return engine;
}

std::set<std::uint32_t>
prb_set(const std::vector<phy::SubframeParams> &stream)
{
    std::set<std::uint32_t> prbs;
    for (const phy::SubframeParams &sf : stream)
        for (const phy::UserParams &user : sf.users)
            prbs.insert(user.prb);
    return prbs;
}

} // namespace

Report
run_paper_peak(const Args &args, SpanLog &spans)
{
    Report report;
    const std::int64_t root = spans.open("workload.paper_peak");
    const std::size_t cpus = usable_cpus();
    const std::size_t workers =
        std::clamp<std::size_t>(cpus - 1, 1, kWorkers);
    const std::size_t n_lossless =
        sized(args.seconds, kLosslessShare, kNominalSfPerS, 200) /
        kChunks * kChunks;
    const std::size_t n_paced =
        sized(args.seconds, 1.0 - kLosslessShare, 1e3 / kPeriodMs, 1000);
    const double deadline_ms = kDeadlinePeriods * kPeriodMs;
    info("paper_peak: workers=" + std::to_string(workers) +
         " lossless=" + std::to_string(n_lossless) +
         " paced=" + std::to_string(n_paced) + " period_ms=" +
         std::to_string(kPeriodMs));

    const std::vector<phy::SubframeParams> stream =
        draw(args.seed, std::max(n_lossless, n_paced));
    const std::vector<phy::SubframeParams> warm =
        draw(args.seed ^ 0x5eedf00dULL, kWarmSubframes);
    std::set<std::uint32_t> warm_prbs = prb_set(stream);
    for (std::uint32_t prb : prb_set(warm))
        warm_prbs.insert(prb);

    std::vector<double> setup_s;
    const auto set_up = [&](const runtime::EngineConfig &cfg) {
        std::unique_ptr<runtime::Engine> engine;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            engine.reset();
            const std::int64_t span = spans.open("setup", root);
            const std::uint64_t t0 = now_ns();
            engine = build_engine(cfg, warm_prbs, warm);
            setup_s.push_back(seconds_since(t0));
            spans.close(span);
        }
        report.check(live_threads() <= cpus,
                     "paper_peak starts more threads than usable CPUs");
        return engine;
    };

    // ---- lossless free-running phase -------------------------------
    StampingSink sink(1, spans);
    double throughput = 0.0;
    double serial_ms = 0.0; // traced runs only
    runtime::RunRecord lossless;
    std::uint64_t cold_keys = 0;
    {
        auto engine = set_up(engine_config(args.seed, workers, false, &sink));
        // The lossless phase runs the stream in kChunks engine runs;
        // its throughput is the median over the runs, which keeps a
        // transient slowdown of the host out of the figure.
        const std::size_t chunk_n = n_lossless / kChunks;
        const auto lossless_phase = [&](const char *name) {
            workload::PaperModel model(model_config(args.seed));
            StampedModel stamped(model, 0, random_input_key, spans);
            for (std::uint32_t prb : warm_prbs)
                stamped.warm(prb);
            stamped.set_counting(true);
            const std::int64_t span = spans.open(name, root);
            stamped.begin_phase(n_lossless, span);
            sink.begin_phase(n_lossless, span);
            runtime::RunRecord all;
            std::vector<double> rates;
            double busy = 0.0;
            for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
                const std::size_t n = chunk_n;
                const std::uint64_t t0 = now_ns();
                runtime::RunRecord record = engine->run(stamped, n);
                const double wall = seconds_since(t0);
                rates.push_back(static_cast<double>(n) / wall);
                const auto &shed =
                    dynamic_cast<runtime::StreamingEngine &>(*engine)
                        .shed_stats();
                report.check(record.subframes.size() == n &&
                                 shed.completed == n && shed.shed == 0,
                             "lossless phase lost or shed a subframe");
                all.subframes.insert(all.subframes.end(),
                                     record.subframes.begin(),
                                     record.subframes.end());
                all.wall_seconds += record.wall_seconds;
                all.total_ops += record.total_ops;
                all.steals += record.steals;
                busy += record.activity * record.wall_seconds;
            }
            spans.close(span);
            all.activity = busy / all.wall_seconds;
            report.check(sink.stray() == 0,
                         "lossless phase: feedback for an unknown subframe");
            report.check(stamped.indices_sequential(),
                         "model subframe indices are not sequential");
            cold_keys += stamped.cold_keys();
            info(std::string("paper_peak: ") + name + " chunk rates" +
                 format_list(rates));
            return std::make_pair(std::move(all), median(rates));
        };

        const bool tracing = spans.enabled();
        spans.set_enabled(false);
        auto [record, rate] = lossless_phase("lossless");
        spans.set_enabled(tracing);
        throughput = rate;
        lossless = std::move(record);
        if (args.trace) {
            auto traced = lossless_phase("lossless.traced");
            report.add("obs.trace_overhead_frac",
                       1.0 - traced.second / throughput, "frac");
            const std::int64_t span = spans.open("phy.serial_replay", root);
            serial_ms = replay_phy_stages(
                std::vector<phy::SubframeParams>(
                    stream.begin(),
                    stream.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(kReplaySubframes,
                                                  stream.size()))),
                [&](std::uint32_t) -> runtime::InputGenerator & {
                    return engine->input();
                },
                engine->config().receiver, spans, span, report);
            spans.close(span);
        }
    }

    // ---- paced open-loop phase -------------------------------------
    PacedTally tally;
    runtime::ShedStats shed;
    double paced_wall = 0.0;
    double paced_activity = 0.0;
    std::uint64_t lag_cold = 0;
    {
        auto engine = set_up(engine_config(args.seed, workers, true, &sink));
        workload::PaperModel model(model_config(args.seed));
        StampedModel stamped(model, 0, random_input_key, spans);
        for (std::uint32_t prb : warm_prbs)
            stamped.warm(prb);
        stamped.set_counting(true);
        const std::int64_t span = spans.open("paced", root);
        stamped.begin_phase(n_paced, span);
        sink.begin_phase(n_paced, span);
        const std::uint64_t t0 = now_ns();
        const runtime::RunRecord record = engine->run(stamped, n_paced);
        paced_wall = seconds_since(t0);
        spans.close(span);
        shed = dynamic_cast<runtime::StreamingEngine &>(*engine).shed_stats();
        paced_activity = record.activity;
        tally = tally_paced({&stamped}, sink, t0, kPeriodMs, deadline_ms);
        report.check(shed.submitted == n_paced &&
                         shed.shed + shed.completed == shed.submitted,
                     "paced phase: shed + completed != submitted");
        report.check(tally.unresolved == 0 && sink.stray() == 0 &&
                         tally.completed == record.subframes.size(),
                     "paced phase: a subframe was never resolved");
        lag_cold = stamped.cold_keys();
    }
    cold_keys += lag_cold;

    // ---- output check: the lossless prefix equals the serial engine --
    // (after the timed phases: it leaves all but one CPU idle)
    std::uint64_t wrong = 0;
    {
        const std::int64_t span = spans.open("check.serial", root);
        runtime::EngineConfig cfg =
            engine_config(args.seed, 1, false, nullptr);
        cfg.kind = runtime::EngineKind::kSerial;
        auto serial = runtime::make_engine(cfg);
        const std::size_t n = std::min(kSerialPrefix, n_lossless);
        ListModel prefix(std::vector<phy::SubframeParams>(
            stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(n)));
        const runtime::RunRecord reference = serial->run(prefix, n);
        runtime::RunRecord head;
        head.subframes.assign(
            lossless.subframes.begin(),
            lossless.subframes.begin() + static_cast<std::ptrdiff_t>(n));
        std::string why;
        report.check(runtime::RunRecord::equivalent(head, reference, &why),
                     "lossless digest differs from the serial engine on "
                     "the first " + std::to_string(n) +
                         " subframes: " + why);
        for (std::size_t k = 0; k < std::min(n, head.subframes.size());
             ++k) {
            runtime::RunRecord a;
            runtime::RunRecord b;
            a.subframes.push_back(head.subframes[k]);
            b.subframes.push_back(reference.subframes[k]);
            wrong += !runtime::RunRecord::equivalent(a, b);
        }
        spans.close(span);
    }

    const std::uint64_t misses = tally.shed + tally.late;
    report.attempted = n_lossless + n_paced;
    report.failed = wrong + tally.unresolved +
                    (n_lossless - lossless.subframes.size());

    // Received bits of every subframe completed within its deadline,
    // per second of air time (one subframe = 1 ms).
    double on_time_bits = 0.0;
    for (std::size_t k = 0; k < tally.on_time[0].size(); ++k) {
        if (tally.on_time[0][k] == 0)
            continue;
        for (const phy::UserParams &user : stream[k].users)
            on_time_bits += static_cast<double>(phy::capacity_bits(user));
    }

    std::vector<double> latency = tally.latency_ms;
    const double p50 = quantile(latency, 0.50);
    const double p99 = windowed_quantile(tally, n_paced, kWindows, 0.99);
    info("paper_peak: lossless " + std::to_string(throughput) +
         " sf/s activity " + std::to_string(lossless.activity) +
         "; paced completed " + std::to_string(tally.completed) +
         " shed " + std::to_string(tally.shed) + " late " +
         std::to_string(tally.late) + " p50 " + std::to_string(p50) +
         " ms p99 " + std::to_string(p99) + " ms");

    if (!args.trace) {
        report.add("setup_s", median(setup_s), "s");
        report.add("throughput_sf_per_s", throughput, "1/s");
        report.add("latency_p50_ms", p50, "ms");
        report.add("latency_p99_ms", p99, "ms");
        report.add("goodput_mbps",
                   on_time_bits / static_cast<double>(n_paced) / 1e3,
                   "Mb/s");
        report.add("energy_mj_per_subframe",
                   energy_mj_per_subframe(paced_wall, paced_activity,
                                          workers, n_paced),
                   "mJ");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        const double completed =
            static_cast<double>(lossless.subframes.size());
        report.add("runtime.pool.activity", lossless.activity, "frac");
        report.add("runtime.pool.steals_per_sf",
                   static_cast<double>(lossless.steals) / completed,
                   "count");
        report.add("runtime.speedup_vs_serial",
                   throughput * serial_ms * 1e-3, "x");
        report.add("runtime.gops",
                   static_cast<double>(lossless.total_ops) /
                       lossless.wall_seconds * 1e-9,
                   "Gop/s");
        report.add("miss_frac",
                   static_cast<double>(misses) /
                       static_cast<double>(tally.submitted),
                   "frac");
        const double submitted = static_cast<double>(shed.submitted);
        report.add("runtime.admission.shed_frac",
                   static_cast<double>(shed.shed) / submitted, "frac");
        report.add("runtime.admission.expired_frac",
                   static_cast<double>(shed.shed_expired) / submitted,
                   "frac");
        report.add("runtime.admission.degraded_frac",
                   static_cast<double>(shed.degraded) / submitted, "frac");
        report.add("runtime.admission.dispatch_lag_p99_ms",
                   quantile(tally.lag_ms, 0.99), "ms");
        report.add("runtime.input.cold_keys",
                   static_cast<double>(cold_keys), "count");
        double users = 0.0;
        double prbs = 0.0;
        for (std::size_t k = 0; k < n_lossless; ++k) {
            users += static_cast<double>(stream[k].users.size());
            prbs += static_cast<double>(stream[k].total_prb());
        }
        report.add("workload.users_per_sf",
                   users / static_cast<double>(n_lossless), "count");
        report.add("workload.prb_per_sf",
                   prbs / static_cast<double>(n_lossless), "count");
    }
    spans.close(root);
    return report;
}

} // namespace perfbench
