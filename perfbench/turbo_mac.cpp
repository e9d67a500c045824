/**
 * @file
 * Workload turbo_mac_4cell: four cells on one MultiCellEngine sharing
 * a two-worker pool, each cell driven by its own proportional-fair
 * MacScheduler through GrantModel, feedback routed back through
 * FeedbackRouter, realistic transmit-chain signals decoded by the real
 * turbo decoder, input offloaded to the sample plane's one shared
 * producer thread, and the degrade shed policy under overload.
 *
 * Traffic keeps every grant the same size: each cell's UEs are always
 * backlogged (arrivals far above capacity) and every grant is capped
 * at kPrbPerGrant, so a TTI carries kUsersPerTti grants of
 * kPrbPerGrant PRBs.  The sample plane holds at most kFrames TTIs per
 * cell between draw and completion, fewer than a UE's HARQ processes,
 * so no UE ever stalls on HARQ and the grant shapes do not depend on
 * feedback timing.  The UE population is small (the realistic-signal
 * cache keys on user id, so a large one would synthesise signals on
 * the hot path) and set-up synthesises the signal of every full-size
 * grant, so the timed phases synthesise input only for the rare UE
 * whose backlog is briefly too short for one (runtime.input.cold_keys).
 */
#include <algorithm>
#include <array>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "mac/grant_model.hpp"
#include "mac/mcs.hpp"
#include "mac/scheduler.hpp"
#include "replay.hpp"
#include "runtime/multicell.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

constexpr std::size_t kCells = 4;
/** Pool workers; with the dispatch and producer threads, 4 threads. */
constexpr std::size_t kWorkers = 2;
/** UEs per cell; the scheduler grants kUsersPerTti of them a TTI.
 *  Each UE's signal is one fixed channel realisation, so many UEs keep
 *  the work from depending on a few lucky or unlucky ones. */
constexpr std::uint32_t kUesPerCell = 200;
constexpr std::uint32_t kUsersPerTti = 10;
/** A PRB-ladder rung; kUsersPerTti grants of it fit the 200-PRB
 *  carrier. */
constexpr std::uint32_t kPrbPerGrant = 16;
/** Bursts per TTI per cell: several times what a cell can carry. */
constexpr double kArrivalRate = 60.0;
/** Sample-plane frames per cell (< the 8 HARQ processes per UE). */
constexpr std::size_t kFrames = 8;
/** Channel SNR of the realistic signals: high enough that most blocks
 *  decode (a block that fails keeps failing, since a retransmission
 *  repeats its signal, and which ones fail depends on the seed), low
 *  enough that decoding takes more than one iteration and is the
 *  largest stage. */
constexpr double kSnrDb = 17.0;
/** Paced tick period (every tick brings one subframe per cell,
 *  recorded in BENCHMARK.json): 50-65% of the lossless capacity of
 *  the commit that introduced the benchmark, below which the tail
 *  latency stops following the host's speed swings. */
constexpr double kPeriodMs = 30.0;
constexpr double kDeadlinePeriods = 3.0;
/** Windows of the paced phase; latency_p99_ms is the median of their
 *  99th percentiles, so host stalls that hit up to two windows do not
 *  move it. */
constexpr std::size_t kWindows = 5;
/** Lossless ticks per second when the benchmark was introduced. */
constexpr double kNominalTicksPerS = 61.0;
constexpr double kLosslessShare = 0.4;
/** Engine runs the lossless phase is split into; its throughput is
 *  their median. */
constexpr std::size_t kChunks = 8;
/** MAC TTIs run with modelled feedback during set-up, so queues are
 *  backlogged when the engine first draws grants. */
constexpr std::size_t kMacWarmTtis = 64;
/** Ticks of the closed loop every engine runs during set-up (arenas
 *  of every pooled job; see also paper_peak.cpp on idle CPUs). */
constexpr std::size_t kWarmTicks = 24;
/** Ticks replayed stage by stage in the traced run. */
constexpr std::size_t kReplayTicks = 30;
constexpr int kSetupReps = 2;

/** Seed of the UE populations.  A population (each UE's layer count
 *  and channel mean) sets how much work a TTI carries, so it is part
 *  of the workload's definition and fixed; --seed draws the signals
 *  (payloads and noise). */
constexpr std::uint64_t kPopulationSeed = 2012;
/** Every grant's MCS (64QAM): link adaptation is off, so each UE's
 *  modulation, and the work its grants carry, stays fixed. */
constexpr std::uint8_t kMcs = 6;

mac::MacConfig
mac_config(std::uint32_t cell_id)
{
    mac::MacConfig cfg;
    cfg.cell_id = cell_id;
    cfg.seed = cell_stream_seed(kPopulationSeed, cell_id);
    cfg.n_ues = kUesPerCell;
    cfg.policy = mac::SchedulerPolicy::kProportionalFair;
    cfg.arrival_rate = kArrivalRate;
    cfg.max_users_per_tti = kUsersPerTti;
    cfg.max_prb_per_grant = kPrbPerGrant;
    cfg.adapt = false;
    cfg.fixed_mcs = kMcs;
    return cfg;
}

runtime::MultiCellConfig
engine_config(std::uint64_t seed, std::size_t workers, bool paced,
              runtime::SubframeFeedbackSink *sink)
{
    runtime::MultiCellConfig cfg;
    cfg.n_cells = kCells;
    runtime::EngineConfig &e = cfg.engine;
    e.kind = runtime::EngineKind::kStreaming;
    e.pool.n_workers = workers;
    e.receiver.use_real_turbo = true;
    e.input.realistic = true;
    e.input.real_turbo = true;
    e.input.snr_db = kSnrDb;
    e.input.seed = seed;
    e.io.enabled = true;
    e.io.n_frames = kFrames;
    e.shed_policy = runtime::ShedPolicy::kDegrade;
    e.feedback = sink;
    if (paced) {
        e.delta_ms = kPeriodMs;
        e.deadline_ms = kDeadlinePeriods * kPeriodMs;
    }
    return cfg;
}

/** One phase's engine, MACs and grant models. */
struct Loop
{
    std::vector<std::unique_ptr<mac::MacScheduler>> macs;
    std::vector<std::unique_ptr<mac::GrantModel>> grants;
    mac::FeedbackRouter router;
    std::unique_ptr<runtime::MultiCellEngine> engine;
    /** Input keys synthesised during set-up, per cell. */
    std::array<std::set<std::uint64_t>, kCells> warm_keys;
};

/**
 * Build one phase's loop and do all its lazy warm-up: backlog every
 * MAC, synthesise the realistic signal of every full-size grant (the
 * UE's layer count, kPrbPerGrant PRBs, kMcs's modulation), and run the
 * closed loop for kWarmTicks (arenas, turbo interleavers, FFT plans,
 * per-thread scratch).
 */
std::unique_ptr<Loop>
build_loop(const runtime::MultiCellConfig &cfg, StampingSink &sink)
{
    auto loop = std::make_unique<Loop>();
    std::array<std::vector<phy::UserParams>, kCells> shapes;
    for (std::size_t c = 0; c < kCells; ++c) {
        const auto cell_id = static_cast<std::uint32_t>(c + 1);
        loop->macs.push_back(
            std::make_unique<mac::MacScheduler>(mac_config(cell_id)));
        mac::MacScheduler &sched = *loop->macs.back();
        loop->grants.push_back(std::make_unique<mac::GrantModel>(sched));
        loop->router.attach(cell_id, sched);

        // Backlog the queues with modelled feedback, learning each
        // UE's layer count from its grants.
        std::array<std::uint8_t, kUesPerCell + 1> layers{};
        phy::SubframeParams sf;
        runtime::SubframeOutcome outcome;
        for (std::size_t t = 0; t < kMacWarmTtis; ++t) {
            sched.next_tti_into(sf);
            outcome.subframe_index = sf.subframe_index;
            outcome.cell_id = sf.cell_id;
            outcome.users.clear();
            for (const phy::UserParams &user : sf.users) {
                if (user.id <= kUesPerCell)
                    layers[user.id] = static_cast<std::uint8_t>(user.layers);
                runtime::UserOutcome u;
                u.user_id = user.id;
                u.crc_modelled = true;
                outcome.users.push_back(u);
            }
            sched.on_subframe_complete(outcome, phy::DegradeLevel::kNone);
        }
        for (std::uint32_t id = 1; id <= kUesPerCell; ++id) {
            for (std::uint32_t l = 1; l <= kMaxLayers; ++l) {
                if (layers[id] != 0 && layers[id] != l)
                    continue; // a UE's layer count is fixed
                phy::UserParams user;
                user.id = id;
                user.prb = kPrbPerGrant;
                user.layers = l;
                user.mod = mac::kMcsTable[kMcs].mod;
                shapes[c].push_back(user);
            }
        }
    }

    loop->engine = std::make_unique<runtime::MultiCellEngine>(cfg);
    for (std::size_t c = 0; c < kCells; ++c) {
        phy::SubframeParams one;
        one.cell_id = static_cast<std::uint32_t>(c + 1);
        one.users.resize(1);
        std::vector<const phy::UserSignal *> signals;
        for (const phy::UserParams &user : shapes[c]) {
            one.users[0] = user;
            loop->engine->input(c).signals_for(one, signals);
            loop->warm_keys[c].insert(realistic_input_key(user));
        }
    }
    sink.set_tee(&loop->router);
    std::vector<workload::ParameterModel *> models;
    for (auto &grant : loop->grants)
        models.push_back(grant.get());
    loop->engine->run(models, kWarmTicks);
    return loop;
}

/** What one timed phase leaves behind. */
struct PhaseResult
{
    runtime::MultiCellRunRecord record;
    double wall_s = 0.0;
    std::uint64_t t0_ns = 0;
    std::uint64_t grant_ns = 0;
    std::uint64_t grant_calls = 0;
    std::uint64_t cold_keys = 0;
    std::uint64_t completed = 0; ///< cell-subframes, all cells
    double rate = 0.0;           ///< median over chunks, cell-sf/s
    mac::MacStats mac; ///< summed over cells, phase deltas
    std::vector<std::unique_ptr<StampedModel>> stamped;
};

/**
 * Every real CRC pass must carry exactly the payload the transmitter
 * encoded for that user's grant.
 */
void
check_payloads(const std::vector<runtime::SubframeOutcome> &subframes,
               const StampedModel &stamped,
               const runtime::InputGenerator &input, std::uint64_t base,
               std::uint64_t &checked, std::uint64_t &bad)
{
    for (const runtime::SubframeOutcome &sf : subframes) {
        const phy::SubframeParams &params =
            stamped.params(sf.subframe_index - base);
        for (const runtime::UserOutcome &u : sf.users) {
            if (u.crc_modelled || !u.crc_ok)
                continue;
            const auto it = std::find_if(
                params.users.begin(), params.users.end(),
                [&](const phy::UserParams &p) { return p.id == u.user_id; });
            ++checked;
            if (it == params.users.end() ||
                u.checksum != phy::bit_checksum(input.expected_bits(*it)))
                ++bad;
        }
    }
}

} // namespace

Report
run_turbo_mac_4cell(const Args &args, SpanLog &spans)
{
    Report report;
    const std::int64_t root = spans.open("workload.turbo_mac_4cell");
    const std::size_t cpus = usable_cpus();
    const std::size_t workers =
        std::clamp<std::size_t>(cpus > 2 ? cpus - 2 : 1, 1, kWorkers);
    const std::size_t n_lossless =
        sized(args.seconds, kLosslessShare, kNominalTicksPerS, 100) /
        kChunks * kChunks;
    const std::size_t n_paced = sized(
        args.seconds, 1.0 - kLosslessShare, 1e3 / kPeriodMs, 250);
    const double deadline_ms = kDeadlinePeriods * kPeriodMs;
    info("turbo_mac_4cell: workers=" + std::to_string(workers) +
         " lossless_ticks=" + std::to_string(n_lossless) +
         " paced_ticks=" + std::to_string(n_paced) +
         " period_ms=" + std::to_string(kPeriodMs));

    StampingSink sink(kCells, spans);
    std::vector<double> setup_s;
    std::uint64_t checked_users = 0;
    std::uint64_t bad_users = 0;

    // A phase of `ticks` ticks, run as `chunks` engine runs.
    const auto run_phase = [&](const char *name, bool paced,
                               std::size_t ticks, std::size_t chunks) {
        const runtime::MultiCellConfig cfg =
            engine_config(args.seed, workers, paced, &sink);
        std::unique_ptr<Loop> loop;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            loop.reset();
            const std::int64_t span = spans.open("setup", root);
            const std::uint64_t t0 = now_ns();
            loop = build_loop(cfg, sink);
            setup_s.push_back(seconds_since(t0));
            spans.close(span);
        }

        PhaseResult out;
        const std::int64_t span = spans.open(name, root);
        std::vector<workload::ParameterModel *> models;
        std::array<mac::MacStats, kCells> before;
        for (std::size_t c = 0; c < kCells; ++c)
            before[c] = loop->macs[c]->stats();
        // Every cell's MAC has drawn the same number of TTIs so far.
        const std::uint64_t base = before[0].ttis;
        for (std::size_t c = 0; c < kCells; ++c) {
            out.stamped.push_back(std::make_unique<StampedModel>(
                *loop->grants[c], c, realistic_input_key, spans));
            StampedModel &stamped = *out.stamped.back();
            for (std::uint64_t key : loop->warm_keys[c])
                stamped.warm(key);
            stamped.set_counting(true);
            stamped.begin_phase(ticks, span, base);
            models.push_back(&stamped);
        }
        sink.begin_phase(ticks, span, base);
        out.t0_ns = now_ns();
        out.record.shed.resize(kCells);
        std::vector<double> rates;
        double busy = 0.0;
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
            const std::size_t n = ticks / chunks;
            const std::uint64_t t0 = now_ns();
            runtime::MultiCellRunRecord record =
                loop->engine->run(models, n);
            const double wall = seconds_since(t0);
            std::uint64_t completed = 0;
            for (std::size_t c = 0; c < kCells; ++c) {
                const runtime::ShedStats &shed = record.shed[c];
                report.check(shed.submitted == n &&
                                 shed.shed + shed.completed ==
                                     shed.submitted,
                             std::string(name) + ": cell " +
                                 std::to_string(c + 1) +
                                 " shed + completed != submitted");
                completed += shed.completed;
                runtime::ShedStats &sum = out.record.shed[c];
                sum.submitted += shed.submitted;
                sum.completed += shed.completed;
                sum.shed += shed.shed;
                sum.shed_expired += shed.shed_expired;
                sum.degraded += shed.degraded;
                sum.io_lost += shed.io_lost;
                sum.io_late += shed.io_late;
                check_payloads(record.cells[c].subframes, *out.stamped[c],
                               loop->engine->input(c), base, checked_users,
                               bad_users);
            }
            rates.push_back(static_cast<double>(completed) / wall);
            out.completed += completed;
            out.record.wall_seconds += record.wall_seconds;
            out.record.total_ops += record.total_ops;
            out.record.steals += record.steals;
            busy += record.activity * record.wall_seconds;
        }
        out.wall_s = seconds_since(out.t0_ns);
        out.rate = median(rates);
        if (chunks > 1) {
            info(std::string("turbo_mac_4cell: ") + name + " chunk rates" +
                 format_list(rates));
        }
        out.record.activity = busy / out.record.wall_seconds;
        spans.close(span);
        report.check(live_threads() <= cpus,
                     "turbo_mac_4cell starts more threads than usable CPUs");

        for (std::size_t c = 0; c < kCells; ++c) {
            mac::MacScheduler &sched = *loop->macs[c];
            sched.finalize();
            const mac::MacStats s = sched.stats();
            const StampedModel &stamped = *out.stamped[c];
            report.check(s.conserved(),
                         std::string(name) + ": MAC of cell " +
                             std::to_string(c + 1) +
                             " does not conserve offered == delivered + "
                             "residual");
            report.check(stamped.indices_sequential() &&
                             stamped.draws() == ticks,
                         std::string(name) + ": grant indices of cell " +
                             std::to_string(c + 1) + " are not sequential");
            if (!paced) {
                report.check(out.record.shed[c].shed == 0,
                             std::string(name) + ": lossless phase shed");
            }
            out.mac.ttis += s.ttis - before[c].ttis;
            out.mac.grants += s.grants - before[c].grants;
            out.mac.retx_grants += s.retx_grants - before[c].retx_grants;
            out.mac.offered_tbs += s.offered_tbs - before[c].offered_tbs;
            out.mac.delivered_bits +=
                s.delivered_bits - before[c].delivered_bits;
            out.mac.residual_tbs += s.residual_tbs - before[c].residual_tbs;
            out.mac.real_feedback +=
                s.real_feedback - before[c].real_feedback;
            out.mac.modelled_feedback +=
                s.modelled_feedback - before[c].modelled_feedback;
            out.grant_ns += stamped.inner_ns();
            out.grant_calls += stamped.draws();
            out.cold_keys += stamped.cold_keys();
        }
        report.check(sink.stray() == 0,
                     std::string(name) + ": feedback for an unknown tick");
        return std::make_pair(std::move(out), std::move(loop));
    };

    // ---- lossless free-running phase -------------------------------
    const bool tracing = spans.enabled();
    spans.set_enabled(false);
    auto [lossless, lossless_loop] =
        run_phase("lossless", false, n_lossless, kChunks);
    spans.set_enabled(tracing);
    const double completed_l = static_cast<double>(lossless.completed);
    const double throughput = lossless.rate;
    std::uint64_t cold_keys = lossless.cold_keys;

    double users = 0.0;
    double prbs = 0.0;
    double serial_ms = 0.0; // traced runs only
    for (std::size_t c = 0; c < kCells; ++c) {
        for (std::size_t k = 0; k < n_lossless; ++k) {
            const phy::SubframeParams &p = lossless.stamped[c]->params(k);
            users += static_cast<double>(p.users.size());
            prbs += static_cast<double>(p.total_prb());
        }
    }
    if (args.trace) {
        std::vector<phy::SubframeParams> replay;
        for (std::size_t k = 0; k < std::min(kReplayTicks, n_lossless); ++k)
            for (std::size_t c = 0; c < kCells; ++c)
                replay.push_back(lossless.stamped[c]->params(k));
        const std::int64_t span = spans.open("phy.serial_replay", root);
        serial_ms = replay_phy_stages(
            replay,
            [&](std::uint32_t cell_id) -> runtime::InputGenerator & {
                return lossless_loop->engine->input(cell_id - 1);
            },
            lossless_loop->engine->config().engine.receiver, spans, span,
            report);
        spans.close(span);
        lossless_loop.reset();
        auto traced =
            run_phase("lossless.traced", false, n_lossless, kChunks);
        report.add("obs.trace_overhead_frac",
                   1.0 - traced.first.rate / throughput, "frac");
    }
    lossless_loop.reset();

    // ---- paced open-loop phase -------------------------------------
    auto [paced, paced_loop] = run_phase("paced", true, n_paced, 1);
    paced_loop.reset();
    cold_keys += paced.cold_keys;
    std::vector<StampedModel *> stamped;
    for (auto &s : paced.stamped)
        stamped.push_back(s.get());
    PacedTally tally =
        tally_paced(stamped, sink, paced.t0_ns, kPeriodMs, deadline_ms);
    report.check(tally.unresolved == 0,
                 "paced phase: a subframe was never resolved");
    report.check(checked_users > 0 && bad_users == 0,
                 "real CRC passes: " + std::to_string(bad_users) + " of " +
                     std::to_string(checked_users) +
                     " carry a payload other than the transmitted one");

    runtime::ShedStats shed;
    for (const runtime::ShedStats &s : paced.record.shed) {
        shed.submitted += s.submitted;
        shed.shed += s.shed;
        shed.shed_expired += s.shed_expired;
        shed.degraded += s.degraded;
        shed.io_lost += s.io_lost;
        shed.io_late += s.io_late;
    }
    const std::uint64_t misses = tally.shed + tally.late;
    report.attempted = kCells * (n_lossless + n_paced);
    report.failed = bad_users + tally.unresolved;

    std::vector<double> latency = tally.latency_ms;
    const double p50 = quantile(latency, 0.50);
    const double p99 = windowed_quantile(tally, n_paced, kWindows, 0.99);
    info("turbo_mac_4cell: lossless " + std::to_string(throughput) +
         " cell-sf/s activity " + std::to_string(lossless.record.activity) +
         "; paced completed " + std::to_string(tally.completed) + " shed " +
         std::to_string(tally.shed) + " late " + std::to_string(tally.late) +
         " degraded " + std::to_string(shed.degraded) + " p50 " +
         std::to_string(p50) + " ms p99 " + std::to_string(p99) +
         " ms; checked " + std::to_string(checked_users) + " CRC passes");

    if (!args.trace) {
        report.add("setup_s", median(setup_s), "s");
        report.add("throughput_sf_per_s", throughput, "1/s");
        report.add("latency_p50_ms", p50, "ms");
        report.add("latency_p99_ms", p99, "ms");
        // MAC-delivered bits per second of air time (one TTI = 1 ms).
        report.add("goodput_mbps",
                   static_cast<double>(paced.mac.delivered_bits) /
                       static_cast<double>(n_paced) / 1e3,
                   "Mb/s");
        report.add("energy_mj_per_subframe",
                   energy_mj_per_subframe(paced.wall_s,
                                          paced.record.activity, workers,
                                          kCells * n_paced),
                   "mJ");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        report.add("runtime.pool.activity", lossless.record.activity,
                   "frac");
        report.add("runtime.pool.steals_per_sf",
                   static_cast<double>(lossless.record.steals) / completed_l,
                   "count");
        report.add("runtime.speedup_vs_serial",
                   throughput * serial_ms * 1e-3, "x");
        report.add("runtime.gops",
                   static_cast<double>(lossless.record.total_ops) /
                       lossless.record.wall_seconds * 1e-9,
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
        report.add("io.lost_frac",
                   static_cast<double>(shed.io_lost) / submitted, "frac");
        report.add("io.late_frac",
                   static_cast<double>(shed.io_late) / submitted, "frac");
        report.add("mac.grant_us_per_tti",
                   static_cast<double>(lossless.grant_ns) * 1e-3 /
                       static_cast<double>(lossless.grant_calls),
                   "us");
        report.add("mac.feedback_us",
                   sink.tee_calls()
                       ? static_cast<double>(sink.tee_ns()) * 1e-3 /
                             static_cast<double>(sink.tee_calls())
                       : 0.0,
                   "us");
        const mac::MacStats &m = paced.mac;
        report.add("mac.harq_residual_frac",
                   m.offered_tbs ? static_cast<double>(m.residual_tbs) /
                                       static_cast<double>(m.offered_tbs)
                                 : 0.0,
                   "frac");
        report.add("mac.retx_frac",
                   m.grants ? static_cast<double>(m.retx_grants) /
                                  static_cast<double>(m.grants)
                            : 0.0,
                   "frac");
        const std::uint64_t feedback = m.real_feedback + m.modelled_feedback;
        report.add("mac.real_feedback_frac",
                   feedback ? static_cast<double>(m.real_feedback) /
                                  static_cast<double>(feedback)
                            : 0.0,
                   "frac");
        const double cell_sf = static_cast<double>(kCells * n_lossless);
        report.add("workload.users_per_sf", users / cell_sf, "count");
        report.add("workload.prb_per_sf", prbs / cell_sf, "count");
    }
    spans.close(root);
    return report;
}

} // namespace perfbench
