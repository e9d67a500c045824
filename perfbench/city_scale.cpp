/**
 * @file
 * Workload city_scale: bench/city_scale's headline fleet (104 cells on
 * 13 modelled TILEPro64 chips, 10 000 UEs per cell, 2000 subframes,
 * miss-rate SLO 0.005) with FleetConfig::n_threads set to the usable
 * CPUs.  No receiver runs: the work is the MAC's modelled loops over
 * 10k-UE populations, sim::Machine, the power model, calibration and
 * the per-chip policy optimiser.
 *
 * Besides whole-fleet runs, a replay drives every fleet cell's MAC TTI
 * by TTI (the per-TTI scheduling decision is the fleet's latency) and
 * one cell through sim::Machine and PowerModel, with traffic drawn
 * from --seed.
 */
#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/chip_fleet.hpp"
#include "power/power_model.hpp"
#include "sim/machine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

constexpr std::size_t kCells = 104;
constexpr std::uint32_t kUesPerCell = 10000;
constexpr std::uint64_t kSubframes = 2000;
constexpr double kSlo = 0.005;
/** bench/city_scale's default seed, whose fleet energy
 *  results/BENCH_pr10.json records.  The fleet always runs with it:
 *  the fleet is the headline scenario, and its policy search does
 *  more or less work depending on the seed.  --seed draws the
 *  replayed cells' traffic. */
constexpr std::uint64_t kHeadlineSeed = 2012;
constexpr double kHeadlineJoulesPerSubframe = 0.870499;
/** Wall seconds of one fleet run when the benchmark was introduced;
 *  sizes the number of runs to --seconds. */
constexpr double kNominalFleetSeconds = 2.3;
constexpr double kFleetShare = 0.75;
/** Set-ups per run (setup_s is their median; one takes ~10 ms). */
constexpr int kSetupReps = 15;

/** bench/city_scale's headline configuration. */
core::FleetConfig
fleet_config(unsigned threads)
{
    core::FleetConfig cfg;
    cfg.n_cells = kCells;
    cfg.ues_per_cell = kUesPerCell;
    cfg.subframes = kSubframes;
    cfg.slo_miss_rate = kSlo;
    cfg.seed = kHeadlineSeed;
    cfg.n_threads = threads;
    cfg.diurnal.period_subframes = kSubframes;
    cfg.diurnal.average_load = 0.25;
    cfg.diurnal.swing = 0.8;
    cfg.cell_load_spread = 0.5;
    cfg.oversubscribe = 4.0;
    cfg.chip.sweep.prb_step = 40;
    cfg.chip.sweep.duration_s = 0.15;
    return cfg;
}

/** Cells per chip: one power domain each, at most one per worker. */
std::size_t
cells_per_chip(const core::FleetConfig &cfg)
{
    return std::min<std::size_t>(
        cfg.chip.power.total_cores / cfg.chip.power.domain_size,
        cfg.chip.sim.n_workers);
}

/** The per-cell machine slice a fleet chip calibrates and runs (the
 *  same equal, domain-aligned slicing ChipFleet applies). */
core::StudyConfig
cell_slice(const core::FleetConfig &cfg)
{
    const auto n = static_cast<std::uint32_t>(cells_per_chip(cfg));
    core::StudyConfig slice = cfg.chip;
    slice.sim.n_workers = std::max(1u, cfg.chip.sim.n_workers / n);
    slice.power.total_cores = std::max(
        cfg.chip.power.domain_size,
        (cfg.chip.power.total_cores / n / cfg.chip.power.domain_size) *
            cfg.chip.power.domain_size);
    slice.power.base_power_w = cfg.chip.power.base_power_w / n;
    return slice;
}

/** A fleet cell's MAC: the fleet's template, population and PRB
 *  slice (radio oversubscription included), with its traffic and
 *  channel drawn from @p seed. */
mac::MacConfig
cell_mac(const core::FleetConfig &cfg, std::size_t cell, std::uint64_t seed)
{
    const core::StudyConfig slice = cell_slice(cfg);
    mac::MacConfig m = cfg.mac;
    m.cell_id = static_cast<std::uint32_t>(cell % 511) + 1;
    m.seed = cell_stream_seed(seed, m.cell_id);
    m.n_ues = cfg.ues_per_cell;
    const double budget = std::max(
        4.0, cfg.oversubscribe * static_cast<double>(kMaxPrbPerSubframe) *
                 static_cast<double>(slice.sim.n_workers) /
                 static_cast<double>(cfg.chip.sim.n_workers));
    m.prb_budget = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(budget), 2,
        static_cast<std::uint32_t>(kMaxPrbPerSubframe));
    m.max_prb_per_grant = std::clamp(m.max_prb_per_grant, 2u, m.prb_budget);
    return m;
}

} // namespace

Report
run_city_scale(const Args &args, SpanLog &spans)
{
    Report report;
    const std::int64_t root = spans.open("workload.city_scale");
    const unsigned threads = usable_cpus();
    const core::FleetConfig cfg = fleet_config(threads);
    const std::size_t reps = sized(args.seconds, kFleetShare,
                                   1.0 / kNominalFleetSeconds, 3);
    info("city_scale: threads=" + std::to_string(threads) +
         " fleet_runs=" + std::to_string(reps));

    // Every fleet run must reproduce the headline energy.
    const auto check_fleet = [&](const core::FleetOutcome &o) {
        report.check(
            std::abs(o.joules_per_subframe - kHeadlineJoulesPerSubframe) <
                5e-6,
            "city_scale: the headline fleet gives " +
                std::to_string(o.joules_per_subframe) +
                " J/subframe, results/BENCH_pr10.json records " +
                std::to_string(kHeadlineJoulesPerSubframe));
        report.check(o.total_ues == kCells * kUesPerCell,
                     "city_scale: total_ues != cells x UEs per cell");
        report.check(o.chips.size() == (kCells + cells_per_chip(cfg) - 1) /
                                           cells_per_chip(cfg),
                     "city_scale: unexpected chip count");
    };

    // ---- warm-up run -----------------------------------------------
    // The first fleet run of a process pays the allocator's first
    // touch of the MAC populations, and idle CPUs start slowly.
    {
        const std::int64_t span = spans.open("fleet.warm_up", root);
        check_fleet(core::ChipFleet(cfg).run());
        spans.close(span);
    }

    // ---- set-up: fleet construction and the chip-slice calibration --
    std::vector<double> setup_s;
    std::vector<double> prepare_s;
    core::Calibration calibration;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::int64_t span = spans.open("setup", root);
        const std::uint64_t t0 = now_ns();
        core::ChipFleet fleet(cfg);
        const std::uint64_t t1 = now_ns();
        core::UplinkStudy probe(cell_slice(cfg));
        probe.prepare();
        const std::uint64_t t2 = now_ns();
        spans.record("core.prepare", t1, t2, span);
        calibration = probe.calibration();
        setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
        prepare_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
        spans.close(span);
    }

    // ---- whole-fleet runs ------------------------------------------
    // A traced run alternates untraced and traced fleet runs; the
    // untraced ones give the throughput.
    const bool tracing = spans.enabled();
    std::vector<double> walls;
    std::vector<double> traced_walls;
    core::FleetOutcome outcome;
    for (std::size_t r = 0; r < reps; ++r) {
        const bool traced = tracing && r % 2 == 1;
        spans.set_enabled(traced);
        core::ChipFleet fleet(cfg);
        const std::int64_t span = spans.open("fleet.run", root);
        const std::uint64_t t0 = now_ns();
        outcome = fleet.run();
        (traced ? traced_walls : walls).push_back(seconds_since(t0));
        spans.close(span);
        spans.set_enabled(tracing);
        check_fleet(outcome);
    }
    double policies_tried = 0.0;
    for (const core::ChipOutcome &chip : outcome.chips)
        policies_tried += chip.policies_tried;
    policies_tried /= static_cast<double>(outcome.chips.size());
    std::uint64_t users = 0;
    std::uint64_t misses = 0;
    for (const core::LoadBucket &b : outcome.buckets) {
        users += b.users;
        misses += b.misses;
    }

    // ---- replay: per-TTI MAC decisions of fleet-shaped cells -------
    std::vector<double> tti_ms;
    tti_ms.reserve(kCells * kSubframes);
    std::uint64_t grant_ns = 0;
    std::uint64_t feedback_ns = 0;
    mac::MacStats mac_total;
    double granted_users = 0.0;
    double granted_prb = 0.0;
    {
        core::ChipFleet fleet(cfg);
        const std::int64_t span = spans.open("mac.replay", root);
        phy::SubframeParams sf;
        runtime::SubframeOutcome fb;
        for (std::size_t cell = 0; cell < kCells; ++cell) {
            // FleetCellModel::next_subframe, with the grant and the
            // feedback timed apart.
            core::FleetCellModel model(cell_mac(cfg, cell, args.seed),
                                       cfg.diurnal,
                                       fleet.cell_load_scale(cell));
            mac::MacScheduler &sched = model.scheduler();
            for (std::uint64_t t = 0; t < kSubframes; ++t) {
                const std::uint64_t t0 = now_ns();
                sched.set_arrival_scale(model.load_at(t) /
                                        cfg.diurnal.average_load);
                sched.next_tti_into(sf);
                const std::uint64_t t1 = now_ns();
                if (!sf.users.empty()) {
                    fb.subframe_index = sf.subframe_index;
                    fb.cell_id = sf.cell_id;
                    fb.users.clear();
                    for (const phy::UserParams &user : sf.users) {
                        runtime::UserOutcome u;
                        u.user_id = user.id;
                        u.crc_modelled = true;
                        fb.users.push_back(u);
                    }
                    sched.on_subframe_complete(fb, phy::DegradeLevel::kNone);
                }
                const std::uint64_t t2 = now_ns();
                grant_ns += t1 - t0;
                feedback_ns += t2 - t1;
                tti_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
                if (cell == 0) { // per-TTI spans of one cell suffice
                    spans.record("mac.grant", t0, t1, span,
                                 subframe_id(cell, t));
                    spans.record("mac.feedback", t1, t2, span,
                                 subframe_id(cell, t));
                }
                granted_users += static_cast<double>(sf.users.size());
                granted_prb += static_cast<double>(sf.total_prb());
            }
            sched.finalize();
            const mac::MacStats s = sched.stats();
            report.check(s.conserved(),
                         "city_scale: replayed MAC does not conserve "
                         "offered == delivered + residual");
            mac_total.grants += s.grants;
            mac_total.retx_grants += s.retx_grants;
            mac_total.offered_tbs += s.offered_tbs;
            mac_total.residual_tbs += s.residual_tbs;
            mac_total.delivered_bits += s.delivered_bits;
            mac_total.real_feedback += s.real_feedback;
            mac_total.modelled_feedback += s.modelled_feedback;
        }
        spans.close(span);
    }
    const double replayed_ttis = static_cast<double>(kCells * kSubframes);

    report.attempted = reps * kCells * kSubframes;
    report.failed = 0;
    const double throughput =
        static_cast<double>(kCells * kSubframes) / median(walls);
    std::vector<double> lat = tti_ms;
    const double p50 = quantile(lat, 0.50);
    const double p99 = quantile(lat, 0.99);
    std::string wall_list;
    for (double w : walls) {
        wall_list += ' ';
        wall_list += std::to_string(w);
    }
    info("city_scale: fleet walls" + wall_list + " s, " +
         std::to_string(outcome.joules_per_subframe) + " J/subframe, " +
         std::to_string(users) + " users " + std::to_string(misses) +
         " misses; TTI p50 " + std::to_string(p50 * 1e3) + " us p99 " +
         std::to_string(p99 * 1e3) + " us");

    if (!args.trace) {
        report.add("setup_s", median(setup_s), "s");
        report.add("throughput_sf_per_s", throughput, "1/s");
        report.add("latency_p50_ms", p50, "ms");
        report.add("latency_p99_ms", p99, "ms");

        report.add("goodput_mbps",
                   static_cast<double>(mac_total.delivered_bits) /
                       static_cast<double>(kSubframes) / 1e3,
                   "Mb/s");
        report.add("energy_mj_per_subframe",
                   outcome.joules_per_subframe * 1e3, "mJ");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
        spans.close(root);
        return report;
    }

    // ---- traced: one cell through sim::Machine and PowerModel ------
    {
        core::UplinkStudy study(cell_slice(cfg));
        study.adopt_calibration(calibration);
        core::ChipFleet fleet(cfg);
        core::FleetCellModel model(cell_mac(cfg, 0, args.seed), cfg.diurnal,
                                   fleet.cell_load_scale(0));
        SpanLog quiet(false);
        StampedModel stamped(model, 0, random_input_key, quiet);
        stamped.begin_phase(kSubframes, -1);
        sim::Machine machine(study.config().sim, study.config().n_antennas);
        const std::int64_t span = spans.open("sim.machine_run", root);
        const std::uint64_t t0 = now_ns();
        const sim::SimResult result = machine.run(stamped, kSubframes);
        const std::uint64_t t1 = now_ns();
        spans.close(span);
        const double sim_s =
            static_cast<double>(t1 - t0 - stamped.inner_ns()) * 1e-9;
        const std::int64_t pspan = spans.open("power.series", root);
        const std::uint64_t p0 = now_ns();
        const auto series =
            power::PowerModel(study.config().power).power_series(result);
        const std::uint64_t p1 = now_ns();
        spans.close(pspan);
        report.check(series.size() == result.intervals.size(),
                     "city_scale: power series does not cover the run");
        report.add("sim.tasks_per_s",
                   static_cast<double>(result.tasks_executed) / sim_s, "1/s");
        report.add("sim.sf_per_s", static_cast<double>(kSubframes) / sim_s,
                   "1/s");
        report.add("power.series_us_per_ksf",
                   static_cast<double>(p1 - p0) * 1e-3 /
                       (static_cast<double>(kSubframes) / 1e3),
                   "us");
    }
    report.add("miss_frac",
               users ? static_cast<double>(misses) /
                           static_cast<double>(users)
                     : 0.0,
               "frac");
    report.add("obs.trace_overhead_frac",
               1.0 - median(walls) / median(traced_walls), "frac");
    report.add("core.prepare_s", median(prepare_s), "s");
    report.add("mgmt.policies_tried_per_chip", policies_tried, "count");
    report.add("mac.grant_us_per_tti",
               static_cast<double>(grant_ns) * 1e-3 / replayed_ttis, "us");
    report.add("mac.feedback_us",
               static_cast<double>(feedback_ns) * 1e-3 / replayed_ttis, "us");
    report.add("mac.harq_residual_frac",
               mac_total.offered_tbs
                   ? static_cast<double>(mac_total.residual_tbs) /
                         static_cast<double>(mac_total.offered_tbs)
                   : 0.0,
               "frac");
    report.add("mac.retx_frac",
               mac_total.grants
                   ? static_cast<double>(mac_total.retx_grants) /
                         static_cast<double>(mac_total.grants)
                   : 0.0,
               "frac");
    const std::uint64_t feedback =
        mac_total.real_feedback + mac_total.modelled_feedback;
    report.add("mac.real_feedback_frac",
               feedback ? static_cast<double>(mac_total.real_feedback) /
                              static_cast<double>(feedback)
                        : 0.0,
               "frac");
    report.add("workload.users_per_sf", granted_users / replayed_ttis,
               "count");
    report.add("workload.prb_per_sf", granted_prb / replayed_ttis, "count");
    spans.close(root);
    return report;
}

} // namespace perfbench
