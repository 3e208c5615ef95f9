// Extension experiment: the estimator family side by side on one simulated
// measurement — moment estimator (§5.2.2), improved estimator (§5.3), the
// parametric Markov-chain MLE (§8 future work), and bootstrap confidence
// intervals (§8 future work) — all computed from the same probe trace.
#include <cstdio>

#include "common.h"
#include "core/bootstrap.h"
#include "core/markov.h"

namespace {

using namespace bb::bench;
using namespace bb::core;

}  // namespace

int main() {
    print_header("Ablation: estimator family on one BADABING run (CBR, p = 0.3, improved)",
                 "Sommers et al., SIGCOMM 2005, Sections 5.2-5.3 plus Section 8 extensions");

    const auto wl = cbr_uniform_workload();
    bb::scenarios::Experiment exp{bench_testbed(), wl, truth_for(wl)};
    bb::probes::BadabingConfig bc;
    bc.p = 0.3;
    bc.improved = true;
    bc.total_slots = 0;
    auto& tool = exp.add_badabing(bc);
    exp.run();

    const auto truth = exp.truth();
    const auto marking = exp.default_marking(0.3);
    const auto res = tool.analyze(marking);
    const bb::TimeNs slot = tool.slot_width();

    // The per-experiment reports for the Markov and bootstrap machinery (the
    // same records analyze() consumed).
    VectorSink<ExperimentResult> scored;
    tool.emit_reports(marking, scored);
    const auto reports = scored.take();
    const auto markov = estimate_markov(tally_pairs(reports));

    BootstrapConfig bcfg;
    bcfg.replicates = 300;
    bb::Rng rng{bench_seed() ^ 0xB007};
    const auto ci = bootstrap_estimates(reports, bcfg, rng);

    std::printf("ground truth            : F = %.4f   D = %.3f s (%zu episodes)\n",
                truth.frequency, truth.mean_duration_s, truth.episodes);
    std::printf("moment (Sec 5.2.2)      : F = %.4f   D = %.3f s\n", res.frequency.value,
                res.duration_basic.valid ? res.duration_basic.seconds(slot) : 0.0);
    std::printf("improved (Sec 5.3)      : r_hat = %.3f  D = %.3f s\n",
                res.duration_improved.r_hat.value_or(0.0),
                res.duration_improved.valid ? res.duration_improved.seconds(slot) : 0.0);
    std::printf("markov MLE (Sec 8 ext)  : F = %.4f   D = %.3f s\n",
                markov.valid ? markov.frequency : 0.0,
                markov.valid ? markov.duration_seconds(slot) : 0.0);
    if (ci.frequency.valid) {
        std::printf("bootstrap 90%% (Sec 8)   : F in [%.4f, %.4f]   D in [%.3f, %.3f] s\n",
                    ci.frequency.lo, ci.frequency.hi,
                    ci.duration_slots.lo * slot.to_seconds(),
                    ci.duration_slots.hi * slot.to_seconds());
    }
    std::printf("validation (Sec 5.4)    : pair asymmetry %.3f, violations %.4f\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction);
    std::printf("\nexpected shape: all estimators agree on frequency; the duration\n"
                "estimates cluster above the true value by the marking shoulders; the\n"
                "bootstrap interval quantifies the spread the Sec 7 rule of thumb\n"
                "(1/sqrt(pNL) = %.3f here) only approximates.\n",
                duration_stddev_guidance(0.3, wl.duration / slot,
                                         static_cast<double>(truth.episodes) /
                                             static_cast<double>(wl.duration / slot)));
    return 0;
}
