// Wires an obs::Recorder to a running Experiment.
//
// ExperimentRecorder registers the standard probe set over the experiment's
// testbed (bottleneck queue level/drops/marks, Gilbert-Elliott link state,
// scheduler churn, BADABING probe tallies) and drives the recorder from the
// SIMULATION clock: a self-rescheduling event samples every `interval` of
// simulated time, exactly like measure::QueueSampler.  Because sampling reads
// state without mutating it, attaching a recorder never changes what an
// experiment computes — table and figure outputs stay bit-identical.
//
// Lifecycle: construct after the experiment's probers are attached and
// before exp.run(); call finish() after run() to take the final sample and
// convert the ground-truth loss episodes into recorder annotations.
#ifndef BB_SCENARIOS_SIM_RECORD_H
#define BB_SCENARIOS_SIM_RECORD_H

#include <memory>

#include "obs/recorder.h"
#include "scenarios/experiment.h"

namespace bb::scenarios {

// Recording knobs carried by ReplicaObservers and the sweep engine; `enabled`
// additionally requires the obs kill switch (BB_OBS=off wins).
struct SimRecordingConfig {
    bool enabled{false};
    TimeNs interval{milliseconds(100)};  // simulated sampling cadence
    std::size_t budget_bins{512};        // per-series memory budget
    std::size_t max_annotations{1024};
};

class ExperimentRecorder {
public:
    ExperimentRecorder(Experiment& exp, const SimRecordingConfig& cfg);

    ExperimentRecorder(const ExperimentRecorder&) = delete;
    ExperimentRecorder& operator=(const ExperimentRecorder&) = delete;

    // Final sample at the post-drain clock plus episode.start/episode.end
    // annotations from the experiment's ground truth.  Idempotent.
    void finish();

    [[nodiscard]] obs::Recorder& recorder() noexcept { return *rec_; }
    // Shared handle for stashing the series in a ReplicaResult.
    [[nodiscard]] std::shared_ptr<obs::Recorder> share() const noexcept { return rec_; }

private:
    void sample();

    Experiment* exp_;
    SimRecordingConfig cfg_;
    TimeNs until_{TimeNs::zero()};
    std::shared_ptr<obs::Recorder> rec_;
    bool finished_{false};
};

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_SIM_RECORD_H
