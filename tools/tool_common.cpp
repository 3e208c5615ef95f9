#include "tool_common.h"

#include <cstdio>
#include <exception>
#include <utility>

#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "util/json_io.h"

namespace bb::tools {

namespace {

std::string show(const JsonValue& v) {
    char buf[64];
    if (v.is_bool()) return v.bool_value ? "true" : "false";
    if (v.is_string()) return v.string_value;
    if (v.number_is_int) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v.int_value));
    } else {
        std::snprintf(buf, sizeof buf, "%g", v.number_value);
    }
    return buf;
}

}  // namespace

SpecOverlay::SpecOverlay(std::string tool, const FlagSet& flags, std::string spec_path)
    : tool_{std::move(tool)}, flags_{&flags}, spec_path_{std::move(spec_path)} {}

void SpecOverlay::add(const char* flag, const char* path, JsonValue value, std::string shown) {
    if (!spec_path_.empty() && !flags_->is_set(flag)) return;
    if (shown.empty()) shown = show(value);
    splices_.push_back({flag, path, std::move(value), std::move(shown)});
}

bool SpecOverlay::add_scenario(const std::string& name) {
    static const std::pair<const char*, const char*> kinds[] = {
        {"tcp", "infinite_tcp"}, {"cbr", "cbr_uniform"}, {"cbr-multi", "cbr_multi"},
        {"web", "web"}};
    for (const auto& [spelling, kind] : kinds) {
        if (name != spelling) continue;
        add("scenario", "traffic.kind", JsonValue::of_string(kind), name);
        if (name == "cbr-multi") {
            JsonValue list;
            list.kind = JsonValue::Kind::array;
            for (const std::int64_t ms : {50, 100, 150}) list.items.push_back(JsonValue::of_int(ms));
            add("scenario", "traffic.episode_ms_list", std::move(list), name);
        }
        // Web truth is delay-based unless a spec says otherwise.
        if (name == "web" && spec_path_.empty()) {
            add("scenario", "truth.delay_based", JsonValue::of_bool(true), name);
        }
        return true;
    }
    std::fprintf(stderr, "%s: --scenario must be one of tcp, cbr, cbr-multi, web, got %s\n",
                 tool_.c_str(), name.c_str());
    return false;
}

std::optional<scenarios::ScenarioSpec> SpecOverlay::resolve(const char* prober) const {
    JsonValue doc;
    doc.kind = JsonValue::Kind::object;
    if (!spec_path_.empty()) {
        JsonParse parsed = json_parse_file(spec_path_);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s\n", parsed.error.c_str());
            return std::nullopt;
        }
        doc = std::move(parsed.value);
    }
    // A splice that fails leaves a non-object section in place, which the
    // validator below rejects with its source line.
    std::string ignored;
    if (doc.is_object()) {
        for (const Splice& s : splices_) json_set_path(doc, s.path, s.value, ignored);
        if (prober != nullptr && json_get_path(doc, "probe.tool") == nullptr) {
            json_set_path(doc, "probe.tool", JsonValue::of_string(prober), ignored);
        }
    }

    scenarios::SpecResult sr = scenarios::parse_scenario_spec(
        doc, spec_path_.empty() ? std::string_view{tool_} : std::string_view{spec_path_});
    if (!sr.ok) {
        // A failure at a spliced path is the flag's: say it in flag terms.
        for (auto it = splices_.rbegin(); it != splices_.rend(); ++it) {
            const std::string key = ": " + it->path + ": ";
            if (const auto at = sr.error.find(key); at != std::string::npos) {
                std::fprintf(stderr, "%s: --%s %s, got %s\n", tool_.c_str(), it->flag.c_str(),
                             sr.error.substr(at + key.size()).c_str(), it->shown.c_str());
                return std::nullopt;
            }
        }
        std::fprintf(stderr, "%s\n", sr.error.c_str());
        return std::nullopt;
    }
    if (prober != nullptr) {
        if (std::string{to_string(sr.spec.tool)} != prober) {
            std::fprintf(stderr, "%s: %s names probe.tool \"%s\", but %s runs %s\n",
                         tool_.c_str(), spec_path_.c_str(), to_string(sr.spec.tool),
                         tool_.c_str(), prober);
            return std::nullopt;
        }
        if (sr.spec.topology != scenarios::ScenarioSpec::Topology::dumbbell) {
            std::fprintf(stderr, "%s: %s: only the dumbbell topology hosts a single run\n",
                         tool_.c_str(), spec_path_.c_str());
            return std::nullopt;
        }
    }
    return std::move(sr.spec);
}

ToolOutputs::ToolOutputs(FlagSet& flags, std::string tool, Surface surface,
                         const char* series_help)
    : tool_{std::move(tool)},
      metrics_json_{flags.add_string("metrics-json", "",
                                     "write obs metrics snapshot to FILE at exit")},
      trace_out_{flags.add_string(
          "trace-out", "", "write Chrome trace_event JSON (Perfetto-loadable) to FILE")} {
    if (surface != Surface::all) return;
    series_out_ = flags.add_string(
        "series-out", "",
        series_help != nullptr
            ? series_help
            : "record sim-time series (queue, drops, GE state, probe tallies) to FILE");
    series_interval_ms_ = flags.add_int("series-interval-ms", 100,
                                        "sim-time sampling cadence for --series-out");
    state_hash_ = flags.add_bool(
        "state-hash", false,
        "fold the run-state hash chain (events, rng, verdicts, reports) and print "
        "the final digest");
    hash_trace_out_ = flags.add_string(
        "hash-trace-out", "",
        "write the bb.hashtrace.v1 ring of recent chain records to FILE (replica 0 of "
        "the first computed run)");
    hash_trace_capacity_ =
        flags.add_int("hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out");
}

bool ToolOutputs::start(bool hash_this_thread) {
    if (series_interval_ms_ != nullptr && *series_interval_ms_ < 1) {
        std::fprintf(stderr, "%s: --series-interval-ms must be >= 1, got %lld\n",
                     tool_.c_str(), static_cast<long long>(*series_interval_ms_));
        return false;
    }
    if (hash_trace_capacity_ != nullptr && *hash_trace_capacity_ < 1) {
        std::fprintf(stderr, "%s: --hash-trace-capacity must be >= 1, got %lld\n",
                     tool_.c_str(), static_cast<long long>(*hash_trace_capacity_));
        return false;
    }
    if (!metrics_json_->empty() || !trace_out_->empty() ||
        (series_out_ != nullptr && !series_out_->empty())) {
        obs::set_enabled(true);
    }
    if (!trace_out_->empty()) obs::Trace::start();
    if (hash_this_thread && hashing()) {
        hasher_.emplace(hash_trace_capacity());
        hash_scope_.emplace(*hasher_);
    }
    return true;
}

bool ToolOutputs::hashing() const noexcept {
    return state_hash_ != nullptr && (*state_hash_ || !hash_trace_out_->empty());
}

std::size_t ToolOutputs::hash_trace_capacity() const noexcept {
    return hash_trace_out_ == nullptr || hash_trace_out_->empty()
               ? 0
               : static_cast<std::size_t>(*hash_trace_capacity_);
}

scenarios::SimRecordingConfig ToolOutputs::recording() const {
    scenarios::SimRecordingConfig cfg;
    if (series_out_ != nullptr && !series_out_->empty()) {
        cfg.enabled = true;
        cfg.interval = milliseconds(*series_interval_ms_);
    }
    return cfg;
}

void ToolOutputs::report_hash() {
    if (!hasher_) return;
    report_hash(hasher_->digest(),
                std::to_string(hasher_->records()) + " records", &*hasher_);
}

void ToolOutputs::report_hash(std::uint64_t digest, const std::string& detail,
                              const core::RunHasher* ring, const char* note) {
    std::printf("state-hash   : %s (%s)\n", core::RunHasher::hex(digest).c_str(),
                detail.c_str());
    if (ring == nullptr) return;
    write("hash-trace", "hash trace", *hash_trace_out_,
          [&] { return write_text_file(*hash_trace_out_, ring->trace_json()); }, note);
}

void ToolOutputs::write(const char* label, const char* what, const std::string& path,
                        const std::function<bool()>& writer, const char* note) {
    if (path.empty()) return;
    bool ok = false;
    try {
        ok = writer();
    } catch (const std::exception&) {
        // trace_io signals an unwritable file by throwing.
    }
    if (ok) {
        std::printf("%-13s: wrote %s%s\n", label, path.c_str(), note);
    } else {
        std::fprintf(stderr, "%s: cannot write %s to %s\n", tool_.c_str(), what, path.c_str());
        failed_ = true;
    }
}

void ToolOutputs::write_series(obs::Recorder& rec, const char* note) {
    rec.export_to_trace();
    write("series", "series", *series_out_, [&] { return rec.write_json(*series_out_); },
          note);
}

int ToolOutputs::finish() {
    write("trace-out", "trace", *trace_out_, [&] { return obs::Trace::write(*trace_out_); });
    write("metrics-json", "metrics", *metrics_json_,
          [&] { return obs::write_metrics_file(*metrics_json_); });
    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process      : max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);
    return failed_ ? 1 : 0;
}

}  // namespace bb::tools
