#include "scenarios/sweep.h"

// Wall-clock timing below feeds the progress display only; it never
// reaches result files or the hash chain.
#include <chrono>  // bb-det: allow(no-time-seed)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/json_io.h"

namespace bb::scenarios {

namespace {

// Render a scalar axis value the way it appears in the cell's "axes" object.
std::string render_scalar(const JsonValue& v) {
    switch (v.kind) {
        case JsonValue::Kind::null_v: return "null";
        case JsonValue::Kind::bool_v: return v.bool_value ? "true" : "false";
        case JsonValue::Kind::number: {
            char buf[40];
            if (v.number_is_int) {
                std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(v.int_value));
            } else {
                std::snprintf(buf, sizeof buf, "%.17g", v.number_value);
            }
            return buf;
        }
        case JsonValue::Kind::string: return v.string_value;
        default: return "?";
    }
}

// "link.ge" conflicts with "link.ge.enabled": splicing the shorter path
// would silently overwrite the longer one's target.
bool paths_overlap(const std::string& a, const std::string& b) {
    if (a == b) return true;
    const std::string& shorter = a.size() < b.size() ? a : b;
    const std::string& longer = a.size() < b.size() ? b : a;
    return longer.size() > shorter.size() && longer.compare(0, shorter.size(), shorter) == 0 &&
           longer[shorter.size()] == '.';
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

SweepParseResult parse_sweep_spec(const JsonValue& doc, std::string_view source) {
    SweepParseResult out;
    const std::string src{source};
    auto fail = [&](int line, const std::string& path, const std::string& msg) {
        out.error = src + ":" + std::to_string(line) + ": " + path + ": " + msg;
    };

    if (!doc.is_object()) {
        fail(doc.line, "sweep", "top level must be a JSON object");
        return out;
    }

    const JsonValue* base = nullptr;
    const JsonValue* axes = nullptr;
    for (const auto& [key, value] : doc.members) {
        if (key == "name") {
            if (!value.is_string()) {
                fail(value.line, "name", "must be a string");
                return out;
            }
            out.sweep.name = value.string_value;
        } else if (key == "base") {
            base = &value;
        } else if (key == "axes") {
            axes = &value;
        } else {
            fail(value.line, "sweep", "unknown key \"" + key + "\"");
            return out;
        }
    }

    if (base == nullptr) {
        fail(doc.line, "base", "missing (the unexpanded scenario document)");
        return out;
    }
    if (!base->is_object()) {
        fail(base->line, "base", "must be a scenario spec object");
        return out;
    }
    out.sweep.base = *base;

    if (axes != nullptr) {
        if (!axes->is_object()) {
            fail(axes->line, "axes", "must be an object of path -> value list");
            return out;
        }
        for (const auto& [path, values] : axes->members) {
            SweepAxis axis;
            axis.path = path;
            axis.line = values.line;
            if (!values.is_array()) {
                fail(values.line, "axes." + path, "must be an array of scalar values");
                return out;
            }
            if (values.items.empty()) {
                fail(values.line, "axes." + path,
                     "conflicting axis: empty value list expands to zero cells");
                return out;
            }
            for (const JsonValue& v : values.items) {
                if (v.is_array() || v.is_object()) {
                    fail(v.line, "axes." + path,
                         "axis values must be scalars (string, number, or bool)");
                    return out;
                }
                axis.values.push_back(v);
            }
            // Duplicate axis paths are rejected by the JSON parser (duplicate
            // object keys); overlap with an existing axis is checked here.
            for (const SweepAxis& prior : out.sweep.axes) {
                if (paths_overlap(prior.path, axis.path)) {
                    fail(values.line, "axes." + path,
                         "conflicting axis: overlaps \"" + prior.path + "\"");
                    return out;
                }
            }
            out.sweep.axes.push_back(std::move(axis));
        }
    }

    if (out.sweep.name.empty()) out.sweep.name = "sweep";
    out.ok = true;
    return out;
}

SweepParseResult load_sweep_spec_text(std::string_view text, std::string_view source) {
    const JsonParse parsed = json_parse(text, source);
    if (!parsed.ok) {
        SweepParseResult out;
        out.error = parsed.error;
        return out;
    }
    return parse_sweep_spec(parsed.value, source);
}

SweepParseResult load_sweep_spec_file(const std::string& path) {
    const JsonParse parsed = json_parse_file(path);
    if (!parsed.ok) {
        SweepParseResult out;
        out.error = parsed.error;
        return out;
    }
    SweepParseResult out = parse_sweep_spec(parsed.value, path);
    if (out.ok && out.sweep.name == "sweep") {
        std::string stem = std::filesystem::path{path}.stem().string();
        if (!stem.empty()) out.sweep.name = stem;
    }
    return out;
}

ExpandResult expand_sweep(const SweepSpec& sweep, std::string_view source) {
    ExpandResult out;

    std::size_t total = 1;
    for (const SweepAxis& axis : sweep.axes) total *= axis.values.size();

    std::vector<std::size_t> odometer(sweep.axes.size(), 0);
    for (std::size_t index = 0; index < total; ++index) {
        SweepCell cell;
        cell.index = index;
        cell.doc = sweep.base;  // deep copy
        for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
            const SweepAxis& axis = sweep.axes[a];
            const JsonValue& value = axis.values[odometer[a]];
            std::string err;
            if (!json_set_path(cell.doc, axis.path, value, err)) {
                out.error = std::string{source} + ":" + std::to_string(axis.line) +
                            ": axes." + axis.path + ": " + err;
                return out;
            }
            cell.axis_values.emplace_back(axis.path, render_scalar(value));
        }

        SpecResult parsed = parse_scenario_spec(cell.doc, source);
        if (!parsed.ok) {
            out.error = parsed.error;
            return out;
        }
        cell.spec = std::move(parsed.spec);
        cell.config_hash = fnv1a64_hex(json_canonical(cell.doc));
        out.cells.push_back(std::move(cell));

        // Advance the odometer: LAST axis spins fastest (first axis outermost).
        for (std::size_t a = sweep.axes.size(); a-- > 0;) {
            if (++odometer[a] < sweep.axes[a].values.size()) break;
            odometer[a] = 0;
        }
    }
    out.ok = true;
    return out;
}

std::string cell_result_json(const SweepCell& cell, const AggregateRow& row,
                             const std::vector<ReplicaResult>& replicas,
                             TimeNs slot_width) {
    JsonWriter w{JsonWriter::Options{.indent = 2, .space_after_colon = true}};
    // %.17g everywhere: cached cells must round-trip to the same doubles.
    const char* fmt = "%.17g";
    w.begin_object();
    w.key("config_hash").value(cell.config_hash);
    w.key("name").value(cell.spec.name);
    w.key("axes").begin_object_inline();
    for (const auto& [path, value] : cell.axis_values) w.key(path).value(value);
    w.end_object();

    auto stat = [&](const char* name, const AggregateStat& s) {
        w.key(name).begin_object_inline();
        w.key("mean").value_double(s.mean, fmt);
        w.key("stddev").value_double(s.stddev, fmt);
        w.key("ci_lo").value_double(s.ci.lo, fmt);
        w.key("ci_hi").value_double(s.ci.hi, fmt);
        w.end_object();
    };
    w.key("aggregate").begin_object();
    w.key("p").value_double(row.p, fmt);
    w.key("replicas").value_uint(row.replicas);
    stat("true_frequency", row.true_frequency);
    stat("est_frequency", row.est_frequency);
    stat("true_duration_s", row.true_duration_s);
    stat("est_duration_s", row.est_duration_s);
    stat("offered_load", row.offered_load);
    w.end_object();

    w.key("replicas").begin_array();
    for (const ReplicaResult& r : replicas) {
        w.begin_object_inline();
        w.key("replica").value_uint(r.index);
        w.key("seed").value_uint(r.seed);
        w.key("true_frequency").value_double(r.truth.frequency, fmt);
        w.key("est_frequency").value_double(r.est_frequency(), fmt);
        w.key("true_duration_s").value_double(r.truth.mean_duration_s, fmt);
        w.key("est_duration_s").value_double(r.est_duration_s(slot_width), fmt);
        w.key("episodes").value_uint(r.episodes);
        w.key("queue_drops").value_uint(r.queue_drops);
        w.key("experiments").value_uint(r.result.experiments);
        w.key("path_loss_rate").value_double(r.path_loss_rate, fmt);
        w.key("passive_loss_rate").value_double(r.passive_loss_rate, fmt);
        w.key("qbit_merged_blocks").value_uint(r.qbit_merged_blocks);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

namespace {

// A cached series document counts only if it parses and carries the cell's
// config hash (mirrors the result-file validation above it).
bool series_cache_valid(const std::string& path, const std::string& config_hash) {
    if (!std::filesystem::exists(path)) return false;
    const JsonParse parsed = json_parse_file(path);
    const JsonValue* hash = parsed.ok ? parsed.value.find("config_hash") : nullptr;
    return hash != nullptr && hash->is_string() && hash->string_value == config_hash;
}

}  // namespace

SweepRunner::RunOutcome SweepRunner::run(const std::string& sweep_name,
                                         const std::vector<SweepCell>& cells) {
    RunOutcome out;
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!cfg_.out_dir.empty()) fs::create_directories(cfg_.out_dir, ec);
    if (!cfg_.cache_dir.empty()) fs::create_directories(cfg_.cache_dir, ec);
    const std::string series_dir =
        cfg_.series_dir.empty() ? cfg_.out_dir : cfg_.series_dir;
    if (cfg_.recording.enabled && !series_dir.empty()) {
        fs::create_directories(series_dir, ec);
    }

    ProgressTracker tracker{cells.size()};
    for (const SweepCell& cell : cells) {
        if (cell.spec.tool != ScenarioSpec::ProbeTool::badabing) {
            out.error = "cell " + std::to_string(cell.index) + " (" + cell.config_hash +
                        "): the sweep engine estimates with probe.tool = \"badabing\"";
            return out;
        }
        // bb-det: allow(no-time-seed) — per-cell wall time, progress display only
        const auto cell_t0 = std::chrono::steady_clock::now();

        const std::string cache_path =
            cfg_.cache_dir.empty() ? std::string{}
                                   : cfg_.cache_dir + "/" + cell.config_hash + ".json";
        const std::string series_cache_path =
            cfg_.cache_dir.empty()
                ? std::string{}
                : cfg_.cache_dir + "/" + cell.config_hash + ".series.json";
        CellOutcome oc;
        oc.index = cell.index;
        oc.config_hash = cell.config_hash;

        std::string text;
        std::string series_text;
        if (!cache_path.empty() && fs::exists(cache_path)) {
            JsonParse cached = json_parse_file(cache_path);
            const JsonValue* hash =
                cached.ok ? cached.value.find("config_hash") : nullptr;
            if (hash != nullptr && hash->is_string() &&
                hash->string_value == cell.config_hash) {
                // With recording on, the series file is part of the cell:
                // a result without one is a miss and the cell recomputes.
                if (!cfg_.recording.enabled ||
                    series_cache_valid(series_cache_path, cell.config_hash)) {
                    oc.cached = true;
                    oc.result = std::move(cached.value);
                    text = slurp(cache_path);
                    if (cfg_.recording.enabled) series_text = slurp(series_cache_path);
                }
            }
            // A stale or corrupt cache entry is not an error: recompute.
        }

        if (!oc.cached) {
            ScenarioSpec spec = cell.spec;
            if (cfg_.threads != 0) spec.threads = cfg_.threads;
            const ReplicaRunner runner{std::move(spec)};
            ReplicaObservers observers;
            observers.recording = cfg_.recording;
            observers.hashing = cfg_.state_hash;
            // The trace ring rides on replica 0 of the first computed cell.
            if (observers.hashing && out.hash_trace == nullptr) {
                observers.hash_trace_capacity = cfg_.hash_trace_capacity;
            }
            const std::vector<ReplicaResult> replicas = runner.run(observers);
            if (observers.hashing) {
                oc.hashed = true;
                oc.state_hash = ReplicaRunner::merged_state_hash(replicas);
                ++out.hashed_cells;
                if (out.hash_trace == nullptr && !replicas.empty()) {
                    out.hash_trace = replicas[0].hash_trace;
                }
            }
            const AggregateRow row = runner.aggregate(replicas);
            text = cell_result_json(cell, row, replicas, cell.spec.badabing.slot_width);
            JsonParse reparsed = json_parse(text, cache_path.empty() ? "<cell>" : cache_path);
            oc.result = std::move(reparsed.value);
            if (!cache_path.empty()) write_text_file(cache_path, text);
            if (cfg_.recording.enabled && !replicas.empty() && replicas[0].series) {
                series_text = replicas[0].series->json(cell.config_hash);
                if (!series_cache_path.empty()) {
                    write_text_file(series_cache_path, series_text);
                }
            }
        }

        if (!cfg_.out_dir.empty() && !text.empty()) {
            write_text_file(cfg_.out_dir + "/" + sweep_name + "-" + cell.config_hash + ".json",
                            text);
        }
        if (!series_dir.empty() && !series_text.empty()) {
            write_text_file(
                series_dir + "/" + sweep_name + "-" + cell.config_hash + ".series.json",
                series_text);
        }
        const bool cached_cell = oc.cached;
        out.computed += oc.cached ? 0 : 1;
        out.cached += oc.cached ? 1 : 0;
        out.cells.push_back(std::move(oc));

        const double cell_s =  // bb-det: allow(no-time-seed) — progress display only
            std::chrono::duration<double>(std::chrono::steady_clock::now() - cell_t0)
                .count();
        const SweepProgress p = tracker.on_cell(cell.config_hash, cached_cell, cell_s);
        if (cfg_.progress) cfg_.progress(p);
    }
    if (cfg_.state_hash) {
        std::vector<std::uint64_t> digests;
        digests.reserve(out.cells.size());
        for (const auto& c : out.cells) {
            if (c.hashed) digests.push_back(c.state_hash);
        }
        out.merged_state_hash = core::RunHasher::merge(digests);
    }
    out.ok = true;
    return out;
}

}  // namespace bb::scenarios
