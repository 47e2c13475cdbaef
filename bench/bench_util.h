// Shared helpers for the benchmark binaries: synthetic problem instances
// for selection-phase timing, shaped like the paper's Table 2 workload,
// the snapshot a bench's serving nodes start on, plus a machine-readable
// JSON emitter so CI and tooling can track bench numbers without
// parsing the human tables.

#ifndef OPTSELECT_BENCH_BENCH_UTIL_H_
#define OPTSELECT_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate.h"
#include "core/utility.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_snapshot.h"
#include "util/rng.h"
#include "util/status.h"

namespace optselect {
namespace bench {

/// A timing instance: n candidates, m specializations, cluster-structured
/// utilities (each candidate is strongly useful for one specialization,
/// weakly or not at all for the others), Zipf-flavored probabilities.
struct TimingInstance {
  core::DiversificationInput input;
  core::UtilityMatrix utilities;
};

inline TimingInstance MakeTimingInstance(util::Rng* rng, size_t n,
                                         size_t m) {
  TimingInstance ti;
  ti.input.query = "bench";
  ti.utilities = core::UtilityMatrix(n, m);

  double norm = 0;
  std::vector<double> probs(m);
  for (size_t j = 0; j < m; ++j) {
    probs[j] = 1.0 / static_cast<double>(j + 1);
    norm += probs[j];
  }
  for (size_t j = 0; j < m; ++j) {
    core::SpecializationProfile sp;
    sp.query = "bench s" + std::to_string(j);
    sp.probability = probs[j] / norm;
    ti.input.specializations.push_back(std::move(sp));
  }

  ti.input.candidates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(i);
    c.relevance = rng->UniformDouble();
    ti.input.candidates.push_back(std::move(c));
    size_t home = rng->Uniform(m);
    ti.utilities.Set(i, home, 0.3 + 0.7 * rng->UniformDouble());
    // Mild off-cluster leakage for realism.
    if (rng->Bernoulli(0.2)) {
      ti.utilities.Set(i, (home + 1) % m, 0.1 * rng->UniformDouble());
    }
  }
  return ti;
}

/// `store` the way every serving start-up serves it: a snapshot over the
/// store's in-memory v4 image (MappedStoreFile::FromStore). Exits when
/// the OS refuses the mapping.
inline std::shared_ptr<const store::StoreSnapshot> ImageSnapshot(
    const store::DiversificationStore& store) {
  auto image = store::MappedStoreFile::FromStore(store);
  if (!image.ok()) {
    std::fprintf(stderr, "error: %s\n", image.status().ToString().c_str());
    std::exit(1);
  }
  return store::StoreSnapshot::FromMapped(std::move(image).value());
}

/// Collects benchmark records and writes them as `BENCH_<bench>.json`
/// next to the working directory, one object per record:
///
///   { "bench": "serving_throughput",
///     "records": [ { "name": "workers=4", "wall_ms": 812.1,
///                    "qps": 1231.5, "params": { "workers": 4 } }, ... ] }
///
/// Values are plain doubles; parameter maps are flat. Emit alongside the
/// human-readable table, never instead of it.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Adds one record. `params` is a flat list of (key, value) pairs;
  /// `tags` are string-valued params rendered as quoted JSON strings in
  /// the same "params" object (e.g. {"backend", "streaming"}).
  /// check_bench.py only gates correctness keys and `*_ms` params, so
  /// tags are descriptive, never compared numerically.
  void Add(const std::string& name,
           const std::vector<std::pair<std::string, double>>& params,
           double wall_ms, double qps,
           const std::vector<std::pair<std::string, std::string>>& tags =
               {}) {
    records_.push_back(Record{name, params, tags, wall_ms, qps});
  }

  /// Attaches a metrics-registry snapshot — the verbatim output of
  /// obs::MetricsRegistry::RenderJson() — embedded under the document's
  /// top-level "metrics" key. Benches with a serving component call
  /// this right after the measured run; benches without one emit the
  /// default empty object. check_bench.py compares only "records" (and
  /// within them only baseline-known keys), so the block is context for
  /// humans and tooling, never a gate.
  void SetMetricsJson(std::string registry_json) {
    metrics_json_ = std::move(registry_json);
  }

  /// Renders the full document.
  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + Escape(bench_name_) +
                      "\",\n  \"records\": [";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    { \"name\": \"" + Escape(r.name) + "\"";
      out += ", \"wall_ms\": " + FormatDouble(r.wall_ms);
      out += ", \"qps\": " + FormatDouble(r.qps);
      out += ", \"params\": {";
      for (size_t j = 0; j < r.params.size(); ++j) {
        out += j == 0 ? " " : ", ";
        out += "\"" + Escape(r.params[j].first) +
               "\": " + FormatDouble(r.params[j].second);
      }
      for (size_t j = 0; j < r.tags.size(); ++j) {
        out += r.params.empty() && j == 0 ? " " : ", ";
        out += "\"" + Escape(r.tags[j].first) + "\": \"" +
               Escape(r.tags[j].second) + "\"";
      }
      out += r.params.empty() && r.tags.empty() ? "}" : " }";
      out += " }";
    }
    out += records_.empty() ? "]" : "\n  ]";
    out += ",\n  \"metrics\": ";
    out += metrics_json_.empty() ? "{}" : metrics_json_;
    out += "\n}\n";
    return out;
  }

  /// Every numeric value must be finite: NaN/Inf have no JSON encoding
  /// and would break .github/check_bench.py's comparisons. A NaN here
  /// always means a broken measurement (0/0 on an empty phase), so it
  /// is rejected loudly instead of laundered into a parseable number.
  util::Status Validate() const {
    for (const Record& r : records_) {
      if (!std::isfinite(r.wall_ms) || !std::isfinite(r.qps)) {
        return util::Status::InvalidArgument(
            "record '" + r.name + "': non-finite wall_ms/qps");
      }
      for (const auto& [key, value] : r.params) {
        if (!std::isfinite(value)) {
          return util::Status::InvalidArgument(
              "record '" + r.name + "': non-finite param '" + key + "'");
        }
      }
    }
    return util::Status::Ok();
  }

  /// Writes `BENCH_<bench_name>.json` into `dir` ("." by default).
  /// Refuses (without writing) when Validate() fails.
  util::Status WriteFile(const std::string& dir = ".") const {
    OPTSELECT_RETURN_IF_ERROR(Validate());
    std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return util::Status::IoError("cannot open " + path);
    }
    std::string doc = ToJson();
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    // fclose flushes stdio's buffer; a failure there (e.g. ENOSPC) is a
    // failed write even when fwrite reported success.
    bool closed_ok = std::fclose(f) == 0;
    if (written != doc.size() || !closed_ok) {
      return util::Status::IoError("short write to " + path);
    }
    return util::Status::Ok();
  }

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    std::string name;
    std::vector<std::pair<std::string, double>> params;
    std::vector<std::pair<std::string, std::string>> tags;
    double wall_ms = 0;
    double qps = 0;
  };

  /// JSON string escaping per RFC 8259: quote, backslash, and every
  /// control character (common ones by short escape, the rest \u00XX).
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      unsigned char u = static_cast<unsigned char>(c);
      switch (c) {
        case '"':  out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  /// Non-finite values render as JSON null (printf would emit the
  /// unparseable bare tokens nan/inf); WriteFile rejects them first, so
  /// null only ever appears via a direct ToJson call.
  static std::string FormatDouble(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string bench_name_;
  std::vector<Record> records_;
  /// Pre-rendered JSON object (see SetMetricsJson); "{}" when unset.
  std::string metrics_json_;
};

}  // namespace bench
}  // namespace optselect

#endif  // OPTSELECT_BENCH_BENCH_UTIL_H_
