#ifndef HYPPO_BENCH_BENCH_UTIL_H_
#define HYPPO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace hyppo::bench {

/// Bench problem sizes, selected by the HYPPO_BENCH_SCALE environment
/// variable: "full" = paper-scale parameters (much slower), "smoke" =
/// seconds-scale configurations for CI, anything else = the reduced
/// default that finishes in minutes while preserving the figures' shapes.
enum class Scale { kSmoke, kReduced, kFull };
Scale BenchScale();

/// True when HYPPO_BENCH_SCALE=full (equivalent to
/// BenchScale() == Scale::kFull).
bool FullScale();

/// Wall-clock seconds per call of a repeatedly timed operation: the median
/// and the 10th/90th percentiles over `repeats` timed batches.
struct RepeatedMeasurement {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  int repeats = 0;
};

/// Times `fn`: one warm-up call, then the batch size doubles until one
/// batch takes at least 20 ms (so timer resolution cannot dominate short
/// calls), then 5 batches are timed and summarized per call.
RepeatedMeasurement MeasureRepeated(const std::function<void()>& fn);

/// MeasureRepeated for variants compared against each other: each is
/// warmed and batch-sized on its own, then the 5 timed batches alternate
/// between the variants, so drift on a shared host hits all of them alike.
std::vector<RepeatedMeasurement> MeasureRepeated(
    const std::vector<std::function<void()>>& fns);

/// Common command-line arguments shared by the bench binaries.
struct BenchArgs {
  /// Destination for the machine-readable results (--json <path>); empty
  /// means text output only unless `json_default` is set.
  std::string json_path;
  /// `--json` was passed without a path: write to the bench output
  /// directory under the bench's default filename (see ResolveJsonPath).
  bool json_default = false;
};

/// Parses `--json [<path>]`; unknown arguments are ignored so benches can
/// layer their own flags on top. A bare `--json` (no path, or followed by
/// another flag) requests the default output location.
BenchArgs ParseBenchArgs(int argc, char** argv);

/// Directory where committed bench snapshots live: $HYPPO_BENCH_OUT if
/// set, else "bench" when that directory exists (running from the repo
/// root), else ".".
std::string BenchOutputDir();

/// The JSON destination for a bench: the explicit --json path when one was
/// given, `<BenchOutputDir()>/<default_filename>` for a bare `--json`, and
/// empty (no JSON output) when --json was absent.
std::string ResolveJsonPath(const BenchArgs& args,
                            const std::string& default_filename);

/// \brief Accumulates bench measurements and serializes them as a single
/// JSON document:
///   {"bench": <name>, "scale": <scale>, "sections": [
///     {"section": <s>, "rows": [{...}, ...]}, ...]}
/// Row values keep insertion order. Non-finite doubles serialize as null.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench_name);

  class Row {
   public:
    Row& Set(const std::string& key, double value);
    Row& Set(const std::string& key, const std::string& value);

   private:
    friend class JsonWriter;
    // (key, encoded JSON value) in insertion order.
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Appends a row to `section` (sections appear in first-use order).
  /// The reference stays valid for the writer's lifetime.
  Row& AddRow(const std::string& section);

  /// Writes the document to `path`; no-op when `path` is empty.
  /// Returns false (after printing a diagnostic) if the file cannot be
  /// written.
  bool WriteTo(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::deque<Row> rows;  // deque: AddRow references must stay stable
  };

  std::string bench_name_;
  std::deque<Section> sections_;
};

/// Prints a banner naming the experiment and which paper artifact it
/// regenerates.
void Banner(const std::string& title, const std::string& paper_ref);

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a speed-up factor ("12.3x").
std::string Speedup(double baseline, double value);

}  // namespace hyppo::bench

#endif  // HYPPO_BENCH_BENCH_UTIL_H_
