#include "bench_util.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/string_util.h"

namespace hyppo::bench {

namespace {

const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kReduced:
      return "reduced";
    case Scale::kFull:
      return "full";
  }
  return "unknown";
}

// JSON string escaping lives in common/string_util (hyppo::JsonEscape);
// unqualified calls below resolve to it through the enclosing namespace.

// Linear-interpolated quantile of sorted, non-empty `values`.
double SortedQuantile(const std::vector<double>& values, double q) {
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace

RepeatedMeasurement MeasureRepeated(const std::function<void()>& fn) {
  return MeasureRepeated(std::vector<std::function<void()>>{fn})[0];
}

std::vector<RepeatedMeasurement> MeasureRepeated(
    const std::vector<std::function<void()>>& fns) {
  constexpr int kRepeats = 5;
  constexpr double kMinBatchSeconds = 0.02;
  const WallClock clock;
  std::vector<int64_t> batches;
  for (const std::function<void()>& fn : fns) {
    fn();  // warm-up
    int64_t batch = 1;
    for (;;) {
      Stopwatch watch(clock);
      for (int64_t i = 0; i < batch; ++i) {
        fn();
      }
      if (watch.Elapsed() >= kMinBatchSeconds ||
          batch >= (int64_t{1} << 20)) {
        break;
      }
      batch *= 2;
    }
    batches.push_back(batch);
  }
  std::vector<std::vector<double>> per_call(
      fns.size(), std::vector<double>(kRepeats));
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t f = 0; f < fns.size(); ++f) {
      Stopwatch watch(clock);
      for (int64_t i = 0; i < batches[f]; ++i) {
        fns[f]();
      }
      per_call[f][static_cast<size_t>(r)] =
          watch.Elapsed() / static_cast<double>(batches[f]);
    }
  }
  std::vector<RepeatedMeasurement> out(fns.size());
  for (size_t f = 0; f < fns.size(); ++f) {
    std::vector<double>& seconds = per_call[f];
    std::sort(seconds.begin(), seconds.end());
    out[f].median = SortedQuantile(seconds, 0.5);
    out[f].p10 = SortedQuantile(seconds, 0.1);
    out[f].p90 = SortedQuantile(seconds, 0.9);
    out[f].repeats = kRepeats;
  }
  return out;
}

Scale BenchScale() {
  const char* scale = std::getenv("HYPPO_BENCH_SCALE");
  if (scale == nullptr) {
    return Scale::kReduced;
  }
  if (std::strcmp(scale, "full") == 0) {
    return Scale::kFull;
  }
  if (std::strcmp(scale, "smoke") == 0) {
    return Scale::kSmoke;
  }
  return Scale::kReduced;
}

bool FullScale() { return BenchScale() == Scale::kFull; }

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.json_path = argv[++i];
      } else {
        args.json_default = true;
      }
    }
  }
  return args;
}

std::string BenchOutputDir() {
  const char* env = std::getenv("HYPPO_BENCH_OUT");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  struct stat st{};
  if (stat("bench", &st) == 0 && (st.st_mode & S_IFDIR) != 0) {
    return "bench";
  }
  return ".";
}

std::string ResolveJsonPath(const BenchArgs& args,
                            const std::string& default_filename) {
  if (!args.json_path.empty()) {
    return args.json_path;
  }
  if (args.json_default) {
    return BenchOutputDir() + "/" + default_filename;
  }
  return std::string();
}

JsonWriter::JsonWriter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

JsonWriter::Row& JsonWriter::Row::Set(const std::string& key, double value) {
  if (std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(key, buf);
  } else {
    fields_.emplace_back(key, "null");
  }
  return *this;
}

JsonWriter::Row& JsonWriter::Row::Set(const std::string& key,
                                      const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

JsonWriter::Row& JsonWriter::AddRow(const std::string& section) {
  for (Section& s : sections_) {
    if (s.name == section) {
      return s.rows.emplace_back();
    }
  }
  Section& s = sections_.emplace_back();
  s.name = section;
  return s.rows.emplace_back();
}

bool JsonWriter::WriteTo(const std::string& path) const {
  if (path.empty()) {
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot write JSON to %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\"bench\": \"%s\", \"scale\": \"%s\", \"sections\": [",
               JsonEscape(bench_name_).c_str(), ScaleName(BenchScale()));
  bool first_section = true;
  for (const Section& s : sections_) {
    std::fprintf(file, "%s\n  {\"section\": \"%s\", \"rows\": [",
                 first_section ? "" : ",", JsonEscape(s.name).c_str());
    first_section = false;
    bool first_row = true;
    for (const Row& row : s.rows) {
      std::fprintf(file, "%s\n    {", first_row ? "" : ",");
      first_row = false;
      bool first_field = true;
      for (const auto& [key, encoded] : row.fields_) {
        std::fprintf(file, "%s\"%s\": %s", first_field ? "" : ", ",
                     JsonEscape(key).c_str(), encoded.c_str());
        first_field = false;
      }
      std::fprintf(file, "}");
    }
    std::fprintf(file, "\n  ]}");
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
  std::printf("JSON results written to %s\n", path.c_str());
  return true;
}

void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s   [scale: %s]\n", paper_ref.c_str(),
              ScaleName(BenchScale()));
  std::printf("================================================================\n");
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append("  ");
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Speedup(double baseline, double value) {
  if (value <= 0.0) {
    return "-";
  }
  return FormatDouble(baseline / value, 2) + "x";
}

}  // namespace hyppo::bench
