// repro_report — renders BENCH_*.json artifacts (bench_runner) as markdown.
// For each file: a "### <bench> — <title>" heading and one table whose
// first column is the sweep axis and whose remaining columns are the union
// of the points' model fields in first-seen order (a point without a field
// leaves its cell empty). The measured side of EXPERIMENTS.md is this
// output over a full `bench_runner --experiments=all` run; the theorem
// envelope fits are printed by tools/scaling_check.
//
//   ./repro_report artifacts/BENCH_*.json
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using dmpc::Json;

std::string cell(const Json& value) {
  return value.is_string() ? value.as_string() : value.dump();
}

void render(const Json& doc) {
  const auto& points = doc.at("points").items();
  std::vector<std::string> columns;
  for (const Json& point : points) {
    for (const auto& [key, value] : point.at("model").fields()) {
      if (std::find(columns.begin(), columns.end(), key) == columns.end()) {
        columns.push_back(key);
      }
    }
  }
  std::printf("\n### %s — %s\n\n| %s |", doc.at("bench").as_string().c_str(),
              doc.at("title").as_string().c_str(),
              doc.at("axis").as_string().c_str());
  for (const auto& column : columns) std::printf(" %s |", column.c_str());
  std::printf("\n|---|");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("---|");
  std::printf("\n");
  for (const Json& point : points) {
    std::printf("| %s |", cell(point.at("axis_value")).c_str());
    const Json& model = point.at("model");
    for (const auto& column : columns) {
      const Json* value = model.find(column);
      std::printf(" %s |", value != nullptr ? cell(*value).c_str() : "");
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: repro_report BENCH_*.json...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    try {
      render(Json::parse_file(argv[i]));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", argv[i], e.what());
      return 2;
    }
  }
  return 0;
}
