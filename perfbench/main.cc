// Workload driver for the repository benchmark (see README.md here).
//
//   oneedit_perfbench --workload read_heavy|edit_collab|tenant_shards
//                     --seed N --seconds S --trace 0|1 --dir DIR
//
// Prints one JSON object on its last line of standard output: the run's
// end-to-end metrics, per-layer metrics (traced runs), phase counts,
// diagnostics and correctness verdict. Exits 0 whether or not operations
// failed; exits 1 only on a correctness violation, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += Escape(kv[i].first);
    out += "\":";
    out += Number(kv[i].second);
  }
  return out + "}";
}

int Usage() {
  std::cerr << "usage: oneedit_perfbench --workload "
               "read_heavy|edit_collab|tenant_shards --seed N --seconds S "
               "--trace 0|1 --dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      return Usage();
    }
  }
  if (options.dir.empty() || options.seconds <= 0.0 || argc % 2 == 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  std::filesystem::create_directories(options.dir, ec);

  perfbench::Report report;
  if (options.workload == "read_heavy") {
    report = perfbench::RunReadHeavy(options);
  } else if (options.workload == "edit_collab") {
    report = perfbench::RunEditCollab(options);
  } else if (options.workload == "tenant_shards") {
    report = perfbench::RunTenantShards(options);
  } else {
    return Usage();
  }

  std::ostringstream out;
  out << "{\"workload\":\"" << Escape(options.workload)
      << "\",\"seed\":" << options.seed
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"correct\":" << (report.violations.empty() ? "true" : "false")
      << ",\"violations\":[";
  for (size_t i = 0; i < report.violations.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << Escape(report.violations[i])
        << "\"";
  }
  out << "],\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"e2e\":" << Object(report.e2e)
      << ",\"layer\":" << Object(report.layer) << ",\"info\":{";
  for (size_t i = 0; i < report.info.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << Escape(report.info[i].first)
        << "\":\"" << Escape(report.info[i].second) << "\"";
  }
  out << "},\"phases\":[";
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const perfbench::PhaseCounts& p = report.phases[i];
    out << (i > 0 ? "," : "") << "{\"name\":\"" << Escape(p.name)
        << "\",\"reads_sent\":" << p.reads_sent
        << ",\"reads_ok\":" << p.reads_ok
        << ",\"reads_failed\":" << p.reads_failed
        << ",\"edits_sent\":" << p.edits_sent
        << ",\"edits_ok\":" << p.edits_ok
        << ",\"edits_failed\":" << p.edits_failed << "}";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return report.violations.empty() ? 0 : 1;
}
