// scale_smoke: end-to-end guard for the scale tier, run by scripts/check.sh.
//
// Generates an M=500, N=100,000 instance, round-trips it through the binary
// codec (exercising the mmap reader), solves it with RDF, validates the
// schedule, and fails if the whole cycle blows a wall-clock budget. Keeps
// the scale path from silently rotting: any dense-matrix materialisation or
// accidental O(M*N) pass shows up as a timeout here long before it ships.
//
// Usage: scale_smoke [BUDGET_SECONDS]   (default 600 — roomy enough for the
// sanitizer build; check.sh passes a tighter budget for the regular build.)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "io/instance_binary_io.hpp"
#include "obs/session.hpp"
#include "workload/scale_instance.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtsp;
  double budget_s = 600.0;
  if (argc > 1) budget_s = std::atof(argv[1]);
  if (budget_s <= 0) {
    std::cerr << "scale_smoke: bad budget '" << argv[1] << "'\n";
    return 1;
  }

  const auto t0 = Clock::now();
  ScaleInstanceSpec spec;
  spec.servers = 500;
  spec.objects = 100'000;
  spec.replicas_per_object = 2;
  Rng gen_rng(7);
  const Instance generated = make_scale_instance(spec, gen_rng);
  std::cout << "generate: " << seconds_since(t0) << " s (M=" << spec.servers
            << ", N=" << spec.objects << ")\n";

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir ? tmpdir : "/tmp") +
                           "/rtsp_scale_smoke_" + std::to_string(::getpid()) +
                           ".bin";
  const auto t_io = Clock::now();
  write_instance_binary_file(path, generated);
  const Instance inst = read_instance_binary_file(path);
  std::remove(path.c_str());
  std::cout << "binary round-trip: " << seconds_since(t_io) << " s\n";
  if (inst.x_old != generated.x_old || inst.x_new != generated.x_new) {
    std::cerr << "scale_smoke: binary round-trip changed the placements\n";
    return 1;
  }

  const auto t_solve = Clock::now();
  Rng rng(42);
  const Schedule schedule =
      make_pipeline("RDF").run(inst.model, inst.x_old, inst.x_new, rng);
  std::cout << "solve RDF: " << seconds_since(t_solve) << " s (" << schedule.size()
            << " actions)\n";

  const auto t_validate = Clock::now();
  const auto verdict = Validator::validate(inst.model, inst.x_old, inst.x_new, schedule);
  std::cout << "validate: " << seconds_since(t_validate) << " s\n";
  if (!verdict.valid) {
    std::cerr << "scale_smoke: schedule invalid: " << verdict.to_string() << "\n";
    return 1;
  }

  const double elapsed = seconds_since(t0);
  const std::int64_t rss_kb = obs::record_peak_rss();
  std::cout << "total: " << elapsed << " s, peak rss " << rss_kb << " KiB\n";
  if (elapsed > budget_s) {
    std::cerr << "scale_smoke: blew the " << budget_s << " s budget\n";
    return 1;
  }
  std::cout << "scale_smoke: ok\n";
  return 0;
}
