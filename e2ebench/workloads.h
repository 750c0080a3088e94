// The benchmark's three workloads. Each episode builds a fresh cluster
// (the timed set-up), runs a fixed op list generated from the seed before
// timing starts (the measured phase), and then checks the outcome. The
// same seed gives the same op list and, on the deterministic runtime, the
// same counter values in every episode.
#ifndef FICUS_E2EBENCH_WORKLOADS_H_
#define FICUS_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/instrument.h"

namespace ficus::e2e {

// Differences of the stack's own counters over the measured phase, keyed
// by name (see Snapshot in workloads.cc for the list).
using CounterMap = std::map<std::string, double>;

struct EpisodeResult {
  bool traced = false;
  double setup_s = 0;       // workload start to the first timed op
  double add_host_ms = 0;   // Cluster::AddHost calls (device + format)
  double seed_ms = 0;       // seeding and initial convergence
  std::vector<double> read_us;
  std::vector<double> update_us;
  std::vector<double> lag_ms;
  std::vector<double> converge_ms;
  std::vector<double> propagation_pass_ms;
  std::vector<double> reconcile_pass_ms;
  uint64_t client_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t pumps = 0;
  uint64_t failed_pumps = 0;
  double busy_s = 0;        // inside client ops and daemon pumps
  double phase_wall_s = 0;  // the whole measured phase, bench loop included
  double space_amp = 0;     // UFS bytes in use per live user byte (replica hosts)
  double user_bytes_written = 0;  // payload of acknowledged client writes
  CounterMap counters;
  std::vector<std::string> failures;  // failed correctness checks
  std::vector<Span> spans;            // traced episodes only
};

const std::vector<std::string>& WorkloadNames();

// Runs one episode of `workload`. `traced` mounts the client through the
// timing layers and records spans.
EpisodeResult RunEpisode(const std::string& workload, uint64_t seed, bool traced);

// The counters that must repeat exactly across episodes of one seed and
// between the traced and untraced stacks.
const std::vector<std::string>& DeterministicCounters();

}  // namespace ficus::e2e

#endif  // FICUS_E2EBENCH_WORKLOADS_H_
