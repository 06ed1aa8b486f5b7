//===-- perfbench/Workloads.h - The benchmark's three workloads -----------===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload owns up to three systems fed the same generated inputs:
///  * the facade under test (production configuration),
///  * the textbook oracle (Search.UseFilter = false, ReuseFilter = false),
///  * the traced replica (perfbench/Replica.h).
/// Inputs of iteration I depend only on the seed and I, so a system
/// rebuilt from scratch replays the exact sequence another one saw.
///
//===----------------------------------------------------------------------===//

#ifndef ECOSCHED_PERFBENCH_WORKLOADS_H
#define ECOSCHED_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum SystemMask : unsigned {
  FacadeSystem = 1,
  OracleSystem = 2,
  ReplicaSystem = 4,
};

/// One system's share of an iteration.
struct SystemStep {
  /// Host time of the timed call (facade iteration, or the replica's
  /// whole traced iteration).
  double Ms = 0.0;
  /// Schedule digest per operation (one per tenant on vo_churn).
  std::vector<uint64_t> Digests;
  /// External jobs committed.
  size_t Placed = 0;
};

struct StepOut {
  SystemStep Facade;
  SystemStep Oracle;
  SystemStep Replica;
  /// External jobs submitted this iteration.
  size_t Submitted = 0;
};

/// Fixed shape of a workload.
struct WorkloadInfo {
  std::string Name;
  /// Iterations run by set-up before timing starts.
  size_t WarmupIterations = 0;
  /// Traced iterations whose work counters must repeat exactly.
  size_t CounterIterations = 0;
  /// Threads of the tenant fan-out; 0 when there is no pool.
  size_t PoolSize = 0;
  /// Digest-checked operations per iteration.
  size_t OpsPerIteration = 1;
};

class Workload {
public:
  virtual ~Workload() = default;

  virtual const WorkloadInfo &info() const = 0;

  /// Discards every system and builds the ones in \p Systems (a
  /// SystemMask set) fresh, before iteration 0.
  virtual void reset(unsigned Systems) = 0;

  /// Runs iteration \p I, which must follow I - 1 since the last reset,
  /// on every built system.
  virtual StepOut step(size_t I) = 0;

  /// Recorders of the replica, indexed by recorder id.
  virtual std::vector<const SpanRecorder *> recorders() const = 0;

  /// The oracle's digests of iterations [0, \p Count), one vector per
  /// iteration, replayed from a fresh set-up. Discards every system.
  virtual std::vector<std::vector<uint64_t>> replayOracle(size_t Count);
};

/// The workload named \p Name, or nullptr if there is none.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

} // namespace perfbench

#endif // ECOSCHED_PERFBENCH_WORKLOADS_H
