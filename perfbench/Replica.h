//===-- perfbench/Replica.h - Traced replica of the scheduling loop -------===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VirtualOrganization::runIteration and Metascheduler::runIteration
/// rebuilt from the public layer calls only (ComputingDomain, SimClock,
/// JobQueue, ReservationLedger, PersistentSlotFilter, AlternativeSearch,
/// computeTimeQuota / computeVoBudget, DpOptimizer), with one span per
/// call. The traced run drives the replica in lockstep with the facade
/// and fails unless every iteration's schedule digest matches, so the
/// per-layer split it reports is the split of the facade's own work.
///
//===----------------------------------------------------------------------===//

#ifndef ECOSCHED_PERFBENCH_REPLICA_H
#define ECOSCHED_PERFBENCH_REPLICA_H

#include "Trace.h"

#include "core/DpOptimizer.h"
#include "core/Metascheduler.h"
#include "core/PersistentSlotFilter.h"
#include "engine/JobQueue.h"
#include "engine/ReservationLedger.h"
#include "engine/SimClock.h"
#include "engine/VirtualOrganization.h"
#include "sim/ComputingDomain.h"

#include <optional>

namespace perfbench {

/// Metascheduler::runIteration, phase by phase, with spans for the
/// sweep, the T*/B* limits and the DP solve.
ecosched::IterationOutcome
tracedSchedule(const ecosched::SlotSearchAlgorithm &Algo,
               const ecosched::DpOptimizer &Optimizer,
               const ecosched::Metascheduler::Config &Cfg,
               const ecosched::SlotList &List, const ecosched::Batch &Jobs,
               ecosched::PersistentSlotFilter *Reuse, SpanRecorder &Rec);

/// VirtualOrganization with every layer call traced. Owner and user
/// writes mirror the facade's injectNodeFailure / repairNode / cancelJob
/// and the mutableDomain() price and local-task updates.
class ReplicaVo {
public:
  /// \p Algo and \p Optimizer must outlive the replica.
  ReplicaVo(ecosched::ComputingDomain Domain,
            const ecosched::SlotSearchAlgorithm &Algo,
            const ecosched::DpOptimizer &Optimizer,
            ecosched::Metascheduler::Config SchedCfg,
            ecosched::VirtualOrganization::Config Cfg);

  void submit(const ecosched::Job &J) { Queue.submit(J); }

  ecosched::VirtualOrganization::IterationReport
  runIteration(SpanRecorder &Rec);

  size_t injectNodeFailure(int NodeId, SpanRecorder &Rec);
  void repairNode(int NodeId, SpanRecorder &Rec);
  bool cancelJob(int JobId, SpanRecorder &Rec);
  void setNodePrice(int NodeId, ecosched::Price UnitPrice, SpanRecorder &Rec);
  bool addLocalTask(int NodeId, ecosched::TimePoint Start,
                    ecosched::TimePoint End, SpanRecorder &Rec);

  ecosched::TimePoint now() const { return Clock.now(); }

private:
  ecosched::ComputingDomain Domain;
  const ecosched::SlotSearchAlgorithm &Algo;
  const ecosched::DpOptimizer &Optimizer;
  ecosched::Metascheduler::Config SchedCfg;
  ecosched::VirtualOrganization::Config Cfg;
  ecosched::SimClock Clock;
  ecosched::JobQueue Queue;
  ecosched::ReservationLedger Ledger;
  std::optional<ecosched::PersistentSlotFilter> Filter;
};

} // namespace perfbench

#endif // ECOSCHED_PERFBENCH_REPLICA_H
