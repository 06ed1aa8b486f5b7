//===-- perfbench/Replica.cpp - Traced replica of the scheduling loop -----===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//

#include "Replica.h"

#include "core/Limits.h"

using namespace ecosched;

namespace perfbench {

namespace {

/// Inner-loop cells DpOptimizer::solve visits for \p P, derived from the
/// problem shape rather than measured: two backward runs (ceil and floor
/// rounding), each over every alternative of every job and every cell of
/// the (Bins + 1)-wide constraint axis.
uint64_t dpCells(const CombinationProblem &P, size_t Bins) {
  if (P.PerJob.empty() || P.Limit < 0.0)
    return 0;
  uint64_t Alternatives = 0;
  for (const auto &Alts : P.PerJob) {
    if (Alts.empty())
      return 0;
    Alternatives += Alts.size();
  }
  const uint64_t Width = (P.Limit > 0.0 ? Bins : 0) + 1;
  return 2 * Alternatives * Width;
}

void postponeAll(IterationOutcome &Outcome, const Batch &Jobs) {
  Outcome.Postponed.clear();
  for (const Job &J : Jobs)
    Outcome.Postponed.push_back(J.Id);
}

} // namespace

IterationOutcome tracedSchedule(const SlotSearchAlgorithm &Algo,
                                const DpOptimizer &Optimizer,
                                const Metascheduler::Config &Cfg,
                                const SlotList &List, const Batch &Jobs,
                                PersistentSlotFilter *Reuse,
                                SpanRecorder &Rec) {
  IterationOutcome Outcome;
  {
    SpanRecorder::Scope S(Rec, Layer::Sweep);
    AlternativeSearch Search(Algo, Cfg.Search);
    Outcome.Alternatives = Search.run(List, Jobs, &Outcome.Stats, Reuse);
  }
  WorkCounters &C = Rec.counters();
  C.SlotsExamined += Outcome.Stats.SlotsExamined;
  C.GroupOps += Outcome.Stats.GroupOperations;
  C.Alternatives += Outcome.Alternatives.total();
  C.SearchedJobs += Jobs.size();

  std::vector<size_t> Covered;
  for (size_t I = 0, E = Jobs.size(); I != E; ++I) {
    if (Outcome.Alternatives.PerJob[I].empty())
      Outcome.Postponed.push_back(Jobs[I].Id);
    else
      Covered.push_back(I);
  }
  const bool FullyCovered = Outcome.Postponed.empty();
  if (Covered.empty() || (!FullyCovered && !Cfg.AllowPartialBatch)) {
    postponeAll(Outcome, Jobs);
    return Outcome;
  }

  std::vector<std::vector<AlternativeValue>> Values;
  Values.reserve(Covered.size());
  for (size_t I : Covered) {
    std::vector<AlternativeValue> JobValues;
    for (const Window &W : Outcome.Alternatives.PerJob[I])
      JobValues.push_back({W.totalCost().value(), W.timeSpan().value()});
    Values.push_back(std::move(JobValues));
  }

  {
    SpanRecorder::Scope S(Rec, Layer::Limits);
    Outcome.TimeQuota = computeTimeQuota(Values, Cfg.Quota);
    Outcome.VoBudget =
        computeVoBudget(Values, Duration(Outcome.TimeQuota), Optimizer);
  }

  CombinationProblem Problem;
  Problem.PerJob = std::move(Values);
  if (Cfg.Task == OptimizationTaskKind::MinimizeTime) {
    Problem.Objective = MeasureKind::Time;
    Problem.Constraint = MeasureKind::Cost;
    Problem.Limit = Outcome.VoBudget;
  } else {
    Problem.Objective = MeasureKind::Cost;
    Problem.Constraint = MeasureKind::Time;
    Problem.Limit = Outcome.TimeQuota;
  }
  Problem.Direction = DirectionKind::Minimize;

  if (Outcome.VoBudget < 0.0) {
    postponeAll(Outcome, Jobs);
    return Outcome;
  }

  {
    SpanRecorder::Scope S(Rec, Layer::DpSolve);
    Outcome.Choice = Optimizer.solve(Problem);
  }
  Rec.counters().DpCells += dpCells(Problem, Optimizer.bins());
  if (!Outcome.Choice.Feasible) {
    postponeAll(Outcome, Jobs);
    return Outcome;
  }

  for (size_t K = 0, E = Covered.size(); K != E; ++K) {
    const size_t BatchIndex = Covered[K];
    ScheduledJob S;
    S.JobId = Jobs[BatchIndex].Id;
    S.BatchIndex = BatchIndex;
    S.AlternativeIndex = Outcome.Choice.Selected[K];
    S.W = Outcome.Alternatives.PerJob[BatchIndex][S.AlternativeIndex];
    Outcome.Scheduled.push_back(std::move(S));
  }
  return Outcome;
}

ReplicaVo::ReplicaVo(ComputingDomain InDomain, const SlotSearchAlgorithm &Algo,
                     const DpOptimizer &Optimizer,
                     Metascheduler::Config SchedCfg,
                     VirtualOrganization::Config Cfg)
    : Domain(std::move(InDomain)), Algo(Algo), Optimizer(Optimizer),
      SchedCfg(SchedCfg), Cfg(Cfg),
      Clock(Duration(Cfg.IterationPeriod), Duration(Cfg.HorizonLength)),
      Queue(Cfg.MaxAttempts) {}

VirtualOrganization::IterationReport
ReplicaVo::runIteration(SpanRecorder &Rec) {
  SpanRecorder::Scope Root(Rec, Layer::Iteration);
  VirtualOrganization::IterationReport Report;
  Report.Now = Clock.now().value();
  Report.QueueLength = Queue.size();

  Batch Jobs;
  {
    SpanRecorder::Scope S(Rec, Layer::Queue);
    Jobs = Queue.batch();
  }
  if (!Jobs.empty()) {
    SlotList Slots;
    {
      SpanRecorder::Scope S(Rec, Layer::VacantSlots);
      Slots = Domain.vacantSlots(Clock.now(), Clock.horizonEnd());
    }
    Rec.counters().SlotsPublished += Slots.size();

    PersistentSlotFilter *Reuse = nullptr;
    SearchStats SyncStats;
    if (Cfg.ReuseFilter && SchedCfg.Search.UseFilter) {
      SpanRecorder::Scope S(Rec, Layer::FilterSync);
      if (!Filter)
        Filter.emplace(Algo);
      Filter->sync(Slots, Jobs, &SyncStats);
      Reuse = &*Filter;
    }
    WorkCounters &C = Rec.counters();
    C.DeltaOps += SyncStats.FilterDeltaOps;
    C.ViewReuses += SyncStats.FilterViewReuses;
    C.ViewRebuilds += SyncStats.FilterViewRebuilds;

    Report.Outcome =
        tracedSchedule(Algo, Optimizer, SchedCfg, Slots, Jobs, Reuse, Rec);
    Report.Outcome.Stats += SyncStats;

    std::vector<size_t> CommittedIndices;
    CommittedIndices.reserve(Report.Outcome.Scheduled.size());
    {
      SpanRecorder::Scope S(Rec, Layer::LedgerCommit);
      for (const ScheduledJob &SJ : Report.Outcome.Scheduled) {
        const JobQueue::PendingJob &P = Queue.at(SJ.BatchIndex);
        Ledger.commit(Domain, SJ, P.Spec, P.Attempts + 1);
        CommittedIndices.push_back(SJ.BatchIndex);
        ++Report.Committed;
      }
    }
    Rec.counters().Commits += Report.Committed;
    SpanRecorder::Scope S(Rec, Layer::Queue);
    Queue.removeScheduled(CommittedIndices);
  }

  {
    SpanRecorder::Scope S(Rec, Layer::Queue);
    Report.Dropped = Queue.chargeAttempt();
  }
  SpanRecorder::Scope S(Rec, Layer::Retire);
  Clock.advance();
  Domain.advanceTo(Clock.now());
  Ledger.retireFinished(Clock.now());
  return Report;
}

size_t ReplicaVo::injectNodeFailure(int NodeId, SpanRecorder &Rec) {
  SpanRecorder::Scope S(Rec, Layer::LedgerCancel);
  const std::vector<ReservationLedger::RequeuedJob> Requeued =
      Ledger.cancelOnNode(Domain, NodeId, Clock.now());
  for (const ReservationLedger::RequeuedJob &R : Requeued)
    Queue.resubmitFront(R.Spec, R.Attempts);
  return Requeued.size();
}

void ReplicaVo::repairNode(int NodeId, SpanRecorder &Rec) {
  SpanRecorder::Scope S(Rec, Layer::Mutate);
  Domain.restoreNode(NodeId);
}

bool ReplicaVo::cancelJob(int JobId, SpanRecorder &Rec) {
  {
    SpanRecorder::Scope S(Rec, Layer::Queue);
    if (Queue.cancel(JobId))
      return true;
  }
  SpanRecorder::Scope S(Rec, Layer::LedgerCancel);
  return Ledger.release(Domain, JobId);
}

void ReplicaVo::setNodePrice(int NodeId, Price UnitPrice, SpanRecorder &Rec) {
  SpanRecorder::Scope S(Rec, Layer::Mutate);
  Domain.setNodePrice(NodeId, UnitPrice);
}

bool ReplicaVo::addLocalTask(int NodeId, TimePoint Start, TimePoint End,
                             SpanRecorder &Rec) {
  SpanRecorder::Scope S(Rec, Layer::Mutate);
  return Domain.addLocalTask(NodeId, Start, End);
}

} // namespace perfbench
