// One machine of the online cluster simulator.
//
// Owns the machine-local pieces a Borglet owns: the resident task set (each
// with its live usage model, held by the same MachineUsageKernel the trace
// generator runs), the peak predictor, and the latency tracker. Each
// interval the machine generates its tasks' usage, measures demand against
// physical capacity, samples a CPU scheduling latency, feeds the predictor,
// and publishes a prediction. Usage samples are appended to a
// CellTraceBuilder so the sealed trace can feed post-hoc oracle analysis
// through the trace-simulator machinery.

#ifndef CRF_CLUSTER_MACHINE_H_
#define CRF_CLUSTER_MACHINE_H_

#include <memory>
#include <vector>

#include "crf/cluster/latency_model.h"
#include "crf/core/predictor.h"
#include "crf/trace/trace_builder.h"
#include "crf/trace/workload_model.h"
#include "crf/util/rng.h"

namespace crf {

class ClusterMachine {
 public:
  ClusterMachine(int machine_index, double capacity,
                 std::unique_ptr<PeakPredictor> predictor, const LatencyModelParams& latency,
                 const Rng& rng);

  // Starts running the task registered in the builder at `trace_index` for
  // `runtime` intervals beginning at `now`.
  void StartTask(CellTraceBuilder& trace, int32_t trace_index, const TaskUsageParams& params,
                 Interval now, Interval runtime);

  struct StepStats {
    double demand_mean = 0.0;    // mean within-interval total demand
    double demand_peak = 0.0;    // peak within-interval total demand
    double usage_sum = 0.0;      // sum of per-task p90 scalars (trace view)
    double limit_sum = 0.0;
    double prediction = 0.0;     // published at the end of this interval
    double free_capacity = 0.0;  // capacity - prediction, floored at 0
    double latency = 0.0;        // CPU scheduling latency sample
    int resident_tasks = 0;
  };

  // Advances one interval: retires tasks ending at `now`, generates usage,
  // records it into `trace`, samples latency, and refreshes the prediction.
  StepStats Step(Interval now, double shared_load, CellTraceBuilder& trace);

  double capacity() const { return capacity_; }
  // Advertised free capacity for the scheduler: capacity - predicted peak.
  double FreeCapacity() const;
  int resident_count() const { return usage_.size(); }

 private:
  int machine_index_;
  double capacity_;
  std::unique_ptr<PeakPredictor> predictor_;
  LatencyModel latency_model_;
  Rng usage_rng_;
  MachineUsageKernel usage_;  // rows are trace indices
  double prediction_ = 0.0;
  std::vector<TaskSample> samples_scratch_;
};

}  // namespace crf

#endif  // CRF_CLUSTER_MACHINE_H_
