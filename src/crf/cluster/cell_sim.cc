#include "crf/cluster/cell_sim.h"

#include "crf/cluster/cell_sim_loop.h"

namespace crf {

ClusterSimResult RunClusterSim(const CellProfile& profile, const ClusterSimOptions& options,
                               const Rng& rng) {
  return RunClusterSimWith<Scheduler>(profile, options, rng);
}

}  // namespace crf
