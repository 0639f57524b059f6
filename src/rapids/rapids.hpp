#pragma once

/// \file rapids.hpp
/// Umbrella header: the complete public API of the RAPIDS library.
///
/// Typical usage (see examples/quickstart.cpp):
///
///   rapids::storage::Cluster cluster({.num_systems = 16, .failure_prob = 0.01});
///   auto db = rapids::kv::Db::open("meta_db");
///   rapids::core::RapidsPipeline pipeline(cluster, *db);
///   auto report  = pipeline.prepare(field, dims, "my_object");
///   auto restore = pipeline.restore("my_object");

#include "rapids/control/controller.hpp"
#include "rapids/core/availability.hpp"
#include "rapids/core/baselines.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/gather.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/field_generators.hpp"
#include "rapids/data/raw_io.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/net/bandwidth.hpp"
#include "rapids/net/bandwidth_tracker.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/perf/accelerator_model.hpp"
#include "rapids/perf/calibration.hpp"
#include "rapids/perf/scaling_model.hpp"
#include "rapids/service/service.hpp"
#include "rapids/simd/cpu_features.hpp"
#include "rapids/simd/gf256_kernels.hpp"
#include "rapids/solver/aco.hpp"
#include "rapids/storage/cluster.hpp"
#include "rapids/storage/failure.hpp"
#include "rapids/storage/placement.hpp"
#include "rapids/util/crc32c.hpp"
#include "rapids/util/logging.hpp"
#include "rapids/util/rng.hpp"
#include "rapids/util/timer.hpp"
