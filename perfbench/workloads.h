#ifndef ONEEDIT_PERFBENCH_WORKLOADS_H_
#define ONEEDIT_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// One EditService running OneEdit(GRACE) on a 200-case world; two
/// closed-loop Zipf readers and an open-loop 20/s single-user edit trickle.
Report RunReadHeavy(const Options& options);

/// One EditService running OneEdit(MEMIT) on the 60-case world; eight
/// closed-loop multi-user edit clients (one in five an utterance) and one
/// reader that reads each acknowledged slot first.
Report RunEditCollab(const Options& options);

/// Two journaled OneEdit(GRACE) shards behind a ShardRouter serving three
/// tenants; eight closed-loop multi-user edit clients (cross-shard edits
/// run two-phase commit) and one routed reader.
Report RunTenantShards(const Options& options);

}  // namespace perfbench

#endif  // ONEEDIT_PERFBENCH_WORKLOADS_H_
