#include "conclave/backends/dispatcher.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "conclave/backends/local_backend.h"
#include "conclave/backends/spark_backend.h"
#include "conclave/common/env.h"
#include "conclave/common/logging.h"
#include "conclave/common/strings.h"
#include "conclave/compiler/partition.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/mpc/malicious/commitment.h"
#include "conclave/relational/pipeline.h"

namespace conclave {
namespace backends {
namespace {

// Per-run execution state shared by the coordinator and (read-only) the pool tasks.
struct RunState {
  SimNetwork net;
  SharemindBackend sharemind;
  OblivcBackend oblivc;
  bool use_gc_backend;
  bool use_spark;
  bool malicious;
  int num_parties;
  uint64_t seed;
  uint64_t next_nonce = 0;
  // Horizontal shard count of the cleartext data plane (1 = unsharded, the
  // historical executor). Sharding changes wall clock only: every virtual-time
  // charge is computed from totals (row counts, byte sizes) that are identical at
  // any shard count, and shards coalesce before anything enters the MPC engines.
  int shard_count = 1;
  // Batch size of the push-based pipeline executor (<= 0 disables fusion; every
  // operator then materializes node-at-a-time). Batching, like sharding, changes
  // wall clock and memory only: fused chains are priced per node from row totals
  // that are identical at every batch size (DESIGN.md §10).
  int64_t batch_rows = kDefaultBatchRows;
  // Per-operator-instance memory budget of the blocking cleartext kernels
  // (DESIGN.md §12; 0 = unbounded). The physical spill work changes wall clock
  // and disk only; the virtual clock carries the priced closed form
  // (compiler::NodeSpillSeconds over node-total rows), identical at every
  // {pool, shard, batch} point and added once in the final accounting pass.
  int64_t mem_budget_rows = 0;
  // Streaming across the reveal boundary (DESIGN.md §14): a shared value whose
  // sole consumer is a fused chain head becomes a RevealSource and the chain's
  // per-shard pipelines reconstruct row ranges batch-at-a-time. Like sharding
  // and batching, this changes wall clock and memory only: the reveal is
  // charged once for the whole relation at conversion, exactly as the
  // materializing path charges it.
  bool stream_reveal = true;

  std::vector<MaterializedValue> values;  // Indexed by node id; slots never move.
  std::unordered_map<int, int> node_job;  // node id -> job id

  // Active fault injector (nullptr = injection off). Coordinator-owned, like the
  // network and engines it perturbs (net/fault.h, DESIGN.md §11); pool tasks
  // never consult it.
  FaultInjector* fault = nullptr;

  RunState(const CostModel& model, uint64_t run_seed, int parties, bool gc,
           bool spark, bool malicious_mode)
      : net(model),
        sharemind(&net, run_seed, parties),
        oblivc(&net, /*oblivm_mode=*/false),
        use_gc_backend(gc),
        use_spark(spark),
        malicious(malicious_mode),
        num_parties(parties),
        seed(run_seed) {}

  // Active-adversary protocols cost a constant factor more (§2.2); applied to the
  // MPC/hybrid portions of the virtual time.
  double MpcScale() const {
    return malicious ? net.model().malicious_overhead_factor : 1.0;
  }
};

// Moves a value into the secure domain (inputToMPC), charging ingest on the engine.
// Under malicious security, every cleartext relation entering the MPC first runs the
// Appendix-A.5 commit + ZK-consistency phase; a rejected proof aborts the query.
// Coalesces a sharded cleartext value back into the single-relation form (the MPC
// frontier and Collect contract). Callers must hold exclusive access to the value
// (no concurrent shard readers) — the executor guarantees this by treating lane
// and collect acquisitions as payload-overwriting.
void CoalesceShards(MaterializedValue& value) {
  if (value.kind != MaterializedValue::Kind::kShardedClear) {
    return;
  }
  value.clear = value.sharded.Coalesce();
  value.sharded = ShardedRelation{};
  value.kind = MaterializedValue::Kind::kCleartext;
}

Status EnsureSecure(RunState& state, MaterializedValue& value) {
  CoalesceShards(value);
  if (state.malicious && value.kind == MaterializedValue::Kind::kCleartext) {
    const PartyId owner = value.location == kNoParty ? 0 : value.location;
    CONCLAVE_RETURN_IF_ERROR(malicious::InputConsistencyPhase(
        state.net, value.clear, owner, state.num_parties,
        state.seed ^ (0x9e3779b97f4a7c15ULL + state.next_nonce++)));
  }
  if (state.use_gc_backend) {
    if (value.kind == MaterializedValue::Kind::kGarbled) {
      return Status::Ok();
    }
    CONCLAVE_CHECK(value.kind == MaterializedValue::Kind::kCleartext);
    CONCLAVE_RETURN_IF_ERROR(state.oblivc.Input(value.clear));
    value.kind = MaterializedValue::Kind::kGarbled;
    return Status::Ok();
  }
  if (value.kind == MaterializedValue::Kind::kShared) {
    return Status::Ok();
  }
  CONCLAVE_CHECK(value.kind == MaterializedValue::Kind::kCleartext);
  CONCLAVE_ASSIGN_OR_RETURN(value.shared, state.sharemind.Input(value.clear));
  value.clear = Relation{};
  value.kind = MaterializedValue::Kind::kShared;
  return Status::Ok();
}

// Moves a value into the clear at `party` (reveal / party-to-party transfer),
// coalescing sharded values first. Local-compute input acquisition uses
// EnsureLocalInputAt instead, which keeps shards intact.
void EnsureCleartextAt(RunState& state, MaterializedValue& value, PartyId party) {
  CoalesceShards(value);
  switch (value.kind) {
    case MaterializedValue::Kind::kShared:
      value.clear = state.sharemind.Reveal(value.shared);
      if (state.fault != nullptr) {
        // Reveal-path integrity under injection: corrupted deliveries are
        // detected by the commitment opening check and retransmitted.
        state.fault->DeliverReveal(value.clear);
      }
      value.shared = SharedRelation{};
      value.kind = MaterializedValue::Kind::kCleartext;
      value.location = party;
      break;
    case MaterializedValue::Kind::kGarbled:
      // Output labels decode at both parties; transfer of decoded rows is cheap.
      state.net.CountAggregateBytes(value.clear.ByteSize());
      state.net.Rounds(1);
      value.kind = MaterializedValue::Kind::kCleartext;
      value.location = party;
      break;
    case MaterializedValue::Kind::kCleartext:
      if (value.location != party && value.location != kNoParty) {
        state.net.Send(value.location, party, value.clear.ByteSize());
        state.net.Rounds(1);
        value.location = party;
      }
      break;
    case MaterializedValue::Kind::kShardedClear:
      break;  // Unreachable: coalesced above.
    case MaterializedValue::Kind::kCsvSource:
    case MaterializedValue::Kind::kRevealSource:
      // Unreachable: a streaming source is produced only when its sole consumer
      // is a fused chain head at the owning party, which acquires through
      // AcquireLocalInputs without any frontier transition.
      CONCLAVE_CHECK(false);
      break;
  }
}

// Local-compute input acquisition: like EnsureCleartextAt but keeps sharded values
// sharded (the per-party transfer charge uses the shard total, which equals the
// coalesced relation's byte size — virtual time is shard-count-invariant).
void EnsureLocalInputAt(RunState& state, MaterializedValue& value, PartyId party) {
  if (value.kind == MaterializedValue::Kind::kShardedClear) {
    if (value.location != party && value.location != kNoParty) {
      state.net.Send(value.location, party, value.sharded.ByteSize());
      state.net.Rounds(1);
      value.location = party;
    }
    return;
  }
  EnsureCleartextAt(state, value, party);
}

// Cost-model seconds a cleartext backend spends processing `records` input records
// (Spark stage throughput or sequential Python scan; the formula lives on CostModel,
// shared with the planner). The per-job Spark startup charge is added once per job
// in the final accounting pass.
double LocalComputeSeconds(const RunState& state, uint64_t records) {
  return state.net.model().CleartextScanSeconds(records, state.use_spark);
}

// How the executor treats a node: pool-executed cleartext work vs. coordinator-run
// steps (Collects mutate shared run state; MPC/hybrid nodes additionally serialize
// on the lane).
enum class NodeClass { kCreate, kLocalCompute, kCollect, kLane };

NodeClass ClassOf(const ir::OpNode& node) {
  if (node.kind == ir::OpKind::kCreate) {
    return NodeClass::kCreate;
  }
  if (node.kind == ir::OpKind::kCollect) {
    return NodeClass::kCollect;
  }
  return node.exec_mode == ir::ExecMode::kLocal ? NodeClass::kLocalCompute
                                                : NodeClass::kLane;
}

// Runs one compiled plan as a parallel job graph. The coordinator (the thread that
// calls Run) owns every piece of shared mutable simulation state — the SimNetwork,
// the MPC engines, and all value-form transitions — while pure cleartext compute
// (Create ingest, local operator chains) runs as pool tasks. See DESIGN.md §5 for
// the determinism contract this layout enforces.
class JobGraphExecutor {
 public:
  JobGraphExecutor(RunState& state, const compiler::Compilation& compilation,
                   const std::map<std::string, Relation>& inputs, ThreadPool& pool,
                   std::vector<const ir::OpNode*> topo)
      : state_(state),
        compilation_(compilation),
        inputs_(inputs),
        pool_(pool),
        topo_(std::move(topo)) {}

  StatusOr<ExecutionResult> Run();

 private:
  struct NodeExec {
    const ir::OpNode* node = nullptr;
    NodeClass klass = NodeClass::kLocalCompute;
    int remaining_inputs = 0;
    bool dispatched = false;
    bool materialized = false;
    // Pool tasks currently reading this node's materialized value. A transition
    // that overwrites the value's payload (inputToMPC moves the cleartext into the
    // engine) must wait until this drops to zero.
    int active_readers = 0;
    // Consumers (as topo indices, ascending, one entry per use) and how many of
    // those uses have performed their input acquisition. Acquisitions happen in
    // this fixed order so value-form transitions (reveal, transfer, inputToMPC)
    // replay identically regardless of pool size.
    std::vector<int> consumer_uses;
    int acquired_uses = 0;
    // Deterministic per-node virtual-time attribution, merged in topo order by the
    // final accounting pass.
    double boundary_scaled_seconds = 0;  // Reveal/transfer/ingest/MPC, x MpcScale.
    double local_compute_seconds = 0;    // Cost-model cleartext compute.
    double dp_epsilon = 0;
    bool charged_local = false;          // Participates in the Spark startup charge.
    // Injected crash count for this node's job (fault mode; decided once at
    // dispatch on the coordinator so the schedule is pool-size-independent).
    int fault_crashes = 0;
    // Priced beyond-RAM spill charge for this node (DESIGN.md §12): the
    // closed-form compiler::NodeSpillSeconds over the node's TOTAL input rows,
    // computed on the coordinator at acquisition (or, for fused interior
    // members, from the chain's summed per-op rows) — never from physical
    // shard/batch layout, so the charge is grid-invariant. Folded into
    // virtual_seconds once, in the final accounting pass; node_seconds stays
    // spill-free so the per-node estimate==meter identities are untouched.
    double spill_priced_seconds = 0;
    int64_t spill_passes = 0;
    // Physical spill counters this node's kernels reported (observability
    // only; layout-dependent).
    spill::SpillStats spill_stats;
    // Pipeline fusion (DESIGN.md §10): topo indices of this chain's members in
    // chain order (filled on the head only; length >= 2). Members execute as one
    // BatchPipeline per shard inside the head's dispatch; only the tail's output
    // materializes.
    std::vector<int> chain_members;
    // Topo index of the owning chain's head (-1 = not fused). The head points at
    // itself.
    int chain_head = -1;
  };

  struct Completion {
    int topo_index = 0;
    Status status;
    Relation output;
    ShardedRelation sharded_output;  // Valid when is_sharded.
    bool is_sharded = false;
    // Fused-chain completions: rows consumed by each chain member (summed over
    // shards). Equals the unfused execution's per-node input cardinalities at
    // every batch size; DrainCompletions prices interior members from these.
    std::vector<int64_t> chain_op_rows;
    // Physical spill counters from the task's kernels (zero when nothing
    // spilled).
    spill::SpillStats spill_stats;
    // Streaming CSV ingest (DESIGN.md §12): a Create completing as an indexed
    // source instead of a materialized relation.
    std::shared_ptr<CsvSource> csv_output;
  };

  int TopoIndexOf(int node_id) const { return topo_index_.at(node_id); }
  NodeExec& ExecOf(const ir::OpNode& node) { return execs_[TopoIndexOf(node.id)]; }

  // True when every input value may be acquired by `exec` right now: inputs are
  // materialized, this node is the next acquirer of each, and payload-overwriting
  // transitions have no concurrent readers.
  bool CanAcquireInputs(const NodeExec& exec) const;
  // Advances the per-value acquisition cursors for `exec`'s input edges. Called
  // alongside the frontier transitions (EnsureCleartextAt / EnsureSecure), which
  // stay at the call sites because the target form differs per node class.
  void AdvanceAcquisition(NodeExec& exec);

  // Cleartext input forms acquired for a local-compute dispatch (unsharded
  // pointer list, or per-input shard pointer lists plus the cached splits
  // keeping them alive).
  struct AcquiredInputs {
    std::vector<const Relation*> rels;
    std::vector<std::vector<const Relation*>> shard_rels;
    // Keeps the per-value cached splits alive for the task however often the
    // std::function wrapper is moved or copied (one split per value, built
    // lazily on the coordinator and shared by every sharded consumer).
    std::vector<std::shared_ptr<const ShardedRelation>> cached_splits;
    uint64_t records = 0;
    // Total rows per DAG input, in input order (shard- and batch-invariant);
    // the spill pricing's cardinality source.
    std::vector<int64_t> input_rows;
    // Non-null when the (sole) input is a streaming CSV source: the chain
    // head pulls parsed row-range batches instead of reading a relation.
    std::shared_ptr<CsvSource> csv;
    // Non-null when the (sole) input is a streaming reveal (DESIGN.md §14):
    // the chain head reconstructs revealed row-range batches instead of
    // reading a materialized relation.
    std::shared_ptr<mpc::RevealSource> reveal;
  };

  void DispatchCreate(NodeExec& exec);
  // Acquires `exec`'s inputs at its party (frontier transitions + shard splits),
  // advances the acquisition cursors, and charges the node's boundary and
  // cleartext-compute attributions — the shared front half of every
  // local-compute dispatch, fused or not.
  AcquiredInputs AcquireLocalInputs(NodeExec& exec);
  void DispatchLocalCompute(NodeExec& exec);
  // Dispatches a fused chain (exec is the head): resolves the streaming
  // operator specs against the runtime input schema, then submits one
  // BatchPipeline task per shard; the completion is posted once, under the
  // head's topo index, carrying the tail's output.
  void DispatchChain(NodeExec& exec);
  Status RunCollect(NodeExec& exec, ExecutionResult& result);
  Status RunLaneNode(NodeExec& exec);
  // One execution attempt of a lane node: secures inputs, runs the engine, and
  // stores the output value — everything RunLaneNode may have to replay after an
  // injected crash. Metering/materialization stay with the caller.
  Status ExecuteLaneOnce(NodeExec& exec);

  // Frontier checkpoint for lane-node crash recovery (DESIGN.md §11): enough
  // coordinator state to re-execute the node bit-identically — the network
  // snapshot, the engine's randomness cursors, the malicious-input nonce, copies
  // of the node's input values (EnsureSecure consumes cleartext payloads), and
  // the producers' acquisition cursors.
  struct LaneCheckpoint {
    SimNetwork::Snapshot net;
    SecretShareEngine::ReplayCheckpoint engine;
    uint64_t next_nonce = 0;
    std::vector<std::pair<int, MaterializedValue>> inputs;  // node id -> copy
    std::vector<std::pair<int, int>> acquired;  // topo index -> acquired_uses
  };
  LaneCheckpoint TakeLaneCheckpoint(const NodeExec& exec);
  void RestoreLaneCheckpoint(const LaneCheckpoint& checkpoint);

  // Fault-mode job dispatch, front half: enters the node's injector scope and
  // takes the scheduled crash count. False = the crash budget is exhausted (the
  // fault failure is recorded and the caller abandons the dispatch, before any
  // input acquisition).
  bool PrepareJobFaults(NodeExec& exec);
  // Fault-mode job dispatch, back half (after acquisition): escalates
  // unrecoverable send faults raised during acquisition and prices the job's
  // modeled crash restarts. Pool tasks are pure functions of their inputs (the
  // determinism contract the chaos fuzzer enforces), so a crashed task re-runs
  // to the same bits — the restart is priced, not physically re-executed; lane
  // nodes, whose execution mutates engine state, ARE physically replayed
  // (RunLaneNode). False = fault failure recorded; the caller releases its
  // readers and abandons the dispatch.
  bool CommitJobFaults(NodeExec& exec);
  // Canonicalizes a pending injector failure to the earliest topo index, the
  // fault-path mirror of RecordFailure.
  void RecordFaultFailure(int topo_index);
  // Topo gate for dispatch: nothing at or past the earliest failure (regular or
  // fault) may start.
  int FailureGate() const;
  std::vector<int> TopoNodeIds() const;

  void MarkMaterialized(NodeExec& exec);
  void RecordFailure(int topo_index, Status status);
  void DrainCompletions(bool wait);

  StatusOr<ExecutionResult> FinalizeAccounting(ExecutionResult result);

  RunState& state_;
  const compiler::Compilation& compilation_;
  const std::map<std::string, Relation>& inputs_;
  ThreadPool& pool_;

  std::vector<const ir::OpNode*> topo_;
  std::unordered_map<int, int> topo_index_;  // node id -> topo position
  std::vector<NodeExec> execs_;
  std::vector<int> lane_;  // Topo indices of MPC/hybrid nodes, in topo order.
  size_t lane_next_ = 0;
  size_t materialized_count_ = 0;
  int in_flight_ = 0;

  int first_failed_topo_ = -1;
  Status failure_;

  // Fault-injection failures (exhausted recovery budgets) are tracked separately
  // from regular Status failures: they end in a structured abort, not an error.
  // Canonicalized to the earliest topo index, like failure_; at the same index
  // the fault abort wins (the fault caused the step to fail).
  int fault_failed_topo_ = -1;
  std::string fault_failure_text_;
  int fault_failure_node_ = -1;

  std::mutex completions_mu_;
  std::condition_variable completions_cv_;
  std::vector<Completion> completions_;
};

bool JobGraphExecutor::CanAcquireInputs(const NodeExec& exec) const {
  const int my_topo = TopoIndexOf(exec.node->id);
  // inputToMPC moves the cleartext payload, and Collects coalesce sharded values
  // in place; neither may overlap with pool tasks still reading the old payload.
  const bool overwrites_payload =
      exec.klass == NodeClass::kLane || exec.klass == NodeClass::kCollect;
  for (const ir::OpNode* in : exec.node->inputs) {
    const NodeExec& producer = execs_[TopoIndexOf(in->id)];
    if (!producer.materialized) {
      return false;
    }
    if (producer.consumer_uses[static_cast<size_t>(producer.acquired_uses)] !=
        my_topo) {
      return false;  // An earlier consumer has not taken its turn yet.
    }
    if (overwrites_payload && producer.active_readers > 0) {
      return false;
    }
  }
  return true;
}

void JobGraphExecutor::AdvanceAcquisition(NodeExec& exec) {
  const int my_topo = TopoIndexOf(exec.node->id);
  for (const ir::OpNode* in : exec.node->inputs) {
    NodeExec& producer = execs_[static_cast<size_t>(TopoIndexOf(in->id))];
    // A node consuming the same value through several edges holds adjacent entries
    // in the (sorted) use list; each edge advances the cursor once.
    CONCLAVE_CHECK_EQ(
        producer.consumer_uses[static_cast<size_t>(producer.acquired_uses)],
        my_topo);
    ++producer.acquired_uses;
  }
}

void JobGraphExecutor::MarkMaterialized(NodeExec& exec) {
  exec.materialized = true;
  ++materialized_count_;
  for (const ir::OpNode* out : exec.node->outputs) {
    // Detached nodes are unreachable and never in topo order.
    auto it = topo_index_.find(out->id);
    if (it != topo_index_.end()) {
      --execs_[static_cast<size_t>(it->second)].remaining_inputs;
    }
  }
}

void JobGraphExecutor::RecordFailure(int topo_index, Status status) {
  if (first_failed_topo_ < 0 || topo_index < first_failed_topo_) {
    first_failed_topo_ = topo_index;
    failure_ = std::move(status);
  }
}

void JobGraphExecutor::RecordFaultFailure(int topo_index) {
  int node_id = -1;
  std::string text = state_.fault->TakePendingFailure(&node_id);
  if (fault_failed_topo_ < 0 || topo_index < fault_failed_topo_) {
    fault_failed_topo_ = topo_index;
    fault_failure_text_ = std::move(text);
    fault_failure_node_ = node_id;
  }
}

int JobGraphExecutor::FailureGate() const {
  int gate = first_failed_topo_;
  if (fault_failed_topo_ >= 0 && (gate < 0 || fault_failed_topo_ < gate)) {
    gate = fault_failed_topo_;
  }
  return gate;
}

std::vector<int> JobGraphExecutor::TopoNodeIds() const {
  std::vector<int> ids;
  ids.reserve(topo_.size());
  for (const ir::OpNode* node : topo_) {
    ids.push_back(node->id);
  }
  return ids;
}

bool JobGraphExecutor::PrepareJobFaults(NodeExec& exec) {
  if (state_.fault == nullptr) {
    return true;
  }
  state_.fault->EnterScope(exec.node->id);
  exec.fault_crashes = state_.fault->JobCrashes(exec.node->id);
  if (state_.fault->has_pending_failure()) {
    exec.dispatched = true;
    RecordFaultFailure(TopoIndexOf(exec.node->id));
    return false;
  }
  return true;
}

bool JobGraphExecutor::CommitJobFaults(NodeExec& exec) {
  if (state_.fault == nullptr) {
    return true;
  }
  if (state_.fault->has_pending_failure()) {
    exec.dispatched = true;
    RecordFaultFailure(TopoIndexOf(exec.node->id));
    return false;
  }
  for (int k = 0; k < exec.fault_crashes; ++k) {
    state_.fault->ChargeJobRestart(exec.node->id, exec.local_compute_seconds);
  }
  return true;
}

JobGraphExecutor::LaneCheckpoint JobGraphExecutor::TakeLaneCheckpoint(
    const NodeExec& exec) {
  LaneCheckpoint checkpoint;
  checkpoint.net = state_.net.TakeSnapshot();
  checkpoint.engine = state_.sharemind.engine().TakeCheckpoint();
  checkpoint.next_nonce = state_.next_nonce;
  for (const ir::OpNode* in : exec.node->inputs) {
    checkpoint.inputs.emplace_back(in->id,
                                   state_.values[static_cast<size_t>(in->id)]);
    const int producer_topo = TopoIndexOf(in->id);
    checkpoint.acquired.emplace_back(
        producer_topo, execs_[static_cast<size_t>(producer_topo)].acquired_uses);
  }
  return checkpoint;
}

void JobGraphExecutor::RestoreLaneCheckpoint(const LaneCheckpoint& checkpoint) {
  state_.net.RestoreSnapshot(checkpoint.net);
  state_.sharemind.engine().Restore(checkpoint.engine);
  state_.next_nonce = checkpoint.next_nonce;
  for (const auto& [node_id, value] : checkpoint.inputs) {
    state_.values[static_cast<size_t>(node_id)] = value;
  }
  for (const auto& [producer_topo, acquired_uses] : checkpoint.acquired) {
    execs_[static_cast<size_t>(producer_topo)].acquired_uses = acquired_uses;
  }
}

void JobGraphExecutor::DispatchCreate(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  if (!PrepareJobFaults(exec)) {
    return;
  }
  if (state_.fault != nullptr) {
    // Create tasks charge no cost-model compute; a crashed ingest re-runs for
    // free and pays only the restart penalty.
    for (int k = 0; k < exec.fault_crashes; ++k) {
      state_.fault->ChargeJobRestart(node->id, /*wasted_seconds=*/0);
    }
  }
  exec.dispatched = true;
  ++in_flight_;
  const int my_topo = TopoIndexOf(node->id);
  const int shard_count = state_.shard_count;
  // Streaming-ingest eligibility (DESIGN.md §12), decided on the coordinator so
  // the choice is pool-size-independent: a CSV-backed Create whose sole
  // consumer is a fused chain head at the owning party materializes only the
  // indexed source text; the chain's pipelines parse row ranges themselves.
  // Every other CSV create parses eagerly into the usual relation forms.
  const auto& create_params = node->Params<ir::CreateParams>();
  bool stream_csv = false;
  if (!create_params.csv_path.empty() && state_.batch_rows > 0 &&
      exec.consumer_uses.size() == 1) {
    const NodeExec& consumer =
        execs_[static_cast<size_t>(exec.consumer_uses[0])];
    stream_csv = consumer.chain_members.size() >= 2 &&
                 consumer.node->exec_party == create_params.party;
  }
  pool_.Submit([this, node, my_topo, shard_count, stream_csv] {
    Completion completion;
    completion.topo_index = my_topo;
    try {
      const auto& params = node->Params<ir::CreateParams>();
      if (!params.csv_path.empty()) {
        StatusOr<CsvSource> source = CsvSource::FromFile(params.csv_path);
        if (!source.ok()) {
          completion.status = source.status();
        } else if (!source->schema().NamesMatch(node->schema)) {
          completion.status = InvalidArgumentError(StrFormat(
              "input '%s' schema %s does not match declared schema %s",
              params.name.c_str(), source->schema().ToString().c_str(),
              node->schema.ToString().c_str()));
        } else if (stream_csv) {
          completion.csv_output =
              std::make_shared<CsvSource>(std::move(*source));
        } else if (shard_count > 1) {
          // Sharded ingest: parse contiguous row ranges straight into shards
          // (same boundaries as SplitEven); the earliest shard's parse error
          // is the canonical one.
          const int64_t rows = source->NumRows();
          ShardedRelation out{source->schema()};
          Status status;
          for (int s = 0; s < shard_count && status.ok(); ++s) {
            StatusOr<Relation> shard = source->ParseRows(
                rows * s / shard_count, rows * (s + 1) / shard_count);
            if (shard.ok()) {
              out.AddShard(std::move(*shard));
            } else {
              status = shard.status();
            }
          }
          if (status.ok()) {
            completion.sharded_output = std::move(out);
            completion.is_sharded = true;
          } else {
            completion.status = std::move(status);
          }
        } else {
          StatusOr<Relation> all = source->ParseRows(0, source->NumRows());
          if (all.ok()) {
            completion.output = std::move(*all);
          } else {
            completion.status = all.status();
          }
        }
      } else if (const auto it = inputs_.find(params.name);
                 it == inputs_.end()) {
        completion.status = InvalidArgumentError(
            StrFormat("no input relation provided for '%s'", params.name.c_str()));
      } else if (!it->second.schema().NamesMatch(node->schema)) {
        completion.status = InvalidArgumentError(StrFormat(
            "input '%s' schema %s does not match declared schema %s",
            params.name.c_str(), it->second.schema().ToString().c_str(),
            node->schema.ToString().c_str()));
      } else if (shard_count > 1) {
        // Sharded ingest: partition the input into contiguous shards as it enters
        // the data plane (the per-shard range copies run in parallel).
        completion.sharded_output =
            ShardedRelation::SplitEven(it->second, shard_count);
        completion.is_sharded = true;
      } else {
        completion.output = it->second;
      }
    } catch (const std::exception& e) {
      // An escaping exception would terminate the process from a worker thread;
      // surface it as a Status like every other node failure.
      completion.status =
          InternalError(StrFormat("create task threw: %s", e.what()));
    }
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
    completions_cv_.notify_all();
  });
}

JobGraphExecutor::AcquiredInputs JobGraphExecutor::AcquireLocalInputs(
    NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  const bool sharded = state_.shard_count > 1;
  AcquiredInputs acquired;
  acquired.rels.reserve(node->inputs.size());
  for (const ir::OpNode* in : node->inputs) {
    MaterializedValue& value = state_.values[static_cast<size_t>(in->id)];
    if (value.kind == MaterializedValue::Kind::kCsvSource) {
      // Streaming CSV head (DESIGN.md §12): produced only for a sole-consumer
      // fused chain at the owning party, so no transfer and no split — the
      // chain's per-shard pipelines parse their own row ranges.
      CONCLAVE_CHECK(value.location == node->exec_party ||
                     value.location == kNoParty);
      acquired.csv = value.csv;
      acquired.records += static_cast<uint64_t>(value.NumRows());
      acquired.input_rows.push_back(value.NumRows());
      ++ExecOf(*in).active_readers;
      continue;
    }
    if (value.kind == MaterializedValue::Kind::kShared &&
        state_.stream_reveal && state_.batch_rows > 0 &&
        exec.chain_members.size() >= 2 && node->inputs.size() == 1 &&
        ExecOf(*in).consumer_uses.size() == 1) {
      // Streaming reveal (DESIGN.md §14), decided on the coordinator at the
      // head's acquisition turn so the choice is pool-size-independent: the
      // shared value's sole consumer is this fused chain head, so the shares
      // stay put and the chain's per-shard pipelines reconstruct their own
      // row ranges. The reveal is charged once for the whole relation, right
      // here — exactly what the materializing path charges — so clocks and
      // counters cannot depend on the knob; only the revealed relation's
      // materialization disappears.
      const int64_t rows = value.shared.NumRows();
      const int cols = value.shared.NumColumns();
      mpc::ChargeRevealMeters(state_.net, value.shared.NumCells());
      auto source = std::make_shared<mpc::RevealSource>(std::move(value.shared));
      value.shared = SharedRelation{};
      if (state_.fault != nullptr) {
        // The injector makes the same decisions and charges as the inline
        // DeliverReveal; detection replays inside RevealSource on the batch
        // covering each corrupted row.
        uint64_t nonce = 0;
        std::vector<FaultInjector::RevealCorruption> schedule =
            state_.fault->DeliverRevealStreamed(rows, cols, &nonce);
        source->InstallFaultSchedule(nonce, std::move(schedule));
      }
      value.kind = MaterializedValue::Kind::kRevealSource;
      value.reveal = source;
      value.location = node->exec_party;
      acquired.reveal = std::move(source);
      acquired.records += static_cast<uint64_t>(rows);
      acquired.input_rows.push_back(rows);
      ++ExecOf(*in).active_readers;
      continue;
    }
    if (sharded) {
      // Shards flow straight into the shard-aware kernels. Values that arrive as
      // single relations — MPC reveals and party transfers — are re-split so the
      // local chain downstream of a frontier crossing still runs data-parallel.
      // The split is built once per value and cached on it (coordinator-built,
      // read-only afterwards); every sharded consumer shares the one copy.
      EnsureLocalInputAt(state_, value, node->exec_party);
      if (value.kind != MaterializedValue::Kind::kShardedClear &&
          value.clear.NumRows() > 0) {
        if (value.cached_split == nullptr) {
          value.cached_split = std::make_shared<const ShardedRelation>(
              ShardedRelation::SplitEven(value.clear, state_.shard_count));
        }
        acquired.cached_splits.push_back(value.cached_split);
      }
      if (value.kind == MaterializedValue::Kind::kShardedClear) {
        acquired.shard_rels.push_back(value.sharded.ShardPtrs());
      } else if (value.clear.NumRows() > 0) {
        acquired.shard_rels.push_back(acquired.cached_splits.back()->ShardPtrs());
      } else {
        acquired.shard_rels.push_back({&value.clear});
      }
    } else {
      EnsureCleartextAt(state_, value, node->exec_party);
      acquired.rels.push_back(&value.clear);
    }
    acquired.records += static_cast<uint64_t>(value.NumRows());
    acquired.input_rows.push_back(value.NumRows());
    ++ExecOf(*in).active_readers;
  }
  AdvanceAcquisition(exec);
  // Reveal/transfer time for this node's frontier inputs.
  exec.boundary_scaled_seconds = state_.net.TakeMeterSeconds() * state_.MpcScale();
  exec.local_compute_seconds = LocalComputeSeconds(state_, acquired.records);
  exec.charged_local = true;
  state_.net.mutable_counters().cleartext_records += acquired.records;
  // Priced spill charge from the node-total input cardinalities (0 when the
  // budget is unbounded or the inputs fit; fused chains price their interior
  // members in DrainCompletions from the summed per-op rows instead).
  if (state_.mem_budget_rows > 0) {
    const double in_rows =
        acquired.input_rows.empty() ? 0 : static_cast<double>(acquired.input_rows[0]);
    const double right_rows = acquired.input_rows.size() > 1
                                  ? static_cast<double>(acquired.input_rows[1])
                                  : 0;
    exec.spill_priced_seconds = compiler::NodeSpillSeconds(
        *node, in_rows, right_rows, state_.net.model(), state_.mem_budget_rows);
    if (exec.spill_priced_seconds > 0) {
      exec.spill_passes = spill::SpillMergePasses(
          node->kind == ir::OpKind::kJoin ? static_cast<int64_t>(right_rows)
                                          : static_cast<int64_t>(in_rows),
          state_.mem_budget_rows);
    }
  }
  return acquired;
}

void JobGraphExecutor::DispatchLocalCompute(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  if (!PrepareJobFaults(exec)) {
    return;
  }
  AcquiredInputs acquired = AcquireLocalInputs(exec);
  if (!CommitJobFaults(exec)) {
    // No task was submitted: release the readers acquisition registered.
    for (const ir::OpNode* in : node->inputs) {
      --ExecOf(*in).active_readers;
    }
    return;
  }

  exec.dispatched = true;
  ++in_flight_;
  const int my_topo = TopoIndexOf(node->id);
  const int shard_count = state_.shard_count;
  const int64_t mem_budget_rows = state_.mem_budget_rows;
  pool_.Submit([this, node, my_topo, shard_count, mem_budget_rows,
                rels = std::move(acquired.rels),
                shard_rels = std::move(acquired.shard_rels),
                cached_splits = std::move(acquired.cached_splits)] {
    Completion completion;
    completion.topo_index = my_topo;
    try {
      LocalExecOptions options;
      options.mem_budget_rows = mem_budget_rows;
      options.spill_stats = &completion.spill_stats;
      if (shard_count > 1) {
        StatusOr<ShardedRelation> out =
            ExecuteLocalSharded(*node, shard_rels, shard_count, options);
        if (out.ok()) {
          completion.sharded_output = std::move(*out);
          completion.is_sharded = true;
        } else {
          completion.status = out.status();
        }
      } else {
        StatusOr<Relation> out = ExecuteLocal(*node, rels, options);
        if (out.ok()) {
          completion.output = std::move(*out);
        } else {
          completion.status = out.status();
        }
      }
    } catch (const std::exception& e) {
      // See DispatchCreate: escaping exceptions must not reach WorkerLoop.
      completion.status = InternalError(
          StrFormat("local job for node #%d threw: %s", node->id, e.what()));
    }
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
    completions_cv_.notify_all();
  });
}

void JobGraphExecutor::DispatchChain(NodeExec& exec) {
  const bool sharded = state_.shard_count > 1;
  if (!PrepareJobFaults(exec)) {
    return;
  }
  AcquiredInputs acquired = AcquireLocalInputs(exec);
  if (!CommitJobFaults(exec)) {
    // Crash restarts priced so far cover the head's compute; the interior
    // members never price (the run aborts). Release the acquisition's readers.
    for (const ir::OpNode* in : exec.node->inputs) {
      --ExecOf(*in).active_readers;
    }
    return;
  }
  // All members are spoken for the moment the head dispatches: the acquisition
  // cursors have advanced, so nothing may re-dispatch any member — including on
  // the resolution-failure path below.
  exec.dispatched = true;
  for (int member_topo : exec.chain_members) {
    NodeExec& member = execs_[static_cast<size_t>(member_topo)];
    member.dispatched = true;
    // Interior members cross no frontier (boundary stays 0), but each fused
    // node still participates in its job's Spark startup charge, as unfused.
    member.charged_local = true;
  }

  // Resolve every member against the runtime schema flowing through the chain.
  // A resolution failure is attributed to the failing member's topo index —
  // the canonical error a sequential unfused walk would report.
  auto spec = std::make_shared<PipelineSpec>();
  spec->input_schema = acquired.csv != nullptr      ? acquired.csv->schema()
                       : acquired.reveal != nullptr ? acquired.reveal->schema()
                       : sharded ? acquired.shard_rels[0][0]->schema()
                                 : acquired.rels[0]->schema();
  Schema schema = spec->input_schema;
  for (int member_topo : exec.chain_members) {
    const ir::OpNode& member = *execs_[static_cast<size_t>(member_topo)].node;
    StatusOr<PipelineOp> op = ResolvePipelineOp(schema, member);
    if (!op.ok()) {
      // No task was submitted: release the head's input readers here.
      for (const ir::OpNode* in : exec.node->inputs) {
        --ExecOf(*in).active_readers;
      }
      RecordFailure(member_topo, op.status());
      return;
    }
    schema = BatchPipeline::DeriveSchema(schema, *op);
    spec->ops.push_back(std::move(*op));
  }

  ++in_flight_;
  const int my_topo = TopoIndexOf(exec.node->id);
  const int64_t batch_rows = state_.batch_rows;

  if (!sharded) {
    pool_.Submit([this, my_topo, batch_rows, spec, csv = acquired.csv,
                  reveal = acquired.reveal, rels = std::move(acquired.rels),
                  cached_splits = std::move(acquired.cached_splits)] {
      Completion completion;
      completion.topo_index = my_topo;
      try {
        BatchPipeline pipeline(*spec);
        if (csv != nullptr) {
          // Streaming source (DESIGN.md §12): parse-and-push batch-at-a-time;
          // the source relation never materializes.
          StatusOr<Relation> out =
              pipeline.RunFromCsv(*csv, 0, csv->NumRows(), batch_rows);
          if (out.ok()) {
            completion.output = std::move(*out);
            completion.chain_op_rows = pipeline.stats().op_input_rows;
          } else {
            completion.status = out.status();
          }
        } else if (reveal != nullptr) {
          // Streaming reveal (DESIGN.md §14): reconstruct-and-push
          // batch-at-a-time; the revealed relation never materializes.
          completion.output =
              pipeline.RunFromReveal(*reveal, 0, reveal->NumRows(), batch_rows);
          completion.chain_op_rows = pipeline.stats().op_input_rows;
        } else {
          completion.output = pipeline.Run(*rels[0], batch_rows);
          completion.chain_op_rows = pipeline.stats().op_input_rows;
        }
      } catch (const std::exception& e) {
        // See DispatchCreate: escaping exceptions must not reach WorkerLoop.
        completion.status =
            InternalError(StrFormat("fused chain task threw: %s", e.what()));
      }
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
      completions_cv_.notify_all();
    });
    return;
  }

  // Sharded: one pipeline task per shard (sharded chains hold only per-row ops,
  // which commute with sharding), all writing shard-indexed slots of a shared
  // state. Whichever task finishes last assembles the output, sums the per-op
  // row counts, and posts the single completion — everything folds in shard
  // order, so the result is independent of task finishing order.
  struct ChainShardState {
    Schema output_schema;
    std::vector<Relation> outputs;
    std::vector<std::vector<int64_t>> op_rows;
    std::vector<Status> statuses;
    std::atomic<int> remaining{0};
  };
  const bool streamed = acquired.csv != nullptr || acquired.reveal != nullptr;
  const std::vector<const Relation*> shards =
      streamed ? std::vector<const Relation*>{}
               : std::move(acquired.shard_rels[0]);
  // A 0-row streamed reveal mirrors the materializing path's single-shard
  // layout for empty revealed values ({&value.clear}); CSV sources always cut
  // shard_count ranges, like the sharded eager parse.
  const int num_shards =
      acquired.csv != nullptr ? state_.shard_count
      : acquired.reveal != nullptr
          ? (acquired.reveal->NumRows() == 0 ? 1 : state_.shard_count)
          : static_cast<int>(shards.size());
  // A fused tail limit keeps each shard's local `count`-prefix — a superset of
  // that shard's slice of the global prefix (shards concatenate in canonical
  // order). The last finisher trims the assembled shards to the global prefix,
  // reproducing ops::ShardedLimit's layout exactly.
  int64_t tail_limit = -1;
  {
    const ir::OpNode& tail =
        *execs_[static_cast<size_t>(exec.chain_members.back())].node;
    if (tail.kind == ir::OpKind::kLimit) {
      tail_limit = std::max<int64_t>(0, tail.Params<ir::LimitParams>().count);
    }
  }
  auto shared = std::make_shared<ChainShardState>();
  shared->output_schema = schema;
  shared->outputs.resize(static_cast<size_t>(num_shards));
  shared->op_rows.resize(static_cast<size_t>(num_shards));
  shared->statuses.assign(static_cast<size_t>(num_shards), Status::Ok());
  shared->remaining.store(num_shards, std::memory_order_relaxed);
  for (int s = 0; s < num_shards; ++s) {
    const Relation* shard = streamed ? nullptr : shards[static_cast<size_t>(s)];
    pool_.Submit([this, my_topo, batch_rows, spec, shared, shard, s, num_shards,
                  tail_limit, csv = acquired.csv, reveal = acquired.reveal,
                  cached_splits = acquired.cached_splits] {
      try {
        BatchPipeline pipeline(*spec);
        if (csv != nullptr) {
          // Streaming source, shard slice [rows*s/n, rows*(s+1)/n) — the same
          // contiguous boundaries SplitEven materializes.
          const int64_t rows = csv->NumRows();
          StatusOr<Relation> out = pipeline.RunFromCsv(
              *csv, rows * s / num_shards, rows * (s + 1) / num_shards,
              batch_rows);
          if (out.ok()) {
            shared->outputs[static_cast<size_t>(s)] = std::move(*out);
            shared->op_rows[static_cast<size_t>(s)] =
                pipeline.stats().op_input_rows;
          } else {
            shared->statuses[static_cast<size_t>(s)] = out.status();
          }
        } else if (reveal != nullptr) {
          // Streaming reveal, same contiguous shard boundaries; ranges are
          // independent share sums, so shard tasks reconstruct concurrently.
          const int64_t rows = reveal->NumRows();
          shared->outputs[static_cast<size_t>(s)] = pipeline.RunFromReveal(
              *reveal, rows * s / num_shards, rows * (s + 1) / num_shards,
              batch_rows);
          shared->op_rows[static_cast<size_t>(s)] =
              pipeline.stats().op_input_rows;
        } else {
          shared->outputs[static_cast<size_t>(s)] =
              pipeline.Run(*shard, batch_rows);
          shared->op_rows[static_cast<size_t>(s)] =
              pipeline.stats().op_input_rows;
        }
      } catch (const std::exception& e) {
        shared->statuses[static_cast<size_t>(s)] = InternalError(
            StrFormat("fused chain shard task threw: %s", e.what()));
      }
      if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;  // Not the last shard; the last finisher posts the completion.
      }
      Completion completion;
      completion.topo_index = my_topo;
      for (Status& status : shared->statuses) {
        if (!status.ok()) {
          completion.status = std::move(status);
          break;
        }
      }
      if (completion.status.ok()) {
        if (tail_limit >= 0) {
          int64_t remaining_rows = tail_limit;
          for (Relation& relation : shared->outputs) {
            const int64_t take = std::min(remaining_rows, relation.NumRows());
            relation.Resize(take);
            remaining_rows -= take;
          }
        }
        ShardedRelation out{shared->output_schema};
        for (Relation& relation : shared->outputs) {
          out.AddShard(std::move(relation));
        }
        completion.sharded_output = std::move(out);
        completion.is_sharded = true;
        completion.chain_op_rows.assign(spec->ops.size(), 0);
        for (const std::vector<int64_t>& rows : shared->op_rows) {
          for (size_t k = 0; k < rows.size(); ++k) {
            completion.chain_op_rows[k] += rows[k];
          }
        }
      }
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
      completions_cv_.notify_all();
    });
  }
}

Status JobGraphExecutor::RunCollect(NodeExec& exec, ExecutionResult& result) {
  const ir::OpNode* node = exec.node;
  const auto& params = node->Params<ir::CollectParams>();
  exec.dispatched = true;
  if (state_.fault != nullptr) {
    // Collect runs on the coordinator with no compute to restart; its reveal and
    // fan-out sends are the faultable operations.
    state_.fault->EnterScope(node->id);
  }

  MaterializedValue& input = state_.values[static_cast<size_t>(node->inputs[0]->id)];
  EnsureCleartextAt(state_, input, params.recipients.First());
  AdvanceAcquisition(exec);
  // Fan out to the remaining recipients.
  for (PartyId p : params.recipients.ToVector()) {
    if (p != input.location) {
      state_.net.Send(input.location, p, input.clear.ByteSize());
    }
  }
  Relation output = input.clear;
  if (compilation_.options.pad_mpc_inputs) {
    // Recipients drop the sentinel rows that adaptive padding introduced.
    output = ops::StripSentinelRows(output);
  }
  if (params.dp.enabled) {
    // Recipients perturb locally; each noisy output consumes its epsilon
    // (sequential composition).
    Rng noise_rng(state_.seed ^
                  (0xd1b54a32d192ed03ULL + static_cast<uint64_t>(node->id)));
    CONCLAVE_RETURN_IF_ERROR(dp::PerturbRelation(output, params.dp, noise_rng));
    exec.dp_epsilon = params.dp.epsilon;
  }
  result.outputs[params.name] = std::move(output);
  exec.boundary_scaled_seconds = state_.net.TakeMeterSeconds() * state_.MpcScale();
  MarkMaterialized(exec);
  if (state_.fault != nullptr && state_.fault->has_pending_failure()) {
    // An unrecoverable drop/corruption during the reveal or fan-out; the abort
    // discards this Collect's (already stored) output.
    RecordFaultFailure(TopoIndexOf(node->id));
  }
  return Status::Ok();
}

Status JobGraphExecutor::RunLaneNode(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  exec.dispatched = true;
  ++lane_next_;

  FaultInjector* fault = state_.fault;
  int crashes = 0;
  if (fault != nullptr) {
    fault->EnterScope(node->id);
    crashes = fault->JobCrashes(node->id);
    if (fault->has_pending_failure()) {
      // Crash budget exhausted: structured abort, nothing materializes.
      RecordFaultFailure(TopoIndexOf(node->id));
      return Status::Ok();
    }
  }

  for (int attempt = 0;; ++attempt) {
    // Injected crashes are decided up front, so whether this attempt needs a
    // frontier checkpoint is known before it runs.
    const bool crash_after = attempt < crashes;
    LaneCheckpoint checkpoint;
    if (crash_after) {
      checkpoint = TakeLaneCheckpoint(exec);
    }
    if (fault != nullptr && attempt > 0) {
      fault->BeginAttempt(attempt);
    }
    CONCLAVE_RETURN_IF_ERROR(ExecuteLaneOnce(exec));
    if (fault != nullptr && fault->has_pending_failure()) {
      // Unrecoverable send loss inside this attempt: structured abort. Drain
      // the attempt's meter so no charge leaks into a later step.
      state_.net.TakeMeterSeconds();
      RecordFaultFailure(TopoIndexOf(node->id));
      return Status::Ok();
    }
    if (!crash_after) {
      break;
    }
    // Injected crash: divert the wasted attempt's metered work (x MpcScale,
    // like any lane charge) to the recovery accumulators, roll back to the
    // frontier checkpoint, and replay. The replayed attempt re-claims the same
    // randomness streams, so its bits are identical to the crashed one's.
    const double wasted =
        (state_.net.TakeMeterSeconds() - checkpoint.net.meter_seconds) *
        state_.MpcScale();
    fault->ChargeJobRestart(node->id, wasted);
    RestoreLaneCheckpoint(checkpoint);
  }
  exec.boundary_scaled_seconds = state_.net.TakeMeterSeconds() * state_.MpcScale();
  MarkMaterialized(exec);
  return Status::Ok();
}

Status JobGraphExecutor::ExecuteLaneOnce(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  if (state_.use_gc_backend) {
    std::vector<const Relation*> rels;
    rels.reserve(node->inputs.size());
    for (const ir::OpNode* in : node->inputs) {
      MaterializedValue& value = state_.values[static_cast<size_t>(in->id)];
      CONCLAVE_RETURN_IF_ERROR(EnsureSecure(state_, value));
      rels.push_back(&value.clear);
    }
    AdvanceAcquisition(exec);
    CONCLAVE_ASSIGN_OR_RETURN(Relation out, state_.oblivc.Execute(*node, rels));
    MaterializedValue value;
    value.kind = MaterializedValue::Kind::kGarbled;
    value.clear = std::move(out);
    state_.values[static_cast<size_t>(node->id)] = std::move(value);
  } else {
    std::vector<const SharedRelation*> rels;
    rels.reserve(node->inputs.size());
    for (const ir::OpNode* in : node->inputs) {
      MaterializedValue& value = state_.values[static_cast<size_t>(in->id)];
      CONCLAVE_RETURN_IF_ERROR(EnsureSecure(state_, value));
      rels.push_back(&value.shared);
    }
    AdvanceAcquisition(exec);
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation out,
                              state_.sharemind.Execute(*node, rels));
    MaterializedValue value;
    value.kind = MaterializedValue::Kind::kShared;
    value.shared = std::move(out);
    state_.values[static_cast<size_t>(node->id)] = std::move(value);
  }
  return Status::Ok();
}

void JobGraphExecutor::DrainCompletions(bool wait) {
  std::vector<Completion> drained;
  {
    std::unique_lock<std::mutex> lock(completions_mu_);
    if (wait) {
      completions_cv_.wait(lock, [this] { return !completions_.empty(); });
    }
    drained.swap(completions_);
  }
  for (Completion& completion : drained) {
    --in_flight_;
    NodeExec& exec = execs_[static_cast<size_t>(completion.topo_index)];
    for (const ir::OpNode* in : exec.node->inputs) {
      --ExecOf(*in).active_readers;
    }
    if (!completion.status.ok()) {
      RecordFailure(completion.topo_index, std::move(completion.status));
      continue;
    }
    exec.spill_stats = completion.spill_stats;
    MaterializedValue value;
    if (completion.csv_output != nullptr) {
      value.kind = MaterializedValue::Kind::kCsvSource;
      value.csv = std::move(completion.csv_output);
    } else if (completion.is_sharded) {
      value.kind = MaterializedValue::Kind::kShardedClear;
      value.sharded = std::move(completion.sharded_output);
    } else {
      value.kind = MaterializedValue::Kind::kCleartext;
      value.clear = std::move(completion.output);
    }
    if (exec.chain_members.size() >= 2) {
      // Fused chain: price interior members from the per-op input rows the
      // pipeline metered (equal to the unfused intermediate cardinalities at
      // every batch size — streaming limits consume their whole input), store
      // the tail's output, and materialize every member in chain order.
      // chain_op_rows[0] is the head's input, already charged at acquisition.
      for (size_t k = 1; k < exec.chain_members.size(); ++k) {
        NodeExec& member = execs_[static_cast<size_t>(exec.chain_members[k])];
        const uint64_t records =
            static_cast<uint64_t>(completion.chain_op_rows[k]);
        member.local_compute_seconds = LocalComputeSeconds(state_, records);
        state_.net.mutable_counters().cleartext_records += records;
        // Fused blocking members (a distinct-on-sorted tail) carry the same
        // priced spill charge the unfused executor would: the charge is a
        // function of the member's total input rows, which the pipeline
        // metered batch-invariantly — the clock stays grid-invariant whether
        // the member fuses or materializes.
        if (state_.mem_budget_rows > 0) {
          member.spill_priced_seconds = compiler::NodeSpillSeconds(
              *member.node, static_cast<double>(completion.chain_op_rows[k]),
              /*right_rows=*/0, state_.net.model(), state_.mem_budget_rows);
          if (member.spill_priced_seconds > 0) {
            member.spill_passes = spill::SpillMergePasses(
                completion.chain_op_rows[k], state_.mem_budget_rows);
          }
        }
        if (state_.fault != nullptr && exec.fault_crashes > 0) {
          // Each restart of the head's job re-ran the whole fused chain; the
          // interior members' compute joins the head's (already counted)
          // restarts. The charge is a pure function of the chain's row totals,
          // so it is identical at every pool/shard/batch configuration.
          state_.fault->AddRecoverySeconds(
              exec.node->id, static_cast<double>(exec.fault_crashes) *
                                 member.local_compute_seconds);
        }
      }
      const NodeExec& tail =
          execs_[static_cast<size_t>(exec.chain_members.back())];
      value.location = tail.node->exec_party;
      state_.values[static_cast<size_t>(tail.node->id)] = std::move(value);
      MarkMaterialized(exec);
      for (size_t k = 1; k < exec.chain_members.size(); ++k) {
        NodeExec& member = execs_[static_cast<size_t>(exec.chain_members[k])];
        // Each member's sole use of its predecessor's (never-stored) value.
        AdvanceAcquisition(member);
        MarkMaterialized(member);
      }
      continue;
    }
    value.location = exec.klass == NodeClass::kCreate
                         ? exec.node->Params<ir::CreateParams>().party
                         : exec.node->exec_party;
    state_.values[static_cast<size_t>(exec.node->id)] = std::move(value);
    MarkMaterialized(exec);
  }
}

StatusOr<ExecutionResult> JobGraphExecutor::Run() {
  // --- Plan-time indexing: topo positions, in-degrees, consumer orders, lane. ------
  int max_id = -1;
  for (size_t i = 0; i < topo_.size(); ++i) {
    topo_index_[topo_[i]->id] = static_cast<int>(i);
    max_id = std::max(max_id, topo_[i]->id);
  }
  state_.values.resize(static_cast<size_t>(max_id) + 1);
  execs_.resize(topo_.size());
  for (size_t i = 0; i < topo_.size(); ++i) {
    NodeExec& exec = execs_[i];
    exec.node = topo_[i];
    exec.klass = ClassOf(*topo_[i]);
    exec.remaining_inputs = static_cast<int>(topo_[i]->inputs.size());
    if (exec.klass == NodeClass::kLane) {
      lane_.push_back(static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < topo_.size(); ++i) {
    for (const ir::OpNode* in : topo_[i]->inputs) {
      execs_[static_cast<size_t>(TopoIndexOf(in->id))].consumer_uses.push_back(
          static_cast<int>(i));
    }
  }
  for (NodeExec& exec : execs_) {
    std::sort(exec.consumer_uses.begin(), exec.consumer_uses.end());
  }

  // Pipeline fusion (DESIGN.md §10): stamp each fusible local chain on its
  // head. The chain set comes from the same predicate the planner's explain
  // advice uses (compiler::PipelineChains), so listing and runtime agree.
  if (state_.batch_rows > 0) {
    for (const std::vector<const ir::OpNode*>& chain : compiler::PipelineChains(
             std::span<const ir::OpNode* const>(topo_.data(), topo_.size()),
             state_.shard_count)) {
      const int head_topo = TopoIndexOf(chain.front()->id);
      NodeExec& head = execs_[static_cast<size_t>(head_topo)];
      for (const ir::OpNode* member : chain) {
        const int member_topo = TopoIndexOf(member->id);
        head.chain_members.push_back(member_topo);
        execs_[static_cast<size_t>(member_topo)].chain_head = head_topo;
      }
    }
  }

  ExecutionResult result;

  // --- Event loop: dispatch everything ready, then wait for pool completions. ------
  //
  // On failure, dispatch continues — but only for nodes topo-earlier than the
  // earliest failure seen so far (their dependency chains lie entirely below it, so
  // they can always run to completion). A sequential walk would have executed
  // exactly those nodes before hitting the failure; finishing them lets any
  // earlier failure they hold surface, so the reported error is exactly the one
  // the sequential walk reports, at every pool size.
  for (;;) {
    bool dispatched_any = false;
    for (size_t i = 0; i < execs_.size(); ++i) {
      const int gate = FailureGate();
      if (gate >= 0 && static_cast<int>(i) >= gate) {
        break;  // execs_ is topo-ordered; nothing past the failure may dispatch.
      }
      NodeExec& exec = execs_[i];
      if (exec.dispatched || exec.remaining_inputs > 0) {
        continue;
      }
      switch (exec.klass) {
        case NodeClass::kCreate:
          DispatchCreate(exec);
          dispatched_any = true;
          break;
        case NodeClass::kLocalCompute:
          if (CanAcquireInputs(exec)) {
            if (exec.chain_members.size() >= 2) {
              DispatchChain(exec);
            } else {
              DispatchLocalCompute(exec);
            }
            dispatched_any = true;
          }
          break;
        case NodeClass::kCollect:
          if (CanAcquireInputs(exec)) {
            const Status status = RunCollect(exec, result);
            if (!status.ok()) {
              RecordFailure(static_cast<int>(i), status);
            }
            dispatched_any = true;
          }
          break;
        case NodeClass::kLane:
          if (lane_[lane_next_] == static_cast<int>(i) && CanAcquireInputs(exec)) {
            const Status status = RunLaneNode(exec);
            if (!status.ok()) {
              RecordFailure(static_cast<int>(i), status);
            }
            dispatched_any = true;
          }
          break;
      }
    }
    if (dispatched_any) {
      DrainCompletions(/*wait=*/false);
      continue;
    }
    if (in_flight_ > 0) {
      DrainCompletions(/*wait=*/true);
      continue;
    }
    break;  // Quiescent: everything runnable (below any failure) has finished.
  }

  // Graceful degradation: an exhausted fault-recovery budget ends in a
  // structured abort (ok() + aborted + FaultReport), not a bare error. At the
  // same topo index the fault abort wins — the injected fault is what made the
  // step fail; a regular failure at a strictly earlier index is the canonical
  // outcome a fault-free run reports, so it takes precedence.
  const bool fault_abort =
      fault_failed_topo_ >= 0 &&
      (first_failed_topo_ < 0 || fault_failed_topo_ <= first_failed_topo_);
  if (fault_abort) {
    state_.fault->RecordFirstFailure(fault_failure_node_, fault_failure_text_);
    ExecutionResult aborted;
    aborted.aborted = true;
    aborted.abort_status = ResourceExhaustedError(
        StrFormat("fault recovery budget exhausted at node #%d: %s",
                  fault_failure_node_, fault_failure_text_.c_str()));
    aborted.fault_report = state_.fault->Report(TopoNodeIds());
    return aborted;
  }
  if (first_failed_topo_ >= 0) {
    return failure_;
  }
  // No failure: quiescence with unmaterialized nodes would be a plan bug.
  CONCLAVE_CHECK_EQ(materialized_count_, topo_.size());
  return FinalizeAccounting(std::move(result));
}

StatusOr<ExecutionResult> JobGraphExecutor::FinalizeAccounting(
    ExecutionResult result) {
  // All floating-point totals are folded here, in topo/job order, from the per-node
  // attributions recorded during execution — never in completion order, which is
  // scheduling-dependent. This is what keeps every reported number bit-identical
  // across pool sizes.
  std::unordered_map<int, double> job_duration;
  std::unordered_set<int> jobs_started;  // Spark startup charged once per job.
  for (const NodeExec& exec : execs_) {
    const int job = state_.node_job.at(exec.node->id);
    result.node_seconds[exec.node->id] =
        exec.boundary_scaled_seconds + exec.local_compute_seconds;
    double seconds = exec.boundary_scaled_seconds + exec.local_compute_seconds;
    if (exec.charged_local && state_.use_spark &&
        jobs_started.insert(job).second) {
      seconds += state_.net.model().spark_job_startup_seconds;
    }
    job_duration[job] += seconds;
    switch (exec.klass) {
      case NodeClass::kLane:
        if (exec.node->exec_mode == ir::ExecMode::kHybrid) {
          result.hybrid_seconds += exec.boundary_scaled_seconds;
        } else {
          result.mpc_seconds += exec.boundary_scaled_seconds;
        }
        break;
      default:
        // Reveal/transfer time on the frontier accrues to mpc_seconds, as the
        // engines performed that work.
        result.mpc_seconds += exec.boundary_scaled_seconds;
        break;
    }
    result.dp_epsilon_spent += exec.dp_epsilon;
  }

  // Critical-path schedule over the job graph: a job starts when all jobs feeding it
  // finish; independent per-party local jobs overlap. Job ids are NOT guaranteed to
  // be a topological order of the job graph (a job keyed by an early node can
  // contain late nodes whose inputs come from jobs created in between — e.g. a join
  // against a table declared mid-chain), so the fold runs as a worklist over the
  // job dependency edges. The finish times are order-independent given their deps,
  // so this computes exactly what the id-order pass computed on plans where id
  // order happened to be topological.
  std::unordered_map<int, double> finish;
  std::unordered_map<int, std::vector<int>> job_dependents;
  std::unordered_map<int, int> unmet_deps;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    std::unordered_set<int> deps;
    for (const ir::OpNode* node : job.nodes) {
      for (const ir::OpNode* in : node->inputs) {
        const int dep_job = state_.node_job.at(in->id);
        if (dep_job != job.id) {
          deps.insert(dep_job);
        }
      }
    }
    unmet_deps[job.id] = static_cast<int>(deps.size());
    for (int dep : deps) {
      job_dependents[dep].push_back(job.id);
    }
  }
  std::vector<int> ready;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    if (unmet_deps[job.id] == 0) {
      ready.push_back(job.id);
    }
  }
  std::unordered_map<int, const compiler::Job*> job_by_id;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    job_by_id[job.id] = &job;
  }
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    const compiler::Job& job = *job_by_id.at(id);
    double start = 0;
    for (const ir::OpNode* node : job.nodes) {
      for (const ir::OpNode* in : node->inputs) {
        const int dep_job = state_.node_job.at(in->id);
        if (dep_job != id) {
          start = std::max(start, finish.at(dep_job));
        }
      }
    }
    finish[id] = start + job_duration[id];
    for (int dependent : job_dependents[id]) {
      if (--unmet_deps[dependent] == 0) {
        ready.push_back(dependent);
      }
    }
  }
  // A cyclic job graph would leave jobs unscheduled; the partitioner never builds
  // one for DAG-shaped queries.
  CONCLAVE_CHECK_EQ(finish.size(), compilation_.plan.jobs.size());
  for (const compiler::Job& job : compilation_.plan.jobs) {
    if (job.kind == compiler::JobKind::kLocal) {
      result.local_seconds += job_duration[job.id];
    }
  }
  for (const compiler::Job& job : compilation_.plan.jobs) {
    result.virtual_seconds = std::max(result.virtual_seconds, finish[job.id]);
  }
  result.counters = state_.net.counters();
  if (state_.fault != nullptr) {
    // Recovery rides the critical path: everything up to here is bit-identical
    // to the fault-free run (fault charges never touch the meter or counters),
    // so the faulted total is exactly the fault-free total plus the priced
    // recovery time — the chaos fuzzer's headline identity.
    result.fault_report = state_.fault->Report(TopoNodeIds());
    result.virtual_seconds += result.fault_report.recovery_seconds;
  }
  // Beyond-RAM accounting (DESIGN.md §12), folded in topo order like every
  // other total. The priced charge joins the clock once, here — never through
  // node_seconds or the meter — so with a budget the total is exactly the
  // unbounded run's clock plus spill_seconds; with none, the report stays zero
  // and the clock is untouched. Physical SpillStats merge alongside for
  // observability (their layout varies with shard/batch structure).
  result.spill_report.mem_budget_rows = state_.mem_budget_rows;
  for (const NodeExec& exec : execs_) {
    if (exec.spill_priced_seconds > 0) {
      ++result.spill_report.spilling_nodes;
      result.spill_report.spill_passes += exec.spill_passes;
      result.spill_report.spill_seconds += exec.spill_priced_seconds;
    }
    result.spill_report.stats.Merge(exec.spill_stats);
  }
  result.virtual_seconds += result.spill_report.spill_seconds;
  for (const MaterializedValue& value : state_.values) {
    if (value.kind == MaterializedValue::Kind::kCsvSource &&
        value.csv != nullptr) {
      result.csv_peak_parse_rows =
          std::max(result.csv_peak_parse_rows, value.csv->MaxMaterializedRows());
    }
    if (value.kind == MaterializedValue::Kind::kRevealSource &&
        value.reveal != nullptr) {
      result.reveal_peak_rows = std::max(result.reveal_peak_rows,
                                         value.reveal->MaxMaterializedRows());
    }
  }
  return result;
}

}  // namespace

int Dispatcher::DefaultShardCount() {
  return static_cast<int>(env::Int64Knob("CONCLAVE_SHARDS", 1, 1, 1 << 20,
                                         {{"auto", kAutoShardCount}}));
}

bool Dispatcher::DefaultStreamReveal() {
  return env::BoolKnob("CONCLAVE_STREAM_REVEAL", true);
}

StatusOr<ExecutionResult> Dispatcher::Run(
    const ir::Dag& dag, const compiler::Compilation& compilation,
    const std::map<std::string, Relation>& inputs) {
  const bool use_gc =
      compilation.options.mpc_backend == compiler::MpcBackendKind::kOblivC;
  RunState state(model_, seed_, compilation.num_parties, use_gc,
                 compilation.options.use_spark,
                 compilation.options.malicious_security);
  int shards = shard_count_ == 0 ? DefaultShardCount() : shard_count_;
  if (shards == kAutoShardCount) {
    int64_t total_rows = 0;
    for (const auto& [name, relation] : inputs) {
      total_rows += relation.NumRows();
    }
    shards = compiler::ChooseShardCount(compilation.plan, model_,
                                        pool().parallelism(), total_rows);
  }
  state.shard_count = std::max(1, shards);
  // Batch knob: 0 resolves the CONCLAVE_BATCH_ROWS env override; negative
  // (kMaterializeBatchRows) disables fusion entirely (chain stamping is gated
  // on batch_rows > 0).
  state.batch_rows = batch_rows_ == 0 ? DefaultBatchRows() : batch_rows_;
  // Memory-budget knob: 0 resolves the CONCLAVE_MEM_BUDGET env override;
  // negative forces unbounded regardless of the environment.
  state.mem_budget_rows = mem_budget_rows_ == 0
                              ? DefaultMemBudgetRows()
                              : std::max<int64_t>(0, mem_budget_rows_);
  // Stream-reveal knob: 0 resolves the CONCLAVE_STREAM_REVEAL env override
  // (on when unset), > 0 forces streaming, < 0 forces the materializing
  // reveal (the differential harness's baseline arm).
  state.stream_reveal =
      stream_reveal_ == 0 ? DefaultStreamReveal() : stream_reveal_ > 0;

  for (const compiler::Job& job : compilation.plan.jobs) {
    for (const ir::OpNode* node : job.nodes) {
      state.node_job[node->id] = job.id;
    }
  }

  // Fault-injection knob (DESIGN.md §11): an explicit plan wins (a disabled one
  // forces injection off); otherwise the CONCLAVE_FAULT_PLAN env override
  // resolves, failing loud on a malformed value.
  FaultPlan fault_plan;
  if (fault_plan_.has_value()) {
    fault_plan = *fault_plan_;
  } else {
    CONCLAVE_ASSIGN_OR_RETURN(fault_plan, FaultPlan::FromEnv());
  }
  std::optional<FaultInjector> injector;
  if (fault_plan.enabled) {
    injector.emplace(std::move(fault_plan), model_);
    state.fault = &*injector;
    state.net.set_fault_injector(&*injector);
  }

  std::vector<ir::OpNode*> order = dag.TopoOrder();
  // Bind the run's pool to this thread: this is what hands the dispatcher's pool to
  // the MPC lane. Lane nodes execute on the coordinator, and every engine kernel's
  // morsel-level ParallelFor routes through ThreadPool::Current(), so intra-op MPC
  // parallelism shares the same thread budget as the job tasks (workers bind
  // themselves in WorkerLoop) and pool_parallelism=1 stays serial all the way down.
  ThreadPool::Scope scope(&pool());
  JobGraphExecutor executor(
      state, compilation, inputs, pool(),
      std::vector<const ir::OpNode*>(order.begin(), order.end()));
  return executor.Run();
}

}  // namespace backends
}  // namespace conclave
