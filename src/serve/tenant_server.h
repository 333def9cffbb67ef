#ifndef FIELDSWAP_SERVE_TENANT_SERVER_H_
#define FIELDSWAP_SERVE_TENANT_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "doc/document.h"
#include "obs/timing.h"
#include "par/lock_validator.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/thread_annotations.h"

namespace fieldswap {
namespace serve {

/// Deterministic per-tenant serving counters. Everything here is a pure
/// function of the submission order (no wall clock), so tests can assert
/// fairness bounds exactly rather than statistically.
struct TenantStats {
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t rejected_quota = 0;
  /// Batches this tenant owned as the scheduler's turn tenant.
  int64_t turn_batches = 0;
  /// Documents served by packing into another tenant's batch (possible
  /// only when both tenants' active snapshots are the same object).
  int64_t packed_docs = 0;
  /// p100 of batches_waited over every served request: the most whole
  /// batches any of this tenant's requests sat queued through. The
  /// fairness bound (tests/registry_test.cc) caps this at the number of
  /// active tenants for a tenant submitting within its quantum, no matter
  /// how hard another tenant floods.
  int64_t max_batches_waited = 0;
};

/// The serving engine: one admission queue per tenant of a ModelRegistry,
/// per-tenant quotas, deficit-round-robin batch scheduling, and the one
/// batch body (deadline triage, result cache, encoded cache, parallel
/// encode, parallel predict). Constructed directly it is the multi-tenant
/// front end; ExtractionServer (serve/server.h) is the single-tenant front
/// end over a private one-tenant registry. The front ends differ only in
/// their metric-name family (`fieldswap.serve.tenant.` here,
/// `fieldswap.serve.` there), trace span names, and how a full tenant
/// queue is reported (kRejectedQuota here, kRejectedQueueFull there).
///
/// Batching is leader/follower, with no dedicated threads (creating raw
/// threads outside src/par is banned): the first waiter that finds work
/// and no batch in flight becomes the leader, forms one batch, and runs it
/// on the shared par pool; other waiters block until their response is
/// published. A batch that throws answers each of its requests with
/// kInternalError and the server keeps serving.
///
/// Scheduling: tenants take turns in sorted-name order. At a tenant's
/// turn its deficit grows by its quantum (registry quota) and the batch
/// drains up to min(deficit, max_batch) of its queued documents; unused
/// deficit carries to its next turn, and a drained-empty queue forfeits
/// the remainder — textbook DRR, so a tenant flooding its queue gets
/// exactly its quantum's share per cycle while light tenants are served
/// every cycle. Admission is quota-bounded per tenant (kRejectedQuota),
/// so no tenant can consume another's queue space, and scheduling is
/// work-conserving: a batch with room left packs documents from *other*
/// tenants whose active snapshot is the same object (shared backbone),
/// which costs the turn tenant nothing and shares the batch's encode and
/// predict stages — cross-tenant packing.
///
/// Determinism: every response is a pure function of (tenant's active
/// snapshot, document content, int8_inference). Scheduling decides only
/// *which batch* serves a document, never the response bytes, so each
/// tenant's response stream is bit-identical to a single-tenant
/// ExtractionServer over the same snapshot at any FIELDSWAP_THREADS,
/// batch size, or tenant interleaving (tests/serve_test.cc);
/// batches_waited, by contrast, depends on the submission order only.
/// Caches are keyed by (content hash, snapshot sequence), so tenants
/// sharing a backbone snapshot share cache entries — cross-tenant dedup —
/// while distinct snapshots can never collide.
///
/// Hot swap: the registry is consulted at every batch formation, so
/// Publish/Rollback for one tenant lands atomically between batches and
/// never disturbs in-flight requests or other tenants.
class MultiTenantServer {
 public:
  explicit MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                             ServeOptions options = {});

  MultiTenantServer(const MultiTenantServer&) = delete;
  MultiTenantServer& operator=(const MultiTenantServer&) = delete;

  /// Enqueues a document for `tenant`. Never blocks: unknown tenants,
  /// quota-exhausted tenants, and a shut-down server complete immediately
  /// with the matching rejection. Returns a ticket for Wait().
  int64_t Submit(const std::string& tenant, const Document& doc,
                 double deadline_ms = -1) FS_EXCLUDES(mu_);

  /// Blocks until the response is available (each ticket claimable once).
  /// Waiters collectively drive the batcher; see the class comment.
  /// FS_CHECK-fails on a ticket this server never issued.
  ExtractResponse Wait(int64_t id) FS_EXCLUDES(mu_);

  /// Submit + Wait for one document.
  ExtractResponse Extract(const std::string& tenant, const Document& doc,
                          double deadline_ms = -1);

  /// Runs a corpus for one tenant through the queue/batch machinery in
  /// windows of the tenant's admission quota (so nothing is rejected for
  /// queue space). Responses in input order.
  std::vector<ExtractResponse> ExtractBatch(const std::string& tenant,
                                            const std::vector<Document>& docs);

  /// Rejects everything queued (all tenants) with kRejectedShutdown and
  /// makes further Submits fail fast. Idempotent.
  void Shutdown() FS_EXCLUDES(mu_);

  /// Requests queued for one tenant right now.
  int queue_depth(const std::string& tenant) const;

  /// Deterministic counters for one tenant (zeros for unknown tenants).
  TenantStats stats(const std::string& tenant) const;

  /// Batches executed so far (the clock batches_waited is measured on).
  int64_t batches_run() const;

  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }
  const ServeOptions& options() const { return options_; }

  const EncodedDocCache& encoded_cache() const { return encoded_cache_; }
  const LruCache<std::vector<EntitySpan>>& result_cache() const {
    return result_cache_;
  }

 private:
  friend class ExtractionServer;

  /// What sets the two front ends apart, fixed at construction. Metric
  /// names are built here once, not per request.
  struct FrontEnd {
    explicit FrontEnd(bool single_tenant);

    /// ExtractionServer: a full queue is kRejectedQueueFull naming
    /// ServeOptions.queue_capacity, and the per-request stage histograms
    /// (admission_ms, queue_wait_ms) are recorded. The multi-tenant front
    /// end skips those two: its latency target is the result-cache hit,
    /// where each metric call is a measurable share of the request.
    bool single_tenant;
    const char* batch_span;
    const char* encode_span;
    const char* predict_span;
    std::string requests, queue_depth, batches, batch_size, packed_docs,
        result_cache_hits, result_cache_misses, encoded_cache_hits,
        encoded_cache_misses, admission_ms, queue_wait_ms, encode_ms,
        predict_ms, latency_ms;
    /// Counter per ServeStatus, indexed by its value.
    std::vector<std::string> status;
  };

  /// The single-tenant front end's constructor (serve/server.h).
  MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                    ServeOptions options, bool single_tenant);

  struct PendingRequest {
    int64_t id = 0;
    Document doc;
    double submit_ms = 0;
    double deadline_at_ms = 0;  // absolute; 0 = no deadline
    int64_t batches_at_submit = 0;
  };

  struct TenantState {
    std::deque<PendingRequest> queue;
    int64_t deficit = 0;  // DRR credit, carried across turns
    TenantStats stats;
  };

  /// One document drained into a batch, tagged with its serving identity.
  struct BatchEntry {
    PendingRequest request;
    std::string tenant;
    uint64_t tenant_version = 0;
    bool packed = false;  // served via cross-tenant packing
  };

  double NowMs() const;
  ExtractResponse Reject(ServeStatus status, const std::string& tenant,
                         const Document& doc, std::string error) const;
  /// Completes ticket `id` with a rejection that names the tenant's active
  /// snapshot; returns `id`.
  int64_t RejectLocked(int64_t id, ServeStatus status,
                       const std::string& tenant, const Document& doc,
                       std::string error) FS_REQUIRES(mu_);
  /// Leader path: forms one DRR batch, runs it, publishes responses.
  /// Expects `lock` held; releases it around model work.
  void RunBatchLocked(std::unique_lock<util::OrderedMutex>& lock)
      FS_REQUIRES(mu_);
  /// The batch body, run without the lock. May throw.
  std::vector<ExtractResponse> RunBatch(const std::vector<BatchEntry>& batch,
                                        const ModelSnapshot& snapshot,
                                        int64_t batches_before);

  std::shared_ptr<ModelRegistry> registry_;
  ServeOptions options_;
  const FrontEnd front_end_;
  obs::Stopwatch uptime_;

  mutable util::OrderedMutex mu_{"MultiTenantServer::mu_"};
  std::condition_variable_any cv_;
  // std::map: batch formation iterates tenants, and sorted order is the
  // deterministic round-robin order (fslint no-unordered-iteration).
  std::map<std::string, TenantState> tenants_ FS_GUARDED_BY(mu_);
  // Last turn tenant; the next turn starts after it.
  std::string cursor_ FS_GUARDED_BY(mu_);
  std::unordered_map<int64_t, ExtractResponse> done_ FS_GUARDED_BY(mu_);
  int64_t next_id_ FS_GUARDED_BY(mu_) = 1;
  size_t total_queued_ FS_GUARDED_BY(mu_) = 0;
  int64_t batches_run_ FS_GUARDED_BY(mu_) = 0;
  bool batch_in_flight_ FS_GUARDED_BY(mu_) = false;
  bool shutdown_ FS_GUARDED_BY(mu_) = false;

  // Shared across tenants: keys fold in the snapshot sequence, so tenants
  // on the same backbone snapshot deduplicate work while distinct
  // snapshots can never collide.
  EncodedDocCache encoded_cache_;
  LruCache<std::vector<EntitySpan>> result_cache_;
};

/// N in-process serving shards over one shared registry. Documents route
/// to a shard by content hash, so routing is deterministic and
/// re-submissions of the same page always land on the same shard's
/// caches. With flat snapshots (serve/flat_snapshot.h) published into the
/// shared registry, all shards read one mmap'd weight copy — the
/// in-process analogue of N server processes mapping the same file.
class ShardedTenantService {
 public:
  ShardedTenantService(std::shared_ptr<ModelRegistry> registry,
                       int num_shards, ServeOptions options = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  MultiTenantServer& shard(int index) { return *shards_[index]; }

  /// Deterministic routing: DocContentHash(doc) % num_shards.
  int ShardFor(const Document& doc) const;

  /// Extract on the document's home shard.
  ExtractResponse Extract(const std::string& tenant, const Document& doc,
                          double deadline_ms = -1);

  void Shutdown();

 private:
  std::vector<std::unique_ptr<MultiTenantServer>> shards_;
};

}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_TENANT_SERVER_H_
