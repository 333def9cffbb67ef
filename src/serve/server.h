#ifndef FIELDSWAP_SERVE_SERVER_H_
#define FIELDSWAP_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "doc/document.h"
#include "serve/cache.h"
#include "serve/snapshot.h"

namespace fieldswap {
namespace serve {

/// Why a request did or did not produce spans.
enum class ServeStatus {
  kOk = 0,
  /// The admission queue was at capacity when the request arrived. The
  /// server never blocks a submitter; shed load is reported immediately.
  kRejectedQueueFull,
  /// The request's deadline expired before a batch picked it up.
  kRejectedDeadline,
  /// The server was shut down while the request was queued (or before it
  /// was submitted).
  kRejectedShutdown,
  /// The tenant's admission quota was exhausted (multi-tenant serving,
  /// serve/tenant_server.h). Backpressure is per tenant: one tenant at its
  /// quota never blocks admission for the others.
  kRejectedQuota,
  /// The request named a tenant the registry has never published a model
  /// for (serve/registry.h).
  kRejectedUnknownTenant,
  /// The batch serving the request threw; `error` holds the exception
  /// text. Every request of that batch gets this response, and the server
  /// keeps serving. Must stay the last status.
  kInternalError,
};

/// Human-readable name of a status ("ok", "rejected_queue_full", ...).
const char* ServeStatusName(ServeStatus status);

/// Outcome of one extraction request.
struct ExtractResponse {
  ServeStatus status = ServeStatus::kOk;
  /// Predicted spans; meaningful only when status == kOk. Bit-identical to
  /// SequenceLabelingModel::Predict on the same snapshot and document.
  std::vector<EntitySpan> spans;
  /// Version label of the snapshot that served (or rejected) the request.
  std::string snapshot_version;
  std::string doc_id;
  /// True when the full prediction was served from the result cache.
  bool cache_hit = false;
  /// True when the document encoding was reused from the encoded-doc cache
  /// (implied true when cache_hit is true).
  bool encoded_cache_hit = false;
  /// Submit-to-completion time. Observability only — never consulted by
  /// the extraction path, so it does not affect determinism.
  double latency_ms = 0;
  /// Actionable description for rejected requests, empty on kOk.
  std::string error;
  /// The tenant that submitted the request. The single-tenant
  /// ExtractionServer serves one unnamed tenant, so it is empty there.
  std::string tenant;
  /// Registry version of the tenant snapshot that served the request. On
  /// the ExtractionServer it counts the snapshot and its SwapSnapshots
  /// (1, 2, ...).
  uint64_t tenant_version = 0;
  /// Whole batches that ran between this request's admission and the batch
  /// that served it. Unlike latency_ms this is a *deterministic* fairness
  /// measure under a deterministic submission order, so tests and benches
  /// can assert scheduling bounds exactly (tests/registry_test.cc).
  int64_t batches_waited = 0;
};

/// Configuration of an ExtractionServer or a MultiTenantServer. All knobs
/// have serving-friendly defaults; Validate() catches nonsensical
/// combinations with an actionable message before the server accepts
/// traffic.
struct ServeOptions {
  /// Most documents coalesced into one encode/predict batch.
  int max_batch = 16;
  /// The single-tenant ExtractionServer's admission quota: a submit finding
  /// that many requests queued is rejected with kRejectedQueueFull rather
  /// than blocking. MultiTenantServer does not read it; each of its tenants
  /// has its own TenantQuota.queue_capacity.
  int queue_capacity = 64;
  /// LRU capacity (entries) of the encoded-document cache; 0 disables.
  int encoded_cache_capacity = 256;
  /// LRU capacity (entries) of the memoized-prediction cache; 0 disables.
  int result_cache_capacity = 256;
  /// Default per-request deadline in milliseconds; 0 = no deadline.
  double default_deadline_ms = 0;
  /// Serve with the snapshot's int8-quantized inference plan instead of the
  /// float forward. Requires snapshots built with with_int8_plan=true
  /// (FS_CHECKed at construction and on every SwapSnapshot). Responses stay
  /// deterministic, but differ from the float path by the quantization
  /// error (bounded by the golden-corpus F1 gate in tests/kernels_test.cc).
  bool int8_inference = false;
  /// Injectable monotonic clock (milliseconds). Defaults to server uptime.
  /// Tests substitute a fake clock to exercise deadline rejection
  /// deterministically.
  std::function<double()> clock_ms;

  /// Empty string when valid, else an actionable error message.
  std::string Validate() const;
};

/// Content hash of everything extraction depends on: domain, page geometry,
/// token texts/boxes/line ids, and annotations. The document id is
/// deliberately excluded (it never reaches the model), so re-submissions of
/// the same page under fresh ids still hit the caches.
uint64_t DocContentHash(const Document& doc);

/// The cache key both servers use: folds the snapshot sequence into the
/// content hash so entries from a retired snapshot can never match
/// requests served by its replacement — and so tenants sharing one
/// backbone snapshot (serve/tenant_server.h) share cache entries.
uint64_t SnapshotCacheKey(uint64_t content_hash, uint64_t snapshot_sequence);

class MultiTenantServer;

/// Batched, deterministic extraction service for one model.
///
/// A front end over the multi-tenant engine (serve/tenant_server.h): the
/// server owns a private ModelRegistry holding one unnamed tenant, whose
/// admission quota is options.queue_capacity and whose DRR quantum is
/// options.max_batch, so each batch drains up to `max_batch` documents in
/// admission order. There is no dedicated server thread; waiters lead
/// batches (leader/follower, see MultiTenantServer). Metrics use the
/// `fieldswap.serve.` family and a full queue is reported as
/// kRejectedQueueFull.
///
/// Each response is a pure function of (snapshot, document content, the
/// int8_inference flag), so results are bit-identical to calling
/// `snapshot->model().Predict(doc)` directly (or the snapshot's int8
/// prediction when int8_inference is set), for any FIELDSWAP_THREADS value,
/// any batch size, and any interleaving of concurrent submitters (enforced
/// by tests/serve_test.cc). Caches are memoization only and cannot change
/// payloads.
///
/// The model snapshot is hot-swappable: SwapSnapshot atomically replaces
/// the pointer; in-flight batches finish on the snapshot they started with,
/// later batches use the replacement, and nothing else keeps the retired
/// snapshot alive. Cache keys include the snapshot sequence, so a swap can
/// never serve stale entries.
class ExtractionServer {
 public:
  ExtractionServer(std::shared_ptr<const ModelSnapshot> snapshot,
                   ServeOptions options = {});
  ~ExtractionServer();

  ExtractionServer(const ExtractionServer&) = delete;
  ExtractionServer& operator=(const ExtractionServer&) = delete;

  /// Enqueues a document. Never blocks: a full queue (or a shut-down
  /// server) completes the request immediately with a rejection.
  /// `deadline_ms` overrides options.default_deadline_ms for this request;
  /// 0 = no deadline, negative = use the default. Returns a ticket for
  /// Wait().
  int64_t Submit(const Document& doc, double deadline_ms = -1);

  /// Blocks until the request's response is available and returns it
  /// (each ticket can be claimed once). Callers waiting here collectively
  /// drive the batcher; see the class comment. FS_CHECK-fails on a ticket
  /// this server never issued.
  ExtractResponse Wait(int64_t id);

  /// Submit + Wait for a single document.
  ExtractResponse Extract(const Document& doc, double deadline_ms = -1);

  /// Runs a whole corpus through the queue/batch machinery, submitting in
  /// windows of the queue capacity so no request is rejected for queue
  /// space. Responses are returned in input order.
  std::vector<ExtractResponse> ExtractBatch(const std::vector<Document>& docs);

  /// Atomically replaces the served snapshot (zero downtime: concurrent
  /// requests are never rejected or blocked by a swap).
  void SwapSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new batches will use.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Rejects all queued requests with kRejectedShutdown, wakes all waiters,
  /// and makes further Submits fail fast. Idempotent.
  void Shutdown();

  /// Requests admitted but not yet picked up by a batch.
  int queue_depth() const;

  const EncodedDocCache& encoded_cache() const;
  const LruCache<std::vector<EntitySpan>>& result_cache() const;

 private:
  std::unique_ptr<MultiTenantServer> engine_;
};

}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_SERVER_H_
