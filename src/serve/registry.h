#ifndef FIELDSWAP_SERVE_REGISTRY_H_
#define FIELDSWAP_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "par/lock_validator.h"
#include "serve/snapshot.h"
#include "util/thread_annotations.h"

namespace fieldswap {
namespace serve {

/// Per-tenant serving limits, enforced by MultiTenantServer
/// (serve/tenant_server.h).
struct TenantQuota {
  /// Admission quota: most requests a tenant may have queued at once.
  /// A submit past this completes immediately with kRejectedQuota — the
  /// tenant's own backpressure, invisible to every other tenant.
  int queue_capacity = 64;
  /// Deficit-round-robin quantum: documents credited to the tenant each
  /// time the scheduler reaches its turn. Relative quanta are relative
  /// service shares; the effective per-turn service is additionally capped
  /// by ServeOptions.max_batch.
  int batch_quantum = 16;

  /// Empty string when valid, else an actionable error message.
  std::string Validate() const;
};

/// One published entry in a tenant's snapshot lineage.
struct PublishedVersion {
  /// Monotonic per-tenant version number, starting at 1. Never reused:
  /// publishing after a rollback continues the numbering, it does not fork
  /// it, so "version N" identifies one snapshot forever.
  uint64_t version = 0;
  std::shared_ptr<const ModelSnapshot> snapshot;
};

/// Tenant -> versioned snapshot lineage with atomic publish/rollback
/// (ISSUE 8 tentpole). The registry is the source of truth a multi-tenant
/// server consults at every batch: Publish/Rollback take effect atomically
/// — a batch formed before the call serves the old snapshot, a batch
/// formed after serves the new one, and no batch ever sees a half-updated
/// tenant.
///
/// Publish and Rollback keep the lineage append-only: Rollback moves the
/// tenant's *active* cursor to an earlier version but deletes nothing, so a
/// later Rollback (or just Lineage()) can still see every snapshot ever
/// published and a re-publish after rollback continues the monotonic
/// numbering. Replace is the one call that drops a lineage.
///
/// Thread-safe; every method is one short critical section. Snapshots are
/// shared_ptr<const>, so readers hold them safely across any concurrent
/// publish/rollback (tests/registry_test.cc exercises this under TSan).
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes `snapshot` as the tenant's new active version and returns
  /// the assigned (monotonic, per-tenant) version number. First publish
  /// creates the tenant with default quotas.
  uint64_t Publish(const std::string& tenant,
                   std::shared_ptr<const ModelSnapshot> snapshot);

  /// Publishes `snapshot` as the tenant's only version, dropping its
  /// lineage, so the registry holds no retired snapshot alive; numbering
  /// continues. This is ExtractionServer::SwapSnapshot, which has no
  /// rollback to keep versions for. Records no metric.
  uint64_t Replace(const std::string& tenant,
                   std::shared_ptr<const ModelSnapshot> snapshot);

  /// Atomically re-activates an earlier version. Returns false (and
  /// changes nothing) when the tenant or version does not exist.
  bool Rollback(const std::string& tenant, uint64_t version);

  /// The tenant's active snapshot, or null for an unknown tenant.
  std::shared_ptr<const ModelSnapshot> Active(const std::string& tenant) const;

  /// The active version number, or 0 for an unknown tenant.
  uint64_t ActiveVersion(const std::string& tenant) const;

  /// Active version number and snapshot read in one critical section, so a
  /// concurrent publish/rollback can never make the pair inconsistent.
  /// {0, nullptr} for an unknown tenant. This is what the batch scheduler
  /// uses.
  PublishedVersion ActiveEntry(const std::string& tenant) const;

  /// Full append-only lineage (oldest first); empty for unknown tenants.
  std::vector<PublishedVersion> Lineage(const std::string& tenant) const;

  /// All tenant names, sorted (the deterministic scheduling order).
  std::vector<std::string> Tenants() const;

  /// True once the tenant has published at least one snapshot.
  bool Has(const std::string& tenant) const;

  /// Replaces the tenant's quota (FS_CHECKs Validate()). Creating quota
  /// for an unknown tenant is allowed: it applies from its first publish.
  void SetQuota(const std::string& tenant, TenantQuota quota);

  /// The tenant's quota (defaults if never set).
  TenantQuota Quota(const std::string& tenant) const;

 private:
  struct TenantState {
    std::vector<PublishedVersion> lineage;  // append-only, oldest first
    size_t active_index = 0;                // into lineage
    uint64_t next_version = 1;
    TenantQuota quota;
  };

  // Nests under a server's lock: MultiTenantServer admission and batch
  // formation consult the registry while holding their own mu_, so the
  // canonical order is MultiTenantServer::mu_ -> ModelRegistry::mu_
  // (tools/lock_order.txt). Registry methods never call out while locked.
  mutable util::OrderedMutex mu_{"ModelRegistry::mu_"};
  // std::map: Tenants() iterates, and sorted order IS the scheduler's
  // deterministic round-robin order (fslint no-unordered-iteration).
  std::map<std::string, TenantState> tenants_ FS_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_REGISTRY_H_
