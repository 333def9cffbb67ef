#include "serve/tenant_server.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "util/logging.h"

namespace fieldswap {
namespace serve {

namespace {

const std::vector<double>& BatchSizeBounds() {
  static const std::vector<double> bounds = {1, 2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

}  // namespace

MultiTenantServer::FrontEnd::FrontEnd(bool single_tenant)
    : single_tenant(single_tenant),
      batch_span(single_tenant ? "serve.batch" : "serve.tenant_batch"),
      encode_span(single_tenant ? "serve.encode" : "serve.tenant_encode"),
      predict_span(single_tenant ? "serve.predict" : "serve.tenant_predict") {
  const std::string prefix =
      single_tenant ? "fieldswap.serve." : "fieldswap.serve.tenant.";
  requests = prefix + "requests";
  queue_depth = prefix + "queue_depth";
  batches = prefix + "batches";
  batch_size = prefix + "batch_size";
  packed_docs = prefix + "packed_docs";
  result_cache_hits = prefix + "result_cache_hits";
  result_cache_misses = prefix + "result_cache_misses";
  encoded_cache_hits = prefix + "encoded_cache_hits";
  encoded_cache_misses = prefix + "encoded_cache_misses";
  admission_ms = prefix + "stage.admission_ms";
  queue_wait_ms = prefix + "stage.queue_wait_ms";
  encode_ms = prefix + "stage.encode_ms";
  predict_ms = prefix + "stage.predict_ms";
  latency_ms = prefix + "latency_ms";
  for (int s = 0; s <= static_cast<int>(ServeStatus::kInternalError); ++s) {
    status.push_back(prefix + ServeStatusName(static_cast<ServeStatus>(s)));
  }
}

MultiTenantServer::MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                                     ServeOptions options)
    : MultiTenantServer(std::move(registry), std::move(options),
                        /*single_tenant=*/false) {}

MultiTenantServer::MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                                     ServeOptions options, bool single_tenant)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      front_end_(single_tenant),
      encoded_cache_(static_cast<size_t>(
          options_.encoded_cache_capacity > 0 ? options_.encoded_cache_capacity
                                              : 0)),
      result_cache_(static_cast<size_t>(
          options_.result_cache_capacity > 0 ? options_.result_cache_capacity
                                             : 0)) {
  FS_CHECK(registry_ != nullptr) << "MultiTenantServer needs a ModelRegistry";
  std::string error = options_.Validate();
  FS_CHECK(error.empty()) << error;
  obs::CounterAdd(single_tenant ? "fieldswap.serve.servers_started"
                                : "fieldswap.serve.tenant.servers_started");
}

double MultiTenantServer::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return uptime_.ElapsedMs();
}

ExtractResponse MultiTenantServer::Reject(ServeStatus status,
                                          const std::string& tenant,
                                          const Document& doc,
                                          std::string error) const {
  ExtractResponse response;
  response.status = status;
  response.doc_id = doc.id();
  response.tenant = tenant;
  response.error = std::move(error);
  obs::CounterAdd(front_end_.status[static_cast<size_t>(status)]);
  return response;
}

int64_t MultiTenantServer::RejectLocked(int64_t id, ServeStatus status,
                                        const std::string& tenant,
                                        const Document& doc,
                                        std::string error) {
  ExtractResponse response = Reject(status, tenant, doc, std::move(error));
  const PublishedVersion active = registry_->ActiveEntry(tenant);
  response.tenant_version = active.version;
  if (active.snapshot != nullptr) {
    response.snapshot_version = active.snapshot->version();
  }
  done_[id] = std::move(response);
  return id;
}

int64_t MultiTenantServer::Submit(const std::string& tenant,
                                  const Document& doc, double deadline_ms) {
  // Only the single-tenant front end records admission time; the
  // multi-tenant hot path reads no timer here.
  std::optional<obs::Stopwatch> admission_timer;
  if (front_end_.single_tenant) admission_timer.emplace();
  // Sample the clock before locking: options_.clock_ms is user-supplied
  // and must never run under mu_ (fslint no-lock-across-callback).
  const double now_ms = NowMs();
  std::lock_guard<util::OrderedMutex> lock(mu_);
  int64_t id = next_id_++;
  if (shutdown_) {
    return RejectLocked(id, ServeStatus::kRejectedShutdown, tenant, doc,
                        "server is shut down");
  }
  if (!registry_->Has(tenant)) {
    return RejectLocked(
        id, ServeStatus::kRejectedUnknownTenant, tenant, doc,
        "tenant '" + tenant +
            "' has no published model; publish one to the registry first");
  }
  TenantState& state = tenants_[tenant];
  const TenantQuota quota = registry_->Quota(tenant);
  if (state.queue.size() >= static_cast<size_t>(quota.queue_capacity)) {
    state.stats.rejected_quota++;
    const std::string capacity = std::to_string(quota.queue_capacity);
    if (front_end_.single_tenant) {
      return RejectLocked(
          id, ServeStatus::kRejectedQueueFull, tenant, doc,
          "admission queue full (capacity " + capacity +
              "); retry after draining or raise ServeOptions.queue_capacity");
    }
    return RejectLocked(
        id, ServeStatus::kRejectedQuota, tenant, doc,
        "tenant '" + tenant + "' admission quota exhausted (capacity " +
            capacity +
            "); drain pending requests or raise TenantQuota.queue_capacity");
  }
  double effective_deadline =
      deadline_ms < 0 ? options_.default_deadline_ms : deadline_ms;
  PendingRequest request;
  request.id = id;
  request.doc = doc;
  request.submit_ms = now_ms;
  request.deadline_at_ms =
      effective_deadline > 0 ? request.submit_ms + effective_deadline : 0;
  request.batches_at_submit = batches_run_;
  state.queue.push_back(std::move(request));
  state.stats.submitted++;
  total_queued_++;
  obs::CounterAdd(front_end_.requests);
  obs::GaugeSet(front_end_.queue_depth, static_cast<double>(total_queued_));
  if (admission_timer.has_value()) {
    obs::HistogramObserve(front_end_.admission_ms,
                          admission_timer->ElapsedMs());
  }
  return id;
}

void MultiTenantServer::RunBatchLocked(
    std::unique_lock<util::OrderedMutex>& lock) {
  batch_in_flight_ = true;
  const int64_t batches_before = batches_run_;

  // Turn selection: the first tenant with queued work strictly after the
  // cursor in sorted order, wrapping — the deterministic round-robin.
  auto begin = tenants_.begin(), end = tenants_.end();
  auto turn = end;
  for (auto it = tenants_.upper_bound(cursor_); it != end; ++it) {
    if (!it->second.queue.empty()) {
      turn = it;
      break;
    }
  }
  if (turn == end) {
    for (auto it = begin; it != end; ++it) {
      if (!it->second.queue.empty()) {
        turn = it;
        break;
      }
    }
  }
  FS_CHECK(turn != end) << "leader elected with nothing queued";
  const std::string turn_name = turn->first;
  TenantState& turn_state = turn->second;

  // DRR: credit the quantum, serve up to the deficit (capped by max_batch),
  // carry the remainder; an emptied queue forfeits its leftover credit.
  const TenantQuota quota = registry_->Quota(turn_name);
  turn_state.deficit += quota.batch_quantum;
  const size_t take = std::min(
      {static_cast<size_t>(turn_state.deficit),
       static_cast<size_t>(options_.max_batch), turn_state.queue.size()});
  const PublishedVersion active = registry_->ActiveEntry(turn_name);
  FS_CHECK(active.snapshot != nullptr)
      << "tenant '" << turn_name << "' queued work but has no active snapshot";
  FS_CHECK(!options_.int8_inference || active.snapshot->int8_plan() != nullptr)
      << "ServeOptions.int8_inference is set but tenant '" << turn_name
      << "' active snapshot '" << active.snapshot->version()
      << "' has no int8 plan";

  std::vector<BatchEntry> batch;
  batch.reserve(static_cast<size_t>(options_.max_batch));
  for (size_t i = 0; i < take; ++i) {
    BatchEntry entry;
    entry.request = std::move(turn_state.queue.front());
    turn_state.queue.pop_front();
    entry.tenant = turn_name;
    entry.tenant_version = active.version;
    batch.push_back(std::move(entry));
  }
  turn_state.deficit -= static_cast<int64_t>(take);
  if (turn_state.queue.empty()) turn_state.deficit = 0;
  turn_state.stats.turn_batches++;
  cursor_ = turn_name;

  // Work-conserving cross-tenant packing: leftover batch room goes to
  // other tenants whose active snapshot is the SAME object (shared
  // backbone), in round-robin order after the turn tenant. Packed service
  // is a bonus — it charges no one's deficit and can only fill capacity
  // the turn tenant could not use, so it never delays anyone's turn.
  if (batch.size() < static_cast<size_t>(options_.max_batch)) {
    auto scan = turn;
    for (size_t visited = 0; visited + 1 < tenants_.size(); ++visited) {
      ++scan;
      if (scan == end) scan = begin;
      if (batch.size() >= static_cast<size_t>(options_.max_batch)) break;
      TenantState& other = scan->second;
      if (other.queue.empty()) continue;
      const PublishedVersion entry = registry_->ActiveEntry(scan->first);
      if (entry.snapshot.get() != active.snapshot.get()) continue;
      while (!other.queue.empty() &&
             batch.size() < static_cast<size_t>(options_.max_batch)) {
        BatchEntry be;
        be.request = std::move(other.queue.front());
        other.queue.pop_front();
        be.tenant = scan->first;
        be.tenant_version = entry.version;
        be.packed = true;
        batch.push_back(std::move(be));
        other.stats.packed_docs++;
      }
    }
  }
  total_queued_ -= batch.size();
  obs::GaugeSet(front_end_.queue_depth, static_cast<double>(total_queued_));
  const std::shared_ptr<const ModelSnapshot> snapshot = active.snapshot;
  lock.unlock();

  std::vector<ExtractResponse> responses;
  std::optional<std::string> failure;
  try {
    responses = RunBatch(batch, *snapshot, batches_before);
  } catch (const std::exception& error) {
    failure = error.what();
  } catch (...) {
    failure = "unknown exception";
  }
  if (failure.has_value()) {
    // Every request of a batch that threw still gets exactly one terminal
    // response, and the server stays usable.
    responses.clear();
    for (const BatchEntry& entry : batch) {
      ExtractResponse response =
          Reject(ServeStatus::kInternalError, entry.tenant, entry.request.doc,
                 "batch failed: " + *failure);
      response.tenant_version = entry.tenant_version;
      response.snapshot_version = snapshot->version();
      response.batches_waited =
          batches_before - entry.request.batches_at_submit;
      responses.push_back(std::move(response));
    }
  }

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (responses[i].status == ServeStatus::kOk) {
      TenantState& state = tenants_[batch[i].tenant];
      state.stats.served++;
      state.stats.max_batches_waited = std::max(
          state.stats.max_batches_waited, responses[i].batches_waited);
    }
    done_[batch[i].request.id] = std::move(responses[i]);
  }
  batches_run_++;
  batch_in_flight_ = false;
  cv_.notify_all();
}

std::vector<ExtractResponse> MultiTenantServer::RunBatch(
    const std::vector<BatchEntry>& batch, const ModelSnapshot& snapshot,
    int64_t batches_before) {
  const FrontEnd& names = front_end_;
  FS_TRACE_SPAN(names.batch_span);
  obs::CounterAdd(names.batches);
  const int64_t packed = std::count_if(
      batch.begin(), batch.end(), [](const BatchEntry& e) { return e.packed; });
  if (packed > 0) obs::CounterAdd(names.packed_docs, packed);
  obs::HistogramObserve(names.batch_size, static_cast<double>(batch.size()),
                        BatchSizeBounds());
  const double now = NowMs();
  if (names.single_tenant) {
    for (const BatchEntry& entry : batch) {
      obs::HistogramObserve(names.queue_wait_ms, now - entry.request.submit_ms);
    }
  }

  // Triage in batch order: expired deadlines reject, result-cache hits
  // complete immediately, the rest go to the model. Serial cache traffic
  // keeps hit accounting and LRU order deterministic for a fixed
  // submission order.
  std::vector<ExtractResponse> responses(batch.size());
  std::vector<size_t> live;
  std::vector<uint64_t> keys(batch.size(), 0);
  int64_t result_hits = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchEntry& entry = batch[i];
    ExtractResponse& response = responses[i];
    response.tenant = entry.tenant;
    response.tenant_version = entry.tenant_version;
    response.batches_waited = batches_before - entry.request.batches_at_submit;
    response.snapshot_version = snapshot.version();
    response.doc_id = entry.request.doc.id();
    if (entry.request.deadline_at_ms > 0 &&
        now > entry.request.deadline_at_ms) {
      response.status = ServeStatus::kRejectedDeadline;
      response.error =
          "deadline expired before batching; extend the deadline or reduce "
          "load";
      obs::CounterAdd(names.status[static_cast<size_t>(response.status)]);
      continue;
    }
    keys[i] = SnapshotCacheKey(DocContentHash(entry.request.doc),
                               snapshot.sequence());
    std::shared_ptr<const std::vector<EntitySpan>> cached =
        result_cache_.Get(keys[i]);
    if (cached != nullptr) {
      response.spans = *cached;
      response.cache_hit = true;
      response.encoded_cache_hit = true;
      ++result_hits;
      continue;
    }
    live.push_back(i);
  }
  const int64_t result_misses = static_cast<int64_t>(live.size());
  if (result_hits > 0) obs::CounterAdd(names.result_cache_hits, result_hits);
  if (result_misses > 0) {
    obs::CounterAdd(names.result_cache_misses, result_misses);
  }

  // Encoded-doc cache: serial lookups, parallel encode of the misses,
  // serial inserts in batch order.
  std::vector<std::shared_ptr<const EncodedDoc>> encoded(live.size());
  std::vector<size_t> to_encode;
  for (size_t j = 0; j < live.size(); ++j) {
    encoded[j] = encoded_cache_.Get(keys[live[j]]);
    if (encoded[j] == nullptr) {
      to_encode.push_back(j);
    } else {
      responses[live[j]].encoded_cache_hit = true;
    }
  }
  const int64_t encoded_misses = static_cast<int64_t>(to_encode.size());
  if (result_misses > encoded_misses) {
    obs::CounterAdd(names.encoded_cache_hits, result_misses - encoded_misses);
  }
  if (!to_encode.empty()) {
    obs::CounterAdd(names.encoded_cache_misses, encoded_misses);
    FS_TRACE_SPAN(names.encode_span);
    obs::Stopwatch encode_timer;
    std::vector<std::shared_ptr<const EncodedDoc>> fresh =
        par::ParallelMap(to_encode.size(), [&](size_t k) {
          const Document& doc = batch[live[to_encode[k]]].request.doc;
          return std::make_shared<const EncodedDoc>(
              snapshot.model().EncodeDoc(doc));
        });
    for (size_t k = 0; k < to_encode.size(); ++k) {
      encoded[to_encode[k]] = fresh[k];
      encoded_cache_.Put(keys[live[to_encode[k]]], fresh[k]);
    }
    obs::HistogramObserve(names.encode_ms, encode_timer.ElapsedMs());
  }

  if (!live.empty()) {
    FS_TRACE_SPAN(names.predict_span);
    obs::Stopwatch predict_timer;
    std::vector<std::vector<EntitySpan>> predictions =
        par::ParallelMap(live.size(), [&](size_t j) {
          return snapshot.PredictEncoded(*encoded[j], options_.int8_inference);
        });
    for (size_t j = 0; j < live.size(); ++j) {
      auto shared = std::make_shared<const std::vector<EntitySpan>>(
          std::move(predictions[j]));
      result_cache_.Put(keys[live[j]], shared);
      responses[live[j]].spans = *shared;
    }
    obs::HistogramObserve(names.predict_ms, predict_timer.ElapsedMs());
  }

  const double end_ms = NowMs();
  for (size_t i = 0; i < batch.size(); ++i) {
    responses[i].latency_ms = end_ms - batch[i].request.submit_ms;
    obs::HistogramObserve(names.latency_ms, responses[i].latency_ms);
  }
  return responses;
}

ExtractResponse MultiTenantServer::Wait(int64_t id) {
  std::unique_lock<util::OrderedMutex> lock(mu_);
  FS_CHECK(id >= 1 && id < next_id_)
      << "Wait(" << id << "): this server never issued ticket " << id
      << " (issued so far: 1.." << next_id_ - 1 << ")";
  for (;;) {
    auto it = done_.find(id);
    if (it != done_.end()) {
      ExtractResponse response = std::move(it->second);
      done_.erase(it);
      return response;
    }
    if (!batch_in_flight_ && total_queued_ > 0) {
      // Leader: run one batch, then re-check (our request may have been in
      // it, or still be queued behind others).
      RunBatchLocked(lock);
      continue;
    }
    cv_.wait(lock);
  }
}

ExtractResponse MultiTenantServer::Extract(const std::string& tenant,
                                           const Document& doc,
                                           double deadline_ms) {
  return Wait(Submit(tenant, doc, deadline_ms));
}

std::vector<ExtractResponse> MultiTenantServer::ExtractBatch(
    const std::string& tenant, const std::vector<Document>& docs) {
  std::vector<ExtractResponse> responses(docs.size());
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(registry_->Quota(tenant).queue_capacity));
  for (size_t start = 0; start < docs.size(); start += window) {
    size_t end = std::min(docs.size(), start + window);
    std::vector<int64_t> ids;
    ids.reserve(end - start);
    for (size_t i = start; i < end; ++i) ids.push_back(Submit(tenant, docs[i]));
    for (size_t i = start; i < end; ++i) responses[i] = Wait(ids[i - start]);
  }
  return responses;
}

void MultiTenantServer::Shutdown() {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& [name, state] : tenants_) {
    while (!state.queue.empty()) {
      PendingRequest request = std::move(state.queue.front());
      state.queue.pop_front();
      RejectLocked(request.id, ServeStatus::kRejectedShutdown, name,
                   request.doc,
                   "server shut down while the request was queued");
    }
    state.deficit = 0;
  }
  total_queued_ = 0;
  obs::GaugeSet(front_end_.queue_depth, 0);
  cv_.notify_all();
}

int MultiTenantServer::queue_depth(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : static_cast<int>(it->second.queue.size());
}

TenantStats MultiTenantServer::stats(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

int64_t MultiTenantServer::batches_run() const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  return batches_run_;
}

ShardedTenantService::ShardedTenantService(
    std::shared_ptr<ModelRegistry> registry, int num_shards,
    ServeOptions options) {
  FS_CHECK(num_shards >= 1)
      << "ShardedTenantService needs at least one shard, got " << num_shards;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<MultiTenantServer>(registry, options));
  }
}

int ShardedTenantService::ShardFor(const Document& doc) const {
  return static_cast<int>(DocContentHash(doc) % shards_.size());
}

ExtractResponse ShardedTenantService::Extract(const std::string& tenant,
                                              const Document& doc,
                                              double deadline_ms) {
  return shards_[static_cast<size_t>(ShardFor(doc))]->Extract(tenant, doc,
                                                              deadline_ms);
}

void ShardedTenantService::Shutdown() {
  for (std::unique_ptr<MultiTenantServer>& shard : shards_) {
    shard->Shutdown();
  }
}

}  // namespace serve
}  // namespace fieldswap
