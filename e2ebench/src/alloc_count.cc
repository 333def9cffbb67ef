#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace e2ebench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void SetAllocCounting(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace e2ebench

void* operator new(std::size_t size) { return e2ebench::Allocate(size); }
void* operator new[](std::size_t size) { return e2ebench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
