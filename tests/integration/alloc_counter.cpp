// Counts operator new calls while switched on, so a test can pin how many
// allocations a call costs per element it carries. The replacements live
// in their own file so no caller inlines them.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}
}  // namespace

void count_allocs(bool on) { g_counting.store(on, std::memory_order_relaxed); }
uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
