// Global operator new/delete replacements for the benchmark binary only (the
// library is never touched). Every allocation bumps a thread-local counter
// while an AllocCounter is open on that thread, which is how the probes get
// exact per-round allocation counts without any hook inside src/.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  if (t_counting) ++t_allocations;
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  if (void* p =
          std::aligned_alloc(alignment, padded == 0 ? alignment : padded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
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

namespace perfbench {

AllocCounter::AllocCounter()
    : start_(t_allocations), was_counting_(t_counting) {
  t_counting = true;
}

AllocCounter::~AllocCounter() { t_counting = was_counting_; }

std::uint64_t AllocCounter::count() const { return t_allocations - start_; }

}  // namespace perfbench
