#include "counting_allocator.hpp"

#include <cstdlib>
#include <new>

namespace {

std::size_t g_allocations = 0;

}  // namespace

std::size_t tfmcc::test::allocation_count() { return g_allocations; }

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
