// Fixture: rule 13 negative — src/hw/memory.cpp is the one owner of page
// mappings, so mmap/munmap and <sys/mman.h> here are clean.
#include <sys/mman.h>

#include <cstddef>

namespace fixture {

void* map_zero_pages(std::size_t size) {
  return ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}

void unmap_pages(void* pages, std::size_t size) { munmap(pages, size); }

}  // namespace fixture
