#ifndef GANNS_COMMON_SCRATCH_H_
#define GANNS_COMMON_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace ganns {

/// Recycles the byte buffers backing per-block simulated shared memory.
/// Simulator blocks are created and destroyed once per block per kernel
/// launch; routing their arena storage through this per-thread free list
/// makes the steady-state cost of a block zero heap allocations. Buffers are
/// kept per thread, so Acquire/Release never contend, and a stack (not a
/// single slot) keeps nested block contexts on one thread safe.
class SharedArenaPool {
 public:
  /// Pops a recycled buffer (or creates one) and gives it at least
  /// `capacity` bytes of stable storage.
  static std::vector<std::byte> Acquire(std::size_t capacity) {
    auto& pool = FreeList();
    std::vector<std::byte> buffer;
    if (!pool.empty()) {
      buffer = std::move(pool.back());
      pool.pop_back();
    }
    if (buffer.size() < capacity) buffer.resize(capacity);
    return buffer;
  }

  /// Returns a buffer to this thread's free list for reuse.
  static void Release(std::vector<std::byte>&& buffer) {
    FreeList().push_back(std::move(buffer));
  }

 private:
  static std::vector<std::vector<std::byte>>& FreeList() {
    thread_local std::vector<std::vector<std::byte>> free_list;
    return free_list;
  }
};

/// Per-thread reusable buffers for the host search hot loops (brute-force
/// ground truth, beam search, HNSW descent, graph recall): id/distance
/// staging for the batched distance kernels and a (dist, id) heap. Callers
/// clear() what they use; capacity persists across queries on the same
/// worker thread, so the per-query allocation count drops to zero once the
/// high-water mark is reached.
struct SearchScratch {
  std::vector<VertexId> ids;
  std::vector<Dist> dists;
  std::vector<std::pair<Dist, VertexId>> heap;
};

/// Per-thread table indexed by vertex id that remembers, for the current
/// query only, which vertices a search kernel has touched: the iteration
/// that first saw each one and how many copies of it sit in the kernel's
/// result array. The GANNS host fast path (core/ganns_search.cc) uses it to
/// compute each vertex's distance once per query. An entry belongs to the
/// current query only while its stamp equals the table's, so starting a
/// query clears nothing.
struct QueryVertexMemo {
  struct Entry {
    std::uint32_t stamp = 0;
    std::uint32_t iteration = 0;
    std::uint32_t in_result = 0;
  };

  std::vector<Entry> entries;
  std::uint32_t stamp = 0;

  /// Starts a query over vertex ids < num_vertices; returns its stamp.
  std::uint32_t BeginQuery(std::size_t num_vertices) {
    if (entries.size() < num_vertices) entries.resize(num_vertices);
    if (++stamp == 0) {  // wrapped: forget every earlier query
      std::fill(entries.begin(), entries.end(), Entry{});
      stamp = 1;
    }
    return stamp;
  }
};

/// This thread's scratch instance. Distinct nested users on one thread must
/// not pass it across calls that also use it (the hot loops here use it
/// strictly leaf-level).
inline SearchScratch& ThreadLocalSearchScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// This thread's vertex memo (one search kernel at a time per thread).
inline QueryVertexMemo& ThreadLocalQueryVertexMemo() {
  thread_local QueryVertexMemo memo;
  return memo;
}

}  // namespace ganns

#endif  // GANNS_COMMON_SCRATCH_H_
