/**
 * @file
 * Analyzer fixture: R9 clean counterpart. Packet bytes come from the
 * pool; other element types and value vectors are not packet
 * storage; a non-packet byte store carries a reason.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcnsim::fixture {

struct BufferPool
{
    std::uint8_t *acquire(std::size_t n);
};

void
rightAllocations(BufferPool &pool, std::size_t n)
{
    std::uint8_t *bytes = pool.acquire(n);
    std::vector<std::uint8_t> local(n);
    auto words = std::make_unique<std::uint32_t[]>(n);
    // A comment about new std::uint8_t[n] allocates nothing.
    (void)bytes, (void)local, (void)words;
}

void
rightAnnotatedStore(std::size_t cap)
{
    // analyze-ok: packet-alloc (socket stream store, not packets)
    auto store = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    (void)store;
}

} // namespace mcnsim::fixture
