/**
 * @file
 * Analyzer fixture: R9 packet-alloc violations. Raw heap byte
 * storage bypasses the slab pool's size-classed free lists and the
 * checked build's recycle poisoning.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcnsim::fixture {

void
wrongRawAllocations(std::size_t n)
{
    auto *raw = new std::uint8_t[n]; // expect: packet-alloc
    auto owned = std::make_unique<std::uint8_t[]>(n); // expect: packet-alloc
    auto fresh = std::make_unique_for_overwrite<uint8_t[]>(n); // expect: packet-alloc
    auto shared = std::make_shared<std::vector<std::uint8_t>>(n); // expect: packet-alloc
    auto *vec = new std::vector<uint8_t>(n); // expect: packet-alloc
    (void)raw, (void)owned, (void)fresh, (void)shared, (void)vec;
}

void
wrongSuppressionOutOfReach(std::size_t n)
{
    // analyze-ok: packet-alloc (two lines up: the window is one line)
    std::size_t cap = n * 2;
    auto store = std::make_unique<std::uint8_t[]>(cap); // expect: packet-alloc
    (void)store;
}

} // namespace mcnsim::fixture
