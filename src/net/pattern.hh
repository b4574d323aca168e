/**
 * @file
 * The test-pattern payload: byte i of a pattern with phase p is
 * (p + i) & 0xff. iperf and MPI bulk sends (TcpSocket::sendPattern)
 * and Packet::makePattern carry it, so it is the bulk of every
 * simulated byte stream.
 *
 * The bytes are copied out of one static 512-byte table (two
 * periods), 256 at a time: a span starting at any phase is a
 * contiguous slice of the table, so a fill is a run of memcpys
 * instead of a byte loop.
 */

#ifndef MCNSIM_NET_PATTERN_HH
#define MCNSIM_NET_PATTERN_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mcnsim::net {

namespace detail {

inline constexpr std::array<std::uint8_t, 512> patternTable = [] {
    std::array<std::uint8_t, 512> t{};
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<std::uint8_t>(i & 0xff);
    return t;
}();

} // namespace detail

/**
 * Call @p f(src, k) for consecutive slices of the @p n-byte pattern
 * starting at @p phase; each slice is at most 256 bytes and points
 * into the static table.
 */
template <class F>
void
forEachPatternSpan(std::size_t phase, std::size_t n, F &&f)
{
    const std::uint8_t *src = detail::patternTable.data() + (phase & 0xff);
    while (n) {
        std::size_t k = n < 256 ? n : 256;
        f(src, k);
        n -= k; // 256 bytes later the phase is the same again
    }
}

/** Write @p n pattern bytes starting at @p phase into @p dst. */
inline void
fillPattern(std::uint8_t *dst, std::size_t phase, std::size_t n)
{
    forEachPatternSpan(phase, n,
                       [&](const std::uint8_t *src, std::size_t k) {
                           std::memcpy(dst, src, k);
                           dst += k;
                       });
}

} // namespace mcnsim::net

#endif // MCNSIM_NET_PATTERN_HH
