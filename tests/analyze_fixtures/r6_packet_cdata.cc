/**
 * @file
 * Analyzer fixture: R6 packet-cdata violations. Reading a packet
 * through the mutable data() overload detaches its shared
 * copy-on-write buffer, cloning bytes nobody writes.
 */

#include <cstddef>
#include <cstdint>

namespace mcnsim::fixture {

struct Packet
{
    std::uint8_t *data();
    const std::uint8_t *cdata() const;
    std::size_t size() const;
};

std::uint32_t checksum(const std::uint8_t *p, std::size_t n);

std::uint32_t
wrongReadViaData(Packet *pkt)
{
    return checksum(pkt->data(), pkt->size()); // expect: packet-cdata
}

std::uint8_t
wrongFrameByteRead(Packet &frame)
{
    return frame.data()[0]; // expect: packet-cdata
}

std::uint8_t
wrongSuppressionOutOfReach(Packet &seg)
{
    // analyze-ok: packet-cdata (two lines up: the window is one line)
    const std::uint8_t *p = nullptr;
    p = seg.data(); // expect: packet-cdata
    return p[0];
}

} // namespace mcnsim::fixture
