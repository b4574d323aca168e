/**
 * @file
 * Analyzer fixture: R6 clean counterpart. Reads go through cdata();
 * data() is fine where the statement writes through it.
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
rightReadViaCdata(const Packet *pkt)
{
    // A comment naming pkt->data() is not a call.
    return checksum(pkt->cdata(), pkt->size());
}

void
rightWriteThrough(Packet &pkt, std::uint8_t v)
{
    pkt.data()[0] = v;
    pkt.data()[1] ^= v;
}

void
rightWriteOnNextLine(Packet *frame, std::size_t off)
{
    frame->data()
        [off] = 0;
}

void
rightAnnotatedAlias(Packet &pkt, std::uint16_t c)
{
    // analyze-ok: packet-cdata (writes the checksum back through p)
    std::uint8_t *p = pkt.data();
    p[0] = static_cast<std::uint8_t>(c >> 8);
}

} // namespace mcnsim::fixture
