/**
 * @file
 * Opcode space for the Alewife-style uniform packet format.
 *
 * Per the paper (Section 4.2), opcodes split into two classes:
 *  - protocol opcodes, normally produced/consumed by controller hardware
 *    but also by the LimitLESS trap handler (Table 3 of the paper);
 *  - interrupt opcodes (MSB set), whose format is defined by software and
 *    which always cause an interprocessor interrupt at the destination.
 */

#ifndef LIMITLESS_PROTO_OPCODE_HH
#define LIMITLESS_PROTO_OPCODE_HH

#include <cstddef>
#include <cstdint>

namespace limitless
{

/** Protocol and interrupt opcodes. */
enum class Opcode : std::uint16_t
{
    // Cache-to-memory protocol messages (paper Table 3).
    RREQ = 0x01,   ///< read request
    WREQ = 0x02,   ///< write request
    REPM = 0x03,   ///< replace modified (carries data)
    UPDATE = 0x04, ///< data returned in response to INV of a dirty copy
    ACKC = 0x05,   ///< invalidate acknowledge
    REPC = 0x06,   ///< replace clean notification (chained protocol only)
    WUPD = 0x07,   ///< write-update request (update-mode lines; carries
                   ///< the word index, operation and operand inline)
    RUNC = 0x08,   ///< uncached read: return data, record no pointer
                   ///< (private-only caching baseline)

    // Memory-to-cache protocol messages (paper Table 3).
    RDATA = 0x11, ///< read data (carries data)
    WDATA = 0x12, ///< write data / write permission (carries data)
    INV = 0x13,   ///< invalidate
    BUSY = 0x14,  ///< busy-signal (nack, requester must retry)
    REPC_ACK = 0x15, ///< clean-replacement grant (chained protocol only)
    MUPD = 0x16,   ///< refresh cached copies of an update-mode line
    WACK = 0x17,   ///< write-update complete (carries the old word)

    // Interrupt-class opcodes: MSB set, format defined by software.
    IPI_FLAG = 0x8000,     ///< class bit
    IPI_MESSAGE = 0x8001,  ///< generic active message
    IPI_LOCK_GRANT = 0x8002, ///< FIFO-lock handler grant (Section 6)
    IPI_BLOCK_XFER = 0x8003, ///< block transfer via store-back
};

/** Protocol opcodes are dense below this bound (WACK is the last). */
constexpr std::size_t numProtocolOpcodes =
    static_cast<std::size_t>(Opcode::WACK) + 1;

/** True for interrupt-class opcodes (MSB set, handled in software). */
constexpr bool
isInterruptOpcode(Opcode op)
{
    return (static_cast<std::uint16_t>(op) &
            static_cast<std::uint16_t>(Opcode::IPI_FLAG)) != 0;
}

/** True for cache-coherence protocol opcodes. */
constexpr bool
isProtocolOpcode(Opcode op)
{
    return !isInterruptOpcode(op);
}

/** True for protocol opcodes that carry the memory block's data words. */
constexpr bool
opcodeCarriesData(Opcode op)
{
    switch (op) {
      case Opcode::REPM:
      case Opcode::UPDATE:
      case Opcode::RDATA:
      case Opcode::WDATA:
      case Opcode::MUPD:
        return true;
      default:
        return false;
    }
}

/**
 * True for the opcodes a home node treats as *requests*: they may be
 * BUSY-nacked or parked in the defer buffer during a transaction.
 * Responses (UPDATE, ACKC, REPM data) must always be accepted.
 */
constexpr bool
opcodeIsHomeRequest(Opcode op)
{
    return op == Opcode::RREQ || op == Opcode::WREQ ||
           op == Opcode::REPC || op == Opcode::WUPD ||
           op == Opcode::RUNC;
}

/** Short mnemonic for tracing (implemented in proto/names.cc). */
const char *opcodeName(Opcode op);

} // namespace limitless

#endif // LIMITLESS_PROTO_OPCODE_HH
