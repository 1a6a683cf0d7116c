/**
 * @file
 * A small deterministic streaming hasher (64-bit FNV-1a) used to
 * fingerprint lowered scheduling problems for the DSE solve cache.
 * Not cryptographic; stability across platforms matters more than
 * collision resistance at the cache's scale (hundreds of entries).
 */

#ifndef HILP_SUPPORT_HASH_HH
#define HILP_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hilp {

/**
 * Streaming 64-bit FNV-1a. Feed fields in a fixed order; variable-
 * length data (strings, vectors) must be prefixed with their length
 * by the caller-facing helpers so concatenations cannot collide.
 */
class Hasher
{
  public:
    /** Mix raw bytes. */
    void bytes(const void *data, size_t size);

    /** Mix a 64-bit value. */
    void u64(uint64_t value);

    /** Mix a signed integer. */
    void i64(int64_t value) { u64(static_cast<uint64_t>(value)); }

    /**
     * Mix a double by bit pattern, canonicalizing -0.0 to 0.0 so
     * numerically equal specs fingerprint equally. (NaNs keep their
     * payload; specs never contain NaNs.)
     */
    void f64(double value);

    /** Mix a bool. */
    void boolean(bool value) { u64(value ? 1 : 0); }

    /** Mix a string (length-prefixed). */
    void str(std::string_view value);

    /** The current digest. */
    uint64_t digest() const { return state_; }

  private:
    /** FNV-1a offset basis. */
    uint64_t state_ = 1469598103934665603ull;
};

} // namespace hilp

#endif // HILP_SUPPORT_HASH_HH
